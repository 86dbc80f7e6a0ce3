"""Oracle tests for mode synthesis, Stokes textures and topology.

Topological charges are checked against analytically frozen integers
(+1 for the radial/spiral hedgehogs, -1 for their mirror textures, 0
for uniform and dipole textures) and the two independent estimators are
cross-validated against each other.  Stokes profiles are checked
against closed-form radial formulas evaluated per pixel.
"""
from __future__ import annotations

import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hs

from su6lab import field as fd
from su6lab import optics as op
from su6lab import state as st

W = 1.0


def grid256():
    return fd.TransverseGrid(size=256, extent=3.0)


def stokes_for(name, grid=None, n0=1.0):
    grid = grid or grid256()
    e_left, e_right = fd.synthesize(st.named_state(name, n0=n0), grid)
    return fd.stokes_fields(e_left, e_right, grid)


# ------------------------------------------------------------------- grid


def test_grid_pixel_centers_and_symmetry():
    g = fd.TransverseGrid(size=64, extent=2.0)
    assert g.spacing == pytest.approx(4.0 / 64)
    assert g.axis[0] == pytest.approx(-2.0 + g.spacing / 2)
    assert np.allclose(g.axis, -g.axis[::-1])
    assert g.axis.shape == (64,)


@pytest.mark.parametrize("size", [16, 64, 65, 1024])
@pytest.mark.parametrize("extent", [0.7, 3.0, 4.4])
def test_radius_and_azimuth_are_the_meshgrid_formulas_bit_for_bit(size, extent):
    g = fd.TransverseGrid(size=size, extent=extent)
    rr, phi = g.rr, g.phi
    xx, yy = np.meshgrid(g.axis, g.axis, indexing="xy")
    assert rr.tobytes() == np.hypot(xx, yy).tobytes()
    assert phi.tobytes() == np.arctan2(yy, xx).tobytes()
    # computed on each access, so the grid holds no plane of its own
    assert g.rr is not g.rr and g.phi is not g.phi


def test_grid_caches_hold_only_their_own_arrays():
    # the mode stack, disk and bubble bins of a grid-512 texture leave
    # nothing live beyond their arrays: no radius or azimuth plane
    fd._mode_stack.cache_clear()
    fd._disk.cache_clear()
    fd._bubble_bins.cache_clear()
    tracemalloc.start()
    try:
        g = fd.TransverseGrid(size=512, extent=3.0)
        kept = [*fd._mode_stack(g, W), fd._disk(g, 3.0)[0],
                *fd._bubble_bins(g, 3.0, 32, 64, "linear")]
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert live <= sum(a.nbytes for a in kept) + (1 << 20)


def test_writing_into_one_axis_leaves_every_equal_grid_alone():
    # the caches key on grid equality, so an axis that one grid kept and
    # that was written into would reach every equal grid
    def disk_and_bins(g):
        disk, count = fd._disk(g, 3.0)
        return disk.tobytes(), count, fd._bubble_bins(g, 3.0, 8, 16, "linear")[0].tobytes()

    def modes(g):
        return [fd.lg_mode(g, m).tobytes() for m in (1, -1, 0)]

    def clear():
        for cache in (fd._mode_stack, fd._disk, fd._bubble_bins):
            cache.cache_clear()

    clear()
    g = fd.TransverseGrid(64, 3.0)
    want = disk_and_bins(g), modes(g)
    assert want[0][1] == 3228
    g.axis[:] = 0
    clear()
    disk_and_bins(g)  # the caches are built from g
    got = disk_and_bins(fd.TransverseGrid(64, 3.0))
    assert got[1] == 3228 and got == want[0]
    modes(g)
    assert modes(fd.TransverseGrid(64, 3.0)) == want[1]
    assert g.axis is not g.axis


@pytest.mark.parametrize("size,extent,message", [
    (8, 3.0, "size must be an integer >= 16, got 8"),
    (64.0, 3.0, "size must be an integer >= 16, got 64.0"),
    ("64", 3.0, "size must be an integer >= 16, got 64"),
    (True, 3.0, "size must be an integer >= 16, got True"),
    (None, 3.0, "size must be an integer >= 16, got None"),
    (64, 0.0, "extent must be positive and finite, got 0.0"),
])
def test_grid_validation(size, extent, message):
    # refused when built, before numpy sees a size it cannot index with
    with pytest.raises(ValueError) as err:
        fd.TransverseGrid(size=size, extent=extent)
    assert str(err.value) == message


def test_numpy_integer_sizes_are_integers():
    g = fd.TransverseGrid(size=np.int64(32), extent=3.0)
    assert g == fd.TransverseGrid(size=32, extent=3.0)
    tm = fd.soup_bubble(stokes_for("neel_out", grid=g), bins=(np.int64(8), np.int64(16)))
    assert tm.counts.shape == (8, 16)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("extent", [1e308, 1e200, 1e-200, np.float64(1e308)])
def test_grid_refuses_an_extent_without_a_finite_pixel_area(extent):
    # refused before numpy can overflow, and not blamed on the waist
    with pytest.raises(ValueError) as err:
        fd.TransverseGrid(size=16, extent=extent)
    assert str(err.value) == (f"extent {extent} on a grid of size 16 gives a "
                              "pixel area that is zero or not finite")


@pytest.mark.parametrize("extent", [np.inf, np.nan])
def test_grid_refuses_a_non_finite_extent(extent):
    with pytest.raises(ValueError) as err:
        fd.TransverseGrid(size=64, extent=extent)
    assert str(err.value) == f"extent must be positive and finite, got {extent}"


# ------------------------------------------------------------------ modes


def test_lg_modes_are_grid_normalized():
    g = fd.TransverseGrid(size=256, extent=4.0)
    for m in (-1, 0, 1):
        u = fd.lg_mode(g, m, waist=W)
        power = np.sum(np.abs(u) ** 2) * g.area
        assert power == pytest.approx(1.0, abs=1e-12)


def test_lg_mode_rejects_higher_charge():
    with pytest.raises(ValueError, match="m"):
        fd.lg_mode(grid256(), 2, waist=W)


def test_vortex_null_and_gaussian_peak_on_axis():
    g = fd.TransverseGrid(size=65, extent=3.0)   # odd size puts a pixel on axis
    c = 32
    assert abs(g.axis[c]) < 1e-14
    u0 = fd.lg_mode(g, 0, waist=W)
    u1 = fd.lg_mode(g, 1, waist=W)
    assert abs(u1[c, c]) < 1e-12
    assert np.argmax(np.abs(u0)) == c * 65 + c


def test_vortex_envelope_ratio_and_crossing_ring():
    # |u1| / |u0| = sqrt(2) r / w up to the ratio of the two grid
    # normalizers, so the envelopes cross on the ring r = w / sqrt(2)
    g = fd.TransverseGrid(size=256, extent=4.0)
    u0 = np.abs(fd.lg_mode(g, 0, waist=W))
    u1 = np.abs(fd.lg_mode(g, 1, waist=W))
    expected = np.sqrt(2.0) * g.rr / W
    ratio = u1 / u0
    k = ratio[128, 200] / expected[128, 200]
    assert k == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(ratio, k * expected, rtol=1e-9)


def test_vortex_phase_winding_sign():
    g = grid256()
    u1 = fd.lg_mode(g, 1, waist=W)
    um = fd.lg_mode(g, -1, waist=W)
    j = 128 + 40                                  # a pixel on the +y axis side
    i = 128
    phase_up = np.angle(u1[j, i] / abs(u1[j, i]))
    assert phase_up == pytest.approx(np.pi / 2, abs=0.02)
    assert np.allclose(um, np.conj(u1), atol=1e-15)


def test_mode_orthogonality_on_grid():
    g = grid256()
    u0 = fd.lg_mode(g, 0, waist=W)
    u1 = fd.lg_mode(g, 1, waist=W)
    um = fd.lg_mode(g, -1, waist=W)
    assert abs(np.sum(np.conj(u0) * u1)) * g.area < 1e-12
    assert abs(np.sum(np.conj(u1) * um)) * g.area < 1e-12


@pytest.mark.parametrize("size,waist", [(65, 1.0), (64, 0.1), (1024, 1.0)])
def test_lg_modes_are_the_direct_formula_bit_for_bit(size, waist):
    # the odd grid has a phi = 0 row through the vortex null, and waist 0.1
    # underflows the envelope: both show the sign of a zero imaginary part;
    # grid 1024 is the benchmark's
    g = fd.TransverseGrid(size=size, extent=3.0)
    envelope = np.exp(-((g.rr / waist) ** 2))
    for m in (-1, 0, 1):
        if m == 0:
            u = envelope.astype(complex)
        else:
            u = (np.sqrt(2.0) * g.rr / waist) * envelope * np.exp(1j * m * g.phi)
        u = u / np.sqrt(np.sum(np.abs(u) ** 2) * g.area)
        assert fd.lg_mode(g, m, waist=waist).tobytes() == u.tobytes()


def test_mode_stack_is_built_once_per_grid_and_read_only():
    fd._mode_stack.cache_clear()
    g = fd.TransverseGrid(size=64, extent=3.0)
    for name in ("neel_out", "bloch_left", "dipolar"):
        fd.synthesize(st.named_state(name), g, waist=W)
    # an equal grid built anew shares the entry
    fd.synthesize(st.named_state("neel_out"), fd.TransverseGrid(64, 3.0), W)
    info = fd._mode_stack.cache_info()
    assert (info.misses, info.hits) == (1, 3)
    stack = fd._mode_stack(g, W)
    for u in stack:
        assert not u.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            u[:1] = 0
    # m = +1 is the kept array; m = -1 and 0 are rebuilt, read-only, the
    # same bits on every call, from the one entry
    assert fd.lg_mode(g, 1, waist=W) is stack[0]
    for m in (-1, 0):
        u = fd.lg_mode(g, m, waist=W)
        assert u.tobytes() == fd.lg_mode(g, m, waist=W).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            u[0, 0] = 0
    assert fd._mode_stack.cache_info().misses == 1
    with pytest.raises(ValueError, match="waist"):
        fd.lg_mode(g, 1, waist=0.0)


def test_mode_stack_keeps_24_bytes_a_pixel_and_patches_only_where_needed():
    # m = -1 is conj(m = +1) bit for bit at every pixel of an even grid
    # whose envelope does not underflow; the y = 0 half-row of an odd grid
    # and an underflowing envelope (waist 0.1) need patches
    fd._mode_stack.cache_clear()
    g = fd.TransverseGrid(size=512, extent=3.0)
    stack = fd._mode_stack(g, 1.0)
    assert sum(u.nbytes for u in stack) <= 24 * 512 * 512
    assert stack[2].size == 0
    for size, waist in ((65, 1.0), (64, 0.1)):
        plus, _, at, fix = fd._mode_stack(fd.TransverseGrid(size, 3.0), waist)
        assert at.size > 0
        differs = np.conj(plus).reshape(-1)[at].view(np.uint64) != fix.view(np.uint64)
        assert differs.reshape(-1, 2).any(axis=1).all()


# -------------------------------------------------------------- synthesis


@pytest.mark.parametrize("size,waist", [(17, 1.0), (64, 1.0), (65, 1.0), (64, 0.1)])
def test_synthesize_is_the_three_plane_formula_bit_for_bit(size, waist):
    # the three-plane synthesis: the complex modes, built by the direct
    # formula, each times its amplitude.  The amplitudes include exact
    # zeros and negative zeros, whose signs reach the field's zero parts;
    # at waist 0.1 the all -1 amplitudes show a patch of the m = -1 mode
    g = fd.TransverseGrid(size=size, extent=3.0)
    envelope = np.exp(-((g.rr / waist) ** 2))
    modes = [(np.sqrt(2.0) * g.rr / waist) * envelope * np.exp(1j * m * g.phi)
             for m in (1, -1)] + [envelope.astype(complex)]
    modes = [u / np.sqrt(np.sum(np.abs(u) ** 2) * g.area) for u in modes]
    states = [st.named_state(name) for name in ("neel_out", "basis_3", "dipolar")]
    states += [st.CoherentState([complex(0.0, -0.0), 1.0, complex(-1.0, -0.0),
                                 complex(0.5, -0.0), 0.0, complex(-0.0, 1.0)]),
               st.CoherentState([-1.0, -1.0, -1.0, complex(-1.0, -0.0),
                                 complex(0.0, -0.0), 0.0])]
    assert np.signbit(states[-2].alpha[0].imag) and np.signbit(states[-1].alpha[4].imag)
    for state in states:
        a = state.alpha
        want = []
        for amps in (a[:3], a[3:]):
            e = amps[0] * modes[0]
            e += amps[1] * modes[1]
            e += amps[2] * modes[2]
            want.append(e.tobytes())
        assert [e.tobytes() for e in fd.synthesize(state, g, waist)] == want


def test_synthesize_single_basis_state():
    g = grid256()
    e_left, e_right = fd.synthesize(st.named_state("basis_3"), g)
    assert np.allclose(e_left, fd.lg_mode(g, 0, waist=W), atol=1e-15)
    assert np.max(np.abs(e_right)) == 0.0


def test_synthesize_neel_out_composition():
    g = grid256()
    e_left, e_right = fd.synthesize(st.named_state("neel_out"), g)
    assert np.allclose(e_left, fd.lg_mode(g, 0, waist=W) / np.sqrt(2), atol=1e-15)
    assert np.allclose(e_right, fd.lg_mode(g, 1, waist=W) / np.sqrt(2), atol=1e-15)


def test_synthesized_power_is_unit_for_random_states():
    rng = np.random.default_rng(7)
    g = fd.TransverseGrid(size=128, extent=4.0)
    for _ in range(20):
        a = rng.normal(size=6) + 1j * rng.normal(size=6)
        state = st.CoherentState(a)
        e_left, e_right = fd.synthesize(state, g)
        power = np.sum(np.abs(e_left) ** 2 + np.abs(e_right) ** 2) * g.area
        assert power == pytest.approx(1.0, abs=1e-12)


# ----------------------------------------------------------------- stokes


def test_stokes_purity_and_unit_spin():
    rng = np.random.default_rng(3)
    g = fd.TransverseGrid(size=128, extent=3.0)
    for _ in range(5):
        a = rng.normal(size=6) + 1j * rng.normal(size=6)
        e_left, e_right = fd.synthesize(st.CoherentState(a), g)
        sf = fd.stokes_fields(e_left, e_right, g)
        assert np.all(sf.s0 >= 0)
        m = sf.mask
        purity = sf.s1**2 + sf.s2**2 + sf.s3**2 - sf.s0**2
        assert np.max(np.abs(purity[m]) / sf.s0[m] ** 2) < 1e-10
        norms = np.linalg.norm(sf.n[m], axis=-1)
        assert np.allclose(norms, 1.0, atol=1e-12)
        assert np.all(sf.n[~m] == 0.0)


def test_neel_out_radial_profile_matches_closed_form():
    # extent 4w: the grid normalizers of the two mode shapes then agree
    # with their continuum values well below the tolerance; at 3w the
    # truncated tails shift the profile by a few 1e-8
    g = fd.TransverseGrid(size=256, extent=4.0)
    e_left, e_right = fd.synthesize(st.named_state("neel_out"), g, waist=W)
    sf = fd.stokes_fields(e_left, e_right, g)
    m = sf.mask
    t2 = 2.0 * (g.rr / W) ** 2
    n3 = (1.0 - t2) / (1.0 + t2)
    nr = 2.0 * np.sqrt(2.0) * (g.rr / W) / (1.0 + t2)
    assert np.allclose(sf.n[..., 2][m], n3[m], atol=1e-9)
    radial = sf.n[..., 0] * np.cos(g.phi) + sf.n[..., 1] * np.sin(g.phi)
    assert np.allclose(radial[m], nr[m], atol=1e-9)
    # hedgehog: no tangential component anywhere
    tangential = sf.n[..., 0] * np.sin(g.phi) - sf.n[..., 1] * np.cos(g.phi)
    assert np.max(np.abs(tangential[m])) < 1e-12


def test_neel_out_axis_spin_is_north():
    g = fd.TransverseGrid(size=65, extent=3.0)
    e_left, e_right = fd.synthesize(st.named_state("neel_out"), g)
    sf = fd.stokes_fields(e_left, e_right, g)
    assert np.allclose(sf.n[32, 32], (0, 0, 1), atol=1e-12)


def test_s3_field_is_phase_invariant():
    ref = stokes_for("neel_out")
    for phi_s in (0.4, 1.7, 3.0):
        a = np.zeros(6, dtype=complex)
        a[2] = 1 / np.sqrt(2)
        a[3] = np.exp(1j * phi_s) / np.sqrt(2)
        e_left, e_right = fd.synthesize(st.CoherentState(a), ref.grid)
        sf = fd.stokes_fields(e_left, e_right, ref.grid)
        assert np.allclose(sf.s3, ref.s3, atol=1e-15)


def test_uniform_polarization_state_has_constant_spin():
    sf = stokes_for("h_gaussian")
    m = sf.mask
    assert np.allclose(sf.n[m], np.array([1.0, 0.0, 0.0]), atol=1e-12)


@hs.composite
def field_cases(draw):
    """A grid size (some not a multiple of the 32-row strip), six drawn
    amplitudes with some zeroed, and a block of dark pixels or none."""
    size = draw(hs.sampled_from([16, 31, 33, 64, 65, 67]) | hs.integers(16, 80))
    parts = draw(hs.lists(hs.floats(-1.0, 1.0), min_size=12, max_size=12))
    alpha = np.array(parts[:6]) + 1j * np.array(parts[6:])
    alpha[draw(hs.lists(hs.integers(0, 5), max_size=5))] = 0.0
    if not np.any(alpha):
        alpha[2] = 1.0
    dark = None
    if draw(hs.booleans()):
        r, c = draw(hs.integers(0, size - 1)), draw(hs.integers(0, size - 1))
        half = draw(hs.integers(0, 3))
        dark = np.s_[max(r - half, 0):r + half + 1, max(c - half, 0):c + half + 1]
    return size, alpha, dark


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(field_cases())
def test_strip_synthesis_and_stokes_match_the_whole_array_formulas(case):
    size, alpha, dark = case
    g = fd.TransverseGrid(size=size, extent=3.0)
    a = st.CoherentState(alpha).alpha
    modes = [fd.lg_mode(g, m) for m in (1, -1, 0)]
    e_left = a[0] * modes[0]
    e_left += a[1] * modes[1]
    e_left += a[2] * modes[2]
    e_right = a[3] * modes[0]
    e_right += a[4] * modes[1]
    e_right += a[5] * modes[2]
    got = fd.synthesize(st.CoherentState(alpha), g)
    assert [e.tobytes() for e in got] == [e_left.tobytes(), e_right.tobytes()]

    if dark is not None:
        e_left[dark] = e_right[dark] = 0.0
    il = np.abs(e_left) ** 2
    ir = np.abs(e_right) ** 2
    cross = np.conj(e_left) * e_right
    s0 = il + ir
    stokes = [s0, 2.0 * np.real(cross), 2.0 * np.imag(cross), il - ir]
    mask = s0 > 1e-12 * s0.max()
    n = np.zeros((size, size, 3))
    for k in range(3):
        np.divide(stokes[k + 1], s0, out=n[..., k], where=mask)
    sf = fd.stokes_fields(e_left, e_right, g)
    assert [x.tobytes() for x in (sf.s0, sf.s1, sf.s2, sf.s3)] == \
        [x.tobytes() for x in stokes]
    assert np.ascontiguousarray(sf.n).tobytes() == n.tobytes()
    assert np.array_equal(sf.mask, mask)


# --------------------------------------------------------------- topology

CHARGES = [
    ("neel_out", 1.0),
    ("neel_in", 1.0),
    ("bloch_left", 1.0),
    ("bloch_right", 1.0),
    ("antiskyrmion_h", -1.0),
    ("antiskyrmion_v", -1.0),
]


@pytest.mark.parametrize("name,charge", CHARGES)
def test_skyrmion_numbers_of_named_textures(name, charge):
    sf = stokes_for(name)
    s_fd = fd.skyrmion_number(sf, disk_radius=3.0)
    s_bl = fd.skyrmion_number_solid_angle(sf, disk_radius=3.0)
    assert s_bl == pytest.approx(charge, abs=1e-9)
    assert s_fd == pytest.approx(charge, abs=1e-3)
    assert abs(s_fd - s_bl) < 1e-4


# both routes at grid 256, disk 3.0, pinned bit for bit
PINNED_CHARGES = [
    ("neel_out", 0.9999964118587513, 1.0),
    ("neel_in", 0.9999964118587513, 1.0),
    ("bloch_left", 0.9999964118587513, 1.0),
    ("bloch_right", 0.9999964118587513, 1.0),
    ("antiskyrmion_h", -0.9999964118587513, -1.0),
    ("antiskyrmion_v", -0.9999964118587513, -1.0),
]


@pytest.mark.parametrize("name,fd_charge,sa_charge", PINNED_CHARGES)
def test_charge_routes_are_bit_stable(name, fd_charge, sa_charge):
    sf = stokes_for(name)
    assert fd.skyrmion_number(sf, disk_radius=3.0) == fd_charge
    assert fd.skyrmion_number_solid_angle(sf, disk_radius=3.0) == sa_charge
    report = fd.topological_charge(sf, 3.0)
    assert (report.finite_difference, report.solid_angle) == (fd_charge, sa_charge)


@pytest.fixture
def passes(monkeypatch):
    """Disk radius of every topology pass run while the test runs."""
    radii = []
    original = fd._closed_texture

    def counting(sf, disk_radius):
        radii.append(disk_radius)
        return original(sf, disk_radius)

    monkeypatch.setattr(fd, "_closed_texture", counting)
    return radii


def test_one_topology_pass_per_field_and_disk(passes):
    sf = stokes_for("neel_out")
    for r in (3.0, 2.5):
        fd.skyrmion_number(sf, disk_radius=r)
        fd.skyrmion_number_solid_angle(sf, disk_radius=r)
    # the default disk is the grid extent, 3.0
    assert fd.topological_charge(sf) is fd.topological_charge(sf, 3)
    assert passes == [3.0, 2.5]
    # a fresh field of the same state gets its own pass
    fd.skyrmion_number(stokes_for("neel_out"), disk_radius=3.0)
    assert passes == [3.0, 2.5, 3.0]


def test_refused_charge_is_not_kept(passes):
    sf = stokes_for("dipolar")
    messages = []
    for route in (fd.skyrmion_number, fd.skyrmion_number_solid_angle):
        with pytest.raises(ValueError, match="saturat") as exc:
            route(sf, disk_radius=3.0)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert passes == [3.0, 3.0]


def test_stokes_field_arrays_are_read_only():
    sf = stokes_for("neel_out")
    for name in ("s0", "s1", "s2", "s3", "n", "mask"):
        arr = getattr(sf, name)
        assert not arr.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 0


def test_charge_report_diagnostics():
    # the disk reaches past the intensity cutoff, short of the refusal
    g = fd.TransverseGrid(size=64, extent=8.0)
    sf = stokes_for("neel_out", grid=g)
    disk = g.rr <= 4.25
    report = fd.topological_charge(sf, 4.25)
    assert report.undefined_fraction == (disk & ~sf.mask).sum() / disk.sum()
    assert 0.0 < report.undefined_fraction < 0.25
    assert report.solid_angle == pytest.approx(1.0, abs=1e-9)
    assert report.finite_difference == pytest.approx(1.0, abs=2e-2)
    assert np.allclose(report.rim_spin, [0.0, 0.0, -1.0], atol=1e-15)
    assert not report.rim_spin.flags.writeable
    assert 0.0 < report.rim_alignment <= 1.0
    assert report.disk_radius == 4.25
    # a uniform texture saturates exactly and has nothing to close
    uniform = fd.topological_charge(stokes_for("basis_3"), 3.0)
    assert (uniform.closure, uniform.rim_alignment) == (0.0, 1.0)


def test_disk_inside_the_flip_ring_shows_in_the_report():
    # neel_out turns from +z on the axis to -z outside; a disk inside the
    # flip ring closes on the axis spin and the charge reads 0, which the
    # rim spin shows against the full-disk report
    sf = stokes_for("neel_out")
    centre = np.unravel_index(np.argmin(sf.grid.rr), sf.grid.rr.shape)
    small = fd.topological_charge(sf, 0.5)
    full = fd.topological_charge(sf, 3.0)
    assert small.solid_angle == pytest.approx(0.0, abs=1e-9)
    assert small.finite_difference == pytest.approx(0.0, abs=1e-3)
    assert small.rim_spin @ sf.n[centre] > 0
    assert full.solid_angle == pytest.approx(1.0, abs=1e-9)
    assert full.rim_spin @ sf.n[centre] < 0


# The plane kernels against the same formulas on (..., 3) vectors with
# np.einsum, np.cross and np.gradient, which they must repeat bit for
# bit.  A numpy that changes einsum's summation order fails here by name.


def _einsum_triangles(n1, n2, n3):
    num = np.einsum("...i,...i->...", n1, np.cross(n2, n3))
    den = (
        1.0
        + np.einsum("...i,...i->...", n1, n2)
        + np.einsum("...i,...i->...", n2, n3)
        + np.einsum("...i,...i->...", n3, n1)
    )
    return 2.0 * np.arctan2(num, den)


def _einsum_plaquettes(spins):
    a, b = spins[:-1, :-1], spins[:-1, 1:]
    c, d = spins[1:, 1:], spins[1:, :-1]
    return _einsum_triangles(a, b, c) + _einsum_triangles(a, c, d)


def _gradient_diff(values, spacing, axis):
    grad = np.gradient(values, spacing, axis=axis)
    v = np.moveaxis(values, axis, 0)
    g = np.moveaxis(grad, axis, 0)
    g[2:-2] = (v[:-4] - 8.0 * v[1:-3] + 8.0 * v[3:-1] - v[4:]) / (
        12.0 * spacing
    )
    return grad


def _random_spins(size, seed):
    v = np.random.default_rng(seed).normal(size=(size, size, 3))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


@pytest.mark.parametrize("size", [66, 67])
def test_plaquette_kernel_matches_the_vector_formula(size):
    spins = _random_spins(size, size)
    planes = np.ascontiguousarray(np.moveaxis(spins, -1, 0))
    expected = _einsum_plaquettes(spins)
    assert np.array_equal(fd._plaquette_solid_angles(planes), expected)
    # the strip driver the charge pass uses, including a short last strip
    strips = fd._by_strips(fd._plaquette_solid_angles, np.empty((size - 1, size - 1)),
                           planes, 0, 1, np.ones((size - 1, size - 1), dtype=bool))
    assert np.array_equal(strips, expected)


@pytest.mark.parametrize("size", [64, 65])
def test_charge_density_kernel_matches_the_vector_formula(size):
    spins = _random_spins(size, size)
    planes = np.ascontiguousarray(np.moveaxis(spins, -1, 0))
    h = 6.0 / size
    gx = _gradient_diff(spins, h, axis=1)
    gy = _gradient_diff(spins, h, axis=0)
    expected = np.einsum("...i,...i->...", spins, np.cross(gx, gy)) / (4.0 * np.pi)
    assert np.array_equal(fd._charge_density(planes, h), expected)
    strips = fd._by_strips(lambda w: fd._charge_density(w, h), np.empty((size, size)),
                           planes, 2, 2, np.ones((size, size), dtype=bool))
    assert np.array_equal(strips, expected)


@pytest.fixture
def edt_calls(monkeypatch):
    """Count the nearest-pixel searches run while the test runs: the
    package's own rule and the EDT of the reference continuation."""
    from scipy import ndimage

    calls = []

    def counting(original):
        def count(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)
        return count

    monkeypatch.setattr(fd, "_nearest_defined", counting(fd._nearest_defined))
    monkeypatch.setattr(ndimage, "distance_transform_edt",
                        counting(ndimage.distance_transform_edt))
    return calls


def _always_continued(sf, mask):
    from scipy import ndimage

    rows, cols = ndimage.distance_transform_edt(
        ~sf.mask, return_distances=False, return_indices=True
    )
    return np.moveaxis(sf.n, -1, 0)[:, rows, cols]


@hs.composite
def cut_textures(draw):
    """A texture whose spins name their own pixel, (row, col, 0), with a
    drawn defined mask (random, a dark ring or a dark outside) and disk."""
    n = draw(hs.integers(8, 48))
    rng = np.random.default_rng(draw(hs.integers(0, 2**32 - 1)))
    rr = np.hypot(*(np.indices((n, n)) - draw(hs.floats(0.0, n - 1.0))))
    radius = draw(hs.floats(1.0, float(n)))
    shape = draw(hs.sampled_from(["random", "ring", "disk"]))
    if shape == "random":
        defined = rng.random((n, n)) < draw(hs.floats(0.05, 0.95))
    elif shape == "ring":
        defined = np.abs(rr - radius) > draw(hs.floats(0.5, 4.0))
    else:
        defined = rr < radius
    spins = np.stack([*np.indices((n, n), dtype=float), np.zeros((n, n))], axis=-1)
    disk = rr <= draw(hs.floats(0.5, float(n)))
    return SimpleNamespace(n=spins, mask=defined), disk & defined


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(cut_textures())
def test_continuation_picks_the_edt_pixel_for_every_dark_pixel_in_reach(case):
    from scipy import ndimage

    sf, mask = case
    plus = np.zeros((5, 5), dtype=bool)
    plus[2] = plus[:, 2] = True
    targets = ndimage.binary_dilation(mask, structure=plus) & ~sf.mask
    continued = fd._continue_past_cutoff(sf, mask)
    spins = np.moveaxis(sf.n, -1, 0)
    assert np.array_equal(continued[:, ~targets], spins[:, ~targets])
    if targets.any():
        reference = _always_continued(sf, mask)
        assert np.array_equal(continued[:, targets], reference[:, targets])


def _report(sf, disk_radius):
    r = fd.topological_charge(sf, disk_radius)
    return (r.finite_difference, r.solid_angle, r.closure, r.rim_alignment,
            r.undefined_fraction, r.rim_spin.tobytes())


# (grid size, extent, state, disk): dark pixels lie outside every stencil
SKIPPED_CONTINUATION = [
    (64, 3.0, "neel_out", 3.0),
    (64, 3.0, "antiskyrmion_h", 3.0),
    (65, 4.4, "bloch_left", 3.0),
    (64, 8.0, "neel_in", 2.0),
]


@pytest.mark.parametrize("size,extent,name,disk", SKIPPED_CONTINUATION)
def test_skipped_continuation_gives_the_continued_charges(
        size, extent, name, disk, edt_calls, monkeypatch):
    g = fd.TransverseGrid(size=size, extent=extent)
    sf = stokes_for(name, grid=g)
    assert not sf.mask.all()
    skipped = _report(sf, disk)
    assert edt_calls == []
    monkeypatch.setattr(fd, "_continue_past_cutoff", _always_continued)
    assert _report(stokes_for(name, grid=g), disk) == skipped
    assert edt_calls == [1]


def test_continuation_is_skipped_only_where_no_stencil_reads_dark(monkeypatch):
    # disks that end zero to five pixels short of the dark ring: some
    # stencils reach a dark pixel one or two steps away, some none
    g = fd.TransverseGrid(size=64, extent=4.4)
    sf = stokes_for("neel_out", grid=g)
    edge = g.rr[~sf.mask].min()
    radii = edge - g.spacing * np.arange(0.25, 5.0, 0.25)
    skipped = [_report(sf, r) for r in radii]
    monkeypatch.setattr(fd, "_continue_past_cutoff", _always_continued)
    continued = stokes_for("neel_out", grid=g)
    assert [_report(continued, r) for r in radii] == skipped


@pytest.mark.parametrize("step", [(0, -1), (0, 1), (-1, 0), (1, 0)])
@pytest.mark.parametrize("distance", [1, 2, 3])
def test_one_dark_pixel_beside_the_disk(step, distance, edt_calls, monkeypatch):
    # darken the pixel `distance` steps past the outermost disk pixel of
    # the middle row or column; the stencils reach two steps
    g = fd.TransverseGrid(size=64, extent=3.0)
    e_left, e_right = (e.copy() for e in fd.synthesize(st.named_state("neel_out"), g))
    disk = g.rr <= 2.0
    line = disk[32] if step[0] == 0 else disk[:, 32]
    inside = np.flatnonzero(line)
    end = inside[-1] if sum(step) > 0 else inside[0]
    dark = (32, end + step[1] * distance) if step[0] == 0 else (end + step[0] * distance, 32)
    e_left[dark] = e_right[dark] = 0.0
    sf = fd.stokes_fields(e_left, e_right, g)
    assert not sf.mask[dark] and not disk[dark]
    report = _report(sf, 2.0)
    assert edt_calls == ([1] if distance <= 2 else [])
    monkeypatch.setattr(fd, "_continue_past_cutoff", _always_continued)
    assert _report(fd.stokes_fields(e_left, e_right, g), 2.0) == report


def test_continuation_runs_where_a_stencil_reads_a_dark_pixel(edt_calls):
    g = fd.TransverseGrid(size=64, extent=4.4)
    sf = stokes_for("neel_out", grid=g)
    report = fd.topological_charge(sf, 4.0)
    assert edt_calls == [1]
    assert report.undefined_fraction > 0.0
    assert report.solid_angle == pytest.approx(1.0, abs=1e-9)


def _full_square_charge(sf, disk_radius):
    """The charge pass with the whole-array vector formulas: the closed
    texture as one padded copy, the solid angle of every plaquette of the
    (N + 1)^2 square and the density of every pixel of the N^2 square."""
    grid = sf.grid
    disk = grid.rr <= disk_radius
    if not disk.any():
        raise ValueError("integration disk contains no grid pixels")
    undefined = disk & ~sf.mask
    if undefined.sum() > 0.25 * disk.sum():
        pct = round(100.0 * undefined.sum() / disk.sum())
        raise ValueError(
            f"spin texture undefined on {pct}% of the disk pixels; "
            "shrink the disk or raise the intensity"
        )
    mask = disk & sf.mask
    inner = np.zeros_like(mask)
    inner[1:-1, 1:-1] = (mask[1:-1, 1:-1] & mask[:-2, 1:-1] & mask[2:, 1:-1]
                         & mask[1:-1, :-2] & mask[1:-1, 2:])
    rim_spins = sf.n[mask & ~inner]
    mean = rim_spins.mean(axis=0)
    scale = np.linalg.norm(mean)
    n_sat = mean / max(scale, 1e-300)
    alignment = float(np.min(rim_spins @ n_sat))
    if scale < 1e-6 or alignment < 0.0:
        raise ValueError(
            "rim spins do not saturate toward a common direction; the "
            "disk boundary cuts the texture and its charge is undefined"
        )
    padded = np.empty((grid.size + 2, grid.size + 2, 3))
    padded[...] = n_sat
    padded[1:-1, 1:-1][mask] = sf.n[mask]
    omega = _einsum_plaquettes(padded)
    bl_total = omega.sum() / (4.0 * np.pi)
    interior = mask[:-1, :-1] & mask[:-1, 1:] & mask[1:, 1:] & mask[1:, :-1]
    bl_interior = omega[1:-1, 1:-1][interior].sum() / (4.0 * np.pi)
    spins = np.moveaxis(_always_continued(sf, mask), 0, -1)
    h = grid.spacing
    gx = _gradient_diff(spins, h, axis=1)
    gy = _gradient_diff(spins, h, axis=0)
    rho = np.einsum("...i,...i->...", spins, np.cross(gx, gy)) / (4.0 * np.pi)
    plaq = 0.25 * (rho[:-1, :-1] + rho[:-1, 1:] + rho[1:, 1:] + rho[1:, :-1])
    closure = bl_total - bl_interior
    return fd.TopologicalCharge(
        finite_difference=float((plaq[interior] * h * h).sum() + closure),
        solid_angle=float(bl_total), closure=float(closure), rim_spin=n_sat,
        rim_alignment=alignment,
        undefined_fraction=float(undefined.sum() / disk.sum()),
        disk_radius=disk_radius)


def _charge_bits(charge, sf, disk_radius):
    """Every field of the report as exact text (the sign of a zero too), or
    the refusal's message."""
    try:
        r = charge(sf, disk_radius)
    except ValueError as err:
        return str(err)
    return [float(x).hex() for x in (r.finite_difference, r.solid_angle, r.closure,
                                     r.rim_alignment, r.undefined_fraction,
                                     r.disk_radius)] + [r.rim_spin.tobytes()]


@hs.composite
def charge_cases(draw):
    """A texture from drawn or named amplitudes on a grid of drawn size and
    extent, maybe with a dark block, and a disk from two pixels to past the
    corners of the grid."""
    size, alpha, dark = draw(field_cases())
    name = draw(hs.sampled_from([None, "neel_out", "bloch_left", "antiskyrmion_v",
                                 "basis_3", "dipolar", "h_gaussian"]))
    if name is not None:
        alpha = st.named_state(name).alpha
    g = fd.TransverseGrid(size=size, extent=draw(hs.sampled_from([3.0, 4.4, 8.0])))
    e_left, e_right = (e.copy() for e in fd.synthesize(st.CoherentState(alpha), g))
    if dark is not None:
        e_left[dark] = e_right[dark] = 0.0
    radius = draw(hs.floats(2.0 * g.spacing, 1.5 * g.extent))
    return fd.stokes_fields(e_left, e_right, g), radius


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(charge_cases())
def test_disk_span_charge_equals_the_full_square_pass_bit_for_bit(case):
    sf, radius = case
    assert _charge_bits(fd._closed_texture, sf, radius) == \
        _charge_bits(_full_square_charge, sf, radius)


@pytest.mark.parametrize("size,extent,name,disk", [
    (64, 3.0, "neel_out", 3.0),
    (67, 3.0, "bloch_left", 4.5),
    (65, 4.4, "neel_out", 4.0),
    (33, 8.0, "antiskyrmion_h", 5.0),
    (64, 3.0, "dipolar", 3.0),
])
def test_disk_span_charge_on_named_textures(size, extent, name, disk):
    sf = stokes_for(name, grid=fd.TransverseGrid(size=size, extent=extent))
    assert _charge_bits(fd._closed_texture, sf, disk) == \
        _charge_bits(_full_square_charge, sf, disk)


# the charge of a closable texture is the degree of its map onto the
# sphere, so a rotation of the sphere leaves both routes unchanged up to
# rounding (measured: at most 7e-16 over 300 draws at grid 64)
INVARIANCE_TOL = 1e-12


@hs.composite
def closable_states(draw):
    """Pair-sphere states whose flip ring lies 4 to 13 pixels from the axis
    at grid 64, and torus states on the two closable arcs |sin theta_p| <=
    0.9; the dipolar torus states do not close and are left out."""
    phi = draw(hs.floats(-np.pi, np.pi))
    kind = draw(hs.sampled_from(["skyrmion", "antiskyrmion", "torus"]))
    if kind == "torus":
        theta_p = draw(hs.floats(-1.1, 1.1)) + draw(hs.sampled_from([0.0, np.pi]))
        return st.torus_state(theta_p, phi)
    return st.su2_state(draw(hs.floats(np.pi / 3, 2 * np.pi / 3)), phi, kind)


def _both_routes(state):
    g = fd.TransverseGrid(size=64, extent=3.0)
    report = fd.topological_charge(fd.stokes_fields(*fd.synthesize(state, g), g))
    return np.array([report.finite_difference, report.solid_angle])


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(closable_states(), hs.lists(hs.floats(-np.pi, np.pi), min_size=4, max_size=4))
def test_charge_is_unchanged_by_a_uniform_polarization_unitary(state, angles):
    a, b, c, d = angles
    jones = np.exp(1j * a) * np.array([
        [np.exp(1j * b) * np.cos(c), np.exp(1j * d) * np.sin(c)],
        [-np.exp(-1j * d) * np.sin(c), np.exp(-1j * b) * np.cos(c)],
    ])
    turned = st.apply_unitary(state, op._lift_spin(jones))
    assert np.max(np.abs(_both_routes(turned) - _both_routes(state))) <= INVARIANCE_TOL


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(hs.floats(np.pi / 3, 2 * np.pi / 3), hs.floats(-np.pi, np.pi),
       hs.sampled_from(["skyrmion", "antiskyrmion"]))
def test_charge_is_unchanged_along_the_sphere_azimuth(theta, phi, kind):
    moved = _both_routes(st.su2_state(theta, phi, kind))
    assert np.max(np.abs(moved - _both_routes(st.su2_state(theta, 0.0, kind)))) \
        <= INVARIANCE_TOL


def test_uniform_texture_has_exactly_zero_charge():
    sf = stokes_for("basis_3")
    assert fd.skyrmion_number(sf, disk_radius=3.0) == 0.0
    assert fd.skyrmion_number_solid_angle(sf, disk_radius=3.0) == 0.0


def test_dipole_texture_is_coplanar_and_not_closable():
    # the left-right coherence of the dipole is real everywhere, so the
    # spins stay in the S1-S3 plane and the charge density vanishes
    # pointwise; but the rim mixes both poles, so no single saturation
    # direction closes the texture and the charge is refused
    sf = stokes_for("dipolar")
    assert np.max(np.abs(sf.s2)) < 1e-15
    with pytest.raises(ValueError, match="saturat"):
        fd.skyrmion_number(sf, disk_radius=3.0)
    with pytest.raises(ValueError, match="saturat"):
        fd.skyrmion_number_solid_angle(sf, disk_radius=3.0)


def test_charge_independent_of_disk_radius():
    g = fd.TransverseGrid(size=192, extent=4.5)
    e_left, e_right = fd.synthesize(st.named_state("neel_out"), g)
    sf = fd.stokes_fields(e_left, e_right, g)
    values = [
        fd.skyrmion_number(sf, disk_radius=r) for r in (2.0, 2.5, 3.0, 3.5, 4.0)
    ]
    assert max(values) - min(values) < 1e-3


def test_finite_difference_route_converges_with_resolution():
    errors = []
    for size in (64, 128, 256, 512):
        g = fd.TransverseGrid(size=size, extent=3.0)
        e_left, e_right = fd.synthesize(st.named_state("neel_out"), g)
        sf = fd.stokes_fields(e_left, e_right, g)
        errors.append(abs(fd.skyrmion_number(sf, disk_radius=3.0) - 1.0))
    assert errors[3] < errors[2] < errors[1] < errors[0]
    # the route is second order: from 256 to 512 the error falls by 4.91,
    # where the coarser doublings still fall faster (11.0 and 7.08)
    assert 3.5 <= errors[2] / errors[3] <= 5.5


def test_charge_constant_along_phase_sweep():
    g = fd.TransverseGrid(size=128, extent=3.0)
    values = []
    for phi_s in np.linspace(0.0, 2 * np.pi, 7):
        a = np.zeros(6, dtype=complex)
        a[2] = 1 / np.sqrt(2)
        a[3] = np.exp(1j * phi_s) / np.sqrt(2)
        e_left, e_right = fd.synthesize(st.CoherentState(a), g)
        sf = fd.stokes_fields(e_left, e_right, g)
        values.append(fd.skyrmion_number(sf, disk_radius=3.0))
    assert max(values) - min(values) < 1e-3


def test_rejects_disk_with_mostly_dark_interior():
    g = fd.TransverseGrid(size=64, extent=8.0)
    e_left, e_right = fd.synthesize(st.named_state("basis_4"), g)
    sf = fd.stokes_fields(e_left, e_right, g)
    with pytest.raises(ValueError, match="undefined"):
        fd.skyrmion_number(sf, disk_radius=8.0)


# -------------------------------------------------------------- bubble map


def test_radial_profiles_exact_values():
    assert fd.radial_to_polar(0.0, 3.0, "linear") == 0.0
    assert fd.radial_to_polar(3.0, 3.0, "linear") == pytest.approx(np.pi)
    assert fd.radial_to_polar(1.5, 3.0, "linear") == pytest.approx(np.pi / 2)
    assert fd.radial_to_polar(1.5, 3.0, "area") == pytest.approx(np.pi / 3)
    assert fd.radial_to_polar(3.0, 3.0, "area") == pytest.approx(np.pi)
    with pytest.raises(ValueError, match="profile"):
        fd.radial_to_polar(1.0, 3.0, "log")


def test_bubble_map_bins_and_counts():
    sf = stokes_for("neel_out")
    tm = fd.soup_bubble(sf, disk_radius=3.0, bins=(16, 32))
    assert tm.vectors.shape == (16, 32, 3)
    assert tm.counts.shape == (16, 32)
    inside = (sf.grid.rr <= 3.0) & sf.mask
    assert tm.counts.sum() == inside.sum()
    assert tm.disk_radius == 3.0
    assert tm.profile == "linear"
    filled = tm.counts > 0
    norms = np.linalg.norm(tm.vectors[filled], axis=-1)
    assert np.allclose(norms, 1.0, atol=1e-12)
    assert np.all(tm.vectors[~filled] == 0.0)
    # axis pixels land in the north row, boundary pixels in the south row
    assert tm.counts[0].sum() > 0
    assert tm.counts[-1].sum() > 0


def _strip_bubble(sf, disk_radius, bins, profile):
    """The bubble map with the bin of each selected pixel computed on the
    call, strip by strip of 32 rows."""
    grid = sf.grid
    n_theta, n_phi = bins
    sel = (grid.rr <= disk_radius) & sf.mask
    flat = np.empty(np.count_nonzero(sel), dtype=int)
    start = 0
    for i in range(0, grid.size, 32):
        rows = slice(i, i + 32)
        theta = fd.radial_to_polar(grid.rr[rows][sel[rows]], disk_radius, profile)
        phi = grid.phi[rows][sel[rows]]
        i_theta = np.minimum((theta / np.pi * n_theta).astype(int), n_theta - 1)
        i_phi = np.minimum(
            ((phi + np.pi) / (2.0 * np.pi) * n_phi).astype(int), n_phi - 1)
        flat[start:start + theta.size] = i_theta * n_phi + i_phi
        start += theta.size
    counts = np.bincount(flat, minlength=n_theta * n_phi)
    sums = np.zeros((n_theta * n_phi, 3))
    for k in range(3):
        sums[:, k] = np.bincount(flat, weights=sf.n[..., k][sel],
                                 minlength=n_theta * n_phi)
    vectors = np.zeros_like(sums)
    filled = counts > 0
    vectors[filled] = sums[filled] / np.linalg.norm(sums[filled], axis=-1)[:, None]
    return vectors.reshape(n_theta, n_phi, 3), counts.reshape(n_theta, n_phi)


def _bubble_bits(vectors, counts):
    return vectors.tobytes(), counts.dtype, counts.tobytes()


@hs.composite
def disk_cases(draw):
    """A texture from drawn amplitudes on a grid of drawn size and extent,
    maybe with a dark block anywhere and one on the edge of a drawn disk
    (from inside the first pixel to the grid extent), bubble bins and a
    radial profile."""
    size, alpha, dark = draw(field_cases())
    assume(np.linalg.norm(alpha) >= 1e-12)  # CoherentState refuses less
    g = fd.TransverseGrid(size=size, extent=draw(hs.sampled_from([0.7, 3.0, 4.4, 8.0])))
    radius = draw(hs.floats(0.5 * g.spacing, g.extent))
    e_left, e_right = (e.copy() for e in fd.synthesize(st.CoherentState(alpha), g))
    if dark is not None:
        e_left[dark] = e_right[dark] = 0.0
    if draw(hs.booleans()):
        angle, half = draw(hs.floats(-np.pi, np.pi)), draw(hs.integers(0, 2))
        r, c = (int(np.clip((radius * f(angle) + g.extent) / g.spacing, 0, size - 1))
                for f in (np.sin, np.cos))
        edge = np.s_[max(r - half, 0):r + half + 1, max(c - half, 0):c + half + 1]
        e_left[edge] = e_right[edge] = 0.0
    bins = (draw(hs.integers(1, 40)), draw(hs.integers(1, 70)))
    profile = draw(hs.sampled_from(["linear", "area"]))
    return fd.stokes_fields(e_left, e_right, g), radius, bins, profile


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(disk_cases())
def test_cached_disk_geometry_gives_the_per_call_bits(case):
    sf, radius, bins, profile = case
    bubble = _bubble_bits(*_strip_bubble(sf, radius, bins, profile))
    charge = _charge_bits(_full_square_charge, sf, radius)
    fd._disk.cache_clear()
    fd._bubble_bins.cache_clear()
    # cold caches on the first pass, warm on the second; the report kept on
    # the field answers topological_charge the second time, so the pass
    # itself is called there
    for charge_pass in (fd.topological_charge, fd._closed_texture):
        assert _charge_bits(charge_pass, sf, radius) == charge
        tm = fd.soup_bubble(sf, radius, bins, profile)
        assert _bubble_bits(tm.vectors, tm.counts) == bubble


def _whole_plane_bins(g, radius, n_theta, n_phi, profile):
    """The bubble bin of every disk pixel from the whole g.rr and g.phi."""
    rr = g.rr
    disk = rr <= radius
    theta = fd.radial_to_polar(rr[disk], radius, profile)
    i_theta = np.minimum((theta / np.pi * n_theta).astype(int), n_theta - 1)
    i_phi = np.minimum(
        ((g.phi[disk] + np.pi) / (2.0 * np.pi) * n_phi).astype(int), n_phi - 1)
    return disk, i_theta * n_phi + i_phi


@pytest.mark.parametrize("size", [1024, 1025])
def test_disk_and_bins_are_the_whole_plane_formulas_at_the_benchmark_grid(size):
    # the extent, and radii that are the exact radius of a pixel center, so
    # that pixel lies on the circle
    g = fd.TransverseGrid(size=size, extent=3.0)
    rr = g.rr
    radii = [3.0, *(float(rr[i, j]) for i, j in ((700, 300), (512, 900), (3, 500)))]
    for radius, (n_theta, n_phi), profile in zip(
            radii, [(32, 64), (7, 50), (40, 3), (1, 1)],
            ["linear", "area", "linear", "area"]):
        disk, bins = _whole_plane_bins(g, radius, n_theta, n_phi, profile)
        assert fd._disk(g, radius)[0].tobytes() == disk.tobytes()
        assert fd._bubble_bins(g, radius, n_theta, n_phi, profile)[0].tobytes() \
            == bins.astype(np.intp).tobytes()


def test_disk_geometry_is_built_once_per_grid_and_radius_and_read_only():
    fd._disk.cache_clear()
    fd._bubble_bins.cache_clear()
    g = fd.TransverseGrid(size=64, extent=3.0)
    fd.topological_charge(stokes_for("neel_out", grid=g), 2.0)
    for name in ("neel_out", "bloch_left"):
        # an equal grid built anew shares the entries
        fd.soup_bubble(stokes_for(name, grid=fd.TransverseGrid(64, 3.0)), 2.0, (8, 16))
    assert fd._disk.cache_info().misses == 1
    assert fd._bubble_bins.cache_info().misses == 1
    disk, count = fd._disk(g, 2.0)
    bins, counts = fd._bubble_bins(g, 2.0, 8, 16, "linear")
    assert count == np.count_nonzero(disk) == bins.size == counts.sum()
    assert bins.dtype == np.intp
    for arr in (disk, bins, counts):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


@pytest.mark.parametrize("radius", [3.5, 1e300])
@pytest.mark.parametrize("call", [fd.soup_bubble, fd.topological_charge,
                                  fd.skyrmion_number, fd.skyrmion_number_solid_angle])
def test_every_disk_call_rejects_disk_beyond_grid(call, radius, passes):
    # the grid cuts such a disk, so a charge over it would be that of the
    # whole square under the disk's name
    sf = stokes_for("neel_out", grid=fd.TransverseGrid(size=64, extent=3.0))
    for _ in range(2):  # a refusal is not kept
        with pytest.raises(ValueError) as err:
            call(sf, radius)
        assert str(err.value) == f"disk radius {radius} exceeds the grid extent 3.0"
    assert passes == []
    assert sf._charges == {}


@pytest.mark.parametrize("bins,message", [
    ((0, 4), "bins must be positive, got (0, 4)"),
    ((8.0, 16), "bins must be a pair of integers, got (8.0, 16)"),
    (("8", 16), "bins must be a pair of integers, got ('8', 16)"),
    ((True, 16), "bins must be a pair of integers, got (True, 16)"),
    ((8, 16, 3), "bins must be a pair of integers, got (8, 16, 3)"),
    (8, "bins must be a pair of integers, got 8"),
])
def test_bubble_map_refuses_bins_that_are_not_a_positive_pair(bins, message):
    sf = stokes_for("neel_out", grid=fd.TransverseGrid(size=32, extent=3.0))
    with pytest.raises(ValueError) as err:
        fd.soup_bubble(sf, bins=bins)
    assert str(err.value) == message


def test_stokes_fields_refuse_a_field_of_another_grid():
    small = fd.TransverseGrid(size=32, extent=3.0)
    e_left, e_right = fd.synthesize(st.named_state("neel_out"), small)
    with pytest.raises(ValueError) as err:
        fd.stokes_fields(e_left, e_right, fd.TransverseGrid(size=64, extent=3.0))
    assert str(err.value) == "field shape (32, 32) does not match the grid (64, 64)"


def test_neel_out_bubble_covers_the_sphere():
    # the equal-area profile spends pixels evenly over the sphere, so
    # every one of the 32x64 bins is hit; the linear profile squeezes
    # the polar row into a tiny disk and may leave azimuth gaps there
    g = fd.TransverseGrid(size=512, extent=3.0)
    e_left, e_right = fd.synthesize(st.named_state("neel_out"), g)
    sf = fd.stokes_fields(e_left, e_right, g)
    tm = fd.soup_bubble(sf, disk_radius=3.0, bins=(32, 64), profile="area")
    assert np.all(tm.counts > 0)
    linear = fd.soup_bubble(sf, disk_radius=3.0, bins=(32, 64))
    assert np.all(linear.counts[1:] > 0)


def test_bubble_map_area_profile():
    sf = stokes_for("neel_out")
    tm = fd.soup_bubble(sf, disk_radius=3.0, bins=(16, 32), profile="area")
    assert tm.profile == "area"
    assert tm.counts.sum() == ((sf.grid.rr <= 3.0) & sf.mask).sum()


# ----------------------------------------------------------- classification

LABELS = [
    ("neel_out", "neel_out"),
    ("neel_in", "neel_in"),
    ("bloch_left", "bloch_left"),
    ("bloch_right", "bloch_right"),
    ("antiskyrmion_h", "antiskyrmion_h"),
    ("antiskyrmion_v", "antiskyrmion_v"),
    ("dipolar", "dipolar"),
    ("antidipolar", "antidipolar"),
    ("basis_3", "pole"),
    ("basis_4", "pole"),
    ("basis_5", "pole"),
    ("h_gaussian", "other"),
    ("basis_1", "other"),
]


@pytest.mark.parametrize("name,label", LABELS)
def test_classify_named_states(name, label):
    assert fd.classify_texture(st.named_state(name)) == label


def test_classify_tolerance_window():
    half_deg = np.deg2rad(0.5)
    near = st.su2_state(np.pi / 2 + half_deg, 0.0)
    assert fd.classify_texture(near) == "neel_out"
    far = st.su2_state(np.pi / 2 + np.deg2rad(3.0), 0.0)
    assert fd.classify_texture(far) == "intermediate"
    assert fd.classify_texture(far, tol_deg=5.0) == "neel_out"


def test_classify_torus_window():
    assert fd.classify_texture(st.torus_state(np.pi / 2, 0.0)) == "dipolar"
    off = st.torus_state(np.pi / 2 + np.deg2rad(3.0), np.deg2rad(3.0))
    assert fd.classify_texture(off) == "intermediate"
    anti = st.torus_state(3 * np.pi / 2, np.pi)
    assert fd.classify_texture(anti) == "antidipolar"


def test_classify_bench_output_families():
    fig1 = op.parse_bench(op.shipped_bench_path("fig1").read_text())
    assert fd.classify_texture(op.run_bench(fig1)) == "neel_out"
    anti = op.parse_bench(op.shipped_bench_path("antiskyrmion").read_text())
    assert fd.classify_texture(op.run_bench(anti)) == "antiskyrmion_h"
    quarter = op.run_sweep(fig1, "HWP3").frames[9]
    assert fd.classify_texture(quarter) == "neel_in"


# ------------------------------------------------------------ boundaries


@pytest.mark.parametrize("waist", [np.inf, 1e200, 1e-200])
def test_waist_with_no_finite_modes_is_refused(waist):
    # inf is not a waist; 1e200 underflows the vortex ring to zero norm
    # and 1e-200 overflows r / w, so both would give all-NaN modes
    g = fd.TransverseGrid(size=64, extent=3.0)
    expected = ("waist must be positive and finite, got inf" if waist == np.inf
                else f"waist {waist} gives a mode of zero or non-finite norm "
                     "on the grid of size 64 and extent 3.0")
    for m in (1, -1, 0):
        with pytest.raises(ValueError, match=re.escape(expected)):
            fd.lg_mode(g, m, waist=waist)
    with pytest.raises(ValueError, match=re.escape(expected)):
        fd.synthesize(st.named_state("neel_out"), g, waist=waist)


@pytest.mark.parametrize("radius", [np.nan, -1.0, 0.0, np.inf])
def test_disk_radius_must_be_positive_and_finite(radius, passes):
    sf = stokes_for("neel_out", fd.TransverseGrid(size=64, extent=3.0))
    message = re.escape(f"disk radius must be positive and finite, got {radius}")
    for call in (lambda: fd.soup_bubble(sf, disk_radius=radius),
                 lambda: fd.radial_to_polar(0.0, radius),
                 lambda: fd.topological_charge(sf, radius),
                 lambda: fd.skyrmion_number(sf, radius)):
        for _ in range(2):  # a refusal is not kept
            with pytest.raises(ValueError, match=message):
                call()
    assert passes == []
    assert sf._charges == {}


@pytest.mark.parametrize("radius", ["2.5", True, "x", [1.0]])
def test_disk_radius_must_be_a_real_number(radius, passes):
    # the raw value is judged: a numeric string or a bool is not a radius,
    # and every refusal names the disk radius
    sf = stokes_for("neel_out", fd.TransverseGrid(size=32, extent=3.0))
    message = re.escape(f"disk radius must be a real number, got {radius!r}")
    for call in (lambda: fd.soup_bubble(sf, disk_radius=radius),
                 lambda: fd.radial_to_polar(0.0, radius),
                 lambda: fd.topological_charge(sf, radius),
                 lambda: fd.skyrmion_number(sf, radius)):
        with pytest.raises(ValueError, match=message):
            call()
    assert passes == []
    assert sf._charges == {}


def test_disk_missing_every_pixel_keeps_its_message(passes):
    sf = stokes_for("neel_out", fd.TransverseGrid(size=64, extent=3.0))
    for _ in range(2):
        with pytest.raises(ValueError, match="contains no grid pixels"):
            fd.topological_charge(sf, 0.01)
    assert passes == [0.01, 0.01]
    assert fd.soup_bubble(sf, disk_radius=0.01).counts.sum() == 0
