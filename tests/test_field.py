"""Oracle tests for mode synthesis, Stokes textures and topology.

Topological charges are checked against analytically frozen integers
(+1 for the radial/spiral hedgehogs, -1 for their mirror textures, 0
for uniform and dipole textures) and the two independent estimators are
cross-validated against each other.  Stokes profiles are checked
against closed-form radial formulas evaluated per pixel.
"""
from __future__ import annotations

import numpy as np
import pytest

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
    assert g.xx.shape == (64, 64)
    # rows move along y, columns along x
    assert np.allclose(g.xx[0], g.axis)
    assert np.allclose(g.yy[:, 0], g.axis)


def test_grid_validation():
    with pytest.raises(ValueError, match="size"):
        fd.TransverseGrid(size=8, extent=3.0)
    with pytest.raises(ValueError, match="extent"):
        fd.TransverseGrid(size=64, extent=0.0)


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


@pytest.mark.parametrize("size,waist", [(65, 1.0), (64, 0.1)])
def test_lg_modes_are_the_direct_formula_bit_for_bit(size, waist):
    # the odd grid has a phi = 0 row through the vortex null, and waist 0.1
    # underflows the envelope: both show the sign of a zero imaginary part
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
    for m, u in zip((1, -1, 0), stack):
        assert fd.lg_mode(g, m, waist=W) is u
        assert not u.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            u[0, 0] = 0
    with pytest.raises(ValueError, match="waist"):
        fd.lg_mode(g, 1, waist=0.0)


# -------------------------------------------------------------- synthesis


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
    strips = fd._by_strips(fd._plaquette_solid_angles,
                           np.empty((size - 1, size - 1)), planes, 0, 1)
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
    strips = fd._by_strips(lambda w: fd._charge_density(w, h),
                           np.empty((size, size)), planes, 2, 2)
    assert np.array_equal(strips, expected)


@pytest.fixture
def edt_calls(monkeypatch):
    """Count the nearest-pixel transforms run while the test runs."""
    from scipy import ndimage

    calls = []
    original = ndimage.distance_transform_edt

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(ndimage, "distance_transform_edt", counting)
    return calls


def _always_continued(sf, mask):
    from scipy import ndimage

    rows, cols = ndimage.distance_transform_edt(
        ~sf.mask, return_distances=False, return_indices=True
    )
    return np.moveaxis(sf.n, -1, 0)[:, rows, cols]


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
    for size in (64, 128, 256):
        g = fd.TransverseGrid(size=size, extent=3.0)
        e_left, e_right = fd.synthesize(st.named_state("neel_out"), g)
        sf = fd.stokes_fields(e_left, e_right, g)
        errors.append(abs(fd.skyrmion_number(sf, disk_radius=3.0) - 1.0))
    assert errors[2] < errors[1] < errors[0]


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


def test_bubble_map_rejects_disk_beyond_grid():
    sf = stokes_for("neel_out")
    with pytest.raises(ValueError, match="extent"):
        fd.soup_bubble(sf, disk_radius=3.5)


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
