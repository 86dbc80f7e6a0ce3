"""Oracle tests for six-mode coherent states and their sphere/torus geometry.

Expected amplitudes and sphere coordinates are frozen literals; the
invariant radius sqrt(5/3) and the unitary-vs-adjoint correspondence are
checked against direct numpy arithmetic done here in the tests.
"""
from __future__ import annotations

import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hs

from su6lab import algebra as alg
from su6lab import state as st

RNG_SEED = 0
R2 = np.sqrt(2.0)

# amplitude tables, states 1..6 in spin-major order
NAMED_AMPLITUDES = {
    "basis_1": [1, 0, 0, 0, 0, 0],
    "basis_3": [0, 0, 1, 0, 0, 0],
    "neel_out": [0, 0, 1 / R2, 1 / R2, 0, 0],
    "neel_in": [0, 0, 1 / R2, -1 / R2, 0, 0],
    "bloch_left": [0, 0, 1 / R2, 1j / R2, 0, 0],
    "bloch_right": [0, 0, 1 / R2, -1j / R2, 0, 0],
    "antiskyrmion_h": [0, 0, 1 / R2, 0, 1 / R2, 0],
    "antiskyrmion_v": [0, 0, 1 / R2, 0, -1 / R2, 0],
    "dipolar": [0, 0, 1 / R2, 0.5, 0.5, 0],
    "antidipolar": [0, 0, 1 / R2, 0.5, -0.5, 0],
    "h_gaussian": [0, 0, 1 / R2, 0, 0, 1 / R2],
}

# (state name, sphere, expected coords in units hbar*n0)
SPHERE_COORDS = [
    ("neel_out", "skyrmion", (1, 0, 0)),
    ("bloch_left", "skyrmion", (0, 1, 0)),
    ("neel_in", "skyrmion", (-1, 0, 0)),
    ("bloch_right", "skyrmion", (0, -1, 0)),
    ("basis_3", "skyrmion", (0, 0, 1)),
    ("basis_4", "skyrmion", (0, 0, -1)),
    ("antiskyrmion_h", "antiskyrmion", (1, 0, 0)),
    ("antiskyrmion_v", "antiskyrmion", (-1, 0, 0)),
    ("basis_3", "antiskyrmion", (0, 0, 1)),
    ("basis_5", "antiskyrmion", (0, 0, -1)),
    ("neel_out", "oam", (0, 0, 0.5)),
    ("neel_in", "oam", (0, 0, 0.5)),
    ("basis_3", "oam", (0, 0, 0)),
    ("h_gaussian", "polarization", (1, 0, 0)),
    ("basis_1", "polarization", (0, 0, 1)),
]

SPHERE_FN = {
    "skyrmion": st.skyrmion_sphere,
    "antiskyrmion": st.antiskyrmion_sphere,
    "oam": st.oam_sphere,
    "polarization": st.polarization_sphere,
}

SUBSPHERE_EXPECTED = {
    "polarization": {(1, 4), (2, 5), (3, 6)},
    "oam": {(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)},
    "coupling": {(2, 4), (1, 5)},
    "skyrmion": {(3, 4), (2, 6)},
    "antiskyrmion": {(3, 5), (1, 6)},
}


def test_named_state_amplitudes_match_frozen():
    for name, amps in NAMED_AMPLITUDES.items():
        got = st.named_state(name).alpha
        assert np.allclose(got, np.asarray(amps, dtype=complex), atol=1e-15), name


def test_named_state_unknown_name_lists_catalog():
    with pytest.raises(ValueError, match="neel_out"):
        st.named_state("does_not_exist")


def test_construction_normalizes_and_rejects_zero():
    s = st.CoherentState(np.array([2.0, 0, 0, 0, 0, 0j]))
    assert np.linalg.norm(s.alpha) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError, match="[Zz]ero"):
        st.CoherentState(np.zeros(6, dtype=complex))
    with pytest.raises(ValueError, match="6"):
        st.CoherentState(np.ones(5, dtype=complex))
    with pytest.raises(ValueError, match="n0"):
        st.CoherentState(np.ones(6, dtype=complex), n0=-1.0)


@pytest.mark.parametrize("index,value", [
    (0, np.nan), (3, np.inf), (5, complex(1.0, -np.inf)), (2, complex(np.nan, 1.0)),
])
def test_construction_rejects_non_finite_amplitudes(index, value):
    a = np.full(6, 0.5, dtype=complex)
    a[index] = value
    with pytest.raises(ValueError, match=f"amplitude {index + 1} is not finite"):
        st.CoherentState(a)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_construction_rejects_an_overflowing_norm():
    with pytest.raises(ValueError, match="norm overflows"):
        st.CoherentState(np.array([1e300, 1e300, 0, 0, 0, 0], dtype=complex))


@pytest.mark.parametrize("n0", [np.inf, np.nan, -np.inf, 0.0])
def test_construction_rejects_non_finite_photon_number(n0):
    with pytest.raises(ValueError, match="n0 must be positive and finite"):
        st.CoherentState(np.ones(6, dtype=complex), n0=n0)


def test_expectation_rejects_non_hermitian():
    m = np.zeros((6, 6), dtype=complex)
    m[0, 1] = 1.0
    with pytest.raises(ValueError, match="[Hh]ermit"):
        st.expectation(st.named_state("neel_out"), m)


def test_expectation_rejects_nan_matrix():
    with pytest.raises(ValueError, match="not Hermitian"):
        st.expectation(st.named_state("neel_out"), np.full((6, 6), np.nan))


def test_observable_vector_radius_is_sqrt_5_3():
    basis = alg.su6_basis()
    rng = np.random.default_rng(RNG_SEED)
    expected = np.sqrt(5.0 / 3.0)
    for k in range(100):
        a = rng.normal(size=6) + 1j * rng.normal(size=6)
        n0 = float(rng.uniform(0.5, 3.0)) if k % 3 == 0 else 1.0
        s = st.CoherentState(a, n0=n0)
        vec = st.all_expectations(s, basis)
        assert vec.shape == (35,)
        assert np.linalg.norm(vec) == pytest.approx(n0 * expected, abs=1e-12)


def test_sphere_coordinates_of_named_states():
    for name, sphere, coords in SPHERE_COORDS:
        pt = SPHERE_FN[sphere](st.named_state(name))
        assert np.allclose(pt.coords, coords, atol=1e-12), (name, sphere)
        assert pt.kind == sphere


def test_sphere_coordinates_scale_with_photon_number():
    s = st.named_state("neel_out", n0=1.25)
    pt = st.skyrmion_sphere(s)
    assert np.allclose(pt.coords, (1.25, 0, 0), atol=1e-12)


def test_sphere_angles_and_degenerate_azimuth():
    pt = st.skyrmion_sphere(st.named_state("bloch_left"))
    assert pt.theta == pytest.approx(np.pi / 2, abs=1e-12)
    assert pt.phi == pytest.approx(np.pi / 2, abs=1e-12)
    assert not pt.degenerate_azimuth
    pole = st.skyrmion_sphere(st.named_state("basis_3"))
    assert pole.theta == pytest.approx(0.0, abs=1e-12)
    assert pole.phi == 0.0
    assert pole.degenerate_azimuth


@pytest.mark.parametrize("n0", [1e-15, 1e-100])
@pytest.mark.parametrize("name", ["neel_out", "neel_in", "bloch_left",
                                  "bloch_right", "antiskyrmion_h",
                                  "antiskyrmion_v", "dipolar", "basis_3"])
def test_labels_and_sphere_angles_do_not_depend_on_photon_number(name, n0):
    at_one, scaled = st.named_state(name), st.named_state(name, n0=n0)
    assert st.classify_texture(scaled) == st.classify_texture(at_one)
    for sphere in (st.skyrmion_sphere, st.antiskyrmion_sphere,
                   st.oam_sphere, st.polarization_sphere):
        want, got = sphere(at_one), sphere(scaled)
        assert got.degenerate_azimuth == want.degenerate_azimuth
        assert (got.theta, got.phi) == pytest.approx((want.theta, want.phi),
                                                     abs=1e-12)


@pytest.mark.parametrize("n0", [2.5, 1000.0, 1e160, 1e-160, 1e-200, 1e300])
def test_sphere_angles_at_any_photon_number_equal_those_at_one(n0):
    # bit for bit; at the extremes the norm of the scaled coordinates would
    # overflow or underflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name in st.state_names():
            at_one, scaled = st.named_state(name), st.named_state(name, n0=n0)
            for sphere in (st.skyrmion_sphere, st.antiskyrmion_sphere,
                           st.oam_sphere, st.polarization_sphere):
                want, got = sphere(at_one), sphere(scaled)
                assert ((got.theta, got.phi, got.degenerate_azimuth)
                        == (want.theta, want.phi, want.degenerate_azimuth))


@pytest.mark.parametrize("n0", [2.5, 1000.0])
def test_sphere_angles_of_random_states_equal_those_at_one(n0):
    # bit for bit, for amplitudes whose coordinates are not exact binary
    # fractions, with about half of them zeroed on every other state
    rng = np.random.default_rng(RNG_SEED)
    for k in range(200):
        a = rng.normal(size=6) + 1j * rng.normal(size=6)
        if k % 2:
            a[rng.random(6) < 0.5] = 0
        if not a.any():
            continue
        at_one, scaled = st.CoherentState(a), st.CoherentState(a, n0=n0)
        for sphere in (st.skyrmion_sphere, st.antiskyrmion_sphere,
                       st.oam_sphere, st.polarization_sphere):
            want, got = sphere(at_one), sphere(scaled)
            assert ((got.theta, got.phi, got.degenerate_azimuth)
                    == (want.theta, want.phi, want.degenerate_azimuth))


def test_apply_unitary_refuses_a_matrix_of_another_size():
    with pytest.raises(ValueError) as err:
        st.apply_unitary(st.named_state("neel_out"), np.eye(5))
    assert str(err.value) == "unitary must be 6x6, got (5, 5)"


def test_overlap_values():
    no = st.named_state("neel_out")
    ni = st.named_state("neel_in")
    ah = st.named_state("antiskyrmion_h")
    assert st.overlap(no, ni) == pytest.approx(0.0, abs=1e-15)
    assert st.overlap(no, ah) == pytest.approx(0.5, abs=1e-15)
    assert st.overlap(no, no) == pytest.approx(1.0, abs=1e-15)


def test_su2_state_matches_named_points():
    assert np.allclose(
        st.su2_state(np.pi / 2, 0.0).alpha,
        st.named_state("neel_out").alpha,
        atol=1e-15,
    )
    # at phi = pi the half-angle phases leave a global factor, so compare rays
    ni = st.su2_state(np.pi / 2, np.pi)
    assert abs(st.overlap(ni, st.named_state("neel_in"))) == pytest.approx(
        1.0, abs=1e-12
    )
    anti = st.su2_state(np.pi / 2, 0.0, kind="antiskyrmion")
    assert np.allclose(anti.alpha, st.named_state("antiskyrmion_h").alpha, atol=1e-15)
    with pytest.raises(ValueError, match="kind"):
        st.su2_state(0.1, 0.2, kind="nope")


def test_su2_state_round_trip_on_sphere():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(50):
        theta = float(rng.uniform(0.05, np.pi - 0.05))
        phi = float(rng.uniform(-np.pi + 0.01, np.pi - 0.01))
        pt = st.skyrmion_sphere(st.su2_state(theta, phi))
        assert pt.theta == pytest.approx(theta, abs=1e-12)
        assert pt.phi == pytest.approx(phi, abs=1e-12)
        # expected coords from the explicit spherical map
        expected = np.array(
            [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
        )
        assert np.allclose(pt.coords, expected, atol=1e-12)


@pytest.mark.parametrize("build,angles,name,value", [
    (st.su2_state, (np.nan, 0.0), "theta", np.nan),
    (st.su2_state, (0.3, np.inf), "phi", np.inf),
    (st.su2_state, (-np.inf, np.nan), "theta", -np.inf),
    (st.torus_state, (0.0, np.inf), "phi_t", np.inf),
    (st.torus_state, (np.nan, 1.0), "theta_p", np.nan),
    (st.torus_state, (-np.inf, 0.0), "theta_p", -np.inf),
])
def test_family_states_refuse_a_non_finite_angle_by_name(build, angles, name, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before numpy warns
        with pytest.raises(ValueError) as err:
            build(*angles)
    assert str(err.value) == f"angle {name} must be finite, got {value}"


def test_torus_poloidal_radius_is_half():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(50):
        tp = float(rng.uniform(0, 2 * np.pi))
        ft = float(rng.uniform(-np.pi, np.pi))
        n0 = float(rng.uniform(0.5, 2.0))
        s = st.torus_state(tp, ft, n0=n0)
        point = st.state_to_torus(s)
        assert point.poloidal_radius == pytest.approx(0.5 * n0, abs=1e-12)


def test_torus_round_trip():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(100):
        tp = float(rng.uniform(0.02, 2 * np.pi - 0.02))
        if abs(tp - np.pi) < 0.02:
            tp += 0.05
        ft = float(rng.uniform(-np.pi + 0.01, np.pi - 0.01))
        point = st.state_to_torus(st.torus_state(tp, ft))
        assert point.theta_p == pytest.approx(tp, abs=1e-9)
        assert point.phi_t == pytest.approx(ft, abs=1e-9)


def test_torus_named_points():
    dip = st.state_to_torus(st.named_state("dipolar"))
    assert dip.theta_p == pytest.approx(np.pi / 2, abs=1e-12)
    assert dip.phi_t == pytest.approx(0.0, abs=1e-12)
    adip = st.state_to_torus(st.named_state("antidipolar"))
    assert adip.theta_p == pytest.approx(3 * np.pi / 2, abs=1e-12)
    assert abs(adip.phi_t) == pytest.approx(np.pi, abs=1e-12)
    # poles of the poloidal circle: skyrmion and antiskyrmion pair states
    sky = st.state_to_torus(st.named_state("neel_out"))
    assert sky.theta_p == pytest.approx(0.0, abs=1e-12)
    anti = st.state_to_torus(st.named_state("antiskyrmion_h"))
    assert anti.theta_p == pytest.approx(np.pi, abs=1e-12)


def test_torus_rejects_out_of_family_states():
    with pytest.raises(ValueError, match="balanced"):
        st.state_to_torus(st.named_state("basis_3"))
    with pytest.raises(ValueError, match="span"):
        st.state_to_torus(st.named_state("h_gaussian"))


def test_oam_degeneracy_of_opposite_hedgehogs():
    no = st.named_state("neel_out")
    ni = st.named_state("neel_in")
    assert st.overlap(no, ni) == pytest.approx(0.0, abs=1e-15)
    a = st.oam_sphere(no).coords
    b = st.oam_sphere(ni).coords
    assert np.allclose(a, b, atol=1e-14)
    assert np.allclose(a, (0, 0, 0.5), atol=1e-14)


def test_apply_unitary_checks_unitarity():
    s = st.named_state("neel_out")
    with pytest.raises(ValueError, match="[Uu]nitar"):
        st.apply_unitary(s, np.diag([1.0, 1, 1, 1, 1, 0.5]).astype(complex))


@pytest.mark.filterwarnings("error")
def test_apply_unitary_refuses_a_nan_matrix_as_not_unitary():
    # a NaN residual fails the check, before the state sees NaN amplitudes
    with pytest.raises(ValueError) as err:
        st.apply_unitary(st.named_state("neel_out"), np.full((6, 6), np.nan))
    assert str(err.value) == "matrix is not unitary"


def test_double_cover_flips_amplitude_sign():
    s = st.named_state("neel_out")
    u = alg.exp_generator(alg.skyrmion_generators()[1], 2 * np.pi)
    rotated = st.apply_unitary(s, u)
    assert st.overlap(s, rotated) == pytest.approx(-1.0, abs=1e-12)
    # the observable point is unchanged
    assert np.allclose(
        st.skyrmion_sphere(rotated).coords, st.skyrmion_sphere(s).coords, atol=1e-12
    )


def test_correspondence_single_generators():
    basis = alg.su6_basis()
    g = alg.structure_constants(basis)
    adj = alg.adjoint_matrices(g)
    rng = np.random.default_rng(RNG_SEED)
    worst = 0.0
    for _ in range(100):
        a = rng.normal(size=6) + 1j * rng.normal(size=6)
        s = st.CoherentState(a)
        l = int(rng.integers(0, 35))
        angle = float(rng.uniform(0, 2 * np.pi))
        axis = np.zeros(35)
        axis[l] = 1.0
        resid = st.correspondence_residual(s, axis, angle, basis=basis, adjoint=adj)
        worst = max(worst, resid)
    assert worst < 1e-10


def test_correspondence_arbitrary_axes():
    basis = alg.su6_basis()
    adj = alg.adjoint_matrices(alg.structure_constants(basis))
    rng = np.random.default_rng(RNG_SEED + 1)
    worst = 0.0
    for _ in range(20):
        a = rng.normal(size=6) + 1j * rng.normal(size=6)
        s = st.CoherentState(a)
        axis = rng.normal(size=35)
        axis /= np.linalg.norm(axis)
        angle = float(rng.uniform(0, 2 * np.pi))
        resid = st.correspondence_residual(s, axis, angle, basis=basis, adjoint=adj)
        worst = max(worst, resid)
    assert worst < 1e-10


def test_correspondence_residual_is_what_it_says():
    # recompute both paths locally for one case and compare
    basis = alg.su6_basis()
    adj = alg.adjoint_matrices(alg.structure_constants(basis))
    s = st.named_state("dipolar")
    axis = np.zeros(35)
    axis[13] = 1.0
    angle = 0.9
    rotated = st.all_expectations(
        st.apply_unitary(s, alg.exp_generator(basis.matrices[13], angle)), basis
    )
    classical = alg.exp_adjoint(adj, axis, angle) @ st.all_expectations(s, basis)
    expected = float(np.max(np.abs(rotated - classical)))
    got = st.correspondence_residual(s, axis, angle, basis=basis, adjoint=adj)
    assert got == pytest.approx(expected, abs=1e-15)


# fixed example set: the same states, axes and angles on every run
PROPERTY = settings(derandomize=True, max_examples=200, deadline=None,
                    database=None)
UNIT = hs.floats(-1.0, 1.0, allow_nan=False)
SCALE = hs.floats(0.1, 10.0, allow_nan=False)


@hs.composite
def states(draw):
    """Random amplitudes (norm at least 1e-3) with random N0."""
    parts = np.array(draw(hs.lists(UNIT, min_size=12, max_size=12)))
    a = parts[:6] + 1j * parts[6:]
    assume(np.linalg.norm(a) >= 1e-3)
    return st.CoherentState(a, n0=draw(SCALE))


@hs.composite
def unit_axes(draw):
    axis = np.array(draw(hs.lists(UNIT, min_size=35, max_size=35)))
    norm = np.linalg.norm(axis)
    assume(norm >= 1e-3)
    return axis / norm


@hs.composite
def sparse_states(draw):
    """Random amplitudes with about half of them zeroed, at N0 of 1, 2.5 or 1000."""
    parts = np.array(draw(hs.lists(UNIT, min_size=12, max_size=12)))
    zeroed = np.array(draw(hs.lists(hs.booleans(), min_size=6, max_size=6)))
    a = np.where(zeroed, 0.0, parts[:6] + 1j * parts[6:])
    assume(np.linalg.norm(a) >= 1e-3)
    return st.CoherentState(a, n0=draw(hs.sampled_from([1.0, 2.5, 1000.0])))


@pytest.fixture(scope="module")
def adjoint():
    return alg.adjoint_matrices(alg.structure_constants())


@PROPERTY
@given(states())
def test_observable_vector_radius_property(s):
    radius = np.linalg.norm(st.all_expectations(s))
    assert radius == pytest.approx(s.n0 * np.sqrt(5.0 / 3.0), rel=1e-12)


# the orbital and polarization triples as Kronecker products of the su(2)
# and su(3) factors, and the observable vector as one einsum
_KRON_OAM = np.stack([np.kron(np.eye(2), alg.gell_mann_matrices()[j])
                      for j in range(3)])
_KRON_POL = np.stack([np.kron(alg.pauli_matrices()[i], np.eye(3))
                      for i in range(3)])


@PROPERTY
@given(sparse_states())
def test_sphere_coordinates_and_expectations_match_the_kron_reference(s):
    a = s.alpha
    for sphere, triple in ((st.oam_sphere, _KRON_OAM),
                           (st.polarization_sphere, _KRON_POL)):
        want = s.n0 * np.einsum("kij,i,j->k", triple, a.conj(), a).real
        assert sphere(s).coords.tobytes() == want.tobytes()
    mats = alg.su6_basis().matrices
    want = s.n0 * np.einsum("lij,i,j->l", mats, a.conj(), a).real
    assert st.all_expectations(s).tobytes() == want.tobytes()


@PROPERTY
@given(s=states(), axis=unit_axes(), angle=hs.floats(-10.0, 10.0, allow_nan=False))
def test_correspondence_residual_property(adjoint, s, axis, angle):
    resid = st.correspondence_residual(s, axis, angle, basis=alg.su6_basis(),
                                       adjoint=adjoint)
    assert resid < 1e-10


@PROPERTY
@given(axis=unit_axes(), angle=hs.floats(-10.0, 10.0, allow_nan=False))
def test_exp_adjoint_matches_scipy_expm(adjoint, axis, angle):
    from scipy.linalg import expm

    gen = np.einsum("l,lmn->mn", axis, adjoint.matrices)
    assert np.max(np.abs(alg.exp_adjoint(adjoint, axis, angle)
                         - expm(gen * angle))) < 1e-13


def test_cold_and_warm_transports_give_the_same_residual_bits(adjoint):
    basis = alg.su6_basis()
    s = st.named_state("dipolar")
    axis = np.random.default_rng(RNG_SEED + 2).normal(size=35)
    st._transports.cache_clear()
    cold = st.correspondence_residual(s, axis, 0.7, basis, adjoint)
    warm = st.correspondence_residual(s, axis, 0.7, basis, adjoint)
    assert st._transports.cache_info()[:2] == (1, 1)  # hits, misses
    assert np.float64(warm).tobytes() == np.float64(cold).tobytes()


def test_an_equal_adjoint_does_not_hit_another_objects_transports(adjoint):
    basis = alg.su6_basis()
    s = st.named_state("neel_out")
    axis = np.ones(35)
    twin = alg.AdjointRep(adjoint.matrices.copy(), adjoint.closure_constant)
    st._transports.cache_clear()
    st.correspondence_residual(s, axis, 0.3, basis, adjoint)
    st.correspondence_residual(s, axis, 0.3, basis, twin)
    assert st._transports.cache_info()[:2] == (0, 2)


def test_a_unitary_that_is_not_is_refused_once_per_transport(monkeypatch, adjoint):
    # correspondence_residual moves each state without apply_unitary, so the
    # check on the cached unitary is the only one its frames get
    monkeypatch.setattr(alg, "exp_generator",
                        lambda gen, angle: 2.0 * np.eye(6, dtype=complex))
    st._transports.cache_clear()
    with pytest.raises(ValueError) as err:
        st.correspondence_residual(st.named_state("dipolar"), np.ones(35), 0.4,
                                   alg.su6_basis(), adjoint)
    assert str(err.value) == "matrix is not unitary"
    assert st._transports.cache_info().currsize == 0


@pytest.mark.parametrize("axis,message", [
    (np.full(35, np.nan), "rotation axis must be finite, got nan"),
    (np.ones(34), "axis must have 35 components, got (34,)"),
    (np.ones((5, 7)), "axis must have 35 components, got (5, 7)"),
    (np.zeros(35), "rotation axis is the zero vector"),
])
def test_correspondence_residual_names_a_bad_axis(adjoint, axis, message):
    # the rotation is built first, so its axis checks speak: a NaN axis was
    # refused as a generator that is not Hermitian, a 34-component one
    # failed inside einsum, and a 5 x 7 one was taken as 35 components
    st._transports.cache_clear()
    with pytest.raises(ValueError) as err:
        st.correspondence_residual(st.named_state("dipolar"), axis, 0.4,
                                   alg.su6_basis(), adjoint)
    assert str(err.value) == message


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("angle", [np.inf, np.nan])
def test_correspondence_residual_blames_the_angle_not_the_state(adjoint, angle):
    with pytest.raises(ValueError) as err:
        st.correspondence_residual(st.named_state("dipolar"), np.ones(35), angle,
                                   alg.su6_basis(), adjoint)
    assert str(err.value) == f"rotation angle must be finite, got {angle}"


# the per-frame geometry by numpy's wrapper functions: np.linalg.norm for
# every norm, np.clip before every arccos, and apply_unitary, which checks
# the unitary again on every call
def _wrapper_alpha(amplitudes):
    a = np.asarray(amplitudes, dtype=complex).reshape(-1)
    return a / float(np.linalg.norm(a))


def _wrapper_point(alpha, n0, triple):
    """(coords, theta, phi, degenerate azimuth) of a sphere point."""
    unit = np.einsum("kij,i,j->k", triple, alpha.conj(), alpha).real
    r = float(np.linalg.norm(unit))
    if r < 1e-14:
        return n0 * unit, 0.0, 0.0, True
    theta = float(np.arccos(np.clip(unit[2] / r, -1.0, 1.0)))
    if float(np.hypot(unit[0], unit[1])) < 1e-14 * max(r, 1.0):
        return n0 * unit, theta, 0.0, True
    return n0 * unit, theta, float(np.arctan2(unit[1], unit[0])), False


def _wrapper_label(s, tol_deg=1.0):
    tol = np.deg2rad(tol_deg)
    w = np.abs(s.alpha) ** 2
    if w[0] + w[1] + w[5] > 1e-9:
        return "other"
    for weight, triple, cardinals in (
            (w[4], alg.skyrmion_generators(), st._SKYRMION_CARDINALS),
            (w[3], alg.antiskyrmion_generators(), st._ANTISKYRMION_CARDINALS)):
        if weight <= 1e-9:
            c = np.einsum("kij,i,j->k", triple, s.alpha.conj(), s.alpha).real
            u = c / np.linalg.norm(c)
            for target, label in cardinals:
                if np.arccos(np.clip(u @ target, -1.0, 1.0)) <= tol:
                    return label
            polar = np.arccos(np.clip(u[2], -1.0, 1.0))
            return "pole" if polar <= tol or polar >= np.pi - tol else "intermediate"
    return st.classify_texture(s)  # the torus branch takes no norm and no arccos


def _bits(*values) -> bytes:
    return np.array(values, dtype=float).tobytes()  # keeps the sign of a zero


_NEAR = hs.sampled_from([0.0, 1e-9, -1e-3, 0.01, -0.03, 0.7])
_CARDINAL = hs.sampled_from([0.0, np.pi / 2, np.pi, 3 * np.pi / 2])


@hs.composite
def geometry_cases(draw):
    """(unnormalized amplitudes, N0): random amplitudes with about half of
    them zeroed, or pair-sphere and torus states at, near and away from
    their named points, so that every label branch is drawn."""
    n0 = draw(hs.sampled_from([1.0, 2.5, 1000.0, 1e160, 1e-160]))
    family = draw(hs.sampled_from(["sparse", "skyrmion", "antiskyrmion", "torus"]))
    if family == "sparse":
        parts = np.array(draw(hs.lists(UNIT, min_size=12, max_size=12)))
        zeroed = np.array(draw(hs.lists(hs.booleans(), min_size=6, max_size=6)))
        a = np.where(zeroed, 0.0, parts[:6] + 1j * parts[6:])
        assume(np.linalg.norm(a) >= 1e-3)
        return a, n0
    theta, phi = (draw(_CARDINAL) + draw(_NEAR) for _ in range(2))
    if family == "torus":
        unit = st.torus_state(theta, phi).alpha
    else:
        unit = st.su2_state(theta, phi, family).alpha
    return draw(hs.sampled_from([1.0, 0.3, 7.0])) * unit, n0


@PROPERTY
@given(case=geometry_cases(), axis=unit_axes(),
       angle=hs.floats(-10.0, 10.0, allow_nan=False))
def test_per_frame_geometry_equals_the_numpy_wrapper_formulas(adjoint, case, axis,
                                                               angle):
    amplitudes, n0 = case
    s = st.CoherentState(amplitudes, n0=n0)
    alpha = _wrapper_alpha(amplitudes)
    assert s.alpha.tobytes() == alpha.tobytes()
    spheres = [(st.skyrmion_sphere, alg.skyrmion_generators()),
               (st.antiskyrmion_sphere, alg.antiskyrmion_generators()),
               (st.oam_sphere, st._OAM_TRIPLE), (st.polarization_sphere, st._POL_TRIPLE)]
    spheres += [(lambda s, p=sub.pair: st.subsphere_point(s, p), sub.triple)
                for sub in st.enumerate_subspheres()]
    for sphere, triple in spheres:
        got = sphere(s)
        coords, theta, phi, degenerate = _wrapper_point(alpha, n0, triple)
        assert got.coords.tobytes() == coords.tobytes()
        assert _bits(got.theta, got.phi) == _bits(theta, phi)
        assert got.degenerate_azimuth == degenerate
    assert st.classify_texture(s) == _wrapper_label(s)
    try:
        torus = st.state_to_torus(s)
    except ValueError as err:
        torus = str(err)
    try:
        want = st.state_to_torus(SimpleNamespace(alpha=alpha, n0=n0))
    except ValueError as err:
        want = str(err)
    assert torus == want
    basis = alg.su6_basis()
    want = n0 * np.einsum("lij,i,j->l", basis.matrices, alpha.conj(), alpha).real
    assert st.all_expectations(s, basis).tobytes() == want.tobytes()
    unitary = alg.exp_generator(np.einsum("l,lij->ij", axis, basis.matrices), angle)
    quantum = st.all_expectations(st.apply_unitary(s, unitary), basis)
    classical = alg.exp_adjoint(adjoint, axis, angle) @ st.all_expectations(s, basis)
    want = float(np.max(np.abs(quantum - classical)))
    got = st.correspondence_residual(s, axis, angle, basis, adjoint)
    assert _bits(got) == _bits(want)


# the row blocks of the named-sphere stack and the triple each one stands for
NAMED_BLOCKS = ((slice(0, 3), alg.skyrmion_generators()),
                (slice(3, 6), alg.antiskyrmion_generators()),
                (slice(6, 9), st._OAM_TRIPLE), (slice(9, 12), st._POL_TRIPLE))
NAMED_SPHERES = (st.skyrmion_sphere, st.antiskyrmion_sphere, st.oam_sphere,
                 st.polarization_sphere)


@PROPERTY
@given(case=geometry_cases())
def test_named_coords_rows_equal_each_triples_own_contraction(case):
    amplitudes, n0 = case
    s = st.CoherentState(amplitudes, n0=n0)
    named = st._named_coords(s)
    assert named.shape == (12,)
    for rows, triple in NAMED_BLOCKS:
        assert named[rows].tobytes() == st._unit_coords(s, triple).tobytes()


def _named_reference(s):
    """Each named sphere's coords, by its own triple, and the label."""
    return ([_wrapper_point(s.alpha, s.n0, triple)[0].tobytes()
             for _, triple in NAMED_BLOCKS], _wrapper_label(s))


def _named_readings(s):
    return ([sphere(s).coords.tobytes() for sphere in NAMED_SPHERES],
            st.classify_texture(s))


def test_interleaved_states_get_their_own_points_and_labels():
    a = st.named_state("neel_out")
    b = st.named_state("antiskyrmion_v", n0=2.0)
    want = {id(s): _named_reference(s) for s in (a, b)}
    assert want[id(a)][1] == "neel_out" and want[id(b)][1] == "antiskyrmion_v"
    for s in (a, b, a, b, a):
        assert _named_readings(s) == want[id(s)]


def test_named_coords_are_read_only():
    s = st.named_state("bloch_left")
    named = st._named_coords(s)
    assert not named.flags.writeable
    with pytest.raises(ValueError):
        named[0] = 0.0
    assert not st.skyrmion_sphere(s).coords.flags.writeable


def test_recreated_states_never_get_a_freed_states_coordinates():
    # each state is dropped once the next one is asked for, so CPython
    # hands its id() to a later state; the cache must not answer for it
    rng = np.random.default_rng(RNG_SEED + 5)
    ids = []
    for k in range(300):
        a = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        if k % 3 == 0:
            a[5] = a[1] = a[0] = 0.0
            a[4 - k % 2] = 0.0
        s = st.CoherentState(a, n0=1.0 + k)
        ids.append(id(s))
        assert _named_readings(s) == _named_reference(s)
        del s
    assert len(set(ids)) < len(ids)


def test_four_spheres_and_the_label_make_one_contraction(monkeypatch):
    seen = []
    unit_coords = st._unit_coords

    def counted(state, triple):
        seen.append(triple)
        return unit_coords(state, triple)

    monkeypatch.setattr(st, "_unit_coords", counted)
    for name in ("neel_out", "antiskyrmion_h"):
        s = st.named_state(name)
        seen.clear()
        for sphere in NAMED_SPHERES:
            sphere(s)
        assert st.classify_texture(s) == name
        assert len(seen) == 1 and seen[0] is st._NAMED


def test_states_compare_and_hash_by_identity():
    a, b = st.named_state("neel_out"), st.named_state("neel_out")
    assert a.alpha.tobytes() == b.alpha.tobytes() and a.n0 == b.n0
    assert a != b and not a == b
    assert a == a
    keys = {a: "a", b: "b"}
    assert len(keys) == 2 and keys[a] == "a" and keys[b] == "b"


def test_subsphere_enumeration_partitions_all_pairs():
    subs = st.enumerate_subspheres()
    assert len(subs) == 15
    by_kind: dict[str, set] = {}
    seen_pairs = set()
    for sub in subs:
        by_kind.setdefault(sub.kind, set()).add(sub.pair)
        assert sub.pair not in seen_pairs
        seen_pairs.add(sub.pair)
    assert {k: len(v) for k, v in by_kind.items()} == {
        "polarization": 3,
        "oam": 6,
        "coupling": 2,
        "skyrmion": 2,
        "antiskyrmion": 2,
    }
    for kind, pairs in SUBSPHERE_EXPECTED.items():
        assert by_kind[kind] == pairs, kind
    # every unordered pair of the six states appears exactly once
    all_pairs = {(i, j) for i in range(1, 7) for j in range(i + 1, 7)}
    assert seen_pairs == all_pairs


def test_primary_subsphere_triples_match_generator_triples():
    subs = {sub.pair: sub for sub in st.enumerate_subspheres()}
    assert np.array_equal(subs[(3, 4)].triple, alg.skyrmion_generators())
    assert np.array_equal(subs[(3, 5)].triple, alg.antiskyrmion_generators())


def test_subsphere_point_on_conjugate_skyrmion_pair():
    # equal superposition of states 2 and 6 sits on the equator of the
    # conjugate skyrmion subsphere
    a = np.zeros(6, dtype=complex)
    a[1] = a[5] = 1 / R2
    pt = st.subsphere_point(st.CoherentState(a), (2, 6))
    assert np.allclose(pt.coords, (1, 0, 0), atol=1e-14)


def test_texture_labels_live_in_state():
    from su6lab import field

    assert field.classify_texture is st.classify_texture
    assert st.classify_texture.__module__ == "su6lab.state"
    assert st.classify_texture(st.named_state("neel_out")) == "neel_out"
    assert st.classify_texture(st.torus_state(3 * np.pi / 2, np.pi)) \
        == "antidipolar"
