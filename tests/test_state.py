"""Oracle tests for six-mode coherent states and their sphere/torus geometry.

Expected amplitudes and sphere coordinates are frozen literals; the
invariant radius sqrt(5/3) and the unitary-vs-adjoint correspondence are
checked against direct numpy arithmetic done here in the tests.
"""
from __future__ import annotations

import warnings

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
