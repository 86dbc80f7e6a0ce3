"""Oracle tests for six-mode coherent states and their sphere/torus geometry.

Expected amplitudes and sphere coordinates are frozen literals; the
invariant radius sqrt(5/3) and the unitary-vs-adjoint correspondence are
checked against direct numpy arithmetic done here in the tests.
"""
from __future__ import annotations

import numpy as np
import pytest

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
    s = st.named_state("neel_out", n0=2.5, hbar=0.5)
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
