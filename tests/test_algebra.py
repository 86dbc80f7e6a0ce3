"""Oracle tests for the generator bases and their Lie-algebra data.

Expected matrices and structure-constant spot values below were derived by
hand from the defining tensor products and frozen here; the tests compare
the package output against these literals and against direct matrix
arithmetic done locally in each test.
"""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from su6lab import algebra as alg

RNG_SEED = 0

PAULI_EXPECTED = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

S3_INV = 1 / np.sqrt(3.0)
GELL_MANN_EXPECTED = np.array(
    [
        [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
        [[0, -1j, 0], [1j, 0, 0], [0, 0, 0]],
        [[1, 0, 0], [0, -1, 0], [0, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [1, 0, 0]],
        [[0, 0, -1j], [0, 0, 0], [1j, 0, 0]],
        [[0, 0, 0], [0, 0, 1], [0, 1, 0]],
        [[0, 0, 0], [0, 0, -1j], [0, 1j, 0]],
        [[S3_INV, 0, 0], [0, S3_INV, 0], [0, 0, -2 * S3_INV]],
    ],
    dtype=complex,
)

# Pauli triple on the span of state 3 and state 4 (zero based: rows 2 and 3).
SKYRMION_EXPECTED = np.zeros((3, 6, 6), dtype=complex)
SKYRMION_EXPECTED[0, 2, 3] = 1.0
SKYRMION_EXPECTED[0, 3, 2] = 1.0
SKYRMION_EXPECTED[1, 2, 3] = -1j
SKYRMION_EXPECTED[1, 3, 2] = 1j
SKYRMION_EXPECTED[2] = np.diag([0, 0, 1, -1, 0, 0]).astype(complex)

# Pauli triple on the span of state 3 and state 5 (zero based: rows 2 and 4).
ANTISKYRMION_EXPECTED = np.zeros((3, 6, 6), dtype=complex)
ANTISKYRMION_EXPECTED[0, 2, 4] = 1.0
ANTISKYRMION_EXPECTED[0, 4, 2] = 1.0
ANTISKYRMION_EXPECTED[1, 2, 4] = -1j
ANTISKYRMION_EXPECTED[1, 4, 2] = 1j
ANTISKYRMION_EXPECTED[2] = np.diag([0, 0, 1, 0, -1, 0]).astype(complex)

# Hand-derived structure constants, zero-based indices (l, m, n) -> g_lmn.
STRUCTURE_SPOT_VALUES = {
    (0, 1, 2): 0.5773502691896258,    # spin sector, 1/sqrt(3)
    (3, 4, 5): 0.7071067811865476,    # orbital sector, 1/sqrt(2)
    (6, 7, 10): 0.6123724356957945,   # orbital sector, sqrt(6)/4
    (6, 7, 5): 0.35355339059327373,   # orbital sector, sqrt(2)/4
    (11, 12, 5): 0.7071067811865476,  # coupled-coupled into orbital
    (1, 11, 27): -0.5773502691896258, # spin with coupled into coupled
}


def test_pauli_matrices_match_frozen():
    got = alg.pauli_matrices()
    assert got.shape == (3, 2, 2)
    assert np.array_equal(got, PAULI_EXPECTED)


def test_gell_mann_matrices_match_frozen():
    got = alg.gell_mann_matrices()
    assert got.shape == (8, 3, 3)
    assert np.allclose(got, GELL_MANN_EXPECTED, atol=1e-15)


def test_su6_basis_count_labels_and_families():
    basis = alg.su6_basis()
    mats = basis.matrices
    assert mats.shape == (35, 6, 6)
    assert len(basis.labels) == 35
    assert len(set(basis.labels)) == 35
    assert basis.labels[0] == "s1"
    assert basis.labels[2] == "s3"
    assert basis.labels[3] == "o1"
    assert basis.labels[10] == "o8"
    assert basis.labels[11] == "s1o1"
    assert basis.labels[34] == "s3o8"
    # spot check each family against the defining tensor products
    assert np.allclose(mats[0], np.kron(PAULI_EXPECTED[0], np.eye(3)) / np.sqrt(3))
    assert np.allclose(mats[2], np.kron(PAULI_EXPECTED[2], np.eye(3)) / np.sqrt(3))
    assert np.allclose(mats[3], np.kron(np.eye(2), GELL_MANN_EXPECTED[0]) / np.sqrt(2))
    assert np.allclose(mats[10], np.kron(np.eye(2), GELL_MANN_EXPECTED[7]) / np.sqrt(2))
    assert np.allclose(mats[11], np.kron(PAULI_EXPECTED[0], GELL_MANN_EXPECTED[0]) / np.sqrt(2))
    assert np.allclose(mats[34], np.kron(PAULI_EXPECTED[2], GELL_MANN_EXPECTED[7]) / np.sqrt(2))


def test_su6_basis_trace_orthonormality():
    mats = alg.su6_basis().matrices
    gram = np.einsum("aij,bji->ab", mats, mats)
    assert np.max(np.abs(gram.imag)) < 1e-13
    assert np.max(np.abs(gram.real - 2.0 * np.eye(35))) < 1e-12


def test_su6_basis_hermitian_and_traceless():
    mats = alg.su6_basis().matrices
    assert np.max(np.abs(mats - mats.conj().transpose(0, 2, 1))) < 1e-15
    assert np.max(np.abs(np.trace(mats, axis1=1, axis2=2))) < 1e-14


def test_structure_constants_spot_values():
    g = alg.structure_constants()
    assert g.shape == (35, 35, 35)
    assert g.dtype == np.float64
    for (l, m, n), expected in STRUCTURE_SPOT_VALUES.items():
        assert g[l, m, n] == pytest.approx(expected, abs=1e-14), (l, m, n)


def test_structure_constants_total_antisymmetry():
    g = alg.structure_constants()
    assert np.max(np.abs(g + g.transpose(1, 0, 2))) < 1e-12
    assert np.max(np.abs(g + g.transpose(0, 2, 1))) < 1e-12
    assert np.max(np.abs(g - g.transpose(1, 2, 0))) < 1e-12


def test_commutator_closure_direct():
    basis = alg.su6_basis()
    g = alg.structure_constants(basis)
    mats = basis.matrices
    comm = np.einsum("lik,mkj->lmij", mats, mats) - np.einsum(
        "mik,lkj->lmij", mats, mats
    )
    recon = 2j * np.einsum("lmn,nij->lmij", g, mats)
    assert np.max(np.abs(comm - recon)) < 1e-10


def test_jacobi_identity_random_triples():
    mats = alg.su6_basis().matrices
    rng = np.random.default_rng(RNG_SEED)
    worst = 0.0
    for _ in range(100):
        a, b, c = (mats[i] for i in rng.integers(0, 35, size=3))
        j = (
            a @ (b @ c - c @ b)
            - (b @ c - c @ b) @ a
            + b @ (c @ a - a @ c)
            - (c @ a - a @ c) @ b
            + c @ (a @ b - b @ a)
            - (a @ b - b @ a) @ c
        )
        worst = max(worst, float(np.max(np.abs(j))))
    assert worst < 1e-10


def test_structure_constants_rejects_non_orthonormal_basis():
    basis = alg.su6_basis()
    mats = basis.matrices.copy()
    mats[5] = mats[5] * 1.01
    bad = alg.GeneratorBasis(matrices=mats, labels=basis.labels)
    with pytest.raises(ValueError, match="o3"):
        alg.structure_constants(bad)


def test_structure_constants_rejects_non_hermitian_basis():
    basis = alg.su6_basis()
    mats = basis.matrices.copy()
    mats[7, 0, 1] += 1e-3
    bad = alg.GeneratorBasis(matrices=mats, labels=basis.labels)
    with pytest.raises(ValueError, match="[Hh]ermit"):
        alg.structure_constants(bad)


def test_nan_input_fails_the_hermiticity_checks():
    # NaN residuals compare False against any tolerance, so the checks
    # are written as "not resid <= tol"
    with pytest.raises(ValueError, match="generator is not Hermitian"):
        alg.exp_generator(np.full((6, 6), np.nan), 1.0)
    basis = alg.su6_basis()
    mats = basis.matrices.copy()
    mats[4, 2, 2] = np.nan
    bad = alg.GeneratorBasis(matrices=mats, labels=basis.labels)
    with pytest.raises(ValueError, match="'o2' is not Hermitian"):
        alg.structure_constants(bad)
    all_nan = alg.GeneratorBasis(matrices=np.full_like(mats, np.nan),
                                 labels=basis.labels)
    with pytest.raises(ValueError, match="not Hermitian"):
        alg.structure_constants(all_nan)


def test_adjoint_matrices_antisymmetric_with_unit_closure():
    g = alg.structure_constants()
    adj = alg.adjoint_matrices(g)
    G = adj.matrices
    assert G.shape == (35, 35, 35)
    assert np.max(np.abs(G + G.transpose(0, 2, 1))) < 1e-12
    assert adj.closure_constant == pytest.approx(1.0, abs=1e-12)
    # closure verified directly: [G_l, G_m] = sum_n g_lmn G_n
    lhs = np.einsum("lab,mbc->lmac", G, G) - np.einsum("mab,lbc->lmac", G, G)
    rhs = np.einsum("lmn,nac->lmac", g, G)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_exp_adjoint_is_special_orthogonal():
    g = alg.structure_constants()
    adj = alg.adjoint_matrices(g)
    rng = np.random.default_rng(RNG_SEED)
    axis = rng.normal(size=35)
    axis /= np.linalg.norm(axis)
    R = alg.exp_adjoint(adj, axis, 1.2345)
    assert np.max(np.abs(R.imag)) == 0.0 or np.max(np.abs(np.asarray(R).imag)) < 1e-14
    R = np.asarray(R).real
    assert np.max(np.abs(R.T @ R - np.eye(35))) < 1e-12
    assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-10)


def test_exp_adjoint_rejects_zero_axis():
    adj = alg.adjoint_matrices(alg.structure_constants())
    with pytest.raises(ValueError, match="zero"):
        alg.exp_adjoint(adj, np.zeros(35), 1.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("angle", [np.inf, -np.inf, np.nan])
def test_exponentials_refuse_an_angle_that_is_not_finite(angle):
    adj = alg.adjoint_matrices(alg.structure_constants())
    message = f"rotation angle must be finite, got {angle}"
    with pytest.raises(ValueError) as err:
        alg.exp_generator(alg.su6_basis().matrices[4], angle)
    assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        alg.exp_adjoint(adj, np.ones(35), angle)
    assert str(err.value) == message


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_exp_adjoint_refuses_an_axis_that_is_not_finite(bad):
    adj = alg.adjoint_matrices(alg.structure_constants())
    axis = np.ones(35)
    axis[7] = bad
    with pytest.raises(ValueError) as err:
        alg.exp_adjoint(adj, axis, 0.3)
    assert str(err.value) == f"rotation axis must be finite, got {bad}"


def test_skyrmion_generators_match_frozen():
    trip = alg.skyrmion_generators()
    assert trip.shape == (3, 6, 6)
    assert np.allclose(trip, SKYRMION_EXPECTED, atol=1e-15)
    # third component diagonal exactly as expected
    assert np.max(np.abs(trip[2] - np.diag([0, 0, 1, -1, 0, 0]))) < 1e-15


def test_antiskyrmion_generators_match_frozen():
    trip = alg.antiskyrmion_generators()
    assert np.allclose(trip, ANTISKYRMION_EXPECTED, atol=1e-15)
    assert np.max(np.abs(trip[2] - np.diag([0, 0, 1, 0, -1, 0]))) < 1e-15


def test_skyrmion_generators_from_tensor_products():
    # rebuild the triple locally from raw Pauli and Gell-Mann products
    s, gm = PAULI_EXPECTED, GELL_MANN_EXPECTED
    i2, i3 = np.eye(2), np.eye(3)
    s1 = (np.kron(s[0], gm[3]) + np.kron(s[1], gm[4])) / 2
    s2 = (-np.kron(s[0], gm[4]) + np.kron(s[1], gm[3])) / 2
    s3 = np.kron(s[2], i3 / 3 + gm[2] / 4 - np.sqrt(3) / 12 * gm[7]) - np.kron(
        i2, gm[2] / 4 + np.sqrt(3) / 4 * gm[7]
    )
    assert np.allclose(alg.skyrmion_generators(), np.stack([s1, s2, s3]), atol=1e-15)

    a1 = (np.kron(s[0], gm[5]) + np.kron(s[1], gm[6])) / 2
    a2 = (-np.kron(s[0], gm[6]) + np.kron(s[1], gm[5])) / 2
    a3 = np.kron(s[2], i3 / 3 - gm[2] / 4 - np.sqrt(3) / 12 * gm[7]) + np.kron(
        i2, gm[2] / 4 - np.sqrt(3) / 4 * gm[7]
    )
    assert np.allclose(
        alg.antiskyrmion_generators(), np.stack([a1, a2, a3]), atol=1e-15
    )


def test_basis_index_of_a_label_and_of_an_unknown_one():
    basis = alg.su6_basis()
    assert basis.index(basis.labels[7]) == 7
    with pytest.raises(KeyError, match="unknown generator label 'x9'"):
        basis.index("x9")


def test_pair_triple_is_one_based_and_range_checked():
    assert np.array_equal(alg.pair_triple(3, 4), alg.skyrmion_generators())
    assert np.array_equal(alg.pair_triple(3, 5), alg.antiskyrmion_generators())
    for bad in ((4, 3), (0, 1), (5, 7), (2, 2)):
        with pytest.raises(ValueError, match="1 <= i < j <= 6"):
            alg.pair_triple(*bad)


def test_pair_triple_is_cached_and_read_only():
    for i in range(1, 6):
        for j in range(i + 1, 7):
            first = alg.pair_triple(i, j)
            assert alg.pair_triple(i, j) is first
            assert not first.flags.writeable
    assert alg.skyrmion_generators() is alg.pair_triple(3, 4)


def test_pair_triples_equal_the_entry_by_entry_build_bit_for_bit():
    # the six entries set one by one, as the triple was first assembled
    for i in range(1, 6):
        for j in range(i + 1, 7):
            a, b = i - 1, j - 1
            t = np.zeros((3, 6, 6), dtype=complex)
            t[0, a, b] = t[0, b, a] = 1.0
            t[1, a, b] = -1j
            t[1, b, a] = 1j
            t[2, a, a] = 1.0
            t[2, b, b] = -1.0
            assert alg.pair_triple(i, j).tobytes() == t.tobytes()


def test_out_of_range_pair_raises_on_every_call():
    for bad in ((4, 3), (0, 1), (5, 7), (2, 2)):
        for _ in range(3):  # a refusal is never cached
            with pytest.raises(ValueError, match=r"need 1 <= i < j <= 6"):
                alg.pair_triple(*bad)


def test_adjoint_matrices_reject_zero_or_nonfinite_constants():
    for g in (np.zeros((35, 35, 35)), np.full((35, 35, 35), np.nan)):
        with pytest.raises(ValueError, match="zero or not finite"):
            alg.adjoint_matrices(g)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("make, got", [
    (lambda g: g + 1j * g, "complex128 of shape (35, 35, 35)"),
    (lambda g: g[0], "float64 of shape (35, 35)"),
    (lambda g: g[:3, :4, :5], "float64 of shape (3, 4, 5)"),
], ids=["complex", "35x35", "3x4x5"])
def test_adjoint_matrices_refuse_a_g_that_is_not_a_real_cube(monkeypatch, make, got):
    # refused by name before the closure runs: no ComplexWarning, no unpacking error
    g = make(alg.structure_constants())
    monkeypatch.setattr(alg, "_adjoint_closure", None)
    with pytest.raises(ValueError) as err:
        alg.adjoint_matrices(g)
    assert str(err.value) == f"g must be a real (k, k, k) array, got {got}"


def test_adjoint_matrices_take_nested_lists_of_reals():
    g = alg.structure_constants()
    adj, listed = alg.adjoint_matrices(g), alg.adjoint_matrices(g.tolist())
    assert listed.matrices.tobytes() == adj.matrices.tobytes()
    assert listed.closure_constant.hex() == adj.closure_constant.hex()


def _adjoint_rows_from_full_tensors(g):
    """|c - 1| and max|lhs - rhs| of [G_l, G_m] = c sum_n g_lmn G_n with
    G = -g, from the whole 35^4 sides."""
    G = -g
    lhs = np.einsum("lab,mbc->lmac", G, G) - np.einsum("mab,lbc->lmac", G, G)
    rhs = np.einsum("lmn,nac->lmac", g, G)
    c = np.sum(lhs * rhs) / np.sum(rhs * rhs)
    return abs(c - 1.0), np.max(np.abs(lhs - rhs))


def test_adjoint_closure_failure_reports_the_fitted_residual():
    # the guard names the first adjoint row of the verify table that fails,
    # with its residual and its bound
    for step, k, row in ((1e-3, 0, "adjoint_closure_constant"),
                         (1e-7, 1, "adjoint_closure")):
        g = alg.structure_constants().copy()
        g[0, 1, 2] += step
        resid = _adjoint_rows_from_full_tensors(g)[k]
        message = f"adjoint closure failed: {row} residual {resid:.3e} > 1.0e-10"
        with pytest.raises(RuntimeError) as err:
            alg.adjoint_matrices(g)
        assert str(err.value) == message


def test_verify_table_and_adjoint_guard_read_the_same_rows():
    g = alg.structure_constants()
    table = alg.invariant_residuals()[-2:]
    assert [name for name, _, _ in table] == ["adjoint_closure_constant",
                                              "adjoint_closure"]
    assert alg._adjoint_closure(g)[1] == table
    assert abs(alg.adjoint_matrices(g).closure_constant - 1.0) == table[0][1]


@settings(derandomize=True, max_examples=20, deadline=None, database=None)
@given(exponent=hs.floats(-14.0, -3.0), sign=hs.sampled_from([-1.0, 1.0]),
       index=hs.tuples(*[hs.integers(0, 34)] * 3))
def test_adjoint_guard_refuses_exactly_when_a_verify_row_fails(exponent, sign,
                                                               index):
    g = alg.structure_constants().copy()
    g[index] += sign * 10.0 ** exponent
    refused = max(_adjoint_rows_from_full_tensors(g)) > alg.CLOSURE_TOL
    try:
        alg.adjoint_matrices(g)
    except RuntimeError:
        assert refused
    else:
        assert not refused


def _einsum_closure(g):
    """The closure as it was measured before the sparse sums: one dense
    einsum per l for each of the three contractions, lhs * rhs and
    rhs * rhs held whole.  The reference the sparse sums must match."""
    k = len(g)
    G = -g
    lr, rr = np.empty((k, k, k, k)), np.empty((k, k, k, k))
    unit = np.empty(k)
    for l in range(k):
        lhs = (np.einsum("ab,mbc->mac", G[l], G)
               - np.einsum("mab,bc->mac", G, G[l]))
        rhs = np.einsum("mn,nac->mac", g[l], G)
        np.multiply(lhs, rhs, out=lr[l])
        np.multiply(rhs, rhs, out=rr[l])
        unit[l] = np.max(np.abs(lhs - rhs))
    denom = float(np.sum(rr))
    c = float(np.sum(lr) / denom) if denom > 0 else float("nan")
    return c, [("adjoint_closure_constant", abs(c - 1.0), alg.CLOSURE_TOL),
               ("adjoint_closure", float(np.max(unit)), alg.CLOSURE_TOL)]


def _bits(closure):
    """c and the two residuals as float.hex, so equal means bit for bit."""
    c, rows = closure
    return [float(c).hex()] + [float(resid).hex() for _, resid, _ in rows]


def _assert_closure_matches_einsum(g):
    with np.errstate(all="ignore"):
        want = _bits(_einsum_closure(g))
        got = _bits(alg._adjoint_closure(g))
    assert got == want


def test_sparse_closure_matches_einsum_on_the_shipped_g():
    g = alg.structure_constants()
    _assert_closure_matches_einsum(g)


@settings(derandomize=True, max_examples=12, deadline=None, database=None)
@given(exponent=hs.floats(-14.0, -3.0), sign=hs.sampled_from([-1.0, 1.0]),
       index=hs.tuples(*[hs.integers(0, 34)] * 3))
def test_sparse_closure_matches_einsum_on_one_perturbed_entry(exponent, sign,
                                                              index):
    g = alg.structure_constants().copy()
    g[index] += sign * 10.0 ** exponent
    _assert_closure_matches_einsum(g)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sparse_closure_matches_einsum_under_relative_noise(seed):
    g = alg.structure_constants()
    rng = np.random.default_rng(seed)
    _assert_closure_matches_einsum(g * (1.0 + 1e-9 * rng.standard_normal(g.shape)))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sparse_closure_matches_einsum_on_random_sparse_tensors(seed):
    rng = np.random.default_rng(seed)
    g = np.where(rng.random((35, 35, 35)) < 0.04,
                 rng.standard_normal((35, 35, 35)), 0.0)
    _assert_closure_matches_einsum(g)


def test_sparse_closure_matches_einsum_in_many_passes(monkeypatch):
    # passes of about 1000 products: the sums run on across passes
    monkeypatch.setattr(alg, "_PASS", 1000)
    g = alg.structure_constants()
    _assert_closure_matches_einsum(g)
    rng = np.random.default_rng(3)
    _assert_closure_matches_einsum(
        np.where(rng.random(g.shape) < 0.04, rng.standard_normal(g.shape), 0.0))


def test_sparse_closure_on_zero_and_non_finite_tensors():
    shipped = alg.structure_constants()
    nonzero_slot, zero_slot = (0, 1, 2), (0, 0, 0)
    assert shipped[nonzero_slot] != 0 and shipped[zero_slot] == 0
    cases = [(np.zeros((35, 35, 35)), (np.nan, 0.0)),
             (np.full((35, 35, 35), np.nan), (np.nan, np.nan))]
    for value in (np.inf, -np.inf, np.nan):
        for slot in (nonzero_slot, zero_slot):
            g = shipped.copy()
            g[slot] = value
            cases.append((g, (np.nan, np.nan)))
    g = shipped.copy()
    g[nonzero_slot] = 1e300
    cases.append((g, (np.nan, 5.773502691896261e+299)))
    for g, rows in cases:
        _assert_closure_matches_einsum(g)
        with np.errstate(all="ignore"):
            got = [resid for _, resid, _ in alg._adjoint_closure(g)[1]]
        np.testing.assert_array_equal(got, rows)


def test_zero_times_inf_makes_both_rows_nan():
    # the inf meets only zeros, so no product of nonzero factors carries
    # it: the dense sums still hold 0 * inf = nan, and so must the rows
    g = np.zeros((2, 2, 2))
    g[1, 0, 1] = np.inf
    _assert_closure_matches_einsum(g)
    assert all(np.isnan(resid) for _, resid, _ in alg._adjoint_closure(g)[1])
    # an inf among nonzero entries only: it meets no zero, and still
    # lhs[l, l] = x - x is nan where x is inf
    g = np.full((2, 2, 2), 0.5)
    g[1, 0, 1] = np.inf
    _assert_closure_matches_einsum(g)


_ENTRIES = hs.one_of(hs.just(0.0), hs.just(0.0), hs.just(0.0),
                     hs.sampled_from([1.0, -0.5, np.inf, -np.inf, np.nan, 1e300]),
                     hs.floats(-2.0, 2.0))


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(data=hs.data(), k=hs.integers(1, 5))
def test_sparse_closure_matches_einsum_on_small_tensors(data, k):
    # every mix of zeros, infinities, nans and overflow on a few generators,
    # dense tensors without zeros included
    g = np.array(data.draw(hs.lists(_ENTRIES, min_size=k ** 3, max_size=k ** 3)))
    _assert_closure_matches_einsum(g.reshape(k, k, k))


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(data=hs.data(), k=hs.integers(1, 6),
       bad=hs.sampled_from([np.inf, -np.inf, np.nan]))
def test_a_non_finite_entry_makes_c_and_both_rows_nan(data, k, bad):
    # the premise of the closure's finiteness test: the dense einsums give
    # nan for c and both rows whenever g has an entry that is not finite
    g = np.array(data.draw(hs.lists(_ENTRIES, min_size=k ** 3, max_size=k ** 3)))
    g[data.draw(hs.integers(0, k ** 3 - 1))] = bad
    g = g.reshape(k, k, k)
    with np.errstate(all="ignore"):
        c, rows = _einsum_closure(g)
    assert np.isnan([c, *(resid for _, resid, _ in rows)]).all()
    _assert_closure_matches_einsum(g)


def _traced_peak(f, *args):
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sparse_closure_holds_no_35_4_array():
    # the einsum closure held lhs * rhs and rhs * rhs whole; the sparse
    # sums stay under half of one such array (11.4 MiB)
    assert _traced_peak(alg._adjoint_closure, alg.structure_constants()) <= 6 * 2 ** 20


def test_sparse_closure_memory_is_the_positions_and_one_pass(monkeypatch):
    # a g without zeros: every one of the k^4 positions has terms, there
    # are 3 k^5 products in all, and each pass holds one block of outputs
    # with its 3 k^3 products (the pass size is below a block's)
    monkeypatch.setattr(alg, "_PASS", 1000)
    k = 12
    g = np.random.default_rng(0).standard_normal((k, k, k))
    _assert_closure_matches_einsum(g)
    peak = _traced_peak(alg._adjoint_closure, g)
    # bytes; all the products take 8 * 3 k^5 = 5.7 MiB an array
    assert peak <= 64 * k ** 4 + 128 * 3 * k ** 3


@pytest.mark.parametrize("pass_size", [1, 1000, alg._PASS, 2 ** 40],
                         ids=["one-block", "1000", "default", "one-pass"])
def test_adjoint_sides_do_not_depend_on_the_pass_size(monkeypatch, pass_size):
    # a pass of every block (2 ** 40) down to one block a pass (1): the same
    # positions and the same bits of both rows
    g = alg.structure_constants()
    rng = np.random.default_rng(4)
    sparse = np.where(rng.random(g.shape) < 0.04, rng.standard_normal(g.shape), 0.0)
    want = [alg._adjoint_sides(t) for t in (g, sparse)]
    monkeypatch.setattr(alg, "_PASS", pass_size)
    for t, (pos, sides) in zip((g, sparse), want):
        got_pos, got_sides = alg._adjoint_sides(t)
        assert got_pos.dtype == pos.dtype and got_pos.tobytes() == pos.tobytes()
        assert got_sides.shape == sides.shape and got_sides.tobytes() == sides.tobytes()


def _assert_dense_sum_is_np_sum(pos, vals, n):
    dense = np.zeros((len(vals), n))
    dense[:, pos] = vals
    want = [float(np.sum(row)).hex() for row in dense]
    assert [float(s).hex() for s in alg._dense_sum(pos, vals, n)] == want


@pytest.mark.parametrize("n", [1, 7, 8, 9, 127, 128, 129, 135, 136, 137, 255, 257, 1001,
                               alg._BLOCK - 1, alg._BLOCK, alg._BLOCK + 1, alg._BLOCK + 7,
                               2 * alg._BLOCK + 9, 35 ** 4])
def test_dense_sum_is_np_sum_of_the_dense_rows(n):
    # the first test to fail if a numpy build changes its pairwise order:
    # lengths about the 128-entry leaves and the _BLOCK blocks, and no
    # multiples of 8; sparse, clustered (empty blocks) and dense rows with
    # -0.0 entries and magnitudes 1e-8 to 1e8
    rng = np.random.default_rng(n)
    for pos in (np.flatnonzero(rng.random(n) < 0.002), np.flatnonzero(rng.random(n) < 0.6),
                np.arange(min(n, 300)), np.arange(n // 2, n, 97)):
        vals = rng.standard_normal((2, len(pos))) * 10.0 ** rng.integers(-8, 9, (2, len(pos)))
        vals[:, rng.random(len(pos)) < 0.1] = -0.0
        _assert_dense_sum_is_np_sum(pos, vals, n)


def test_dense_sum_of_zero_rows():
    for n in (5, 200, alg._BLOCK + 9, 35 ** 4):
        for pos in (np.zeros(0, np.int64), np.arange(0, n, 3)):
            _assert_dense_sum_is_np_sum(pos, np.stack([np.full(len(pos), -0.0),
                                                       np.zeros(len(pos))]), n)


def test_dense_sum_is_np_sum_on_the_shipped_closure():
    # both products that fit c, at 35^4
    pos, sides = alg._adjoint_sides(alg.structure_constants())
    _assert_dense_sum_is_np_sum(pos, sides * sides[1], 35 ** 4)


def test_pair_triples_close_like_pauli_matrices():
    for trip in (alg.skyrmion_generators(), alg.antiskyrmion_generators()):
        x, y, z = trip
        assert np.max(np.abs((x @ y - y @ x) - 2j * z)) < 1e-14
        assert np.max(np.abs((y @ z - z @ y) - 2j * x)) < 1e-14
        assert np.max(np.abs((z @ x - x @ z) - 2j * y)) < 1e-14


def test_exp_generator_unitary():
    rng = np.random.default_rng(RNG_SEED)
    mats = alg.su6_basis().matrices
    for _ in range(20):
        axis = rng.normal(size=35)
        axis /= np.linalg.norm(axis)
        gen = np.einsum("l,lij->ij", axis, mats)
        u = alg.exp_generator(gen, float(rng.uniform(0, 4 * np.pi)))
        assert np.max(np.abs(u.conj().T @ u - np.eye(6))) < 1e-12


def test_exp_generator_rejects_non_hermitian():
    m = np.zeros((6, 6), dtype=complex)
    m[0, 1] = 1.0
    with pytest.raises(ValueError, match="[Hh]ermit"):
        alg.exp_generator(m, 0.5)


def test_double_cover_of_pair_rotations():
    gen = alg.skyrmion_generators()[1]
    p = gen @ gen
    one_turn = alg.exp_generator(gen, 2 * np.pi)
    assert np.max(np.abs(one_turn - (np.eye(6) - 2 * p))) < 1e-12
    two_turns = alg.exp_generator(gen, 4 * np.pi)
    assert np.max(np.abs(two_turns - np.eye(6))) < 1e-12


def test_one_gram_bound_for_verify_and_structure_constants():
    # a Gram deviation of 4e-11 is above the printed 1e-12 bound, so the
    # verify table fails it and structure_constants refuses it too
    basis = alg.su6_basis()
    mats = basis.matrices.copy()
    mats[0] = mats[0] * (1 + 1e-11)
    scaled = alg.GeneratorBasis(matrices=mats, labels=basis.labels)
    rows = {name: (resid, tol) for name, resid, tol in
            alg.invariant_residuals(scaled)}
    resid, tol = rows["trace_orthonormality"]
    assert resid == pytest.approx(4e-11, rel=1e-3)
    assert tol == alg.GRAM_TOL == 1e-12 and not resid <= tol
    with pytest.raises(ValueError, match=r"pair \('s1', 's1'\), residual 4\.0"):
        alg.structure_constants(scaled)


def test_check_hermitian_reads_the_shared_residual_and_bound():
    m = np.zeros((6, 6), dtype=complex)
    m[0, 1] = 3e-12
    resid = float(alg._hermiticity(m[None])[0])
    assert resid == 3e-12
    with pytest.raises(ValueError, match=f"residual {resid:.3e}"):
        alg._check_hermitian(m, "matrix")
    m[0, 1] = 1e-12
    alg._check_hermitian(m, "matrix")  # at the bound: accepted
