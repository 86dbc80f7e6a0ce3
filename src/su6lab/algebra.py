"""Generator bases for su(2), su(3) and su(6) with their Lie-algebra data.

The six-mode basis is ordered spin-major: state 1 = (up, L), 2 = (up, R),
3 = (up, O), 4 = (down, L), 5 = (down, R), 6 = (down, O), where up/down are
the two circular polarizations and L/R/O are the orbital modes with
azimuthal index +1, -1 and 0.

The 35 su(6) generators come in three families,

* ``s1..s3``    : sigma_i (x) 1, rescaled by 1/sqrt(3),
* ``o1..o8``    : 1 (x) lambda_j, rescaled by 1/sqrt(2),
* ``s{i}o{j}``  : sigma_i (x) lambda_j, rescaled by 1/sqrt(2),

so that every generator b_l satisfies tr(b_l b_m) = 2 delta_lm.  Structure
constants are defined through [b_l, b_m] = 2i sum_n g_lmn b_n and the
adjoint matrices through (G_l)_mn = -g_lmn, which closes as
[G_l, G_m] = sum_n g_lmn G_n.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

BASIS_VERSION = "su6-spin3-oam8-coupled24-v1"

# bounds on the invariant residuals, shared by the verify table and the
# checks that guard the structure constants, so a basis that fails one
# fails the other
HERMITICITY_TOL = 1e-12
GRAM_TOL = 1e-12
CLOSURE_TOL = 1e-10

_PAULI = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

_GELL_MANN = np.array(
    [
        [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
        [[0, -1j, 0], [1j, 0, 0], [0, 0, 0]],
        [[1, 0, 0], [0, -1, 0], [0, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [1, 0, 0]],
        [[0, 0, -1j], [0, 0, 0], [1j, 0, 0]],
        [[0, 0, 0], [0, 0, 1], [0, 1, 0]],
        [[0, 0, 0], [0, 0, -1j], [0, 1j, 0]],
        np.diag([1, 1, -2]) / np.sqrt(3.0),
    ],
    dtype=complex,
)


def pauli_matrices() -> np.ndarray:
    """Return the three Pauli matrices as a (3, 2, 2) complex array."""
    return _PAULI.copy()


def gell_mann_matrices() -> np.ndarray:
    """Return the eight Gell-Mann matrices as an (8, 3, 3) complex array.

    The 3-dimensional space is ordered (L, R, O): lambda_3 separates the
    two vortex chiralities, lambda_4/lambda_5 couple L with O and
    lambda_6/lambda_7 couple R with O.
    """
    return _GELL_MANN.copy()


@dataclass(frozen=True, eq=False)
class GeneratorBasis:
    """Ordered, trace-normalized generator set for su(6)."""

    matrices: np.ndarray          # (35, 6, 6) complex, tr(b_l b_m) = 2 delta
    labels: tuple[str, ...]       # family tags, e.g. "s2", "o5", "s1o4"

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown generator label {label!r}") from None


@dataclass(frozen=True, eq=False)
class AdjointRep:
    """Adjoint matrices G_l with the measured closure constant c in
    [G_l, G_m] = c * sum_n g_lmn G_n."""

    matrices: np.ndarray          # (35, 35, 35) real antisymmetric
    closure_constant: float


@lru_cache(maxsize=1)
def su6_basis() -> GeneratorBasis:
    """Return the canonical 35-generator su(6) basis (cached, read-only)."""
    i2, i3 = np.eye(2, dtype=complex), np.eye(3, dtype=complex)
    mats, labels = [], []
    for i in range(3):
        mats.append(np.kron(_PAULI[i], i3) / np.sqrt(3.0))
        labels.append(f"s{i + 1}")
    for j in range(8):
        mats.append(np.kron(i2, _GELL_MANN[j]) / np.sqrt(2.0))
        labels.append(f"o{j + 1}")
    for i in range(3):
        for j in range(8):
            mats.append(np.kron(_PAULI[i], _GELL_MANN[j]) / np.sqrt(2.0))
            labels.append(f"s{i + 1}o{j + 1}")
    arr = np.stack(mats)
    arr.setflags(write=False)
    return GeneratorBasis(matrices=arr, labels=tuple(labels))


def _hermiticity(mats: np.ndarray) -> np.ndarray:
    """Per-generator max |b - b^dag|."""
    return np.max(np.abs(mats - mats.conj().transpose(0, 2, 1)), axis=(1, 2))


def _check_hermitian(m: np.ndarray, what: str) -> None:
    resid = float(_hermiticity(m[None])[0])
    if not resid <= HERMITICITY_TOL:  # NaN fails too
        raise ValueError(f"{what} is not Hermitian (residual {resid:.3e})")


def _gram_deviation(mats: np.ndarray) -> np.ndarray:
    """|tr(b_l b_m) - 2 delta_lm| for every pair."""
    gram = np.einsum("aij,bji->ab", mats, mats)
    return np.abs(gram - 2.0 * np.eye(len(mats)))


def _structure_tensor(mats: np.ndarray) -> tuple[np.ndarray, float]:
    """Complex g_lmn = -i tr([b_l, b_m] b_n) / 4 and the max residual of
    the closure relation [b_l, b_m] = 2i sum_n g_lmn b_n."""
    comm = np.einsum("lik,mkj->lmij", mats, mats)
    comm = comm - comm.transpose(1, 0, 2, 3)
    g = -0.25j * np.einsum("lmij,nji->lmn", comm, mats)
    recon = 2j * np.einsum("lmn,nij->lmij", g, mats)
    return g, float(np.max(np.abs(comm - recon)))


def _adjoint_closure(g: np.ndarray) -> tuple[float, list[tuple[str, float, float]]]:
    """Least-squares constant c of lhs = c * rhs (nan if rhs = 0) over the
    closure relation [G_l, G_m] = sum_n g_lmn G_n with G = -g, and the two
    rows that judge g: |c - 1| and max|lhs - rhs|.

    The sides are built one l at a time and only lhs * rhs and rhs * rhs
    are held whole, so c is summed over the same contiguous arrays as it
    would be from the full tensors."""
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
    return c, [("adjoint_closure_constant", abs(c - 1.0), CLOSURE_TOL),
               ("adjoint_closure", float(np.max(unit)), CLOSURE_TOL)]


def invariant_residuals(basis: GeneratorBasis | None = None,
                        seed: int = 0) -> list[tuple[str, float, float]]:
    """The invariant suite as (name, max residual, tolerance) rows.

    Never raises on a broken basis: every check is measured and reported,
    so a caller can print the whole table.  The Jacobi identity is
    sampled on 100 index triples drawn with ``seed``.
    """
    basis = basis or su6_basis()
    mats = np.asarray(basis.matrices)
    labels = basis.labels
    rows = [
        ("hermiticity", float(np.max(_hermiticity(mats))), HERMITICITY_TOL),
        ("tracelessness",
         float(np.max(np.abs(np.trace(mats, axis1=1, axis2=2)))), 1e-12),
        ("trace_orthonormality", float(np.max(_gram_deviation(mats))), GRAM_TOL),
    ]
    sizes = (
        sum(1 for l in labels if l.startswith("s") and "o" not in l),
        sum(1 for l in labels if l.startswith("o")),
        sum(1 for l in labels if l.startswith("s") and "o" in l),
    )
    rows.append(("family_sizes_3_8_24", float(sizes != (3, 8, 24)), 0.5))

    g_full, closure = _structure_tensor(mats)
    rows.append(("commutator_closure", closure, CLOSURE_TOL))
    g = g_full.real
    rows.append(("antisymmetry",
                 float(np.max(np.abs(g + g.transpose(1, 0, 2)))), 1e-12))

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        l, m, n = rng.integers(0, len(mats), size=3)
        t1 = np.einsum("k,ko->o", g[l, m], g[:, n, :])
        t2 = np.einsum("k,ko->o", g[m, n], g[:, l, :])
        t3 = np.einsum("k,ko->o", g[n, l], g[:, m, :])
        worst = max(worst, float(np.max(np.abs(t1 + t2 + t3))))
    rows.append(("jacobi_identity", worst, 1e-9))

    return rows + _adjoint_closure(g)[1]


def structure_constants(basis: GeneratorBasis | None = None) -> np.ndarray:
    """Compute g_lmn = -i tr([b_l, b_m] b_n) / 4 for a trace-normalized basis.

    The basis is validated first (hermiticity and tr(b_l b_m) = 2 delta_lm)
    and the result is checked against the closure relation
    [b_l, b_m] = 2i sum_n g_lmn b_n before it is returned.
    """
    basis = basis or su6_basis()
    mats = np.asarray(basis.matrices)
    # every check is "not resid <= tol", so a NaN residual fails it
    herm = _hermiticity(mats)
    if not np.all(herm <= HERMITICITY_TOL):
        bad = int(np.argmax(herm))
        raise ValueError(
            f"generator {basis.labels[bad]!r} is not Hermitian "
            f"(residual {herm[bad]:.3e})"
        )
    dev = _gram_deviation(mats)
    if not np.max(dev) <= GRAM_TOL:
        a, b = np.unravel_index(int(np.argmax(dev)), dev.shape)
        raise ValueError(
            "basis is not trace-orthonormal: tr(b_l b_m) != 2 delta for pair "
            f"({basis.labels[a]!r}, {basis.labels[b]!r}), "
            f"residual {dev[a, b]:.3e}"
        )
    g, resid = _structure_tensor(mats)
    if not np.max(np.abs(g.imag)) <= 1e-12:
        raise RuntimeError("structure constants acquired an imaginary part")
    if not resid <= CLOSURE_TOL:
        raise RuntimeError(
            f"commutator closure failed (residual {resid:.3e} > {CLOSURE_TOL:.1e}); "
            "the supplied basis does not span a closed algebra"
        )
    g = np.ascontiguousarray(g.real)
    g.setflags(write=False)
    return g


def adjoint_matrices(g: np.ndarray) -> AdjointRep:
    """Build the adjoint matrices (G_l)_mn = -g_lmn and measure the closure
    constant c in [G_l, G_m] = c sum_n g_lmn G_n (expected: c = 1).

    g is refused when either adjoint row of ``invariant_residuals``,
    |c - 1| or max|lhs - rhs|, exceeds its bound, so this guard and
    ``algebra verify`` judge g by the same numbers."""
    g = np.asarray(g, dtype=float)
    c, rows = _adjoint_closure(g)
    if not np.isfinite(c):
        raise ValueError("structure constants are zero or not finite")
    for name, resid, tol in rows:
        if not resid <= tol:
            raise RuntimeError(
                f"adjoint closure failed: {name} residual {resid:.3e} > {tol:.1e}"
            )
    G = -g
    G.setflags(write=False)
    return AdjointRep(matrices=G, closure_constant=c)


@lru_cache(maxsize=None, typed=True)  # typed: pair_triple(3.0, 4.0) still fails
def pair_triple(i: int, j: int) -> np.ndarray:
    """Pauli triple (X, Y, Z) on the two states i < j (1-based).

    The Pauli matrices are written into the (i, j) block, so the
    restriction to that support equals them bit for bit.  Cached and
    read-only: repeated calls return the same array.
    """
    if not (1 <= i < j <= 6):
        raise ValueError(f"need 1 <= i < j <= 6, got ({i}, {j})")
    t = np.zeros((3, 6, 6), dtype=complex)
    t[:, [[i - 1], [j - 1]], [i - 1, j - 1]] = _PAULI
    t.setflags(write=False)
    return t


def skyrmion_generators() -> np.ndarray:
    """Generator triple acting as Pauli matrices on the pair of modes
    (up, O) and (down, L), i.e. states 3 and 4.

    Exponentials of this triple steer superpositions of a fundamental
    left-circular mode with a right-circular vortex of positive chirality,
    the family whose transverse textures are skyrmions.
    """
    return pair_triple(3, 4)


def antiskyrmion_generators() -> np.ndarray:
    """Generator triple acting as Pauli matrices on the pair of modes
    (up, O) and (down, R), i.e. states 3 and 5; the texture family with
    reversed in-plane winding (antiskyrmions)."""
    return pair_triple(3, 5)


def _exp_hermitian(h: np.ndarray, t: complex) -> np.ndarray:
    """exp(t * h) for a Hermitian h, from its eigendecomposition."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(t * w)) @ v.conj().T


def exp_generator(generator: np.ndarray, angle: float) -> np.ndarray:
    """Unitary exp(-i * generator * angle / 2) via eigendecomposition.

    The half angle makes a 2*pi rotation of any two-mode pair flip the sign
    on its support (double cover); 4*pi returns the identity.
    """
    generator = np.asarray(generator, dtype=complex)
    _check_hermitian(generator, "generator")
    return _exp_hermitian(generator, -0.5j * angle)


def exp_adjoint(adjoint: AdjointRep, axis: np.ndarray, angle: float) -> np.ndarray:
    """Rotation exp(sum_l axis_l G_l * angle) of the 35-dimensional
    observable vector; real special-orthogonal for real axis.  The real
    antisymmetric G makes i*G Hermitian: this is exp(-i * angle * (i*G))."""
    mats = adjoint.matrices
    axis = np.asarray(axis, dtype=float)
    if axis.shape != (mats.shape[0],):
        raise ValueError(
            f"axis must have {mats.shape[0]} components, got {axis.shape}"
        )
    if np.linalg.norm(axis) < 1e-12:
        raise ValueError("rotation axis is the zero vector")
    gen = np.einsum("l,lmn->mn", axis, mats)
    return _exp_hermitian(1j * gen, -1j * angle).real
