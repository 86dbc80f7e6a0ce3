"""Six-mode coherent states and their observable geometry.

A normalized amplitude vector alpha (states 1..6, spin-major order) together
with a mean photon number N0 fixes every generator expectation
A_l = N0 * alpha^dag b_l alpha, in units of hbar.  The 35-component vector A
always has length N0 * sqrt(5/3); two- and three-mode slices of it live on the
named spheres (skyrmion, antiskyrmion, orbital chirality, polarization) and
on the skyrmion torus handled here.  ``classify_texture`` names the
texture family of a state from its point on the skyrmion and antiskyrmion
spheres or on the torus.  The four named spheres and the label read one
contraction of the state with a stack of their twelve generators, kept for
the last state asked.  States compare and hash by identity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import algebra

_TWO_PI = 2.0 * np.pi
R2 = np.sqrt(2.0)
# smallest side in pixels of a field grid; kept here so the CLI's --grid
# floor reads it without loading field
MIN_GRID = 16

# fixed catalog of named states (amplitudes are normalized at construction)
_NAMED_AMPLITUDES: dict[str, list[complex]] = {
    "basis_1": [1, 0, 0, 0, 0, 0],
    "basis_2": [0, 1, 0, 0, 0, 0],
    "basis_3": [0, 0, 1, 0, 0, 0],
    "basis_4": [0, 0, 0, 1, 0, 0],
    "basis_5": [0, 0, 0, 0, 1, 0],
    "basis_6": [0, 0, 0, 0, 0, 1],
    # radial, spiral and antiradial hedgehogs of the (3, 4) pair
    "neel_out": [0, 0, 1, 1, 0, 0],
    "neel_in": [0, 0, 1, -1, 0, 0],
    "bloch_left": [0, 0, 1, 1j, 0, 0],
    "bloch_right": [0, 0, 1, -1j, 0, 0],
    # equal superpositions of the (3, 5) pair
    "antiskyrmion_h": [0, 0, 1, 0, 1, 0],
    "antiskyrmion_v": [0, 0, 1, 0, -1, 0],
    # fundamental mode plus an orbital dipole
    "dipolar": [0, 0, R2, 1, 1, 0],
    "antidipolar": [0, 0, R2, 1, -1, 0],
    # linearly polarized fundamental modes (bench inputs)
    "h_gaussian": [0, 0, 1, 0, 0, 1],
    "v_gaussian": [0, 0, 1, 0, 0, -1],
}


def positive_finite(name: str, value):
    """The value, refused unless it is a positive finite real number (NaN fails)."""
    if not (_is_finite(name, value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


def _finite(name: str, value):
    """The value, refused unless it is a finite real number (NaN fails)."""
    if not _is_finite(name, value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def _is_finite(name: str, value) -> bool:
    """math.isfinite(value); a value it cannot take (a string, None or a
    complex number), or a bool, which it takes, is refused by name as not
    a real number."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return math.isfinite(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be a real number, got {value!r}")


def _norm(v: np.ndarray) -> float:
    """np.linalg.norm(v) of a 1-D real or complex vector, by the same
    formula (numpy's ord=None case) without its argument handling."""
    if v.dtype.kind == "c":
        re, im = v.real, v.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return math.sqrt(v.dot(v))


def _clamp(x: float) -> float:
    """x limited to [-1, 1] for arccos, as np.clip(x, -1.0, 1.0) limits it."""
    return min(max(x, -1.0), 1.0)


@dataclass(frozen=True, eq=False)
class CoherentState:
    """Normalized six-mode amplitude vector with photon-number scale N0.
    States compare and hash by identity."""

    alpha: np.ndarray
    n0: float = 1.0

    def __post_init__(self) -> None:
        a = np.asarray(self.alpha, dtype=complex).reshape(-1)
        if a.shape != (6,):
            raise ValueError(f"state vector must have 6 components, got {a.shape}")
        norm = _norm(a)
        if not norm < np.inf:
            bad = np.flatnonzero(~np.isfinite(a))
            if bad.size:
                raise ValueError(
                    f"amplitude {bad[0] + 1} is not finite: {complex(a[bad[0]])}"
                )
            raise ValueError("amplitude vector norm overflows")
        if norm < 1e-12:
            if not a.any():
                raise ValueError("zero amplitude vector is not normalizable")
            why = "underflows to 0.0" if norm == 0 else f"{norm!r} is below 1e-12"
            raise ValueError(f"amplitude vector norm {why}, not normalizable")
        positive_finite("n0", self.n0)
        a = a / norm
        a.setflags(write=False)
        object.__setattr__(self, "alpha", a)


@dataclass(frozen=True)
class SpherePoint:
    """A point of an observable sphere: coords in units of hbar, angles free of N0."""

    kind: str
    coords: np.ndarray            # (3,) real
    theta: float                  # polar angle of coords, radians
    phi: float                    # azimuth, radians, 0 when degenerate
    degenerate_azimuth: bool


@dataclass(frozen=True)
class TorusPoint:
    """Poloidal/toroidal coordinates of a three-mode torus state."""

    theta_p: float                # poloidal angle in [0, 2 pi)
    phi_t: float                  # toroidal phase in (-pi, pi]
    poloidal_radius: float        # N0 / 2 for torus states, units of hbar


@dataclass(frozen=True)
class Subsphere:
    """One of the fifteen two-mode spheres: a Pauli triple on a state pair."""

    kind: str
    pair: tuple[int, int]         # 1-based state indices, i < j
    note: str
    triple: np.ndarray            # (3, 6, 6) complex


def named_state(name: str, n0: float = 1.0) -> CoherentState:
    """Build a state from the catalog; unknown names list the catalog."""
    try:
        amps = _NAMED_AMPLITUDES[name]
    except KeyError:
        known = ", ".join(sorted(_NAMED_AMPLITUDES))
        raise ValueError(f"unknown state name {name!r}; known names: {known}") from None
    return CoherentState(np.asarray(amps, dtype=complex), n0=n0)


def state_names() -> tuple[str, ...]:
    return tuple(sorted(_NAMED_AMPLITUDES))


def expectation(state: CoherentState, matrix: np.ndarray) -> float:
    """Expectation N0 * alpha^dag M alpha of a Hermitian M."""
    m = np.asarray(matrix, dtype=complex)
    algebra._check_hermitian(m, "expectation matrix")
    return state.n0 * float(np.real(state.alpha.conj() @ m @ state.alpha))


def all_expectations(state: CoherentState,
                     basis: algebra.GeneratorBasis | None = None) -> np.ndarray:
    """The full 35-component observable vector, norm N0*sqrt(5/3)."""
    basis = basis or algebra.su6_basis()
    return state.n0 * _unit_coords(state, basis.matrices)


def _check_unitary(u: np.ndarray) -> None:
    """Refuse a complex 6x6 matrix whose U^dag U is off the identity by
    more than 1e-10 in any entry."""
    if not np.max(np.abs(u.conj().T @ u - np.eye(6))) <= 1e-10:  # NaN fails too
        raise ValueError("matrix is not unitary")


def apply_unitary(state: CoherentState, u: np.ndarray) -> CoherentState:
    u = np.asarray(u, dtype=complex)
    if u.shape != (6, 6):
        raise ValueError(f"unitary must be 6x6, got {u.shape}")
    _check_unitary(u)
    return CoherentState(u @ state.alpha, n0=state.n0)


def overlap(bra: CoherentState, ket: CoherentState) -> complex:
    """Inner product <bra|ket> of the normalized amplitude vectors."""
    return complex(bra.alpha.conj() @ ket.alpha)


@lru_cache(maxsize=1)  # a sweep asks for one axis and angle on every frame
def _transports(axis_bytes: bytes, shape: tuple[int, ...], angle: float, basis,
                adjoint):
    # the rotation, whose build refuses a bad axis by name, then the
    # unitary, checked once here; basis and adjoint hash by identity and
    # the entry holds them, so a reused id() cannot match a stale entry
    axis = np.frombuffer(axis_bytes).reshape(shape)
    rotation = algebra.exp_adjoint(adjoint, axis, angle)
    unitary = algebra.exp_generator(np.einsum("l,lij->ij", axis, basis.matrices),
                                    angle)
    _check_unitary(unitary)
    return unitary, rotation


def correspondence_residual(state: CoherentState, axis: np.ndarray, angle: float,
                            basis: algebra.GeneratorBasis,
                            adjoint: algebra.AdjointRep) -> float:
    """Max deviation between rotating the observable vector with the adjoint
    matrix exp(G . axis * angle) and transporting the state with the unitary
    exp(-i b . axis * angle / 2) first."""
    axis = np.asarray(axis, dtype=float)
    unitary, rotation = _transports(axis.tobytes(), axis.shape, float(angle),
                                    basis, adjoint)
    quantum = all_expectations(CoherentState(unitary @ state.alpha, state.n0), basis)
    classical = rotation @ all_expectations(state, basis)
    return float(np.max(np.abs(quantum - classical)))


def _unit_coords(state: CoherentState, triple: np.ndarray) -> np.ndarray:
    """Expectations per photon (N0 = 1) of a stack of generators."""
    a = state.alpha
    return np.einsum("kij,i,j->k", triple, a.conj(), a).real


def _triple_point(state: CoherentState, kind: str, unit: np.ndarray) -> SpherePoint:
    # the angles come from the N0 = 1 coordinates, so they do not depend on
    # N0 and the norm cannot overflow or underflow at an extreme N0
    coords = state.n0 * unit
    coords.setflags(write=False)
    r = _norm(unit)
    if r < 1e-14:
        return SpherePoint(kind, coords, 0.0, 0.0, True)
    theta = float(np.arccos(_clamp(unit[2] / r)))
    planar = float(np.hypot(unit[0], unit[1]))
    if planar < 1e-14 * max(r, 1.0):
        return SpherePoint(kind, coords, theta, 0.0, True)
    return SpherePoint(kind, coords, theta, float(np.arctan2(unit[1], unit[0])), False)


# the orbital triple is lambda_1..3 on (L, R) at either spin, the
# polarization triple the Pauli matrices across the spins of each orbital mode
_OAM_TRIPLE = algebra.pair_triple(1, 2) + algebra.pair_triple(4, 5)
_POL_TRIPLE = (algebra.pair_triple(1, 4) + algebra.pair_triple(2, 5)
               + algebra.pair_triple(3, 6))
_OAM_TRIPLE.setflags(write=False)
_POL_TRIPLE.setflags(write=False)
# the four named spheres in one stack, rows 0:3 skyrmion (pair 3, 4), 3:6
# antiskyrmion (pair 3, 5), 6:9 orbital and 9:12 polarization; each row of
# the contraction sums over its own matrix only, so a row equals the one
# its triple alone gives, bit for bit
_NAMED = np.concatenate([algebra.skyrmion_generators(),
                         algebra.antiskyrmion_generators(),
                         _OAM_TRIPLE, _POL_TRIPLE])
_NAMED.setflags(write=False)


@lru_cache(maxsize=1)  # a frame asks for its four spheres and its label in turn
def _named_coords(state: CoherentState) -> np.ndarray:
    # read-only per-photon coordinates of the named spheres; states hash by
    # identity and the entry holds its state, so a reused id() cannot match
    # a stale entry
    unit = _unit_coords(state, _NAMED)
    unit.setflags(write=False)
    return unit


def skyrmion_sphere(state: CoherentState) -> SpherePoint:
    """Expectations of the (3, 4) pair triple, the skyrmion-family sphere."""
    return _triple_point(state, "skyrmion", _named_coords(state)[0:3])


def antiskyrmion_sphere(state: CoherentState) -> SpherePoint:
    """Expectations of the (3, 5) pair triple."""
    return _triple_point(state, "antiskyrmion", _named_coords(state)[3:6])


def oam_sphere(state: CoherentState) -> SpherePoint:
    """Orbital-chirality sphere: su(2) on the (L, R) pair for either spin,
    zero on the fundamental mode.  Opposite hedgehogs land on the same
    point here, which is the orbital degeneracy of the texture family."""
    return _triple_point(state, "oam", _named_coords(state)[6:9])


def polarization_sphere(state: CoherentState) -> SpherePoint:
    """Total polarization (Stokes) vector, traced over the orbital modes."""
    return _triple_point(state, "polarization", _named_coords(state)[9:12])


def su2_state(theta: float, phi: float, kind: str = "skyrmion",
              n0: float = 1.0) -> CoherentState:
    """Two-mode superposition at polar angle theta, azimuth phi of the
    skyrmion sphere (pair 3, 4) or antiskyrmion sphere (pair 3, 5)."""
    _finite("angle theta", theta)
    _finite("angle phi", phi)
    if kind == "skyrmion":
        partner = 3
    elif kind == "antiskyrmion":
        partner = 4
    else:
        raise ValueError(f"kind must be 'skyrmion' or 'antiskyrmion', got {kind!r}")
    a = np.zeros(6, dtype=complex)
    a[2] = np.exp(-0.5j * phi) * np.cos(theta / 2)
    a[partner] = np.exp(0.5j * phi) * np.sin(theta / 2)
    return CoherentState(a, n0=n0)


def torus_state(theta_p: float, phi_t: float, n0: float = 1.0) -> CoherentState:
    """Torus family: fundamental mode at weight 1/2 plus a poloidal mix of
    the two vortex modes of the lower spin, with toroidal phase phi_t.

    theta_p runs over the full poloidal circle: 0 is the skyrmion pair,
    pi the antiskyrmion pair, pi/2 the horizontal dipole and 3 pi/2 the
    vertical dipole.  Angles are wrapped, so any finite input is valid.
    """
    _finite("angle theta_p", theta_p)
    _finite("angle phi_t", phi_t)
    a = np.zeros(6, dtype=complex)
    a[2] = 1 / R2
    pair = np.exp(1j * phi_t) / R2
    a[3] = pair * np.cos(theta_p / 2)
    a[4] = pair * np.sin(theta_p / 2)
    return CoherentState(a, n0=n0)


def state_to_torus(state: CoherentState, tol: float = 1e-8) -> TorusPoint:
    """Invert the torus family map from measured orbital-chirality data.

    theta_p comes from (L1, L3) = N0 / 2 * (sin, cos) theta_p, phi_t
    from the coherence phase between the fundamental amplitude and the
    poloidal combination of the vortex pair.  States outside the family
    (weight outside states 3..5, or an unbalanced fundamental mode) are
    rejected.  ``tol`` must be positive and finite.
    """
    positive_finite("tol", tol)
    a = state.alpha
    outside = float(np.sum(np.abs(a[[0, 1, 5]]) ** 2))
    if outside > tol:
        raise ValueError(
            f"state has weight {outside:.3e} outside the span of states 3..5"
        )
    if abs(abs(a[2]) ** 2 - 0.5) > tol:
        raise ValueError(
            "torus states need a balanced fundamental mode: |alpha_3|^2 = 1/2, "
            f"got {abs(a[2]) ** 2:.6f}"
        )
    l1 = 2.0 * float(np.real(np.conj(a[3]) * a[4]))
    l3 = float(np.abs(a[3]) ** 2 - np.abs(a[4]) ** 2)
    theta_p = float(np.arctan2(l1, l3)) % _TWO_PI
    u = np.array([np.cos(theta_p / 2), np.sin(theta_p / 2)])
    c = u[0] * a[3] + u[1] * a[4]
    phi_t = float(np.angle(c * np.conj(a[2])))
    return TorusPoint(theta_p=theta_p, phi_t=phi_t,
                      poloidal_radius=state.n0 * float(np.hypot(l1, l3)))


# ------------------------------------------------------------ texture labels

# named points of the two pair spheres, as unit coordinates
_SKYRMION_CARDINALS = (
    (np.array([1.0, 0.0, 0.0]), "neel_out"),
    (np.array([-1.0, 0.0, 0.0]), "neel_in"),
    (np.array([0.0, 1.0, 0.0]), "bloch_left"),
    (np.array([0.0, -1.0, 0.0]), "bloch_right"),
)
_ANTISKYRMION_CARDINALS = (
    (np.array([1.0, 0.0, 0.0]), "antiskyrmion_h"),
    (np.array([-1.0, 0.0, 0.0]), "antiskyrmion_v"),
)
# how far off the torus family a state may lie and still get torus
# angles, in the labels here and in the bench sweep's frame table
_TORUS_TOL = 1e-6
# named points of the torus: (label, theta_p, phi_t)
_TORUS_CARDINALS = (
    ("dipolar", np.pi / 2, 0.0),
    ("antidipolar", 3 * np.pi / 2, np.pi),
)


def _wrap_angle(x: float) -> float:
    return (x + np.pi) % _TWO_PI - np.pi


def _pair_label(coords, cardinals, tol: float) -> str:
    # coords are per photon; on the branches that call this the pair weight,
    # which is their length, is at least 1 - 2e-9
    u = coords / _norm(coords)
    for target, label in cardinals:
        if np.arccos(_clamp(u @ target)) <= tol:
            return label
    polar = np.arccos(_clamp(u[2]))
    if polar <= tol or polar >= np.pi - tol:
        return "pole"
    return "intermediate"


def classify_texture(state: CoherentState, tol_deg: float = 1.0) -> str:
    """Name the texture of a state in the span of basis states 3, 4, 5.

    Labels: the four named skyrmion textures, the two named
    antiskyrmion orientations, dipolar, antidipolar, "pole" for states
    at a pair-sphere pole, "intermediate" for anything else inside the
    span, and "other" outside it.  Named labels require the sphere or
    torus coordinates to lie within tol_deg of the exact point, which must
    be positive and finite.
    """
    tol = np.deg2rad(positive_finite("tol_deg", tol_deg))
    weights = np.abs(state.alpha) ** 2
    if weights[0] + weights[1] + weights[5] > 1e-9:
        return "other"
    if weights[4] <= 1e-9:
        return _pair_label(_named_coords(state)[0:3], _SKYRMION_CARDINALS, tol)
    if weights[3] <= 1e-9:
        return _pair_label(_named_coords(state)[3:6], _ANTISKYRMION_CARDINALS, tol)
    try:
        tp = state_to_torus(state, tol=_TORUS_TOL)
    except ValueError:
        return "intermediate"
    for label, theta_p, phi_t in _TORUS_CARDINALS:
        if (abs(_wrap_angle(tp.theta_p - theta_p)) <= tol
                and abs(_wrap_angle(tp.phi_t - phi_t)) <= tol):
            return label
    return "intermediate"


_SUBSPHERE_TABLE: tuple[tuple[str, tuple[int, int], str], ...] = (
    ("polarization", (1, 4), "polarization within the L vortex pair"),
    ("polarization", (2, 5), "polarization within the R vortex pair"),
    ("polarization", (3, 6), "polarization within the fundamental pair"),
    ("oam", (1, 2), "orbital chirality at spin up"),
    ("oam", (1, 3), "L vortex against fundamental at spin up"),
    ("oam", (2, 3), "R vortex against fundamental at spin up"),
    ("oam", (4, 5), "orbital chirality at spin down"),
    ("oam", (4, 6), "L vortex against fundamental at spin down"),
    ("oam", (5, 6), "R vortex against fundamental at spin down"),
    ("coupling", (2, 4), "singlet-triplet spin-orbit coupling pair"),
    ("coupling", (1, 5), "triplet-triplet spin-orbit coupling pair"),
    ("skyrmion", (3, 4), "skyrmion pair"),
    ("skyrmion", (2, 6), "conjugate skyrmion pair"),
    ("antiskyrmion", (3, 5), "antiskyrmion pair"),
    ("antiskyrmion", (1, 6), "conjugate antiskyrmion pair"),
)


def enumerate_subspheres() -> tuple[Subsphere, ...]:
    """All fifteen two-mode spheres; together they cover every unordered
    pair of the six states exactly once (3 + 6 + 2 + 2 + 2)."""
    return tuple(
        Subsphere(kind=kind, pair=pair, note=note,
                  triple=algebra.pair_triple(*pair))
        for kind, pair, note in _SUBSPHERE_TABLE
    )


def subsphere_point(state: CoherentState, pair: tuple[int, int]) -> SpherePoint:
    """Observable point on the two-mode sphere of the given state pair."""
    i, j = pair
    return _triple_point(state, f"pair({i},{j})",
                         _unit_coords(state, algebra.pair_triple(i, j)))
