"""Transverse fields, Stokes textures, sphere maps and topology.

A six-amplitude state is rendered onto a square grid as a pair of
circular-polarization field components built from the three lowest
Laguerre-Gauss modes (orbital charges +1, -1, 0, common waist, waist
plane, no propagation).  The three modes are built once per grid and
waist and kept read-only.  From the pair come the four Stokes fields and
the unit spin texture n = (S1, S2, S3)/S0, defined where S0 exceeds
1e-12 of its peak.

The topological charge is computed two independent ways:

* the finite-difference route integrates the density
  n . (dn/dx x dn/dy) / 4pi with central finite differences, trapezoidal
  over grid plaquettes;
* the solid-angle route sums spherical-triangle solid angles of the unit
  vectors at plaquette corners (the lattice-exact degree of the discrete
  map).

``topological_charge`` takes both routes in one pass and returns them
with the closure diagnostics.  The report is kept on the field, whose
arrays are read-only, so one pass per field and disk radius serves both
routes; ``skyrmion_number`` and ``skyrmion_number_solid_angle`` read
their route from it.

Both routes close the texture outside the integration disk by
saturating it at the average rim spin: spins outside the disk (or where
the intensity is below the cutoff) are replaced by the normalized mean
over the rim ring, and one constant ring of that vector is added past
the grid edge.  The closed map has an integer degree, so both routes
converge to the same integer as the grid is refined; the closure
contribution itself is evaluated once with the solid-angle rule and
shared, so the two results differ only by the interior quadrature.
The derivatives themselves are taken on the texture continued past the
intensity cutoff by nearest defined pixel, never on the saturated map,
so no stencil straddles the artificial closure step.  The continuation
runs only when a stencil that feeds the charge reads a dark pixel;
otherwise it would change no value that is used.

The topology kernels work on the three component planes of the texture,
strip by strip, and repeat the arithmetic of np.einsum and np.cross on
(..., 3) vectors term for term, so each charge is the same float as the
vector formulas give.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .state import (
    CoherentState,
    antiskyrmion_sphere,
    skyrmion_sphere,
    state_to_torus,
)

__all__ = [
    "SpinTextureMap",
    "StokesField",
    "TopologicalCharge",
    "TransverseGrid",
    "classify_texture",
    "lg_mode",
    "radial_to_polar",
    "skyrmion_number",
    "skyrmion_number_solid_angle",
    "soup_bubble",
    "stokes_fields",
    "synthesize",
    "topological_charge",
]

_S0_CUTOFF = 1e-12
_STRIP = 32  # rows per block of the topology kernels
MIN_GRID = 16  # smallest grid side in pixels, also the CLI --grid floor


@dataclass(frozen=True)
class TransverseGrid:
    """Square pixel-center grid, x and y in [-extent, extent]."""

    size: int = 256
    extent: float = 3.0

    def __post_init__(self):
        if int(self.size) != self.size or self.size < MIN_GRID:
            raise ValueError(f"size must be an integer >= {MIN_GRID}, got {self.size}")
        if not self.extent > 0:
            raise ValueError(f"extent must be positive, got {self.extent}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.extent / self.size

    @property
    def area(self) -> float:
        return self.spacing**2

    @cached_property
    def axis(self) -> np.ndarray:
        h = self.spacing
        return -self.extent + h * (np.arange(self.size) + 0.5)

    @cached_property
    def xx(self) -> np.ndarray:
        return np.meshgrid(self.axis, self.axis, indexing="xy")[0]

    @cached_property
    def yy(self) -> np.ndarray:
        return np.meshgrid(self.axis, self.axis, indexing="xy")[1]

    @cached_property
    def rr(self) -> np.ndarray:
        return np.hypot(self.xx, self.yy)

    @cached_property
    def phi(self) -> np.ndarray:
        return np.arctan2(self.yy, self.xx)


@dataclass(frozen=True, eq=False)
class StokesField:
    """Gridded Stokes fields and the unit spin texture.

    ``stokes_fields`` makes the arrays read-only: the charge reports kept
    on the field assume they never change.
    """

    grid: TransverseGrid
    s0: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    s3: np.ndarray
    n: np.ndarray
    mask: np.ndarray
    # TopologicalCharge by float disk radius, filled by topological_charge
    _charges: dict = dataclasses.field(default_factory=dict, init=False,
                                       repr=False)


@dataclass(frozen=True, eq=False)
class TopologicalCharge:
    """Charge of the closed texture over a disk by both routes.

    ``closure`` is the solid-angle charge outside the defined interior
    plaquettes, the part both routes share.  ``rim_spin`` is the unit
    saturation direction and ``rim_alignment`` the smallest rim spin .
    rim_spin (the charge is refused below 0).  ``undefined_fraction`` is
    the share of disk pixels below the intensity cutoff (refused above
    0.25).
    """

    finite_difference: float
    solid_angle: float
    closure: float
    rim_spin: np.ndarray
    rim_alignment: float
    undefined_fraction: float
    disk_radius: float


@dataclass(frozen=True, eq=False)
class SpinTextureMap:
    """Spin texture resampled onto polar/azimuth bins of the sphere."""

    vectors: np.ndarray
    counts: np.ndarray
    disk_radius: float
    profile: str
    bins: tuple[int, int]


@lru_cache(maxsize=1)
def _mode_stack(grid: TransverseGrid, waist: float) -> tuple[np.ndarray, ...]:
    # the LG modes m = +1, -1, 0, read-only and built once per grid and
    # waist.  exp(-i phi) is the conjugate of exp(i phi) bit for bit, so
    # one complex exp serves both vortices; conjugating the finished
    # m = +1 mode instead would flip the sign of its zero imaginary parts
    if not waist > 0:
        raise ValueError(f"waist must be positive, got {waist}")
    envelope = np.exp(-((grid.rr / waist) ** 2))
    ring = (np.sqrt(2.0) * grid.rr / waist) * envelope
    phase = np.exp(1j * grid.phi)
    plus = ring * phase
    minus = ring * np.conj(phase)
    # |plus| equals |minus| pixel by pixel, so they share the norm
    scale = np.sqrt(np.sum(np.abs(plus) ** 2) * grid.area)
    zero = envelope.astype(complex)
    stack = (plus / scale, minus / scale,
             zero / np.sqrt(np.sum(np.abs(zero) ** 2) * grid.area))
    for u in stack:
        u.setflags(write=False)
    return stack


_MODE_INDEX = {1: 0, -1: 1, 0: 2}


def lg_mode(grid: TransverseGrid, m: int, waist: float = 1.0) -> np.ndarray:
    """Laguerre-Gauss mode of orbital charge m in {-1, 0, +1}.

    m = 0 is the Gaussian exp(-r^2/w^2); m = +-1 carry the ring envelope
    (sqrt(2) r / w) exp(-r^2/w^2) and the azimuthal phase exp(i m phi).
    L2-normalized on the grid.  The array is read-only and shared: the
    modes are built once per grid and waist.
    """
    if m not in _MODE_INDEX:
        raise ValueError(f"orbital charge m must be -1, 0 or +1, got {m}")
    return _mode_stack(grid, waist)[_MODE_INDEX[m]]


def synthesize(
    state: CoherentState, grid: TransverseGrid, waist: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Field pair (E_left, E_right) of the circular polarizations."""
    modes = _mode_stack(grid, waist)
    a = state.alpha
    e_left = a[0] * modes[0]
    e_left += a[1] * modes[1]
    e_left += a[2] * modes[2]
    e_right = a[3] * modes[0]
    e_right += a[4] * modes[1]
    e_right += a[5] * modes[2]
    return e_left, e_right


def stokes_fields(
    e_left: np.ndarray, e_right: np.ndarray, grid: TransverseGrid
) -> StokesField:
    """Stokes fields of a circular-basis field pair.

    S3 > 0 means the left-circular (spin up) component dominates.  The
    spin texture n is set to the zero vector where S0 is below 1e-12 of
    its peak.  Its three components are stored as contiguous planes:
    ``n[..., k]`` is contiguous.
    """
    shape = (grid.size, grid.size)
    if e_left.shape != shape or e_right.shape != shape:
        raise ValueError(
            f"field shape {e_left.shape} does not match the grid {shape}"
        )
    il = np.abs(e_left) ** 2
    ir = np.abs(e_right) ** 2
    cross = np.conj(e_left) * e_right
    s0 = il + ir
    s1 = 2.0 * np.real(cross)
    s2 = 2.0 * np.imag(cross)
    s3 = np.subtract(il, ir, out=il)
    mask = s0 > _S0_CUTOFF * s0.max()
    n = np.moveaxis(np.zeros((3,) + shape), 0, -1)
    for k, s in enumerate((s1, s2, s3)):
        np.divide(s, s0, out=n[..., k], where=mask)
    for arr in (s0, s1, s2, s3, n, mask):
        arr.setflags(write=False)
    return StokesField(grid=grid, s0=s0, s1=s1, s2=s2, s3=s3, n=n, mask=mask)


# ---------------------------------------------------------------- topology


# Vector fields here are (3, rows, cols) stacks of component planes.  The
# dot and cross products below repeat, term for term, the arithmetic of
# np.einsum("...i,...i->...") and np.cross on (..., 3) arrays, so every
# value matches those formulas bit for bit.


def _dot(u, v):
    # einsum sums a three-term dot product as (p0 + p2) + p1
    return (u[0] * v[0] + u[2] * v[2]) + u[1] * v[1]


def _cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _plaquette_solid_angles(spins):
    # plaquette corners a b / d c, split into triangles (a, b, c) and
    # (a, c, d); each edge dot product is taken once for both triangles
    a = spins[:, :-1, :-1]
    b = spins[:, :-1, 1:]
    c = spins[:, 1:, 1:]
    d = spins[:, 1:, :-1]
    horiz = _dot(spins[:, :, :-1], spins[:, :, 1:])
    vert = _dot(spins[:, :-1], spins[:, 1:])
    diag = _dot(a, c)
    abc = np.arctan2(_dot(a, _cross(b, c)), 1.0 + horiz[:-1] + vert[:, 1:] + diag)
    acd = np.arctan2(_dot(a, _cross(c, d)), 1.0 + diag + horiz[1:] + vert[:, :-1])
    return 2.0 * abc + 2.0 * acd


def _by_strips(kernel, out, values, before, after):
    # out[i] = kernel(values rows i - before .. i + after)[i], one strip of
    # rows at a time so the kernel's temporaries stay in cache; the window
    # is clipped at the edges, where the kernel applies its border rules
    for i in range(0, out.shape[0], _STRIP):
        lo = max(i - before, 0)
        out[i:i + _STRIP] = kernel(values[:, lo:i + _STRIP + after])[
            i - lo:i - lo + _STRIP
        ]
    return out


def _central_diff(values, spacing, axis):
    # fourth-order symmetric stencil; the two-pixel border where it does
    # not fit takes np.gradient's formulas, one-sided at the edge
    grad = np.empty_like(values)
    v = np.moveaxis(values, axis, 0)
    g = np.moveaxis(grad, axis, 0)
    g[2:-2] = (v[:-4] - 8.0 * v[1:-3] + 8.0 * v[3:-1] - v[4:]) / (
        12.0 * spacing
    )
    g[0] = (v[1] - v[0]) / spacing
    g[1] = (v[2] - v[0]) / (2.0 * spacing)
    g[-2] = (v[-1] - v[-3]) / (2.0 * spacing)
    g[-1] = (v[-1] - v[-2]) / spacing
    return grad


def _charge_density(spins, spacing):
    # rho = n . (dn/dx x dn/dy) / 4pi
    gx = _central_diff(spins, spacing, axis=2)
    gy = _central_diff(spins, spacing, axis=1)
    return _dot(spins, _cross(gx, gy)) / (4.0 * np.pi)


def _continue_past_cutoff(sf: StokesField, mask: np.ndarray):
    # derivatives need a smooth field; dark pixels inherit the spin of
    # the nearest defined pixel instead of an arbitrary constant.  The
    # charge reads rho only on mask pixels, and their stencils reach two
    # pixels along the row and the column; when all of those are defined
    # the continuation changes no value that is read
    spins = np.moveaxis(sf.n, -1, 0)
    reach = mask.copy()
    for s in (1, 2):
        reach[s:] |= mask[:-s]
        reach[:-s] |= mask[s:]
        reach[:, s:] |= mask[:, :-s]
        reach[:, :-s] |= mask[:, s:]
    if not (reach & ~sf.mask).any():
        return spins
    from scipy import ndimage

    rows, cols = ndimage.distance_transform_edt(
        ~sf.mask, return_distances=False, return_indices=True
    )
    return spins[:, rows, cols]


def _closed_texture(sf: StokesField, disk_radius: float) -> TopologicalCharge:
    grid = sf.grid
    disk = grid.rr <= disk_radius
    if not disk.any():
        raise ValueError("integration disk contains no grid pixels")
    undefined = disk & ~sf.mask
    undefined_fraction = float(undefined.sum() / disk.sum())
    if undefined.sum() > 0.25 * disk.sum():
        pct = round(100.0 * undefined.sum() / disk.sum())
        raise ValueError(
            f"spin texture undefined on {pct}% of the disk pixels; "
            "shrink the disk or raise the intensity"
        )
    mask = disk & sf.mask

    inner = np.zeros_like(mask)
    inner[1:-1, 1:-1] = (
        mask[1:-1, 1:-1]
        & mask[:-2, 1:-1]
        & mask[2:, 1:-1]
        & mask[1:-1, :-2]
        & mask[1:-1, 2:]
    )
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

    # the closed texture: n_sat outside the mask and one ring past the edge
    padded = np.empty((3, grid.size + 2, grid.size + 2))
    for k in range(3):
        padded[k] = n_sat[k]
        np.copyto(padded[k, 1:-1, 1:-1], sf.n[..., k], where=mask)
    omega = _by_strips(_plaquette_solid_angles,
                       np.empty((grid.size + 1, grid.size + 1)), padded, 0, 1)
    del padded
    bl_total = omega.sum() / (4.0 * np.pi)

    interior = (
        mask[:-1, :-1] & mask[:-1, 1:] & mask[1:, 1:] & mask[1:, :-1]
    )
    bl_interior = omega[1:-1, 1:-1][interior].sum() / (4.0 * np.pi)
    del omega

    # gradients come from the texture itself wherever the intensity
    # defines it, so no stencil straddles the saturation step
    smooth = _continue_past_cutoff(sf, mask)
    h = grid.spacing
    rho = _by_strips(lambda w: _charge_density(w, h),
                     np.empty((grid.size, grid.size)), smooth, 2, 2)
    plaq = 0.25 * (rho[:-1, :-1] + rho[:-1, 1:] + rho[1:, 1:] + rho[1:, :-1])
    fd_interior = (plaq[interior] * h * h).sum()

    closure = bl_total - bl_interior
    n_sat.setflags(write=False)
    return TopologicalCharge(
        finite_difference=float(fd_interior + closure),
        solid_angle=float(bl_total),
        closure=float(closure),
        rim_spin=n_sat,
        rim_alignment=alignment,
        undefined_fraction=undefined_fraction,
        disk_radius=disk_radius,
    )


def topological_charge(
    sf: StokesField, disk_radius: float | None = None
) -> TopologicalCharge:
    """Both charge routes and the closure diagnostics over the disk
    (default: the grid extent).

    The pass runs once per field and disk radius; the report is kept on
    the field.  A refused charge raises ValueError on every call.
    """
    r = float(sf.grid.extent if disk_radius is None else disk_radius)
    report = sf._charges.get(r)
    if report is None:
        report = sf._charges[r] = _closed_texture(sf, r)
    return report


def skyrmion_number(sf: StokesField, disk_radius: float | None = None) -> float:
    """Topological charge over the disk by the finite-difference route."""
    return topological_charge(sf, disk_radius).finite_difference


def skyrmion_number_solid_angle(
    sf: StokesField, disk_radius: float | None = None
) -> float:
    """Topological charge by the triangle solid-angle route."""
    return topological_charge(sf, disk_radius).solid_angle


# --------------------------------------------------------------- sphere map


def radial_to_polar(r, disk_radius: float, profile: str = "linear"):
    """Map disk radius to sphere polar angle; 'linear' or 'area'."""
    x = np.clip(np.asarray(r, dtype=float) / disk_radius, 0.0, 1.0)
    if profile == "linear":
        theta = np.pi * x
    elif profile == "area":
        theta = 2.0 * np.arcsin(x)
    else:
        raise ValueError(f"unknown radial profile {profile!r}")
    if np.ndim(r) == 0:
        return float(theta)
    return theta


def soup_bubble(
    sf: StokesField,
    disk_radius: float | None = None,
    bins: tuple[int, int] = (32, 64),
    profile: str = "linear",
) -> SpinTextureMap:
    """Resample the disk's spin texture onto sphere bins.

    Radius maps monotonically to the polar angle (axis pixels to the
    north pole, the disk boundary to the south pole), azimuth is kept.
    Each bin holds the normalized mean spin of the pixels that landed in
    it; bins no pixel reached have a zero vector and count 0.
    """
    grid = sf.grid
    if disk_radius is None:
        disk_radius = grid.extent
    if disk_radius > grid.extent + 1e-12:
        raise ValueError(
            f"disk radius {disk_radius} exceeds the grid extent {grid.extent}"
        )
    n_theta, n_phi = bins
    if n_theta < 1 or n_phi < 1:
        raise ValueError(f"bins must be positive, got {bins}")
    sel = (grid.rr <= disk_radius) & sf.mask
    theta = radial_to_polar(grid.rr[sel], disk_radius, profile)
    phi = grid.phi[sel]
    i_theta = np.minimum((theta / np.pi * n_theta).astype(int), n_theta - 1)
    i_phi = np.minimum(
        ((phi + np.pi) / (2.0 * np.pi) * n_phi).astype(int), n_phi - 1
    )
    flat = i_theta * n_phi + i_phi
    counts = np.bincount(flat, minlength=n_theta * n_phi)
    sums = np.zeros((n_theta * n_phi, 3))
    for k in range(3):
        sums[:, k] = np.bincount(
            flat, weights=sf.n[..., k][sel], minlength=n_theta * n_phi
        )
    vectors = np.zeros_like(sums)
    filled = counts > 0
    norms = np.linalg.norm(sums[filled], axis=-1)
    vectors[filled] = sums[filled] / norms[:, None]
    return SpinTextureMap(
        vectors=vectors.reshape(n_theta, n_phi, 3),
        counts=counts.reshape(n_theta, n_phi),
        disk_radius=float(disk_radius),
        profile=profile,
        bins=(n_theta, n_phi),
    )


# ------------------------------------------------------------ classification

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


def _wrap_angle(x: float) -> float:
    return (x + np.pi) % (2.0 * np.pi) - np.pi


def _pair_label(coords, cardinals, tol: float) -> str:
    r = np.linalg.norm(coords)
    if r < 1e-12:
        return "intermediate"
    u = np.asarray(coords) / r
    for target, label in cardinals:
        if np.arccos(np.clip(u @ target, -1.0, 1.0)) <= tol:
            return label
    polar = np.arccos(np.clip(u[2], -1.0, 1.0))
    if polar <= tol or polar >= np.pi - tol:
        return "pole"
    return "intermediate"


def classify_texture(state: CoherentState, tol_deg: float = 1.0) -> str:
    """Name the texture of a state in the span of basis states 3, 4, 5.

    Labels: the four named skyrmion textures, the two named
    antiskyrmion orientations, dipolar, antidipolar, "pole" for states
    at a pair-sphere pole, "intermediate" for anything else inside the
    span, and "other" outside it.  Named labels require the sphere or
    torus coordinates to lie within tol_deg of the exact point.
    """
    tol = np.deg2rad(tol_deg)
    weights = np.abs(state.alpha) ** 2
    if weights[0] + weights[1] + weights[5] > 1e-9:
        return "other"
    if weights[4] <= 1e-9:
        return _pair_label(skyrmion_sphere(state).coords, _SKYRMION_CARDINALS, tol)
    if weights[3] <= 1e-9:
        return _pair_label(
            antiskyrmion_sphere(state).coords, _ANTISKYRMION_CARDINALS, tol
        )
    try:
        tp = state_to_torus(state, tol=1e-6)
    except ValueError:
        return "intermediate"
    if (
        abs(_wrap_angle(tp.theta_p - np.pi / 2)) <= tol
        and abs(_wrap_angle(tp.phi_t)) <= tol
    ):
        return "dipolar"
    if (
        abs(_wrap_angle(tp.theta_p - 3 * np.pi / 2)) <= tol
        and abs(_wrap_angle(tp.phi_t - np.pi)) <= tol
    ):
        return "antidipolar"
    return "intermediate"
