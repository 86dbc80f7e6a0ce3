"""Transverse fields, Stokes textures, sphere maps and topology.

A six-amplitude state is rendered onto a square grid as a pair of
circular-polarization field components built from the three lowest
Laguerre-Gauss modes (orbital charges +1, -1, 0, common waist, waist
plane, no propagation).  From the pair come the four Stokes fields and
the unit spin texture n = (S1, S2, S3)/S0, defined where S0 exceeds
1e-12 of its peak.

What does not depend on the state is built once and kept read-only, one
entry each (sizes at grid 1024): the modes per grid and waist (24 MB:
the m = +1 mode, the real m = 0 plane and the few pixels where the
m = -1 mode is not conj(m = +1) bit for bit, from which synthesis
rebuilds it strip by strip), the integration disk with its pixel count
per grid and disk radius (1 MB), and the bubble bin of every disk pixel
with the pixel count of every bin per grid, radius, bins and profile
(6.3 MB for a disk of the grid's extent).  The grid keeps no array: its
axis, ``rr`` and ``phi`` are computed on each access, the mode stack
reads each once, and the disk and the bins compute radius and azimuth
strip by strip, only for the pixels they test or bin.

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
intensity cutoff by nearest defined pixel, within two steps, ties as the
EDT (exact Euclidean distance transform), never on the saturated map, so
no stencil straddles the closure step.  Only the dark pixels that a
stencil of the charge reads are continued, and only when there are some.

Synthesis, the Stokes fields, the build of the bubble bins and both
charge kernels run strip by strip of 32 rows, so their temporaries stay
small.  The charge kernels work on the three component planes of the
texture and repeat the arithmetic of np.einsum and np.cross on (..., 3)
vectors term for term, so each charge is the same float as the vector
formulas give.  They run only over the column span of the disk in each
strip: the plaquettes no disk pixel touches all have the saturation
direction at their four corners and take its constant solid angle, and
the density is read on defined disk pixels only.  The closed texture is
built one window at a time, never as a whole padded copy.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral

import numpy as np

# classify_texture reads the state spheres and the torus, so it lives in
# state; the name stays here for callers that address it as a field name
from .state import MIN_GRID, CoherentState, classify_texture, positive_finite

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
_STRIP = 32  # rows per block of the field and topology kernels


def _row_strips(size):
    return (slice(i, i + _STRIP) for i in range(0, size, _STRIP))


def _integers(*values) -> bool:
    return all(isinstance(v, Integral) and not isinstance(v, bool) for v in values)


@dataclass(frozen=True)
class TransverseGrid:
    """Square pixel-center grid, x and y in [-extent, extent]."""

    size: int = 256
    extent: float = 3.0

    def __post_init__(self):
        if not _integers(self.size) or self.size < MIN_GRID:
            raise ValueError(f"size must be an integer >= {MIN_GRID}, got {self.size}")
        positive_finite("extent", self.extent)
        # in Python floats, so numpy does not warn: a pixel area that over- or
        # underflows would reach the modes and be blamed on the waist
        h = 2.0 * float(self.extent) / int(self.size)
        if not 0 < h * h < np.inf:
            raise ValueError(f"extent {self.extent} on a grid of size {self.size} "
                             "gives a pixel area that is zero or not finite")

    @property
    def spacing(self) -> float:
        return 2.0 * self.extent / self.size

    @property
    def area(self) -> float:
        return self.spacing**2

    # the axis, rr and phi are computed on each access: the caches key on
    # grid equality, so an array kept on one grid and written into would
    # reach every equal grid
    @property
    def axis(self) -> np.ndarray:
        h = self.spacing
        return -self.extent + h * (np.arange(self.size) + 0.5)

    @property
    def rr(self) -> np.ndarray:
        return np.hypot(self.axis[None, :], self.axis[:, None])

    @property
    def phi(self) -> np.ndarray:
        return np.arctan2(self.axis[:, None], self.axis[None, :])


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
    # the LG modes, built once per grid and waist and read-only: the m = +1
    # mode, the m = 0 mode's real plane, and the flat pixels ``at`` where
    # m = -1 is not conj(plus) bit for bit, with its values ``fix``.  All
    # three are built whole and compared (a float-times-complex product
    # taken strip by strip can round a subnormal to a zero of the other
    # sign).  exp(-i phi) is conj(exp(i phi)) bit for bit: one exp serves both
    positive_finite("waist", waist)
    # a waist far below the pixel pitch overflows (r / w)^2; the norm
    # check below refuses it, so numpy need not warn on the way
    rr = grid.rr
    with np.errstate(over="ignore", invalid="ignore"):
        envelope = np.exp(-((rr / waist) ** 2))
        ring = (np.sqrt(2.0) * rr / waist) * envelope
    del rr
    phase = np.exp(1j * grid.phi)
    plus = ring * phase
    minus = ring * np.conj(phase)
    del ring, phase
    # |plus| equals |minus| pixel by pixel, so they share the norm
    scale = np.sqrt(np.sum(np.abs(plus) ** 2) * grid.area)
    zero = envelope.astype(complex)
    del envelope
    zero_scale = np.sqrt(np.sum(np.abs(zero) ** 2) * grid.area)
    if not (0 < scale < np.inf and 0 < zero_scale < np.inf):  # NaN fails too
        raise ValueError(
            f"waist {waist} gives a mode of zero or non-finite norm on the "
            f"grid of size {grid.size} and extent {grid.extent}")
    # in place, so no second set of planes is freed among the kept ones
    plus /= scale
    minus /= scale
    zero /= zero_scale
    # patched: the y = 0 half-row of an odd grid (conj(plus) flips a zero
    # imaginary part's sign) and a zero ring where the envelope underflows
    # (a zero real part of the other sign); zero's imaginary part is +0.0
    differs = minus.view(np.uint64) != np.conj(plus).view(np.uint64)
    at = np.flatnonzero(differs.reshape(-1, 2).any(axis=1))
    stack = (plus, zero.real.copy(), at, minus.reshape(-1)[at])
    for u in stack:
        u.setflags(write=False)
    return stack


def _minus_mode(stack: tuple[np.ndarray, ...], rows: slice = slice(None)) -> np.ndarray:
    """The m = -1 mode on ``rows``: conj(plus) with the stack's patches."""
    plus, _, at, fix = stack
    first = (rows.start or 0) * plus.shape[1]
    u = np.conj(plus[rows])
    lo, hi = np.searchsorted(at, (first, first + u.size))
    u.reshape(-1)[at[lo:hi] - first] = fix[lo:hi]
    return u


def lg_mode(grid: TransverseGrid, m: int, waist: float = 1.0) -> np.ndarray:
    """Laguerre-Gauss mode of orbital charge m in {-1, 0, +1}.

    m = 0 is the Gaussian exp(-r^2/w^2); m = +-1 carry the ring envelope
    (sqrt(2) r / w) exp(-r^2/w^2) and the azimuthal phase exp(i m phi).
    L2-normalized on the grid and read-only.  The modes are built once per
    grid and waist; m = +1 is the kept array, shared, and m = -1 and 0 are
    rebuilt from the kept arrays on each call, bit for bit the same.
    """
    if m not in (-1, 0, 1):
        raise ValueError(f"orbital charge m must be -1, 0 or +1, got {m}")
    stack = _mode_stack(grid, waist)
    if m == 1:
        return stack[0]
    u = _minus_mode(stack) if m == -1 else stack[1].astype(complex)
    u.setflags(write=False)
    return u


def synthesize(
    state: CoherentState, grid: TransverseGrid, waist: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Field pair (E_left, E_right) of the circular polarizations."""
    stack = _mode_stack(grid, waist)
    plus, zero = stack[:2]
    a = state.alpha
    e_left, e_right = np.empty((2, grid.size, grid.size), dtype=complex)
    for rows in _row_strips(grid.size):
        minus = _minus_mode(stack, rows)
        for e, amps in ((e_left, a[:3]), (e_right, a[3:])):
            np.multiply(amps[0], plus[rows], out=e[rows])
            e[rows] += amps[1] * minus
            # the real plane multiplies as x + 0j, the m = 0 mode's bits
            e[rows] += amps[2] * zero[rows]
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
    # four blocks, not one: a single block of 32 MB or more (grid 1024)
    # comes back as fresh pages on every call
    s0, s1, s2, s3 = (np.empty(shape) for _ in range(4))
    for rows in _row_strips(grid.size):
        il = np.abs(e_left[rows]) ** 2
        ir = np.abs(e_right[rows]) ** 2
        cross = np.conj(e_left[rows]) * e_right[rows]
        np.add(il, ir, out=s0[rows])
        np.multiply(2.0, np.real(cross), out=s1[rows])
        np.multiply(2.0, np.imag(cross), out=s2[rows])
        np.subtract(il, ir, out=s3[rows])
    mask = s0 > _S0_CUTOFF * s0.max()
    n = np.moveaxis(np.empty((3,) + shape), 0, -1)
    dark = ~mask
    with np.errstate(divide="ignore", invalid="ignore"):
        for k, s in enumerate((s1, s2, s3)):
            np.divide(s, s0, out=n[..., k])
            n[..., k][dark] = 0.0
    for arr in (s0, s1, s2, s3, n, mask):
        arr.setflags(write=False)
    return StokesField(grid=grid, s0=s0, s1=s1, s2=s2, s3=s3, n=n, mask=mask)


# ---------------------------------------------------------------- topology


# Vector fields here are (3, rows, cols) stacks of component planes.  The
# dot and cross products below repeat, term for term, the arithmetic of
# np.einsum("...i,...i->...") and np.cross on (..., 3) arrays, so every
# value matches those formulas bit for bit.  The kernels lay the rows of a
# window end to end, so a step to the right is one flat entry, a step down
# is one row length, and every operand is one contiguous run; the entries
# whose step wraps past a row end are dropped or overwritten.


def _dot(u, v):
    # einsum sums a three-term dot product as (p0 + p2) + p1
    out = u[0] * v[0]
    out += u[2] * v[2]
    out += u[1] * v[1]
    return out


def _cross(u, v):
    out = []
    for i, j in ((1, 2), (2, 0), (0, 1)):
        w = u[i] * v[j]
        w -= u[j] * v[i]
        out.append(w)
    return out


def _plaquette_solid_angles(spins):
    # plaquette corners a b / d c, split into triangles (a, b, c) and
    # (a, c, d); each edge dot product is taken once for both triangles.
    # The plaquette at flat entry k has its corners at k, k + 1,
    # k + cols + 1 and k + cols
    rows, cols = spins.shape[1:]
    flat = np.ascontiguousarray(spins).reshape(3, -1)
    m = (rows - 1) * cols - 1
    a, b, c, d = flat[:, :m], flat[:, 1:m + 1], flat[:, cols + 1:], flat[:, cols:-1]
    horiz = _dot(flat[:, :-1], flat[:, 1:])
    vert = _dot(flat[:, :-cols], flat[:, cols:])
    diag = _dot(a, c)
    abc = np.arctan2(_dot(a, _cross(b, c)), 1.0 + horiz[:m] + vert[1:] + diag)
    acd = np.arctan2(_dot(a, _cross(c, d)), 1.0 + diag + horiz[cols:] + vert[:m])
    omega = np.empty((rows - 1) * cols)
    np.multiply(2.0, abc, out=omega[:m])
    acd *= 2.0
    omega[:m] += acd
    return omega.reshape(rows - 1, cols)[:, :-1]


def _by_strips(kernel, out, values, before, after, active):
    # out[i, j] = kernel(values rows i - before .. i + after, columns
    # j - before .. j + after)[i, j], one strip of rows at a time so the
    # kernel's temporaries stay in cache.  A strip spans only the columns of
    # its active cells; cells outside keep what the caller put in out.  The
    # window is clipped at the grid edge, never at the span's, so the kernel
    # applies its border rules where they belong
    for i in range(0, out.shape[0], _STRIP):
        cols = np.flatnonzero(active[i:i + _STRIP].any(axis=0))
        if not cols.size:
            continue
        c0, c1 = cols[0], cols[-1] + 1
        lo, left = max(i - before, 0), max(c0 - before, 0)
        out[i:i + _STRIP, c0:c1] = kernel(
            values[:, lo:i + _STRIP + after, left:c1 + after]
        )[i - lo:i - lo + _STRIP, c0 - left:c1 - left]
    return out


def _central_diff(flat, shape, spacing, axis):
    # fourth-order symmetric stencil along one axis of the flat planes; the
    # two-pixel border where it does not fit takes np.gradient's formulas,
    # one-sided at the edge
    step = shape[2] if axis == 1 else 1
    grad = np.empty_like(flat)
    inner = grad[:, 2 * step:-2 * step]
    np.multiply(8.0, flat[:, step:-3 * step], out=inner)
    np.subtract(flat[:, :-4 * step], inner, out=inner)
    inner += 8.0 * flat[:, 3 * step:-step]
    inner -= flat[:, 4 * step:]
    inner /= 12.0 * spacing
    v = np.moveaxis(flat.reshape(shape), axis, 0)
    g = np.moveaxis(grad.reshape(shape), axis, 0)
    g[0] = (v[1] - v[0]) / spacing
    g[1] = (v[2] - v[0]) / (2.0 * spacing)
    g[-2] = (v[-1] - v[-3]) / (2.0 * spacing)
    g[-1] = (v[-1] - v[-2]) / spacing
    return grad


def _charge_density(spins, spacing):
    # rho = n . (dn/dx x dn/dy) / 4pi
    flat = np.ascontiguousarray(spins).reshape(3, -1)
    gx = _central_diff(flat, spins.shape, spacing, axis=2)
    gy = _central_diff(flat, spins.shape, spacing, axis=1)
    rho = _dot(flat, _cross(gx, gy))
    rho /= 4.0 * np.pi
    return rho.reshape(spins.shape[1:])


# the 13 offsets within two pixels, +2 into a 2-padded grid, nearest first and
# ties as the EDT's (Maurer et al., IEEE TPAMI 25, 2003): smaller column, row
_NEAR = np.array(sorted(np.ndindex(5, 5), key=lambda o: (
    (o[0] - 2) ** 2 + (o[1] - 2) ** 2, o[1], o[0])))[:13]


def _nearest_defined(defined, rows, cols):
    # the first defined pixel in _NEAR order around each (row, col)
    padded = np.pad(defined, 2)
    first = np.argmax([padded[rows + r, cols + c] for r, c in _NEAR], axis=0)
    return rows + _NEAR[first, 0] - 2, cols + _NEAR[first, 1] - 2


# the eight steps of one and two pixels along a row or a column: the reach
# of the charge stencil beyond its own pixel
_STEPS = ((-2, 0), (-1, 0), (1, 0), (2, 0), (0, -2), (0, -1), (0, 1), (0, 2))


@lru_cache(maxsize=1)
def _disk(grid: TransverseGrid, radius: float) -> tuple[np.ndarray, int]:
    # the integration disk, grid.rr <= radius, and its pixel count,
    # read-only and built once per grid and radius; the radius is taken
    # strip by strip, as grid.rr gives it there
    size, axis = grid.size, grid.axis
    disk = np.empty((size, size), dtype=bool)
    for rows in _row_strips(size):
        np.less_equal(np.hypot(axis[None, :], axis[rows, None]), radius, out=disk[rows])
    disk.setflags(write=False)
    return disk, int(np.count_nonzero(disk))


def _continue_past_cutoff(sf: StokesField, mask: np.ndarray):
    # derivatives need a smooth field; dark pixels inherit the spin of
    # the nearest defined pixel instead of an arbitrary constant.  The
    # charge reads rho only on mask pixels, and their stencils reach two
    # pixels along the row and the column, so only the dark pixels that
    # one dilation of the mask by those steps covers are filled, each from
    # a mask pixel at most two away.  The dilation is taken on the rows
    # that hold dark pixels only, from the mask rows within two of them
    spins = np.moveaxis(sf.n, -1, 0)
    dark_rows = np.flatnonzero(~sf.mask.all(axis=1))
    if not dark_rows.size:
        return spins
    padded, n = np.pad(mask, 2), mask.shape[0]
    near = np.zeros((dark_rows.size, n), dtype=bool)
    for r, c in _STEPS:
        near |= padded[dark_rows + r + 2, c + 2:c + 2 + n]
    near &= ~sf.mask[dark_rows]
    # flatnonzero and divmod give np.nonzero's pixels in its order, without
    # its 2-D index walk (3 ms at grid 1024 even when nothing is found)
    rows, cols = np.divmod(np.flatnonzero(near), n)
    if not rows.size:
        return spins
    rows = dark_rows[rows]
    continued = spins.copy()
    continued[:, rows, cols] = sf.n[_nearest_defined(sf.mask, rows, cols)].T
    return continued


class _ClosedTexture:
    """The texture closed at n_sat outside the mask, on the grid grown by
    one ring of n_sat past the edge.  Indexed [:, rows, cols] in the grown
    grid, it builds just that window, so no closed copy of the grid is made."""

    def __init__(self, planes, mask, n_sat):
        self.planes, self.mask, self.n_sat = planes, mask, n_sat

    def __getitem__(self, index):
        _, rows, cols = index
        size = self.mask.shape[0]
        (r0, r1, _), (c0, c1, _) = rows.indices(size + 2), cols.indices(size + 2)
        window = np.empty((3, r1 - r0, c1 - c0))
        window[:] = self.n_sat[:, None, None]
        # the grid pixels in the window; grid index = grown index - 1
        gr = slice(max(r0 - 1, 0), min(r1 - 1, size))
        gc = slice(max(c0 - 1, 0), min(c1 - 1, size))
        np.copyto(window[:, gr.start + 1 - r0:gr.stop + 1 - r0,
                         gc.start + 1 - c0:gc.stop + 1 - c0],
                  self.planes[:, gr, gc], where=self.mask[gr, gc])
        return window


def _closed_texture(sf: StokesField, disk_radius: float) -> TopologicalCharge:
    grid = sf.grid
    disk, n_disk = _disk(grid, disk_radius)
    if not n_disk:
        raise ValueError("integration disk contains no grid pixels")
    mask = disk & sf.mask
    n_undefined = n_disk - np.count_nonzero(mask)
    undefined_fraction = n_undefined / n_disk
    if n_undefined > 0.25 * n_disk:
        pct = round(100.0 * n_undefined / n_disk)
        raise ValueError(
            f"spin texture undefined on {pct}% of the disk pixels; "
            "shrink the disk or raise the intensity"
        )

    inner = np.zeros_like(mask)
    inner[1:-1, 1:-1] = (
        mask[1:-1, 1:-1]
        & mask[:-2, 1:-1]
        & mask[2:, 1:-1]
        & mask[1:-1, :-2]
        & mask[1:-1, 2:]
    )
    # gathered by flat index from the contiguous planes into a C-ordered
    # (pixels, 3) array, the layout boolean indexing of sf.n gives, so the
    # mean below sums in the same order
    planes = np.moveaxis(sf.n, -1, 0)
    rim = np.flatnonzero(mask & ~inner)
    rim_spins = np.stack([p.ravel()[rim] for p in planes], axis=-1)
    mean = rim_spins.mean(axis=0)
    scale = np.linalg.norm(mean)
    n_sat = mean / max(scale, 1e-300)
    alignment = float(np.min(rim_spins @ n_sat))
    if scale < 1e-6 or alignment < 0.0:
        raise ValueError(
            "rim spins do not saturate toward a common direction; the "
            "disk boundary cuts the texture and its charge is undefined"
        )

    # a plaquette with no corner in the mask has four n_sat corners, so only
    # the plaquettes the mask touches are computed; the rest take the
    # kernel's value on one constant patch, down to the sign of a zero
    closed = _ClosedTexture(planes, mask, n_sat)
    corners = np.pad(mask, 1)
    touched = corners[:-1, :-1] | corners[:-1, 1:] | corners[1:, 1:] | corners[1:, :-1]
    constant = _plaquette_solid_angles(np.broadcast_to(n_sat[:, None, None], (3, 2, 2)))
    omega = _by_strips(_plaquette_solid_angles,
                       np.full(touched.shape, constant[0, 0]), closed, 0, 1, touched)
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
    def plaquettes(window):
        # 0.25 * (a + b + c + d) of rho on the corners, in place
        rho = _charge_density(window, h)
        plaq = rho[:-1, :-1] + rho[:-1, 1:]
        plaq += rho[1:, 1:]
        plaq += rho[1:, :-1]
        plaq *= 0.25
        return plaq

    plaq = _by_strips(plaquettes, np.zeros(interior.shape), smooth, 2, 3, interior)[interior]
    plaq *= h
    plaq *= h
    fd_interior = plaq.sum()

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


def _radius(value) -> float:
    """A disk radius as a float, refused unless the value given is a
    positive finite real number; a bool is not one, though math.isfinite
    takes it."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"disk radius must be a real number, got {value!r}")
    return float(positive_finite("disk radius", value))


def _disk_radius(grid: TransverseGrid, radius: float | None) -> float:
    """The disk radius (default: the extent), positive, finite and within the grid."""
    r = float(grid.extent) if radius is None else _radius(radius)
    if r > grid.extent + 1e-12:
        raise ValueError(f"disk radius {r} exceeds the grid extent {grid.extent}")
    return r


def topological_charge(
    sf: StokesField, disk_radius: float | None = None
) -> TopologicalCharge:
    """Both charge routes and the closure diagnostics over the disk
    (default: the grid extent).

    The pass runs once per field and disk radius; the report is kept on
    the field.  A refused charge raises ValueError on every call.
    """
    r = _disk_radius(sf.grid, disk_radius)
    if r not in sf._charges:
        sf._charges[r] = _closed_texture(sf, r)
    return sf._charges[r]


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
    x = np.asarray(r, dtype=float) / _radius(disk_radius)
    x = np.clip(x, 0.0, 1.0)
    if profile == "linear":
        theta = np.pi * x
    elif profile == "area":
        theta = 2.0 * np.arcsin(x)
    else:
        raise ValueError(f"unknown radial profile {profile!r}")
    if np.ndim(r) == 0:
        return float(theta)
    return theta


@lru_cache(maxsize=1)
def _bubble_bins(grid: TransverseGrid, disk_radius: float, n_theta: int, n_phi: int,
                 profile: str) -> tuple[np.ndarray, np.ndarray]:
    # the bubble bin of every disk pixel in C order, built one strip of rows
    # at a time, and the pixel count of every bin; read-only and built once
    # per grid, radius, bins and profile.  Radius and azimuth are computed at
    # the disk pixels only, as grid.rr and grid.phi give them there
    disk, n_disk = _disk(grid, disk_radius)
    axis = grid.axis
    flat = np.empty(n_disk, dtype=np.intp)
    start = 0
    for rows in _row_strips(grid.size):
        strip = disk[rows]
        x = np.broadcast_to(axis, strip.shape)[strip]
        y = np.broadcast_to(axis[rows, None], strip.shape)[strip]
        theta = radial_to_polar(np.hypot(x, y), disk_radius, profile)
        phi = np.arctan2(y, x)
        i_theta = np.minimum((theta / np.pi * n_theta).astype(int), n_theta - 1)
        i_phi = np.minimum(
            ((phi + np.pi) / (2.0 * np.pi) * n_phi).astype(int), n_phi - 1
        )
        flat[start:start + theta.size] = i_theta * n_phi + i_phi
        start += theta.size
    counts = np.bincount(flat, minlength=n_theta * n_phi)
    flat.setflags(write=False)
    counts.setflags(write=False)
    return flat, counts


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
    disk_radius = _disk_radius(grid, disk_radius)
    if not (isinstance(bins, (tuple, list)) and len(bins) == 2 and _integers(*bins)):
        raise ValueError(f"bins must be a pair of integers, got {bins}")
    n_theta, n_phi = bins
    if n_theta < 1 or n_phi < 1:
        raise ValueError(f"bins must be positive, got {bins}")
    disk = _disk(grid, disk_radius)[0]
    disk_bins, disk_counts = _bubble_bins(grid, disk_radius, n_theta, n_phi, profile)
    defined = sf.mask[disk]
    flat = disk_bins[defined]
    # the disk's counts less those of its dark pixels: integers, so exact
    counts = disk_counts - np.bincount(disk_bins[~defined], minlength=n_theta * n_phi)
    sel = disk & sf.mask
    planes = np.moveaxis(sf.n, -1, 0)
    sums = np.zeros((n_theta * n_phi, 3))
    for k in range(3):
        sums[:, k] = np.bincount(
            flat, weights=planes[k][sel], minlength=n_theta * n_phi
        )
    vectors = np.zeros_like(sums)
    filled = counts > 0
    norms = np.linalg.norm(sums[filled], axis=-1)
    vectors[filled] = sums[filled] / norms[:, None]
    return SpinTextureMap(
        vectors=vectors.reshape(n_theta, n_phi, 3),
        counts=counts.reshape(n_theta, n_phi),
        disk_radius=disk_radius,
        profile=profile,
        bins=(n_theta, n_phi),
    )
