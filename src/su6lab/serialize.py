"""Deterministic emitters: JSON, CSV, PGM and provenance sidecars.

Every float is printed with 17 significant digits ('%.17g'), enough to
round-trip IEEE doubles, so identical inputs give byte-identical files.
The JSON writer is local because the stdlib emitter prints shortest
repr, not a fixed format, and emits NaN literals that JSON forbids;
here NaN and infinities become null.
"""
from __future__ import annotations

import os

import numpy as np

from .algebra import BASIS_VERSION
from .state import (
    CoherentState,
    antiskyrmion_sphere,
    oam_sphere,
    skyrmion_sphere,
    state_to_torus,
)

__all__ = [
    "field_csv",
    "format_float",
    "g_tensor_csv",
    "g_tensor_entries",
    "json_text",
    "load_state",
    "pgm_bytes",
    "save_state",
    "state_to_obj",
    "texture_map_csv",
    "write_text",
    "trajectory_csv",
    "write_sidecar",
]


def format_float(value) -> str:
    """17-significant-digit decimal form of one finite float."""
    return "%.17g" % float(value)


def _json_value(value, indent: str, depth: int) -> str:
    pad = indent * (depth + 1)
    close = indent * depth
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        if not np.isfinite(value):
            return "null"
        return format_float(value)
    if isinstance(value, (complex, np.complexfloating)):
        return _json_value([value.real, value.imag], indent, depth)
    if isinstance(value, str):
        out = value
        for raw, esc in (("\\", "\\\\"), ('"', '\\"'), ("\n", "\\n"), ("\t", "\\t")):
            out = out.replace(raw, esc)
        return f'"{out}"'
    if isinstance(value, np.ndarray):
        return _json_value(value.tolist(), indent, depth)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f'{pad}{_json_value(str(k), indent, depth)}: '
            f"{_json_value(v, indent, depth + 1)}"
            for k, v in value.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{close}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        parts = [_json_value(v, indent, depth + 1) for v in value]
        if all(isinstance(v, (int, float, np.integer, np.floating)) for v in value):
            return "[" + ", ".join(parts) + "]"
        items = [f"{pad}{p}" for p in parts]
        return "[\n" + ",\n".join(items) + f"\n{close}]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def json_text(obj) -> str:
    return _json_value(obj, "  ", 0) + "\n"


def write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# ------------------------------------------------------------------ states


def state_to_obj(state: CoherentState) -> dict:
    return {
        "alpha": [[a.real, a.imag] for a in state.alpha],
        "n0": state.n0,
    }


def save_state(path: str, state: CoherentState) -> None:
    write_text(path, json_text(state_to_obj(state)))


def load_state(path: str) -> CoherentState:
    import json

    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict) or "alpha" not in obj:
        raise ValueError(f"{path}: not a state file (missing 'alpha')")
    pairs = obj["alpha"]
    if len(pairs) != 6:
        raise ValueError(f"{path}: 'alpha' must have 6 [re, im] pairs")
    alpha = np.array([complex(re, im) for re, im in pairs])
    try:
        return CoherentState(alpha, n0=float(obj.get("n0", 1.0)))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# ----------------------------------------------------------------- algebra


def g_tensor_entries(g: np.ndarray, cutoff: float = 1e-14) -> list:
    """Nonzero (l, m, n, value) entries, 1-based; entries below the
    cutoff are cancellation noise of the trace arithmetic, not values."""
    rows = []
    for l, m, n in zip(*np.nonzero(np.abs(g) > cutoff)):
        rows.append((int(l) + 1, int(m) + 1, int(n) + 1, float(g[l, m, n])))
    return rows


def g_tensor_csv(g: np.ndarray) -> str:
    lines = ["l,m,n,value"]
    for l, m, n, value in g_tensor_entries(g):
        lines.append(f"{l},{m},{n},{format_float(value)}")
    return "\n".join(lines) + "\n"


# -------------------------------------------------------------- trajectories

TRAJECTORY_COLUMNS = (
    "parameter",
    "skyrmion_1",
    "skyrmion_2",
    "skyrmion_3",
    "antiskyrmion_1",
    "antiskyrmion_2",
    "antiskyrmion_3",
    "oam_1",
    "oam_2",
    "oam_3",
    "theta_p",
    "phi_t",
)


def trajectory_csv(parameters, frames) -> str:
    """One row per sweep frame: swept value (degrees), the three sphere
    coordinate triples (units of hbar*N0) and the torus angles (radians,
    blank-as-nan when the frame leaves the torus family)."""
    lines = [",".join(TRAJECTORY_COLUMNS)]
    for value, frame in zip(parameters, frames):
        cells = [format_float(value)]
        for sphere in (skyrmion_sphere, antiskyrmion_sphere, oam_sphere):
            cells.extend(format_float(c) for c in sphere(frame).coords)
        try:
            torus = state_to_torus(frame, tol=1e-6)
            cells.extend([format_float(torus.theta_p), format_float(torus.phi_t)])
        except ValueError:
            cells.extend(["nan", "nan"])
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------- fields

FIELD_COLUMNS = ("x", "y", "S0", "S1", "S2", "S3", "nx", "ny", "nz")


def field_csv(sf) -> str:
    """Pixel rows in array order (y rising slowest, x fastest)."""
    g = sf.grid
    cols = [
        g.xx,
        g.yy,
        sf.s0,
        sf.s1,
        sf.s2,
        sf.s3,
        sf.n[..., 0],
        sf.n[..., 1],
        sf.n[..., 2],
    ]
    data = np.column_stack([c.ravel() for c in cols])
    lines = [",".join(FIELD_COLUMNS)]
    for row in data:
        lines.append(",".join(format_float(v) for v in row))
    return "\n".join(lines) + "\n"


def pgm_bytes(channel: np.ndarray) -> tuple[bytes, float, float]:
    """8-bit binary PGM of one channel, top row at the largest y.

    The affine scale maps the channel minimum to 0 and the maximum to
    255 (constant channels map to 0); both bounds are returned so the
    sidecar can document the inverse map value = lo + pix/255*(hi-lo).
    """
    lo = float(channel.min())
    hi = float(channel.max())
    if hi > lo:
        scaled = np.rint(255.0 * (channel - lo) / (hi - lo))
    else:
        scaled = np.zeros_like(channel)
    image = scaled.astype(np.uint8)[::-1]
    header = f"P5\n{image.shape[1]} {image.shape[0]}\n255\n".encode("ascii")
    return header + image.tobytes(), lo, hi


def texture_map_csv(tm) -> str:
    lines = ["theta_bin,phi_bin,nx,ny,nz,count"]
    n_theta, n_phi = tm.bins
    for i in range(n_theta):
        for j in range(n_phi):
            v = tm.vectors[i, j]
            lines.append(
                f"{i},{j},"
                f"{format_float(v[0])},{format_float(v[1])},"
                f"{format_float(v[2])},{int(tm.counts[i, j])}"
            )
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------- sidecars


def write_sidecar(path: str, command: list, config: dict, **extra) -> str:
    """Provenance record next to an emitted file.

    The recorded command drops the --out value so reruns into different
    directories stay byte-identical; the resolved config carries the
    output-shaping knobs instead.
    """
    kept = []
    skip = False
    for token in command:
        if skip:
            skip = False
            continue
        if token == "--out":
            skip = True
            continue
        if token.startswith("--out="):
            continue
        kept.append(token)
    obj = {
        "file": os.path.basename(path),
        "command": " ".join(["su6lab", *kept]),
        "config": config,
        "basis_version": BASIS_VERSION,
    }
    obj.update(extra)
    sidecar = path + ".json"
    write_text(sidecar, json_text(obj))
    return sidecar
