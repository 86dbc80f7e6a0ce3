"""Deterministic emitters: JSON, CSV, PGM and provenance sidecars.

The emitters format what they are given and compute nothing: the CLI
evaluates a bench sweep's frames once and hands ``trajectory_csv`` the
table.  Every float is printed with 17 significant digits ('%.17g'),
enough to round-trip IEEE doubles, so identical inputs give
byte-identical files.  CSV cells print non-finite values and negative
zero as '%.17g' does ('nan', 'inf', '-inf', '-0'); JSON writes null
where CSV writes nan or inf.  The JSON writer is local because the
stdlib emitter prints shortest repr, not a fixed format, and emits NaN
literals that JSON forbids.

Arrays are formatted by ``_distinct_text``: it formats each distinct
float64 bit pattern once and indexes the texts back into place, so
repeated values (grid axes, zeros, symmetric fields) cost one format
each.  CSV tables are built in blocks of at most ``_BLOCK_CELLS`` cells,
one text chunk per block, so the temporary text arrays stay small at
large grids.  The emitters join the chunks into one string;
``field_csv_chunks`` hands them out one at a time instead, and the CLI
writes the Stokes CSV from it, so the whole text (145-188 MB at grid
1024) is never held.
"""
from __future__ import annotations

import os

import numpy as np

from .algebra import BASIS_VERSION
from .state import CoherentState

__all__ = [
    "NOISE_CUTOFF",
    "field_csv",
    "field_csv_chunks",
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


# a block's distinct texts are Python strings of about 75 bytes each, held
# twice while the block is joined: 2**14 cells keep that near 3 MB
_BLOCK_CELLS = 1 << 14
# |g| at or below this is cancellation noise of the trace arithmetic, not
# a structure constant; the algebra export writes the value in its files
NOISE_CUTOFF = 1e-14


def format_float(value) -> str:
    """'%.17g' text of one float: 17 significant digits, which round-trip
    a double.  Not only for finite values: nan, inf, -inf and -0.0 print
    as 'nan', 'inf', '-inf' and '-0' (JSON replaces the first three with
    null)."""
    return "%.17g" % float(value)


def _distinct_text(values, nonfinite: str | None = None):
    """(texts, inverse) with ``texts[inverse]`` the format_float text of
    every entry of the real array ``values``, in its shape.

    Each distinct float64 bit pattern is formatted once.  Comparing bit
    patterns, not values, keeps -0.0 apart from 0.0 and gives nan a key.
    ``nonfinite``, when given, is the text of nan and +-inf instead.
    """
    a = np.asarray(values, dtype=np.float64)
    bits, inverse = np.unique(np.ascontiguousarray(a).view(np.int64),
                              return_inverse=True)
    floats = bits.view(np.float64)
    texts = np.array(["%.17g" % v for v in floats.tolist()], dtype=object)
    if nonfinite is not None:
        texts[~np.isfinite(floats)] = nonfinite
    return texts, inverse.reshape(a.shape)


def _csv(columns, *arrays):
    """CSV text in chunks: the ``columns`` header, then the lines of one
    block at a time, one line per row of the arrays side by side.  Each
    array holds one row per line, either one column (1-D) or several
    (2-D); every cell prints as format_float.  Integer columns print as
    integers, since '%.17g' of an integral double below 2**53 is its
    decimal digits."""
    parts = [a[:, None] if a.ndim == 1 else a for a in arrays]
    rows = len(parts[0])
    step = max(1, _BLOCK_CELLS // sum(p.shape[1] for p in parts))
    yield ",".join(columns) + "\n"
    for lo in range(0, rows, step):
        block = np.hstack([p[lo:lo + step] for p in parts])
        texts, inverse = _distinct_text(block)
        cells = (texts + ",")[inverse]
        cells[:, -1] = texts[inverse[:, -1]] + "\n"
        yield "".join(cells.ravel().tolist())


# what JSON forbids raw in a string: backslash, quote, controls below U+0020
_JSON_ESCAPES = {c: f"\\u{c:04x}" for c in range(0x20)} | {
    ord("\\"): "\\\\", ord('"'): '\\"', ord("\n"): "\\n", ord("\t"): "\\t"}


def _json_value(value, indent: str, depth: int) -> str:
    pad = indent * (depth + 1)
    close = indent * depth
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
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
        return f'"{value.translate(_JSON_ESCAPES)}"'
    if isinstance(value, np.ndarray):
        if (value.ndim and value.size and value.dtype.kind in "fc"
                and np.can_cast(value.dtype, np.complex128)):
            return _json_array(value, indent, depth)
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


def _json_array(a: np.ndarray, indent: str, depth: int) -> str:
    """A non-empty float or complex array as _json_value prints
    ``a.tolist()``: innermost lists inline, outer lists one item per line,
    a complex value as its [re, im] pair and non-finite values as null.
    0-d and empty arrays take the tolist() path, which prints the same."""
    if a.dtype.kind == "c":
        a = np.stack([a.real, a.imag], axis=-1)
    texts, inverse = _distinct_text(a, nonfinite="null")
    shape = a.shape
    items = ["[" + ", ".join(row) + "]"
             for row in texts[inverse].reshape(-1, shape[-1]).tolist()]
    for k in reversed(range(a.ndim - 1)):
        pad = indent * (depth + k + 1)
        head, sep = "[\n" + pad, ",\n" + pad
        tail = "\n" + indent * (depth + k) + "]"
        n = shape[k]
        items = [head + sep.join(items[i:i + n]) + tail
                 for i in range(0, len(items), n)]
    return items[0]


def json_text(obj) -> str:
    return _json_value(obj, "  ", 0) + "\n"


def write_text(path: str, text) -> None:
    """Write ``text``, one string or an iterable of string chunks."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines([text] if isinstance(text, str) else text)


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

    # JSON and UTF-8 decoding errors are ValueErrors, so every refusal names the file
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        if not isinstance(obj, dict) or "alpha" not in obj:
            raise ValueError("not a state file (missing 'alpha')")
        pairs, n0 = obj["alpha"], obj.get("n0", 1.0)
        if not isinstance(pairs, list) or len(pairs) != 6:
            raise ValueError("'alpha' must have 6 [re, im] pairs")
        for pair in pairs:
            # type(), not isinstance(): a json true is a bool, and so an int
            if not (isinstance(pair, list) and len(pair) == 2
                    and all(type(x) in (int, float) for x in pair)):
                raise ValueError("'alpha' must have 6 [re, im] pairs of "
                                 f"real numbers, got {pair!r}")
        if type(n0) not in (int, float):
            raise ValueError(f"'n0' must be a real number, got {n0!r}")
        alpha = np.array([complex(re, im) for re, im in pairs])
        # huge amplitudes are refused by name, without numpy's warning
        with np.errstate(over="ignore"):
            return CoherentState(alpha, n0=float(n0))
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: {exc}") from None


# ----------------------------------------------------------------- algebra


def g_tensor_entries(g: np.ndarray) -> np.ndarray:
    """Entries above NOISE_CUTOFF as (l, m, n, value) rows of a float
    array, indices 1-based and in index order.  The indices print as
    integers in CSV and JSON alike."""
    index = np.nonzero(np.abs(g) > NOISE_CUTOFF)
    return np.column_stack([*(i + 1.0 for i in index), g[index]])


def g_tensor_csv(g: np.ndarray) -> str:
    return "".join(_csv(("l", "m", "n", "value"), g_tensor_entries(g)))


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


def trajectory_csv(table) -> str:
    """A bench sweep's (frames, 12) table, columns in TRAJECTORY_COLUMNS order."""
    return "".join(_csv(TRAJECTORY_COLUMNS, table))


# ------------------------------------------------------------------- fields

FIELD_COLUMNS = ("x", "y", "S0", "S1", "S2", "S3", "nx", "ny", "nz")


def field_csv_chunks(sf):
    """The chunks of ``field_csv(sf)``, one block of pixel rows at a time."""
    axis = sf.grid.axis
    planes = (sf.s0, sf.s1, sf.s2, sf.s3, sf.n[..., 0], sf.n[..., 1], sf.n[..., 2])
    return _csv(FIELD_COLUMNS, np.tile(axis, axis.size), np.repeat(axis, axis.size),
                *(p.ravel() for p in planes))


def field_csv(sf) -> str:
    """Pixel rows in array order (y rising slowest, x fastest)."""
    return "".join(field_csv_chunks(sf))


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
    n_theta, n_phi = tm.bins
    theta_bin, phi_bin = np.indices((n_theta, n_phi))
    return "".join(_csv(("theta_bin", "phi_bin", "nx", "ny", "nz", "count"),
                        theta_bin.ravel(), phi_bin.ravel(),
                        tm.vectors.reshape(-1, 3), tm.counts.ravel()))


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
