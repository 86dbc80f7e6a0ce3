"""Per-op output checks (standard library only).

Every check returns a list of problems; an empty list passes.  Checks read
only the keys they know, so diagnostics added to the stdout JSON later do
not fail them.  Tolerances:

* hypersphere norm equals n0 * sqrt(5/3) to 1e-12 relative;
* sphere polar angles and torus angles match the generated ones to 1e-9;
* camera and sweep states have unit norm to 1e-12;
* correspondence residual below 1e-9;
* lattice (solid-angle) charge is an integer to 1e-9 and, where the core
  is resolved, equals the expected sign with the finite-difference route
  within 1e-2 of it (see inputs.expected_charge for the other cases);
* a repeated op gives identical bytes (checked by the caller's digest).
"""
from __future__ import annotations

import json
import math
import os

from inputs import SWEEP_FRAMES, SWEEP_PARAMETERS, expected_charge

SQRT_5_3 = math.sqrt(5.0 / 3.0)
FIELD_HEADER = b"x,y,S0,S1,S2,S3,nx,ny,nz\n"
REFUSAL = "do not saturate"
TEXTURE_LABELS = {"neel_out", "neel_in", "bloch_left", "bloch_right",
                  "antiskyrmion_h", "antiskyrmion_v", "dipolar", "antidipolar",
                  "pole", "intermediate", "other"}


def _close(a, b, tol) -> bool:
    return isinstance(a, (int, float)) and abs(a - b) <= tol


def _wrapped_gap(a: float, b: float) -> float:
    return abs((a - b + math.pi) % (2.0 * math.pi) - math.pi)


def charge(spec: dict, grid: int, fd, sa, refused: bool) -> list[str]:
    """Check the two charge routes of one rendered state."""
    want = expected_charge(spec, grid)
    if refused:
        if want["mode"] == "refusal-allowed":
            return []
        return [f"charge refused in mode {want['mode']}"]
    if not (isinstance(fd, (int, float)) and math.isfinite(fd)):
        return [f"finite-difference charge not finite: {fd!r}"]
    if not (isinstance(sa, (int, float)) and abs(sa - round(sa)) <= 1e-9):
        return [f"lattice charge not an integer: {sa!r}"]
    mode, sign = want["mode"], want["sign"]
    if mode == "zero" and (round(sa) != 0 or abs(fd) > 1e-2):
        return [f"expected charge 0, got fd={fd!r} sa={sa!r}"]
    if mode == "resolved" and (round(sa) != sign or abs(fd - sa) > 1e-2):
        return [f"expected charge {sign}, got fd={fd!r} sa={sa!r}"]
    if mode == "unresolved" and round(sa) not in (0, sign):
        return [f"expected charge 0 or {sign}, got sa={sa!r}"]
    return []


def resolved_gap(spec: dict, grid: int, fd, sa) -> float | None:
    """|fd - sa| when the core is resolved, else None."""
    if expected_charge(spec, grid)["mode"] != "resolved":
        return None
    return abs(fd - sa)


# ---------------------------------------------------------------- CLI ops


def stdout_json(stdout: bytes):
    """The one JSON document every su6lab command ends its stdout with."""
    text = stdout.decode("utf-8")
    if not text.startswith("{"):
        start = text.find("\n{")
        if start < 0:
            raise ValueError("no JSON document on stdout")
        text = text[start + 1:]
    return json.loads(text)


def _lines(path: str) -> int:
    with open(path, "rb") as fh:
        return fh.read().count(b"\n")


def _files(out: str, names: list, expected: list) -> list[str]:
    problems = []
    if sorted(names) != sorted(expected):
        problems.append(f"files {names} != {expected}")
    for name in expected:
        path = os.path.join(out, name)
        if not os.path.isfile(path):
            problems.append(f"missing {name}")
            continue
        try:
            with open(path + ".json", encoding="utf-8") as fh:
                if json.load(fh).get("file") != name:
                    problems.append(f"sidecar of {name} names another file")
        except (OSError, ValueError) as exc:
            problems.append(f"sidecar of {name}: {exc}")
    return problems


def _stokes_csv(path: str, grid: int) -> list[str]:
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(FIELD_HEADER):
        return [f"{os.path.basename(path)}: bad header"]
    rows = data.count(b"\n")
    if rows != grid * grid + 1:
        return [f"{os.path.basename(path)}: {rows} lines"]
    return []


def _pgm(path: str, grid: int) -> list[str]:
    with open(path, "rb") as fh:
        data = fh.read()
    header = f"P5\n{grid} {grid}\n255\n".encode("ascii")
    if not data.startswith(header) or len(data) != len(header) + grid * grid:
        return [f"{os.path.basename(path)}: bad PGM"]
    return []


def _state_spheres(doc: dict, spec: dict) -> list[str]:
    problems = []
    n0 = spec["n0"]
    if not _close(doc.get("hypersphere_norm"), n0 * SQRT_5_3, 1e-12 * n0):
        problems.append(f"hypersphere norm {doc.get('hypersphere_norm')!r}")
    spheres = doc.get("spheres") or {}
    if spec["kind"] in ("skyrmion", "antiskyrmion"):
        point = spheres.get(spec["kind"]) or {}
        coords = point.get("coords") or [math.nan] * 3
        if not _close(math.sqrt(sum(c * c for c in coords)), n0, 1e-12 * n0):
            problems.append(f"{spec['kind']} sphere radius off: {coords}")
        if not _close(point.get("theta"), spec["theta"], 1e-9):
            problems.append(f"sphere theta {point.get('theta')!r} != {spec['theta']!r}")
        if math.sin(spec["theta"]) > 1e-6 and not (
                isinstance(point.get("phi"), (int, float))
                and _wrapped_gap(point["phi"], spec["phi"]) <= 1e-9):
            problems.append(f"sphere phi {point.get('phi')!r} != {spec['phi']!r}")
    for name in ("skyrmion", "antiskyrmion", "oam", "polarization"):
        coords = (spheres.get(name) or {}).get("coords") or [math.nan] * 3
        if not math.sqrt(sum(c * c for c in coords)) <= n0 * (1 + 1e-12):
            problems.append(f"{name} sphere outside radius n0")
    torus = doc.get("torus")
    if spec["kind"] == "torus":
        if not torus:
            return problems + ["torus state lost its torus coordinates"]
        if _wrapped_gap(torus["theta_p"], spec["theta_p"]) > 1e-9:
            problems.append(f"theta_p {torus['theta_p']!r} != {spec['theta_p']!r}")
        if _wrapped_gap(torus["phi_t"], spec["phi_t"]) > 1e-9:
            problems.append(f"phi_t {torus['phi_t']!r} != {spec['phi_t']!r}")
        if not _close(torus["poloidal_radius"], n0 / 2, 1e-12 * n0):
            problems.append(f"poloidal radius {torus['poloidal_radius']!r}")
    return problems


def cli_op(op: dict, returncode: int, stdout: bytes, stderr: bytes,
           out: str) -> list[str]:
    """Check one finished su6lab process against what its op expects."""
    kind = op["kind"]
    spec = op.get("spec")
    grid = op.get("grid", 256)
    if kind == "field render" and op.get("charge") and returncode == 2 \
            and REFUSAL in stderr.decode("utf-8", "replace"):
        return charge(spec, grid, None, None, refused=True)
    if returncode != 0:
        tail = stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
        return [f"exit {returncode}: {tail}"]
    try:
        doc = stdout_json(stdout)
    except ValueError as exc:
        return [f"stdout: {exc}"]
    if doc.get("command") != kind:
        return [f"command {doc.get('command')!r} != {kind!r}"]
    files = doc.get("files", [])

    if kind == "algebra verify":
        bad = [k for k, v in (doc.get("residuals") or {}).items()
               if not (isinstance(v, (int, float)) and v <= 1e-9)]
        if doc.get("pass") is not True or doc.get("failed") or bad or not doc.get("residuals"):
            return [f"verify failed: {doc.get('failed')} {bad}"]
        return []
    if kind == "algebra export":
        problems = _files(out, files, ["basis.json", "g_tensor.json",
                                       "g_tensor.csv", "adjoint.json"])
        if not _close(doc.get("closure_constant"), 1.0, 1e-10):
            problems.append(f"closure constant {doc.get('closure_constant')!r}")
        if not doc.get("nonzero_g_entries", 0) > 0:
            problems.append("no structure constants")
        return problems
    if kind == "state eval":
        return _state_spheres(doc, spec)
    if kind == "bench run":
        problems = _files(out, files, ["camera_state.json"])
        alpha = (doc.get("camera_state") or {}).get("alpha") or []
        norm = math.sqrt(sum(re * re + im * im for re, im in alpha))
        if len(alpha) != 6 or not _close(norm, 1.0, 1e-12):
            problems.append(f"camera state norm {norm!r}")
        if doc.get("classification") not in TEXTURE_LABELS:
            problems.append(f"label {doc.get('classification')!r}")
        return problems
    if kind == "bench sweep":
        fields = op.get("fields", False)
        expected = ["trajectory.csv"] + (
            [f"stokes_{k:03d}.csv" for k in range(SWEEP_FRAMES)] if fields else [])
        problems = _files(out, files, expected)
        if doc.get("frames") != SWEEP_FRAMES \
                or doc.get("parameters") != SWEEP_PARAMETERS[op["element"]]:
            problems.append(f"sweep frames {doc.get('parameters')}")
        if len(doc.get("classifications", [])) != SWEEP_FRAMES \
                or not set(doc["classifications"]) <= TEXTURE_LABELS:
            problems.append("sweep classifications")
        if not problems:
            if _lines(os.path.join(out, "trajectory.csv")) != SWEEP_FRAMES + 1:
                problems.append("trajectory rows")
            for name in expected[1:]:
                problems += _stokes_csv(os.path.join(out, name), grid)
        return problems
    if kind == "field render":
        expected = ["stokes.csv", "s0.pgm", "s1.pgm", "s2.pgm", "s3.pgm"]
        if op.get("bubble"):
            expected.append("bubble.csv")
        problems = _files(out, files, expected)
        if problems:
            return problems
        problems += _stokes_csv(os.path.join(out, "stokes.csv"), grid)
        for name in expected[1:5]:
            problems += _pgm(os.path.join(out, name), grid)
        if op.get("bubble"):
            n_theta, n_phi = op["bubble"]
            if _lines(os.path.join(out, "bubble.csv")) != n_theta * n_phi + 1:
                problems.append("bubble rows")
        if op.get("charge"):
            q = doc.get("skyrmion_number") or {}
            problems += charge(spec, grid, q.get("finite_difference"),
                               q.get("solid_angle"), refused=False)
        return problems
    return [f"no check for {kind!r}"]
