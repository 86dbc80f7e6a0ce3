"""Seeded inputs for the su6lab benchmark (standard library only).

Every input is a pure function of the workload seed, so one seed gives
byte-identical state and bench files on every machine.  The draws cover:

* states on the skyrmion (3, 4) and antiskyrmion (3, 5) pair spheres over
  the full polar range 0..180 degrees, at any azimuth, with a seeded
  photon number;
* torus states with the poloidal angle on the two arcs |sin theta_p| <= 0.9
  around the skyrmion and antiskyrmion pairs.  The arcs around the dipolar
  points theta_p = 90 and 270 degrees are left out: there the down-spin
  vortex pair vanishes along two azimuths, the rim of the radius-3 disk does
  not saturate, and the texture cannot be closed (the flip radius
  1/sqrt(2 (1 - |sin theta_p|)) reaches the disk edge at |sin| = 17/18);
* benches copied from the shipped ``fig1`` and ``antiskyrmion`` files with
  the HWP1 and HWP3 plate angles drawn from the seed.

Known limits of the draws, handled by the checks rather than by trimming:
the texture of a pair-sphere state flips at the radius
r_c = cot(theta / 2) / sqrt(2).  For r_c beyond the disk edge (theta below
about 26.5 degrees at extent 3) the charge is 0; within two pixels of the
edge the rim straddles the equator and su6lab refuses the charge; below four
pixels the core is unresolved, the lattice route may read 0 and the two
routes disagree (at grid 256, theta = 179 degrees reads 0.042 against 0.0).
"""
from __future__ import annotations

import cmath
import json
import math
import os
import random
import re

SQRT2 = math.sqrt(2.0)
DISK_RADIUS = 3.0           # the CLI default --extent, used as the disk
TORUS_SIN_MAX = 0.9         # |sin theta_p| bound of the closable torus arcs
BENCH_NAMES = ("fig1", "antiskyrmion")
SWEEP_FRAMES = 19           # both shipped sweeps run 0..180/10 and 0..90/5
SWEEP_PARAMETERS = {
    "HWP3": [10.0 * k for k in range(SWEEP_FRAMES)],
    "HWP1": [5.0 * k for k in range(SWEEP_FRAMES)],
}


def rng_for(seed: int, stream: str) -> random.Random:
    """Independent deterministic stream per purpose, so adding a draw to one
    workload does not shift the inputs of another."""
    return random.Random(f"su6lab-perfbench:{seed}:{stream}")


def pair_state(rng: random.Random, kind: str) -> dict:
    """A state on the skyrmion or antiskyrmion pair sphere."""
    theta = rng.uniform(0.0, math.pi)
    phi = rng.uniform(-math.pi, math.pi)
    n0 = rng.uniform(0.5, 2.0)
    alpha = [0j] * 6
    alpha[2] = cmath.exp(-0.5j * phi) * math.cos(theta / 2)
    alpha[3 if kind == "skyrmion" else 4] = cmath.exp(0.5j * phi) * math.sin(theta / 2)
    return {"kind": kind, "theta": theta, "phi": phi, "n0": n0, "alpha": alpha}


def torus_state(rng: random.Random) -> dict:
    """A torus state on one of the two closable poloidal arcs."""
    half = math.asin(TORUS_SIN_MAX)
    theta_p = rng.uniform(-half, half) + (math.pi if rng.random() < 0.5 else 0.0)
    theta_p %= 2.0 * math.pi
    phi_t = rng.uniform(-math.pi, math.pi)
    n0 = rng.uniform(0.5, 2.0)
    pair = cmath.exp(1j * phi_t) / SQRT2
    alpha = [0j] * 6
    alpha[2] = 1.0 / SQRT2
    alpha[3] = pair * math.cos(theta_p / 2)
    alpha[4] = pair * math.sin(theta_p / 2)
    return {"kind": "torus", "theta_p": theta_p, "phi_t": phi_t, "n0": n0,
            "alpha": alpha}


def state_pool(seed: int, stream: str, count: int) -> list[dict]:
    """count states cycling skyrmion, antiskyrmion, torus, skyrmion, ..."""
    rng = rng_for(seed, stream)
    makers = (lambda: pair_state(rng, "skyrmion"),
              lambda: pair_state(rng, "antiskyrmion"),
              lambda: torus_state(rng))
    return [makers[k % 3]() for k in range(count)]


def state_json(spec: dict) -> str:
    """State file text in the format su6lab.serialize.load_state reads."""
    return json.dumps({"alpha": [[a.real, a.imag] for a in spec["alpha"]],
                       "n0": spec["n0"]})


def bench_text(shipped_text: str, name: str, hwp1: float, hwp3: float) -> str:
    """The shipped bench with its name and the HWP1/HWP3 angles replaced."""
    text = re.sub(r'^bench "[^"]*"', f'bench "{name}"', shipped_text,
                  count=1, flags=re.M)
    for plate, angle in (("HWP1", hwp1), ("HWP3", hwp3)):
        text, hits = re.subn(rf"HWP angle=[-0-9.eE+]+ id={plate}\b",
                             f"HWP angle={angle:.6f} id={plate}", text)
        if hits != 1:
            raise ValueError(f"shipped bench {name!r} has no single {plate}")
    return text


def shipped_bench(root: str, name: str) -> str:
    path = os.path.join(root, "src", "su6lab", "benches", f"{name}.bench")
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def bench_pool(root: str, seed: int, stream: str, count: int) -> list[dict]:
    """count benches alternating fig1 and antiskyrmion with seeded plates."""
    rng = rng_for(seed, stream)
    shipped = {name: shipped_bench(root, name) for name in BENCH_NAMES}
    pool = []
    for k in range(count):
        base = BENCH_NAMES[k % 2]
        hwp1 = rng.uniform(0.0, 45.0)
        hwp3 = rng.uniform(0.0, 90.0)
        name = f"{base}-s{seed}-{k}"
        pool.append({"base": base, "name": name, "hwp1": hwp1, "hwp3": hwp3,
                     "text": bench_text(shipped[base], name, hwp1, hwp3)})
    return pool


def unit_axis(seed: int, stream: str, count: int) -> list[tuple[list[float], float]]:
    """count (unit 35-vector axis, angle) pairs for correspondence checks."""
    rng = rng_for(seed, stream)
    out = []
    for _ in range(count):
        axis = [rng.gauss(0.0, 1.0) for _ in range(35)]
        norm = math.sqrt(sum(a * a for a in axis))
        out.append(([a / norm for a in axis], rng.uniform(0.0, 2.0 * math.pi)))
    return out


def write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


# ----------------------------------------------------------- expectations


def flip_radius(spec: dict) -> tuple[float, float]:
    """Smallest and largest radius at which the texture of a generated
    state crosses the equator (n_z = 0), from the LG envelopes alone."""
    if spec["kind"] == "torus":
        s = abs(math.sin(spec["theta_p"]))
        return 1.0 / math.sqrt(2.0 * (1.0 + s)), 1.0 / math.sqrt(2.0 * (1.0 - s))
    half = spec["theta"] / 2
    if math.sin(half) == 0.0:
        return math.inf, math.inf
    r = math.cos(half) / math.sin(half) / SQRT2
    return r, r


def expected_charge(spec: dict, grid: int) -> dict:
    """What the two charge routes must give for a generated state at a
    grid size, with the disk at the grid extent.

    ``mode`` is one of
      "refusal-allowed"  flip radius within two pixels of the disk edge;
      "zero"             the texture never flips inside the disk;
      "resolved"         core at least four pixels wide: lattice charge is
                         ``sign`` and the routes agree within 1e-2;
      "unresolved"       core under four pixels: the lattice charge is 0 or
                         ``sign`` and the finite-difference value is finite.
    """
    h = 2.0 * DISK_RADIUS / grid
    r_min, r_max = flip_radius(spec)
    if spec["kind"] == "torus":
        sign = 1 if math.cos(spec["theta_p"]) > 0 else -1
    else:
        sign = 1 if spec["kind"] == "skyrmion" else -1
    if abs(r_max - DISK_RADIUS) <= 2.0 * h or abs(r_min - DISK_RADIUS) <= 2.0 * h:
        mode = "refusal-allowed"
    elif r_min > DISK_RADIUS:
        mode = "zero"
    elif r_max > DISK_RADIUS:
        mode = "refusal-allowed"
    elif r_min >= 4.0 * h:
        mode = "resolved"
    else:
        mode = "unresolved"
    return {"mode": mode, "sign": sign}
