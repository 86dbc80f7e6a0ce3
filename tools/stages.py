"""Per-stage timings and peak memory of the texture and geometry paths.

    python3 tools/stages.py texture [--src SRC] [--grids 64,256,512,1024]
    python3 tools/stages.py geometry [--src SRC]

Each run is a fresh process, pinned to one CPU with BLAS on one thread,
that imports su6lab from SRC (default: this checkout's ``src``) and
prints one JSON object; peak resident sets are in MB.

texture, one process per grid size: with the grid and its mode stack
built, seven passes over four named states time ``synthesize``,
``stokes_fields``, ``topological_charge`` (both routes, on a fresh
field) and ``soup_bubble``, and it reports the first, the fastest and
the median call in seconds.  The first call builds what a stage keeps
per grid beyond the mode stack (the disk geometry and the bubble bins).

geometry: with the su(6) basis and adjoint built, fifteen passes over
the shipped ``fig1`` and ``antiskyrmion`` benches and their HWP3 and
HWP1 sweeps time ``parse_bench``, ``run_sweep`` (per frame) and, on
every frame, ``all_expectations``, the four named spheres,
``state_to_torus`` (a refusal counts as a call), ``classify_texture``
and ``correspondence_residual`` on a fixed random axis and angle, and
it reports the fastest and the median call in microseconds.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

STATES = ("neel_out", "bloch_left", "antiskyrmion_h", "neel_in")
BENCHES = ("fig1", "antiskyrmion")
SWEEPS = ("HWP3", "HWP1")
SPHERES = ("skyrmion_sphere", "antiskyrmion_sphere", "oam_sphere",
           "polarization_sphere")


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timer(stages, refused=()):
    """(times, timed): timed(stage, fn, *args) adds fn's seconds to times[stage]
    and returns None when fn raises one of ``refused``."""
    times = {stage: [] for stage in stages}

    def timed(stage, fn, *args):
        t = time.perf_counter()
        try:
            return fn(*args)
        except refused:
            return None
        finally:
            times[stage].append(time.perf_counter() - t)
    return times, timed


def texture(size: int) -> dict:
    from su6lab import field, state

    grid = field.TransverseGrid(size=size, extent=3.0)
    field.lg_mode(grid, 0)
    states = [state.named_state(name) for name in STATES]
    setup_mb = _peak_mb()
    times, timed = _timer(("synthesize", "stokes_fields", "topological_charge",
                           "soup_bubble"))
    for _ in range(7):
        for s in states:
            e_left, e_right = timed("synthesize", field.synthesize, s, grid)
            sf = timed("stokes_fields", field.stokes_fields, e_left, e_right, grid)
            timed("topological_charge", field.topological_charge, sf)
            timed("soup_bubble", field.soup_bubble, sf)
            del e_left, e_right, sf
    return {
        "grid": size,
        "calls_per_stage": len(times["synthesize"]),
        "first_s": {k: v[0] for k, v in times.items()},
        "best_s": {k: min(v) for k, v in times.items()},
        "median_s": {k: float(np.median(v)) for k, v in times.items()},
        "peak_rss_setup_mb": setup_mb,
        "peak_rss_mb": _peak_mb(),
    }


def geometry(_: int) -> dict:
    from su6lab import algebra, optics, state

    basis = algebra.su6_basis()
    adjoint = algebra.adjoint_matrices(algebra.structure_constants(basis))
    texts = {name: optics.shipped_bench_path(name).read_text() for name in BENCHES}
    axis = np.random.default_rng(0).normal(size=35)
    axis /= np.linalg.norm(axis)
    times, timed = _timer(("parse_bench", "run_sweep_frame", "all_expectations",
                           *SPHERES, "state_to_torus", "classify_texture",
                           "correspondence_residual"), refused=ValueError)

    passes = 15
    for _ in range(passes):
        for name, text in texts.items():
            for sweep in SWEEPS:
                bench = timed("parse_bench", optics.parse_bench, text, name)
                t = time.perf_counter()
                frames = optics.run_sweep(bench, sweep).frames
                times["run_sweep_frame"].append(
                    (time.perf_counter() - t) / len(frames))
                for frame in frames:
                    timed("all_expectations", state.all_expectations, frame, basis)
                    for sphere in SPHERES:
                        timed(sphere, getattr(state, sphere), frame)
                    timed("state_to_torus", state.state_to_torus, frame)
                    timed("classify_texture", state.classify_texture, frame)
                    timed("correspondence_residual", state.correspondence_residual,
                          frame, axis, 0.7, basis, adjoint)
    return {
        "passes": passes,
        "calls": {k: len(v) for k, v in times.items()},
        "best_us": {k: min(v) * 1e6 for k, v in times.items()},
        "median_us": {k: float(np.median(v)) * 1e6 for k, v in times.items()},
        "peak_rss_mb": _peak_mb(),
    }


def main() -> None:
    base = argparse.ArgumentParser(add_help=False)
    base.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    base.add_argument("--child", type=int, help=argparse.SUPPRESS)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    modes = ap.add_subparsers(dest="mode", required=True)
    modes.add_parser("texture", parents=[base]).add_argument(
        "--grids", default="64,256,512,1024")
    modes.add_parser("geometry", parents=[base])
    args = ap.parse_args()
    if args.child is not None:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        run = {"texture": texture, "geometry": geometry}[args.mode]
        print(json.dumps(run(args.child)))
        return
    env = dict(os.environ, PYTHONPATH=args.src, OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    for child in getattr(args, "grids", "0").split(","):
        out = subprocess.run(
            [sys.executable, __file__, args.mode, "--child", child],
            env=env, check=True, capture_output=True, text=True).stdout
        print(out.strip(), flush=True)


if __name__ == "__main__":
    main()
