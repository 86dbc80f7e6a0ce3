"""Per-call timings of the bench-sweep geometry path.

    python3 tools/geometry_stages.py [--src SRC]

A fresh process, pinned to one CPU with BLAS on one thread, imports
su6lab from SRC (default: this checkout's ``src``), builds the su(6)
basis and adjoint representation, and reads the shipped ``fig1`` and
``antiskyrmion`` benches.  Each pass runs, for both benches and both of
their sweeps (HWP3 and HWP1): ``parse_bench``, ``run_sweep``, and for
every frame ``all_expectations``, the four named spheres,
``state_to_torus`` (a refusal counts as a call), ``classify_texture``
and ``correspondence_residual`` on a fixed random axis and angle.  It
prints one JSON object: the fastest and the median call of each stage in
microseconds (``run_sweep`` per frame), and the peak resident set in MB.
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

BENCHES = ("fig1", "antiskyrmion")
SWEEPS = ("HWP3", "HWP1")
SPHERES = ("skyrmion_sphere", "antiskyrmion_sphere", "oam_sphere",
           "polarization_sphere")
STAGES = ("parse_bench", "run_sweep_frame", "all_expectations", *SPHERES,
          "state_to_torus", "classify_texture", "correspondence_residual")
PASSES = 15


def _child() -> dict:
    import numpy as np
    from su6lab import algebra, optics, state

    basis = algebra.su6_basis()
    adjoint = algebra.adjoint_matrices(algebra.structure_constants(basis))
    texts = {name: optics.shipped_bench_path(name).read_text() for name in BENCHES}
    axis = np.random.default_rng(0).normal(size=35)
    axis /= np.linalg.norm(axis)
    angle = 0.7
    times = {stage: [] for stage in STAGES}

    def timed(stage, fn, *args):
        t = time.perf_counter()
        try:
            out = fn(*args)
        except ValueError:
            out = None
        times[stage].append(time.perf_counter() - t)
        return out

    for _ in range(PASSES):
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
                          frame, axis, angle, basis, adjoint)
    return {
        "passes": PASSES,
        "calls": {k: len(v) for k, v in times.items()},
        "best_us": {k: min(v) * 1e6 for k, v in times.items()},
        "median_us": {k: float(np.median(v)) * 1e6 for k, v in times.items()},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        print(json.dumps(_child()))
        return
    env = dict(os.environ, PYTHONPATH=args.src, OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, __file__, "--child"],
        env=env, check=True, capture_output=True, text=True).stdout
    print(out.strip(), flush=True)


if __name__ == "__main__":
    main()
