"""Per-stage timings and peak memory of the texture path, one grid at a time.

    python3 tools/stages.py [--src SRC] [--grids 64,256,512,1024]

Each grid runs in a fresh process, pinned to one CPU with BLAS on one
thread, that imports su6lab from SRC (default: this checkout's ``src``)
and prints one JSON object; peak resident sets are in MB.

With the grid and its mode stack built, seven passes over four named
states time ``synthesize``, ``stokes_fields``, ``topological_charge``
(both routes, on a fresh field) and ``soup_bubble``, and it reports the
first, the fastest and the median call in seconds.  The first call
builds what a stage keeps per grid beyond the mode stack (the disk
geometry and the bubble bins).

Per-function times of the bench and geometry path come from the traced
benchmark run, ``python3 perfbench/run.py --workload geometry --trace 1``.
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
STAGES = ("synthesize", "stokes_fields", "topological_charge", "soup_bubble")


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def texture(size: int) -> dict:
    from su6lab import field, state

    grid = field.TransverseGrid(size=size, extent=3.0)
    field.lg_mode(grid, 1)  # builds the mode stack and returns its kept array
    states = [state.named_state(name) for name in STATES]
    setup_mb = _peak_mb()
    times = {stage: [] for stage in STAGES}

    def timed(stage, fn, *args):
        t = time.perf_counter()
        out = fn(*args)
        times[stage].append(time.perf_counter() - t)
        return out

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


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    ap.add_argument("--grids", default="64,256,512,1024")
    ap.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child is not None:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        print(json.dumps(texture(args.child)))
        return
    env = dict(os.environ, PYTHONPATH=args.src, OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    for grid in args.grids.split(","):
        out = subprocess.run([sys.executable, __file__, "--child", grid],
                             env=env, check=True, capture_output=True, text=True).stdout
        print(out.strip(), flush=True)


if __name__ == "__main__":
    main()
