"""Per-stage timings and peak memory of the texture pipeline.

    python3 tools/texture_stages.py [--src SRC] [--grids 64,256,512,1024]

For each grid size a fresh process, pinned to one CPU with BLAS on one
thread, imports su6lab from SRC (default: this checkout's ``src``), builds
the grid and its mode stack, then renders four named states in each of
seven passes: ``synthesize``, ``stokes_fields``, ``topological_charge``
(both routes, on a fresh field each pass) and ``soup_bubble``.  It prints
one JSON object per grid: the first, the fastest and the median call of
each stage in seconds, and the peak resident set after set-up and after
all passes, in MB.  The first call builds what a stage keeps per grid
beyond the mode stack (the disk geometry and the bubble bins), so
``first_s`` shows that one-time cost.
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

STATES = ("neel_out", "bloch_left", "antiskyrmion_h", "neel_in")
STAGES = ("synthesize", "stokes_fields", "topological_charge", "soup_bubble")
PASSES = 7


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _child(size: int) -> dict:
    import numpy as np
    from su6lab import field, state

    grid = field.TransverseGrid(size=size, extent=3.0)
    field.lg_mode(grid, 0)
    states = [state.named_state(name) for name in STATES]
    setup_mb = _peak_mb()
    times = {stage: [] for stage in STAGES}
    for _ in range(PASSES):
        for s in states:
            t0 = time.perf_counter()
            e_left, e_right = field.synthesize(s, grid)
            t1 = time.perf_counter()
            sf = field.stokes_fields(e_left, e_right, grid)
            t2 = time.perf_counter()
            field.topological_charge(sf)
            t3 = time.perf_counter()
            field.soup_bubble(sf)
            t4 = time.perf_counter()
            for stage, dt in zip(STAGES, np.diff([t0, t1, t2, t3, t4])):
                times[stage].append(float(dt))
            del e_left, e_right, sf
    return {
        "grid": size,
        "calls_per_stage": PASSES * len(states),
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
        print(json.dumps(_child(args.child)))
        return
    env = dict(os.environ, PYTHONPATH=args.src, OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    for size in (int(g) for g in args.grids.split(",")):
        out = subprocess.run(
            [sys.executable, __file__, "--child", str(size)],
            env=env, check=True, capture_output=True, text=True).stdout
        print(out.strip(), flush=True)


if __name__ == "__main__":
    main()
