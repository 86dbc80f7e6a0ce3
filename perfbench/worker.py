"""In-process workloads, one per process: ``texture`` and ``geometry``.

Run by run.py as ``python worker.py --root DIR --result FILE --workload W
--seed S --seconds T [--trace] [--setup-only]`` or ``--probe-import``.
Set-up is timed from the top of this file: import su6lab, generate the
seeded inputs, run and check one warm-up op (it fills the basis cache, the
grid's cached arrays and the lazy scipy.ndimage import).  The timed loop
then runs ops in a closed loop until T seconds have passed, timing each op
alone and checking its output after the clock stops.  Each pass over the
input pool runs on the next CPU in turn (see pin) and starts by timing the
workload's reference computation.  With --trace, whole passes alternate
between traced and untraced, so the tracing overhead is measured on the
same inputs in the same run.
"""
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
from spans import Tracer  # noqa: E402

TEXTURE_GRID = 1024
POOL = {"texture": 4, "geometry": 8}
REFERENCE_REPEATS = 3
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def pin(turn: int) -> None:
    """Move this process (and the children it starts) to the next CPU in
    turn.  Other tenants slow each vCPU of a shared host by up to 1.7x, in
    phases of seconds to minutes and independently of the other vCPUs, so
    a run that takes its turns on every vCPU still times some ops at full
    speed."""
    if len(CPUS) > 1:
        os.sched_setaffinity(0, {CPUS[turn % len(CPUS)]})


class Texture:
    """One op renders one seeded state at grid 1024 and takes both charge
    routes and the bubble map; nothing is written."""

    def __init__(self, seed: int, root: str):
        import numpy as np
        from su6lab import field, state

        self.np, self.field = np, field
        self.specs = inputs.state_pool(seed, "texture", POOL["texture"])
        self.states = [state.CoherentState(np.array(s["alpha"]), n0=s["n0"])
                       for s in self.specs]
        self.grid = field.TransverseGrid(size=TEXTURE_GRID,
                                         extent=inputs.DISK_RADIUS)
        self.pool = self.distinct = len(self.specs)

    def reference(self):
        """numpy alone on arrays of the texture's grid, the same kind of
        work as an op; it calls no su6lab code, so only the machine moves it.
        Its arrays are freed before the next op, so peak memory stays the op's."""
        np = self.np
        axis = np.linspace(-inputs.DISK_RADIUS, inputs.DISK_RADIUS, TEXTURE_GRID)
        x, y = np.meshgrid(axis, axis)
        f = np.exp(-(x * x + y * y)) * (x + 1j * y)
        return np.gradient(np.abs(f) ** 2 + np.angle(f))[0].sum()

    def op(self, k: int):
        field = self.field
        e_left, e_right = field.synthesize(self.states[k % self.pool], self.grid)
        sf = field.stokes_fields(e_left, e_right, self.grid)
        try:
            fd = field.skyrmion_number(sf)
            sa = field.skyrmion_number_solid_angle(sf)
        except ValueError as exc:
            if checks.REFUSAL not in str(exc):
                raise
            fd = sa = None
        return sf, fd, sa, field.soup_bubble(sf)

    def check(self, k: int, result):
        np = self.np
        sf, fd, sa, tm = result
        spec = self.specs[k % self.pool]
        problems = checks.charge(spec, TEXTURE_GRID, fd, sa, refused=fd is None)
        norms = np.linalg.norm(sf.n, axis=-1)
        if not (np.all(np.abs(norms[sf.mask] - 1.0) <= 1e-12)
                and np.all(norms[~sf.mask] == 0.0)):
            problems.append("spin texture is not unit-norm on the mask")
        filled = tm.counts > 0
        if not filled.any() or not np.all(
                np.abs(np.linalg.norm(tm.vectors[filled], axis=-1) - 1.0) <= 1e-12):
            problems.append("bubble map vectors are not unit-norm")
        digest = hashlib.sha256()
        for arr in (sf.s0, sf.s1, sf.s2, sf.s3, sf.n, tm.vectors, tm.counts):
            digest.update(np.ascontiguousarray(arr).tobytes())
        digest.update(repr((fd, sa)).encode())
        gap = None if fd is None else checks.resolved_gap(spec, TEXTURE_GRID, fd, sa)
        return problems, digest.hexdigest(), gap


class Geometry:
    """One op parses one seeded bench, runs one of its sweeps, and takes
    the observable vector, the four named spheres, the torus point where
    defined, the texture label and a correspondence residual per frame."""

    def __init__(self, seed: int, root: str):
        import numpy as np
        from su6lab import algebra, field, optics, state

        self.np, self.field, self.optics, self.state = np, field, optics, state
        self.benches = inputs.bench_pool(root, seed, "geometry", POOL["geometry"])
        self.axes = [(np.array(a), angle) for a, angle in
                     inputs.unit_axis(seed, "geometry-axis", POOL["geometry"])]
        self.basis = algebra.su6_basis()
        self.adjoint = algebra.adjoint_matrices(
            algebra.structure_constants(self.basis))
        self.pool = len(self.benches)
        self.distinct = 2 * self.pool   # each bench runs both of its sweeps

    def reference(self):
        """Python loops and 6x6 numpy products, the same kind of work as
        an op; it calls no su6lab code, so only the machine moves it."""
        np = self.np
        counts = {}
        for i in range(20000):
            counts[i % 97] = counts.get(i % 97, 0) + i
        a = np.arange(36.0).reshape(6, 6)
        for _ in range(300):
            a = (a @ a.T) / (np.abs(a).sum() + 1.0)
        return counts, a

    def element(self, k: int) -> str:
        return ("HWP3", "HWP1")[(k // self.pool) % 2]

    def op(self, k: int):
        st = self.state
        spec = self.benches[k % self.pool]
        axis, angle = self.axes[k % self.pool]
        bench = self.optics.parse_bench(spec["text"], source=spec["name"])
        result = self.optics.run_sweep(bench, sweep=self.element(k))
        rows = []
        for frame in result.frames:
            try:
                torus = st.state_to_torus(frame)
            except ValueError:
                torus = None
            rows.append((
                frame,
                st.all_expectations(frame, self.basis),
                (st.skyrmion_sphere(frame), st.antiskyrmion_sphere(frame),
                 st.oam_sphere(frame), st.polarization_sphere(frame)),
                torus,
                self.field.classify_texture(frame),
                st.correspondence_residual(frame, axis, angle, self.basis,
                                           self.adjoint),
            ))
        return result, rows

    def check(self, k: int, out):
        np = self.np
        result, rows = out
        problems = []
        if [float(p) for p in result.parameters] != \
                inputs.SWEEP_PARAMETERS[self.element(k)]:
            problems.append("sweep parameters")
        digest = hashlib.sha256()
        for frame, vec, spheres, torus, label, resid in rows:
            if abs(np.linalg.norm(frame.alpha) - 1.0) > 1e-12:
                problems.append("frame state is not unit-norm")
            if abs(np.linalg.norm(vec) - checks.SQRT_5_3) > 1e-12:
                problems.append(f"hypersphere norm {np.linalg.norm(vec)!r}")
            if not resid < 1e-9:
                problems.append(f"correspondence residual {resid!r}")
            if any(np.linalg.norm(p.coords) > 1.0 + 1e-12 for p in spheres):
                problems.append("sphere point outside the unit sphere")
            if torus is not None and not torus.poloidal_radius <= 0.5 + 1e-12:
                problems.append(f"poloidal radius {torus.poloidal_radius!r}")
            if label not in checks.TEXTURE_LABELS:
                problems.append(f"label {label!r}")
            digest.update(frame.alpha.tobytes() + vec.tobytes())
            for p in spheres:
                digest.update(p.coords.tobytes())
            digest.update(repr((torus, label, resid)).encode())
        return problems, digest.hexdigest(), None


WORKLOADS = {"texture": Texture, "geometry": Geometry}


def probe_import() -> dict:
    """Fresh-process import time and the lazy scipy.ndimage cost: the first
    charge call of the process minus a steady one on the same texture."""
    t = time.perf_counter()
    import su6lab  # noqa: F401
    import_s = time.perf_counter() - t
    from su6lab import field, state

    grid = field.TransverseGrid(size=64, extent=inputs.DISK_RADIUS)
    sf = field.stokes_fields(*field.synthesize(state.named_state("neel_out"), grid),
                             grid)
    calls = []
    for _ in range(2):
        t = time.perf_counter()
        field.skyrmion_number(sf)
        calls.append(time.perf_counter() - t)
    return {"import_s": import_s, "ndimage_lazy_s": calls[0] - calls[1]}


def run(args) -> dict:
    workload = WORKLOADS[args.workload](args.seed, args.root)
    tracer = Tracer() if args.trace else None
    out = {"attempted": 1, "failed": 0, "problems": [], "times": [],
           "keys": [], "traced": [], "gaps": [], "ref_times": []}
    digests = {}

    def attempt(k: int, traced: bool):
        if traced:
            tracer.install()
        t = time.perf_counter()
        try:
            result = tracer.run_op(k, workload.op, k) if traced else workload.op(k)
            error = None
        except Exception as exc:  # a failed op is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t
        if traced:
            tracer.uninstall()
        if error is None:
            problems, digest, gap = workload.check(k, result)
            first = digests.setdefault(k % workload.distinct, digest)
            if digest != first:
                problems.append("repeated op gave different output")
            if gap is not None:
                out["gaps"].append(gap)
        else:
            problems = [error]
        if problems:
            out["failed"] += 1
            out["problems"].extend(problems[:3])
        return elapsed

    attempt(0, False)  # warm-up
    out["setup_s"] = time.perf_counter() - T0
    if args.setup_only:
        return out
    start = time.perf_counter()
    k = 0
    while time.perf_counter() - start < args.seconds:
        pass_no = k // workload.distinct
        traced = bool(args.trace) and pass_no % 2 == 0
        if k % workload.distinct == 0:  # traced passes must not share one CPU
            pin(pass_no // 2 if args.trace else pass_no)
            for _ in range(REFERENCE_REPEATS):
                t = time.perf_counter()
                workload.reference()
                out["ref_times"].append(time.perf_counter() - t)
        out["times"].append(attempt(k, traced))
        out["keys"].append(k % workload.distinct)
        out["traced"].append(traced)
        out["attempted"] += 1
        k += 1
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        out["spans"] = tracer.spans
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--probe-import", action="store_true")
    args = parser.parse_args()
    out = probe_import() if args.probe_import else run(args)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
