"""su6lab benchmark.

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1

Run from the root of an su6lab checkout; the package is used from ``src``
uninstalled.  Every workload is a closed loop with one client: one op at a
time, in one process tree, with BLAS pinned to one thread.  Inputs are made
from the seed (inputs.py) and the program sees only those files and argv.
Each op's output is checked (checks.py) after its clock stops.

Workloads (why each is here is in BENCHMARK.json and README.md):
  recipes    su6lab CLI processes running the acceptance-criterion-10 mix
  texture    in process: one grid-1024 texture and both charge routes
  geometry   in process: one bench sweep with the per-frame geometry

With --trace 0 the last stdout line holds the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run (spans.py).  Lines before
it are a readable report that also gives the metrics not in the contract.
Exit code 2 without a result when the checkout has no su6lab sources.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import checks
import inputs
import spans
from worker import pin

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".perfbench-work"
CHILD_TIMEOUT_S = 150
SETUP_SAMPLES = 3
IMPORT_PROBES = 3
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (("setup_s", "s"), ("op_best_rel", "ratio"), ("peak_rss_mb", "MB"))
# The reference op of recipes: the interpreter start and the numpy and scipy
# imports that take most of every su6lab process, without su6lab.
REFERENCE_CMD = [sys.executable, "-c", "import numpy, scipy.linalg"]


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units = {"import.su6lab_s": "s", "import.ndimage_lazy_s": "s",
             "cli.process_s": "s/op", "cli.import_s": "s/op"}
    for layer, names in spans.TARGETS.items():
        for name in names:
            units[f"{layer}.{name}.calls"] = "count/op"
            units[f"{layer}.{name}.self_s"] = "s/op"
        units[f"{layer}.self_s"] = "s/op"
        units[f"{layer}.errors"] = "count/op"
    units.update({
        "optics.element_operator.calls_per_frame": "calls/frame",
        "field.lg_mode.calls_per_texture": "calls/texture",
        "field.charge_gap_max": "charge",
        "serialize.field_csv.bytes": "bytes/op",
        "serialize.files_written": "count/op",
        "serialize.bytes_written": "bytes/op",
        "trace.ops": "count",
        "trace.op_p50_traced_s": "s",
        "trace.op_p50_untraced_s": "s",
        "trace.overhead_s": "s",
    })
    return units


# ------------------------------------------------------------ processes


def child_env(root: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    env.update({name: "1" for name in BLAS_THREADS})
    return env


def run_child(cmd: list, root: str, env: dict, log: str) -> dict:
    """Run one process to completion; return its exit code, wall time,
    peak RSS and output.  A process still running after CHILD_TIMEOUT_S is
    killed and reaped."""
    with open(log + ".out", "wb") as out, open(log + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=out, stderr=err)
        previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log + ".out", "rb") as fh:
        stdout = fh.read()
    with open(log + ".err", "rb") as fh:
        stderr = fh.read()
    return {"code": proc.returncode, "seconds": seconds, "stdout": stdout,
            "stderr": stderr, "rss_mb": usage.ru_maxrss / 1024.0}


def python_child(ctx: dict, script: str, *args: str, log: str) -> dict:
    """Run a perfbench script that writes its result to log + '.json'."""
    child = run_child([sys.executable, os.path.join(HERE, script),
                       "--root", ctx["root"], "--result", log + ".json", *args],
                      ctx["root"], ctx["env"], log)
    if child["code"] != 0:
        raise RuntimeError(f"{script} exited {child['code']}: "
                           f"{child['stderr'].decode(errors='replace')[-800:]}")
    with open(log + ".json", encoding="utf-8") as fh:
        return json.load(fh)


# ------------------------------------------------------------ CLI inputs


def _state_files(d: str, specs: list) -> list[str]:
    return [inputs.write(os.path.join(d, f"state_{k}.json"), inputs.state_json(s))
            for k, s in enumerate(specs)]


def _bench_files(d: str, benches: list) -> list[str]:
    return [inputs.write(os.path.join(d, f"{b['name']}.bench"), b["text"])
            for b in benches]


def recipes_ops(root: str, d: str, seed: int) -> list:
    """The criterion-10 recipe set on seeded inputs; one pass is all 11."""
    specs = inputs.state_pool(seed, "recipes", 3)
    sky, anti, torus = _state_files(d, specs)
    fig1, antisky = _bench_files(d, inputs.bench_pool(root, seed, "recipes", 2))
    verify_seed = str(inputs.rng_for(seed, "recipes-verify").randrange(1, 2**31))
    render = ["field", "render", "--grid", "64", "--state"]
    ops = [
        {"kind": "algebra verify", "argv": ["algebra", "verify", "--seed", verify_seed]},
        {"kind": "algebra export", "argv": ["algebra", "export", "--seed", verify_seed]},
        {"kind": "state eval", "spec": specs[0],
         "argv": ["state", "eval", "--state", sky, "--spheres", "--torus"]},
        {"kind": "state eval", "spec": specs[2],
         "argv": ["state", "eval", "--state", torus, "--spheres", "--torus"]},
        {"kind": "bench run", "argv": ["bench", "run", "--bench", fig1]},
        {"kind": "bench run", "argv": ["bench", "run", "--bench", "antiskyrmion"]},
        {"kind": "bench sweep", "element": "HWP3", "fields": True, "grid": 32,
         "argv": ["bench", "sweep", "--bench", antisky, "--element", "HWP3",
                  "--fields", "--grid", "32"]},
        {"kind": "bench sweep", "element": "HWP1",
         "argv": ["bench", "sweep", "--bench", "fig1", "--element", "HWP1"]},
        {"kind": "field render", "spec": specs[0], "grid": 64, "charge": True,
         "bubble": (16, 32),
         "argv": render + [sky, "--skyrmion-number", "--bubble", "16,32"]},
        {"kind": "field render", "spec": specs[1], "grid": 64, "charge": True,
         "argv": render + [anti, "--skyrmion-number"]},
        {"kind": "field render", "spec": specs[2], "grid": 64,
         "argv": render + [torus]},
    ]
    return ops


def warmup_op(d: str, seed: int) -> dict:
    spec = inputs.state_pool(seed, "warmup", 1)[0]
    path = inputs.write(os.path.join(d, "warmup.json"), inputs.state_json(spec))
    return {"kind": "state eval", "spec": spec,
            "argv": ["state", "eval", "--state", path, "--spheres", "--torus"]}


# ------------------------------------------------------------ CLI runs


def cli_op(ctx: dict, op: dict, n: int, traced: bool) -> dict:
    """Run one CLI op into a fresh output directory and check it."""
    out = os.path.join(ctx["run_dir"], f"op{n}")
    os.makedirs(out)
    argv = op["argv"] + ["--out", out]
    log = os.path.join(ctx["log_dir"], f"op{n}")
    if traced:
        cmd = [sys.executable, os.path.join(HERE, "child.py"), log + ".spans",
               str(n), *argv]
    else:
        cmd = [sys.executable, "-m", "su6lab.cli", *argv]
    child = run_child(cmd, ctx["root"], ctx["env"], log)
    child["problems"] = checks.cli_op(op, child["code"], child["stdout"],
                                      child["stderr"], out)
    digest = hashlib.sha256(child["stdout"])
    files, size, field_bytes = 0, 0, 0
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            data = fh.read()
        digest.update(name.encode() + b"\0" + data)
        files += 1
        size += len(data)
        if name.startswith("stokes") and name.endswith(".csv"):
            field_bytes += len(data)
    child.update(digest=digest.hexdigest(), files=files, bytes=size,
                 field_bytes=field_bytes)
    if op.get("charge") and child["code"] == 0 and not child["problems"]:
        q = checks.stdout_json(child["stdout"]).get("skyrmion_number", {})
        child["gap"] = checks.resolved_gap(op["spec"], op["grid"],
                                           q["finite_difference"], q["solid_angle"])
    if traced:
        with open(log + ".spans", encoding="utf-8") as fh:
            traced_out = json.load(fh)
        child["spans"] = traced_out["spans"]
        child["import_s"] = traced_out["import_s"]
    shutil.rmtree(out)
    return child


def cli_workload(ctx: dict) -> dict:
    res = new_result()
    samples = []
    for i in range(1 if ctx["trace"] else SETUP_SAMPLES):
        pin(i)
        start = time.perf_counter()
        d = os.path.join(ctx["work"], f"inputs{i}")
        os.makedirs(d)
        ops = recipes_ops(ctx["root"], d, ctx["seed"])
        record(res, cli_op(ctx, warmup_op(d, ctx["seed"]), -1 - i, False), None, None)
        samples.append(time.perf_counter() - start)
    res["setup_s"] = statistics.median(samples)

    digests: dict[int, str] = {}
    start = time.perf_counter()
    n = 0
    while time.perf_counter() - start < ctx["seconds"]:
        idx, pass_no = n % len(ops), n // len(ops)
        traced = ctx["trace"] and pass_no % 2 == 0
        if idx == 0:
            pin(pass_no // 2 if ctx["trace"] else pass_no)  # as in worker.run
            ref = run_child(REFERENCE_CMD, ctx["root"], ctx["env"],
                            os.path.join(ctx["log_dir"], f"ref{pass_no}"))
            if ref["code"] != 0:
                raise RuntimeError(f"reference op exited {ref['code']}: "
                                   f"{ref['stderr'].decode(errors='replace')[-800:]}")
            res["ref_times"].append(ref["seconds"])
        child = cli_op(ctx, ops[idx], n, traced)
        if digests.setdefault(idx, child["digest"]) != child["digest"]:
            child["problems"].append("repeated op gave different output")
        record(res, child, idx, traced)
        n += 1
    return res


def new_result() -> dict:
    return {"attempted": 0, "failed": 0, "problems": [], "times": [],
            "keys": [], "traced": [], "rss_mb": 0.0, "gaps": [], "children": [],
            "ref_times": []}


def record(res: dict, child: dict, key, traced) -> None:
    """Count one CLI op; key is its index in the op pool, and key and
    traced are None for a warm-up op."""
    res["attempted"] += 1
    if child["problems"]:
        res["failed"] += 1
        res["problems"].extend(child["problems"][:3])
    if traced is None:
        return
    res["times"].append(child["seconds"])
    res["keys"].append(key)
    res["traced"].append(traced)
    res["rss_mb"] = max(res["rss_mb"], child["rss_mb"])
    if child.get("gap") is not None:
        res["gaps"].append(child["gap"])
    if traced:
        res["children"].append({k: child[k] for k in (
            "seconds", "spans", "import_s", "files", "bytes", "field_bytes")})


# ------------------------------------------------------------ in process


def in_process_workload(ctx: dict) -> dict:
    args = ["--workload", ctx["workload"], "--seed", str(ctx["seed"]),
            "--seconds", str(ctx["seconds"])]
    probes = []
    for i in range(0 if ctx["trace"] else SETUP_SAMPLES - 1):
        pin(i)
        probes.append(python_child(ctx, "worker.py", *args, "--setup-only",
                                   log=os.path.join(ctx["log_dir"], f"setup{i}")))
    pin(len(probes))
    res = python_child(ctx, "worker.py", *args,
                       *(["--trace"] if ctx["trace"] else []),
                       log=os.path.join(ctx["log_dir"], "main"))
    for probe in probes:
        res["attempted"] += probe["attempted"]
        res["failed"] += probe["failed"]
        res["problems"] += probe["problems"]
    res["setup_s"] = statistics.median([p["setup_s"] for p in probes + [res]])
    res["rss_mb"] = res.pop("peak_rss_mb")
    return res


# ------------------------------------------------------------ metrics


def best_times(res: dict) -> list:
    """Each distinct op's fastest time in the run, in pool order."""
    best: dict = {}
    for key, t in zip(res["keys"], res["times"]):
        best[key] = min(t, best.get(key, t))
    return [best[key] for key in sorted(best)]


def end_to_end(res: dict) -> dict:
    """op_best_rel is an op's best time over the best time of the workload's
    reference op, timed at the start of every pass on the same CPU.  Other
    tenants slow the whole machine by up to 1.5x for minutes at a time; they
    slow both alike, so the ratio stays while the seconds move."""
    return {"setup_s": res["setup_s"],
            "op_best_rel": statistics.fmean(best_times(res)) / min(res["ref_times"]),
            "peak_rss_mb": res["rss_mb"]}


def tail(times: list) -> str:
    """The highest percentile with at least ten ops beyond it."""
    n = len(times)
    if n < 11:
        return f"undefined: {n} ops, fewer than 11"
    k = n - 10
    return (f"p{100.0 * k / n:.1f} = {sorted(times)[k - 1]:.6f} s "
            f"(10 of {n} ops beyond it)")


def per_layer(ctx: dict, res: dict) -> dict:
    flags = res["traced"]
    traced = [t for t, f in zip(res["times"], flags) if f]
    untraced = [t for t, f in zip(res["times"], flags) if not f]
    n = max(len(traced), 1)
    children = res.get("children", [])
    span_lists = [c["spans"] for c in children] if children else [res.get("spans", [])]
    table = spans.aggregate(span_lists)

    def row(name: str) -> dict:
        return table.get(name, {"calls": 0, "self_s": 0.0, "errors": 0})

    probes = [python_child(ctx, "worker.py", "--probe-import",
                           log=os.path.join(ctx["log_dir"], f"import{i}"))
              for i in range(IMPORT_PROBES)]
    m = {"import.su6lab_s": statistics.median(p["import_s"] for p in probes),
         "import.ndimage_lazy_s": statistics.median(p["ndimage_lazy_s"] for p in probes),
         "cli.process_s": sum(c["seconds"] for c in children) / n,
         "cli.import_s": sum(c["import_s"] for c in children) / n}
    for layer, names in spans.TARGETS.items():
        total = errors = 0.0
        for name in names:
            r = row(f"{layer}.{name}")
            m[f"{layer}.{name}.calls"] = r["calls"] / n
            m[f"{layer}.{name}.self_s"] = r["self_s"] / n
            total += r["self_s"]
            errors += r["errors"]
        m[f"{layer}.self_s"] = total / n
        m[f"{layer}.errors"] = errors / n
    frames = row("optics.run_bench")["calls"]
    textures = row("field.synthesize")["calls"]
    m.update({
        "optics.element_operator.calls_per_frame":
            row("optics.element_operator")["calls"] / frames if frames else 0.0,
        "field.lg_mode.calls_per_texture":
            row("field.lg_mode")["calls"] / textures if textures else 0.0,
        "field.charge_gap_max": max(res["gaps"], default=0.0),
        "serialize.field_csv.bytes": sum(c["field_bytes"] for c in children) / n,
        "serialize.files_written": sum(c["files"] for c in children) / n,
        "serialize.bytes_written": sum(c["bytes"] for c in children) / n,
        "trace.ops": len(traced),
        "trace.op_p50_traced_s": statistics.median(traced) if traced else 0.0,
        "trace.op_p50_untraced_s": statistics.median(untraced) if untraced else 0.0,
    })
    m["trace.overhead_s"] = (m["trace.op_p50_traced_s"] - m["trace.op_p50_untraced_s"]
                             if traced and untraced else 0.0)
    return m


# ------------------------------------------------------------ report


def machine_stamp() -> dict:
    stamp = {"nproc": os.cpu_count(), "cpu": platform.processor() or "unknown",
             "python": platform.python_version()}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    stamp["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for level, index in (("l2_per_core", 2), ("l3_shared", 3)):
        try:
            with open(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size",
                      encoding="utf-8") as fh:
                stamp[level] = fh.read().strip()
        except OSError:
            stamp[level] = "unknown"
    for package in ("numpy", "scipy"):
        try:
            stamp[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            stamp[package] = "unknown"
    return stamp


def working_set(workload: str) -> str:
    """Computed (not measured) bytes of the arrays one op holds."""
    def grid_mb(n: int) -> str:
        return (f"grid {n}: fields 2x{16 * n * n / 1e6:.1f} MB, Stokes "
                f"4x{8 * n * n / 1e6:.1f} MB, n {24 * n * n / 1e6:.1f} MB, "
                f"grid axes 4x{8 * n * n / 1e6:.1f} MB")
    text = {
        "texture": grid_mb(1024),
        "geometry": f"basis 35x6x6 complex {35 * 36 * 16 / 1e3:.0f} kB; g and "
                    f"adjoint 35^3 float64 2x{35 ** 3 * 8 / 1e3:.0f} kB",
        "recipes": f"algebra 35^4 float64 tensors {35 ** 4 * 8 / 1e6:.0f} MB each; "
                   f"{grid_mb(64)}",
    }[workload]
    return text + " (computed)"


WORKLOADS = {
    "recipes": cli_workload,
    "texture": in_process_workload,
    "geometry": in_process_workload,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "su6lab", "__init__.py")):
        print(f"error: {root} is not an su6lab checkout (no src/su6lab)",
              file=sys.stderr)
        return 2
    work = os.path.join(root, WORK_DIR,
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    ctx = {"root": root, "workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": bool(args.trace), "work": work,
           "run_dir": os.path.join(work, "out"), "log_dir": os.path.join(work, "log"),
           "env": child_env(root)}
    os.makedirs(ctx["run_dir"])
    os.makedirs(ctx["log_dir"])
    # a terminated run still stops its child and removes its scratch files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        res = WORKLOADS[args.workload](ctx)
        metrics = per_layer(ctx, res) if ctx["trace"] else end_to_end(res)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            os.rmdir(os.path.dirname(work))

    units = per_layer_units() if ctx["trace"] else dict(END_TO_END)
    print(f"# su6lab benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# machine: {json.dumps(machine_stamp(), sort_keys=True)}")
    print(f"# working set: {working_set(args.workload)}")
    for name, unit in units.items():
        print(f"{name:44s} {metrics[name]:.6g} {unit}")
    print(f"{'ops_per_s':44s} {len(res['times']) / sum(res['times']):.6g} 1/s")
    print(f"{'op_p50_s':44s} {statistics.median(res['times']):.6g} s")
    print(f"{'op_best_s':44s} {statistics.fmean(best_times(res)):.6g} s")
    print(f"{'ref_best_s':44s} {min(res['ref_times']):.6g} s "
          f"(best of {len(res['ref_times'])})")
    print(f"{'op_best_count':44s} {len(best_times(res))} distinct ops, "
          f"{len(res['times'])} timed")
    print(f"{'op_tail_s':44s} {tail(res['times'])}")
    print(f"{'fail_ratio':44s} {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']} failed of {res['attempted']} attempted)")
    for problem in res["problems"][:10]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
