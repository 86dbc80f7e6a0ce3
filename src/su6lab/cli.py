"""Command-line entry point binding algebra, state, optics and field.

Commands
--------
  algebra verify   invariant table with max residuals, exit 1 on failure
  algebra export   basis / structure-constant / adjoint files
  state eval       one state as JSON on stdout
  bench run        parse a bench file and emit the camera-plane state
  bench sweep      trajectory CSV over a bench sweep block
  field render     Stokes CSV and PGM images, optional topological charge

Global flags (after the subcommand): --out, --grid, --extent, --waist,
--seed, --tolerance.  Exit codes: 0 success, 1 verification failure,
2 usage, input or memory error.  Every emitted file gets a JSON sidecar
naming the command (without the --out value), the resolved configuration
and the generator-ordering version.  Floats are printed with 17 significant
digits; each command ends with exactly one JSON document on stdout.
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import algebra, serialize
from . import state as st

# field and optics are imported inside the commands that run them, so
# the algebra and state commands do not pay for compiling them

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """Refuses abbreviated long flags; subcommand parsers share the class."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)


def _flag_value(convert, text: str, accept, expected: str):
    """convert(text) if accept() takes it, else a usage error saying what
    the flag ``expected``."""
    try:
        value = convert(text)
    except ValueError:
        value = None
    if value is None or not accept(value):
        raise argparse.ArgumentTypeError(f"{expected}, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    return _flag_value(float, text, lambda v: 0 < v < np.inf,
                       "must be positive and finite")


def _grid_size(text: str) -> int:
    return _flag_value(int, text, lambda n: n >= st.MIN_GRID,
                       f"grid size must be an integer >= {st.MIN_GRID}")


def _bins(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("bins must be THETA,PHI, e.g. 32,64")
    return tuple(_flag_value(int, p, lambda n: n >= 1,
                             "bin counts must be positive integers") for p in parts)


def _common() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--grid", type=_grid_size, default=256,
                        help="pixels per side (default 256)")
    common.add_argument("--extent", type=_positive_float, default=3.0,
                        help="half-width of the grid in waist units")
    common.add_argument("--waist", type=_positive_float, default=1.0,
                        help="mode waist")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for randomized checks")
    common.add_argument("--tolerance", type=_positive_float, default=None,
                        help="override the command's comparison tolerance")
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="su6lab",
        description="numerical laboratory for six-mode coherent light",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = [_common()]

    p_algebra = sub.add_parser("algebra", help="generator basis tools")
    alg = p_algebra.add_subparsers(dest="subcommand", required=True)
    p_verify = alg.add_parser("verify", parents=common,
                              help="run the invariant suite")
    p_verify.set_defaults(func=cmd_algebra_verify)
    p_export = alg.add_parser("export", parents=common,
                              help="write basis, structure constants, adjoint")
    p_export.set_defaults(func=cmd_algebra_export)

    p_state = sub.add_parser("state", help="state evaluation")
    ste = p_state.add_subparsers(dest="subcommand", required=True)
    p_eval = ste.add_parser("eval", parents=common,
                            help="print one state as JSON")
    p_eval.add_argument("--state", required=True,
                        help="named state or JSON state file")
    p_eval.add_argument("--spheres", action="store_true",
                        help="include the named sphere coordinates")
    p_eval.add_argument("--torus", action="store_true",
                        help="include torus coordinates when applicable")
    p_eval.set_defaults(func=cmd_state_eval)

    p_bench = sub.add_parser("bench", help="optical bench files")
    ben = p_bench.add_subparsers(dest="subcommand", required=True)
    p_run = ben.add_parser("run", parents=common,
                           help="run a bench to the camera plane")
    p_run.add_argument("--bench", required=True,
                       help="bench file path or shipped bench name")
    p_run.set_defaults(func=cmd_bench_run)
    p_sweep = ben.add_parser("sweep", parents=common,
                             help="run a sweep block and write the trajectory")
    p_sweep.add_argument("--bench", required=True,
                         help="bench file path or shipped bench name")
    p_sweep.add_argument("--element", default=None,
                         help="swept element id (default: first sweep block)")
    p_sweep.add_argument("--fields", action="store_true",
                         help="also write a Stokes CSV per frame")
    p_sweep.set_defaults(func=cmd_bench_sweep)

    p_field = sub.add_parser("field", help="transverse field rendering")
    fld = p_field.add_subparsers(dest="subcommand", required=True)
    p_render = fld.add_parser("render", parents=common,
                              help="write Stokes CSV and PGM images")
    p_render.add_argument("--state", required=True,
                          help="named state or JSON state file")
    p_render.add_argument("--skyrmion-number", action="store_true",
                          help="print the topological charge of the texture")
    p_render.add_argument("--bubble", type=_bins, default=None,
                          metavar="THETA,PHI",
                          help="also write a sphere-binned spin map CSV")
    p_render.add_argument("--profile", choices=("linear", "area"),
                          default="linear", help="radial map of the spin bins")
    p_render.set_defaults(func=cmd_field_render)

    return parser


def _emit(obj: dict) -> None:
    sys.stdout.write(serialize.json_text(obj))


def _config(args) -> dict:
    return {
        "grid": args.grid,
        "extent": args.extent,
        "waist": args.waist,
        "seed": args.seed,
        "tolerance": args.tolerance,
    }


def _resolve_state(token: str, what: str = "state") -> st.CoherentState:
    """The named state or the state file ``token``; ``what`` names the
    token's role in the error."""
    if token in st.state_names():
        return st.named_state(token)
    if os.path.exists(token):
        return serialize.load_state(token)
    catalog = ", ".join(st.state_names())
    raise ValueError(f"unknown {what} {token!r}; named states: {catalog}")


def _write_file(args, files: list, name: str, payload, **extra) -> None:
    """Write one output file and its provenance sidecar, and list its name
    in ``files``; ``payload`` is bytes, a string or an iterable of string
    chunks, and ``extra`` goes into the sidecar."""
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, name)
    if isinstance(payload, bytes):
        with open(path, "wb") as fh:
            fh.write(payload)
    else:
        serialize.write_text(path, payload)
    serialize.write_sidecar(path, args._argv, _config(args), **extra)
    files.append(name)


def _spheres(state: st.CoherentState, *kinds: str) -> dict:
    """The points of ``state`` on the named spheres, keyed by kind in the
    order given."""
    obj = {}
    for kind in kinds:
        point = getattr(st, f"{kind}_sphere")(state)
        obj[kind] = {"coords": [float(c) for c in point.coords],
                     "theta": point.theta, "phi": point.phi}
    return obj


def _write_stokes(args, files: list, state, name: str, /, **extra):
    """Render ``state`` on the grid the flags set, write its Stokes CSV as
    ``name`` and return the StokesField; ``extra`` goes into the sidecar
    ahead of the columns."""
    from . import field

    grid = field.TransverseGrid(size=args.grid, extent=args.extent)
    sf = field.stokes_fields(*field.synthesize(state, grid, waist=args.waist), grid)
    _write_file(args, files, name, serialize.field_csv_chunks(sf), **extra,
                columns=list(serialize.FIELD_COLUMNS))
    return sf


# ----------------------------------------------------------------- algebra


def cmd_algebra_verify(args) -> int:
    basis = algebra.su6_basis()
    rows = algebra.invariant_residuals(basis, args.seed)
    failed = []
    residuals = {}
    for name, resid, tol in rows:
        if args.tolerance is not None:
            tol = args.tolerance
        ok = resid <= tol
        if not ok:
            failed.append(name)
        residuals[name] = resid
        print(f"{'PASS' if ok else 'FAIL'}  {name:26s} "
              f"max residual {resid:.3e}  tolerance {tol:.1e}")
    if failed:
        print(f"verification failed: {', '.join(failed)}", file=sys.stderr)
    _emit({
        "command": "algebra verify",
        "pass": not failed,
        "failed": failed,
        "residuals": residuals,
        "basis_version": algebra.BASIS_VERSION,
    })
    return 1 if failed else 0


def cmd_algebra_export(args) -> int:
    basis = algebra.su6_basis()
    g = algebra.structure_constants(basis)
    adj = algebra.adjoint_matrices(g)
    files = []
    _write_file(args, files, "basis.json", serialize.json_text({
        "version": algebra.BASIS_VERSION,
        "labels": list(basis.labels),
        "matrices": basis.matrices,
    }))
    entries = serialize.g_tensor_entries(g)
    _write_file(args, files, "g_tensor.json", serialize.json_text({
        "version": algebra.BASIS_VERSION,
        "noise_cutoff": serialize.NOISE_CUTOFF,
        "entries": entries,
    }), noise_cutoff=serialize.NOISE_CUTOFF)
    _write_file(args, files, "g_tensor.csv", serialize.g_tensor_csv(g),
                columns=["l", "m", "n", "value"],
                noise_cutoff=serialize.NOISE_CUTOFF)
    _write_file(args, files, "adjoint.json", serialize.json_text({
        "version": algebra.BASIS_VERSION,
        "closure_constant": adj.closure_constant,
        "matrices": adj.matrices,
    }))

    _emit({
        "command": "algebra export",
        "files": files,
        "nonzero_g_entries": len(entries),
        "closure_constant": adj.closure_constant,
    })
    return 0


# ------------------------------------------------------------------- state


def cmd_state_eval(args) -> int:
    state = _resolve_state(args.state)
    vec = st.all_expectations(state)
    obj = {
        "command": "state eval",
        "state": args.state,
        **serialize.state_to_obj(state),
        "hypersphere_norm": float(np.linalg.norm(vec)),
    }
    if args.spheres:
        obj["spheres"] = _spheres(state, "skyrmion", "antiskyrmion", "oam",
                                  "polarization")
    if args.torus:
        try:
            torus = st.state_to_torus(state, tol=args.tolerance or 1e-8)
            obj["torus"] = {
                "theta_p": torus.theta_p,
                "phi_t": torus.phi_t,
                "poloidal_radius": torus.poloidal_radius,
            }
        except ValueError:
            obj["torus"] = None
    _emit(obj)
    return 0


# ------------------------------------------------------------------- bench


def _load_bench(token: str) -> optics.BenchDescription:
    from . import optics

    if os.path.exists(token):
        path = token
    else:
        path = optics.shipped_bench_path(token)
    try:
        with open(path, encoding="utf-8") as fh:
            return optics.parse_bench(fh.read(), source=token)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{token}: {exc}") from None


def cmd_bench_run(args) -> int:
    from . import optics

    bench = _load_bench(args.bench)
    out_state = optics.run_bench(
        bench, input_state=_resolve_state(bench.input_state, "bench input"))
    label = st.classify_texture(out_state, tol_deg=args.tolerance or 1.0)
    obj = {
        "command": "bench run",
        "bench": bench.name,
        "camera_state": serialize.state_to_obj(out_state),
        "classification": label,
        "spheres": _spheres(out_state, "skyrmion", "antiskyrmion"),
    }
    obj["files"] = []
    _write_file(args, obj["files"], "camera_state.json",
                serialize.json_text(serialize.state_to_obj(out_state)),
                bench=bench.name, classification=label)
    _emit(obj)
    return 0


def cmd_bench_sweep(args) -> int:
    from . import optics

    bench = _load_bench(args.bench)
    result = optics.run_sweep(
        bench, sweep=args.element,
        input_state=_resolve_state(bench.input_state, "bench input"))
    tol_deg = args.tolerance or 1.0
    labels = [st.classify_texture(f, tol_deg=tol_deg) for f in result.frames]
    files = []
    _write_file(
        args, files, "trajectory.csv",
        serialize.trajectory_csv(result.parameters, result.frames),
        bench=bench.name,
        element=result.sweep.element_id,
        record=list(result.sweep.record),
        columns=list(serialize.TRAJECTORY_COLUMNS),
        sphere_units="hbar*N0",
        angle_units={"parameter": "degrees", "theta_p": "radians",
                     "phi_t": "radians"},
    )

    if args.fields:
        for k, frame in enumerate(result.frames):
            _write_stokes(args, files, frame, f"stokes_{k:03d}.csv",
                          bench=bench.name, frame=k,
                          parameter=float(result.parameters[k]))

    _emit({
        "command": "bench sweep",
        "bench": bench.name,
        "element": result.sweep.element_id,
        "frames": len(result.frames),
        "parameters": [float(p) for p in result.parameters],
        "classifications": labels,
        "files": files,
    })
    return 0


# ------------------------------------------------------------------- field


def cmd_field_render(args) -> int:
    from . import field

    files = []
    sf = _write_stokes(args, files, _resolve_state(args.state), "stokes.csv",
                       state=args.state)

    for name, channel in (("s0", sf.s0), ("s1", sf.s1),
                          ("s2", sf.s2), ("s3", sf.s3)):
        payload, lo, hi = serialize.pgm_bytes(channel)
        _write_file(
            args, files, f"{name}.pgm", payload,
            state=args.state, channel=name,
            scaling={"pixel_0": lo, "pixel_255": hi,
                     "map": "value = pixel_0 + pixel/255*(pixel_255 - pixel_0)"},
            orientation="top row at largest y",
        )

    obj = {
        "command": "field render",
        "state": args.state,
        "grid": {"size": args.grid, "extent": args.extent, "waist": args.waist},
    }

    if args.bubble is not None:
        tm = field.soup_bubble(sf, bins=args.bubble, profile=args.profile)
        _write_file(
            args, files, "bubble.csv", serialize.texture_map_csv(tm),
            state=args.state,
            mapping={"profile": tm.profile, "disk_radius": tm.disk_radius,
                     "bins": list(tm.bins)},
        )
        obj["bubble"] = {"bins": list(tm.bins), "profile": tm.profile,
                         "empty_bins": int((tm.counts == 0).sum())}

    if args.skyrmion_number:
        q = field.topological_charge(sf)
        obj["skyrmion_number"] = {"finite_difference": q.finite_difference,
                                  "solid_angle": q.solid_angle,
                                  "disk_radius": q.disk_radius}

    obj["files"] = files
    _emit(obj)
    return 0


# -------------------------------------------------------------------- main


def main(argv: list | None = None) -> int:
    tokens = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(tokens)
    except SystemExit as exc:
        return int(exc.code or 0)
    args._argv = tokens
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        # a bare MemoryError has no message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
