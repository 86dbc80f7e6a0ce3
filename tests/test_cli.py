"""End-to-end tests of the command line: exit codes, JSON output,
emitted files, sidecars and byte-level determinism."""
import filecmp
import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import su6lab
import su6lab.algebra as alg
import su6lab.optics as op
import su6lab.serialize as ser
import su6lab.state as st
from su6lab import cli
from su6lab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_json(out):
    # commands end with exactly one JSON document; verify prints its
    # table first, so parse from the first brace
    return json.loads(out[out.index("{"):])


# ----------------------------------------------------------------- algebra


def test_verify_passes_on_shipped_basis(capsys):
    code, out, err = run_cli(capsys, "algebra", "verify")
    assert code == 0
    table = out[: out.index("{")]
    assert "FAIL" not in table
    assert "hermiticity" in table and "jacobi_identity" in table
    obj = last_json(out)
    assert obj["pass"] is True
    assert obj["failed"] == []
    assert max(obj["residuals"].values()) < 1e-10


@pytest.fixture
def non_hermitian_basis(monkeypatch):
    """Serve a basis whose first generator has one entry off by 1e-3."""
    basis = alg.su6_basis()
    mats = np.array(basis.matrices)
    mats[0, 0, 1] += 1e-3
    broken = alg.GeneratorBasis(matrices=mats, labels=basis.labels)
    monkeypatch.setattr(alg, "su6_basis", lambda: broken)
    return broken


def test_verify_names_hermiticity_for_injected_generator(capsys,
                                                         non_hermitian_basis):
    code, out, err = run_cli(capsys, "algebra", "verify")
    assert code == 1
    assert "hermiticity" in err
    obj = last_json(out)
    assert obj["pass"] is False
    assert "hermiticity" in obj["failed"]


def test_verify_tolerance_override(capsys, non_hermitian_basis):
    code, out, _ = run_cli(capsys, "algebra", "verify", "--tolerance", "0.1")
    assert code == 0
    assert last_json(out)["pass"] is True


def test_verify_json_residuals_are_the_algebra_rows(capsys):
    code, out, _ = run_cli(capsys, "algebra", "verify", "--seed", "11")
    assert code == 0
    rows = alg.invariant_residuals(alg.su6_basis(), seed=11)
    assert last_json(out)["residuals"] == {name: r for name, r, _ in rows}


def test_export_writes_basis_g_and_adjoint(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "algebra", "export", "--out", str(tmp_path))
    assert code == 0
    obj = last_json(out)
    assert obj["nonzero_g_entries"] == 1038
    assert obj["closure_constant"] == pytest.approx(1.0, abs=1e-12)
    for name in ("basis.json", "g_tensor.json", "g_tensor.csv", "adjoint.json"):
        assert (tmp_path / name).is_file()
        sidecar = json.loads((tmp_path / (name + ".json")).read_text())
        assert sidecar["basis_version"] == "su6-spin3-oam8-coupled24-v1"
        assert "--out" not in sidecar["command"]

    lines = (tmp_path / "g_tensor.csv").read_text().splitlines()
    assert lines[0] == "l,m,n,value"
    assert len(lines) == 1 + 1038
    assert lines[1] == "1,2,3,0.57735026918962606"

    basis = json.loads((tmp_path / "basis.json").read_text())
    assert len(basis["labels"]) == 35
    # complex entries as [re, im] pairs
    assert basis["matrices"][0][0][3] == [0.5773502691896258, 0.0]


# ------------------------------------------------------------------- state


def test_state_eval_spheres_and_norm(capsys):
    code, out, _ = run_cli(capsys, "state", "eval", "--state", "neel_out",
                           "--spheres", "--torus")
    assert code == 0
    obj = last_json(out)
    assert obj["hypersphere_norm"] == pytest.approx(np.sqrt(5.0 / 3.0), abs=1e-12)
    assert obj["spheres"]["skyrmion"]["coords"] == pytest.approx([1, 0, 0], abs=1e-12)
    assert obj["spheres"]["oam"]["coords"] == pytest.approx([0, 0, 0.5], abs=1e-12)
    assert obj["torus"]["theta_p"] == pytest.approx(0.0, abs=1e-9)
    assert obj["torus"]["poloidal_radius"] == pytest.approx(0.5, abs=1e-12)


def test_state_eval_torus_inapplicable_is_null(capsys):
    code, out, _ = run_cli(capsys, "state", "eval", "--state", "h_gaussian",
                           "--torus")
    assert code == 0
    assert last_json(out)["torus"] is None


def test_state_eval_unknown_name_lists_catalog(capsys):
    code, out, err = run_cli(capsys, "state", "eval", "--state", "wat")
    assert code == 2
    assert "neel_out" in err and "bloch_left" in err


def test_state_eval_from_json_file(tmp_path, capsys):
    path = tmp_path / "mine.json"
    ser.save_state(str(path), st.named_state("bloch_left"))
    code, out, _ = run_cli(capsys, "state", "eval", "--state", str(path),
                           "--spheres")
    assert code == 0
    obj = last_json(out)
    assert obj["spheres"]["skyrmion"]["coords"] == pytest.approx([0, 1, 0], abs=1e-12)


def test_state_file_with_nan_amplitude_exits_2(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text('{"alpha": [[1, 0], [NaN, 0], [0, 0], [0, 0], [0, 0], '
                    '[0, 0]], "n0": 1.0}')
    code, out, err = run_cli(capsys, "state", "eval", "--state", str(path))
    assert code == 2
    assert out == ""
    assert f"{path}: amplitude 2 is not finite: (nan+0j)" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n0,norm", [(1e150, "1.2909944487358058e+150"),
                                     (1e160, "1.2909944487358058e+160")])
def test_state_eval_norm_at_a_large_n0_is_finite(tmp_path, capsys, n0, norm):
    # at 1e160 the squares of the norm overflow, so it is scaled by n0
    path = tmp_path / "big.json"
    ser.save_state(str(path), st.named_state("neel_out", n0=n0))
    code, out, err = run_cli(capsys, "state", "eval", "--state", str(path))
    assert (code, err) == (0, "")
    assert f'  "hypersphere_norm": {norm}\n' in out


@pytest.mark.filterwarnings("error")
def test_state_eval_norm_that_overflows_at_any_scale_exits_2(tmp_path, capsys):
    path = tmp_path / "huge.json"
    ser.save_state(str(path), st.named_state("neel_out", n0=1.5e308))
    code, out, err = run_cli(capsys, "state", "eval", "--state", str(path))
    assert (code, out) == (2, "")
    assert err == "error: hypersphere norm overflows at n0 = 1.5e+308\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("amplitude,message", [
    (1e308, "amplitude vector norm overflows"),
    (1e-320, "amplitude vector norm underflows to 0.0, not normalizable"),
    (1e-13, "amplitude vector norm 2.4494897427831783e-13 is below 1e-12, "
            "not normalizable"),
    (0.0, "zero amplitude vector is not normalizable"),
])
def test_state_file_without_a_usable_norm_exits_2_saying_why(tmp_path, capsys,
                                                             amplitude, message):
    path = tmp_path / "norm.json"
    path.write_text(json.dumps({"alpha": [[amplitude, 0.0]] * 6, "n0": 1.0}))
    code, out, err = run_cli(capsys, "state", "eval", "--state", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("content,message", [
    (b'{"alpha": 5}', "'alpha' must "),
    (b'{"alpha": [[1, 0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0]]}', "'alpha' must "),
    (b'{"alpha": [[1, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0]], "n0": [2]}',
     "'n0' must "),
    (b'{"alpha": [1, 2', "Expecting ',' delimiter: line 1 column 16 (char 15)\n"),
    (b'\xff{"alpha": []}', "'utf-8' codec can't decode byte 0xff in position 0"),
    (b'{"alpha": [[1, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0]], "n0": 1'
     + b"0" * 400 + b"}", "int too large to convert to float"),
])
@pytest.mark.parametrize("via_bench", [False, True])
def test_state_file_of_the_wrong_shape_exits_2(tmp_path, capsys, content, message,
                                               via_bench):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    argv = (["bench", "run", "--bench", _fig1_with_input(tmp_path, path)] if via_bench
            else ["state", "eval", "--state", str(path)])
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "out"))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path}: {message}")
    assert not (tmp_path / "out").exists()


def test_non_finite_extent_is_usage_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "field", "render", "--state", "neel_out",
                           "--extent", "inf", "--out", str(tmp_path))
    assert code == 2
    assert "must be positive and finite, got 'inf'" in err


@pytest.mark.parametrize("extent", ["1e308", "1e200", "1e-200"])
def test_extent_without_a_finite_pixel_area_exits_2_naming_it(tmp_path, capsys,
                                                              extent):
    # it once reached the modes and was blamed on the waist
    code, out, err = run_cli(capsys, "field", "render", "--state", "neel_out",
                             "--grid", "16", "--extent", extent,
                             "--out", str(tmp_path))
    assert (code, out) == (2, "")
    assert err == (f"error: extent {float(extent)} on a grid of size 16 gives a "
                   "pixel area that is zero or not finite\n")


# ------------------------------------------------------------------- bench


def test_bench_run_fig1(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "bench", "run", "--bench", "fig1",
                           "--out", str(tmp_path))
    assert code == 0
    obj = last_json(out)
    assert obj["classification"] == "neel_out"
    assert obj["spheres"]["skyrmion"]["coords"] == pytest.approx([1, 0, 0], abs=1e-9)
    saved = ser.load_state(str(tmp_path / "camera_state.json"))
    assert abs(st.overlap(saved, st.named_state("neel_out"))) == pytest.approx(1.0, abs=1e-9)
    sidecar = json.loads((tmp_path / "camera_state.json.json").read_text())
    assert sidecar["classification"] == "neel_out"


def test_bench_run_flipped_vortex_gives_antiskyrmion(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "bench", "run", "--bench", "antiskyrmion",
                           "--out", str(tmp_path))
    assert code == 0
    assert last_json(out)["classification"].startswith("antiskyrmion")


@pytest.mark.parametrize("content,location", [
    (b'bench "x"\ninput state=h_gaussian\npre: HWP angle=\n', ":3"),
    (b'bench "\xff"\ninput state=h_gaussian\n',
     ": 'utf-8' codec can't decode byte 0xff in position 7"),
])
def test_bench_run_malformed_file_exits_2_with_location(tmp_path, capsys, content,
                                                        location):
    bad = tmp_path / "bad.bench"
    bad.write_bytes(content)
    code, _, err = run_cli(capsys, "bench", "run", "--bench", str(bad),
                           "--out", str(tmp_path))
    assert code == 2
    assert f"{bad}{location}" in err


def test_bench_run_non_finite_angle_exits_2_with_location(tmp_path, capsys):
    bad = tmp_path / "nan.bench"
    bad.write_text('bench "x"\ninput state=h_gaussian\npre: HWP angle=nan\n'
                   "split PBS\ncombine NPBS reflect=A\n")
    code, _, err = run_cli(capsys, "bench", "run", "--bench", str(bad),
                           "--out", str(tmp_path))
    assert code == 2
    assert f"{bad}:3: attribute 'angle' is not a finite number" in err


def _fig1_with_input(tmp_path, token):
    text = op.shipped_bench_path("fig1").read_text()
    path = tmp_path / "input.bench"
    path.write_text(text.replace("input state=h_gaussian", f"input state={token}"))
    return str(path)


def test_bench_input_state_file_matches_the_named_state(tmp_path, capsys):
    state_file = tmp_path / "h.json"
    ser.save_state(str(state_file), st.named_state("h_gaussian"))
    runs, sweeps = [], []
    for token in ("h_gaussian", str(state_file)):
        bench = _fig1_with_input(tmp_path, token)
        code, out, _ = run_cli(capsys, "bench", "run", "--bench", bench,
                               "--out", str(tmp_path / "run"))
        assert code == 0
        runs.append(last_json(out))
        code, out, _ = run_cli(capsys, "bench", "sweep", "--bench", bench,
                               "--out", str(tmp_path / "sweep"))
        assert code == 0
        sweeps.append(last_json(out))
    named, from_file = runs
    assert from_file["classification"] == named["classification"] == "neel_out"
    # the loaded amplitudes are normalized once more, so the last bits may move
    assert np.ravel(from_file["camera_state"]["alpha"]) == pytest.approx(
        np.ravel(named["camera_state"]["alpha"]), abs=1e-14)
    assert sweeps[1]["classifications"] == sweeps[0]["classifications"]
    assert sweeps[1]["parameters"] == sweeps[0]["parameters"]


def test_bench_unknown_input_token_exits_2_naming_it(tmp_path, capsys):
    code, out, err = run_cli(capsys, "bench", "run", "--bench",
                             _fig1_with_input(tmp_path, "no_such_state"),
                             "--out", str(tmp_path))
    assert code == 2
    assert out == ""
    assert "unknown bench input 'no_such_state'; named states: " in err


def test_bench_named_with_control_characters_writes_json_that_parses(tmp_path,
                                                                      capsys):
    name = "a\x01b\x1fc"
    path = tmp_path / "ctrl.bench"
    path.write_text(f'bench "{name}"\ninput state=h_gaussian\n')
    code, out, _ = run_cli(capsys, "bench", "run", "--bench", str(path),
                           "--out", str(tmp_path))
    assert code == 0
    assert json.loads(out)["bench"] == name
    sidecar = json.loads((tmp_path / "camera_state.json.json").read_text())
    assert sidecar["bench"] == name


def test_bench_run_unknown_bench_name(capsys):
    code, _, err = run_cli(capsys, "bench", "run", "--bench", "nope")
    assert code == 2
    assert "fig1" in err


def test_bench_sweep_phase_trajectory(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "bench", "sweep", "--bench", "fig1",
                           "--element", "HWP3", "--out", str(tmp_path))
    assert code == 0
    obj = last_json(out)
    assert obj["frames"] == 19
    assert obj["classifications"][0] == "neel_out"
    assert obj["classifications"][9] == "neel_in"
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == ",".join(ser.TRAJECTORY_COLUMNS)
    assert len(lines) == 20
    sidecar = json.loads((tmp_path / "trajectory.csv.json").read_text())
    assert sidecar["element"] == "HWP3"


def test_bench_sweep_rotator_selected_by_element(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "bench", "sweep", "--bench", "fig1",
                           "--element", "HWP1", "--out", str(tmp_path))
    assert code == 0
    obj = last_json(out)
    assert obj["frames"] == 19
    assert obj["classifications"][0] == "pole"


def test_bench_sweep_fields_writes_frame_csvs(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "bench", "sweep", "--bench", "fig1",
                           "--element", "HWP3", "--fields",
                           "--grid", "16", "--out", str(tmp_path))
    assert code == 0
    frames = last_json(out)["frames"]
    for k in range(frames):
        assert (tmp_path / f"stokes_{k:03d}.csv").is_file()
    first = (tmp_path / "stokes_000.csv").read_text().splitlines()
    assert first[0] == ",".join(ser.FIELD_COLUMNS)
    assert len(first) == 1 + 16 * 16


# ------------------------------------------------------------------- field


def test_field_render_charge_output(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "field", "render", "--state", "neel_out",
                           "--grid", "128", "--skyrmion-number",
                           "--out", str(tmp_path))
    assert code == 0
    s = last_json(out)["skyrmion_number"]
    assert s["solid_angle"] == pytest.approx(1.0, abs=1e-9)
    assert s["finite_difference"] == pytest.approx(1.0, abs=1e-3)
    assert s["disk_radius"] == 3.0


def test_field_render_uniform_charge_is_zero(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "field", "render", "--state", "basis_3",
                           "--grid", "64", "--skyrmion-number",
                           "--out", str(tmp_path))
    assert code == 0
    s = last_json(out)["skyrmion_number"]
    assert s["finite_difference"] == 0.0
    assert s["solid_angle"] == 0.0


def test_field_render_csv_satisfies_purity(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "field", "render", "--state", "dipolar",
                         "--grid", "64", "--out", str(tmp_path))
    assert code == 0
    data = np.loadtxt(tmp_path / "stokes.csv", delimiter=",", skiprows=1)
    s0, s1, s2, s3 = data[:, 2], data[:, 3], data[:, 4], data[:, 5]
    lit = s0 > 1e-12 * s0.max()
    assert np.allclose((s1**2 + s2**2 + s3**2)[lit], (s0**2)[lit],
                       rtol=1e-10, atol=0.0)


def test_field_render_pgm_shape_and_sidecar(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "field", "render", "--state", "neel_out",
                         "--grid", "64", "--out", str(tmp_path))
    assert code == 0
    raw = (tmp_path / "s3.pgm").read_bytes()
    assert raw.startswith(b"P5\n64 64\n255\n")
    assert len(raw) == len(b"P5\n64 64\n255\n") + 64 * 64
    sidecar = json.loads((tmp_path / "s3.pgm.json").read_text())
    assert sidecar["scaling"]["pixel_0"] <= sidecar["scaling"]["pixel_255"]
    assert "orientation" in sidecar


def test_field_render_bubble_csv(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "field", "render", "--state", "neel_out",
                           "--grid", "64", "--bubble", "8,16",
                           "--profile", "area", "--out", str(tmp_path))
    assert code == 0
    assert last_json(out)["bubble"]["empty_bins"] == 0
    lines = (tmp_path / "bubble.csv").read_text().splitlines()
    assert lines[0] == "theta_bin,phi_bin,nx,ny,nz,count"
    assert len(lines) == 1 + 8 * 16
    sidecar = json.loads((tmp_path / "bubble.csv.json").read_text())
    assert sidecar["mapping"]["profile"] == "area"
    assert sidecar["mapping"]["bins"] == [8, 16]


def _render_args(tmp_path, grid):
    tokens = ["field", "render", "--state", "neel_out", "--grid", str(grid),
              "--out", str(tmp_path)]
    args = cli.build_parser().parse_args(tokens)
    args._argv = tokens
    return args


def test_stokes_csv_streams_block_by_block_into_the_file(tmp_path):
    from su6lab import field

    args = _render_args(tmp_path, 128)
    grid = field.TransverseGrid(size=args.grid, extent=args.extent)
    sf = field.stokes_fields(*field.synthesize(st.named_state("neel_out"), grid), grid)
    # the header and several blocks of rows
    assert len(list(ser.field_csv_chunks(sf))) > 3
    files = []
    cli._write_file(args, files, "stokes.csv", ser.field_csv_chunks(sf))
    assert files == ["stokes.csv"]
    assert (tmp_path / "stokes.csv").read_bytes() == ser.field_csv(sf).encode()


def test_stokes_csv_is_written_without_holding_its_text(tmp_path):
    from su6lab import field

    args = _render_args(tmp_path, 256)
    state = st.named_state("neel_out")
    # the mode stack is kept across renders; only what the write adds counts
    field.lg_mode(field.TransverseGrid(size=args.grid, extent=args.extent), 0)
    tracemalloc.start()
    try:
        cli._write_stokes(args, [], state, "stokes.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (tmp_path / "stokes.csv").stat().st_size


# ------------------------------------------------------------- contract


def test_missing_subcommand_is_usage_error(capsys):
    assert main(["bench"]) == 2
    assert main([]) == 2


@pytest.mark.parametrize("exc,message", [
    (MemoryError("Unable to allocate 8.00 GiB for an array with shape (1073741824,)"),
     "Unable to allocate 8.00 GiB for an array with shape (1073741824,)"),
    (MemoryError(), "MemoryError"),
])
def test_a_run_out_of_memory_exits_2_with_an_error_line(monkeypatch, capsys,
                                                        exc, message):
    # the command raises as an allocation would; nothing is allocated
    def out_of_memory(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_state_eval", out_of_memory)
    code, out, err = run_cli(capsys, "state", "eval", "--state", "basis_3")
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("flag,value,message", [
    ("--grid", "1", "grid size must be an integer >= 16, got '1'"),
    ("--waist", "-2", "must be positive and finite, got '-2'"),
    ("--grid", "abc", "grid size must be an integer >= 16, got 'abc'"),
    ("--grid", "1e3", "grid size must be an integer >= 16, got '1e3'"),
    ("--extent", "abc", "must be positive and finite, got 'abc'"),
    ("--tolerance", "x", "must be positive and finite, got 'x'"),
    ("--seed", "-5", "seed must be a non-negative integer, got '-5'"),
    ("--seed", "1.5", "seed must be a non-negative integer, got '1.5'"),
])
def test_bad_flag_value_is_usage_error(tmp_path, capsys, flag, value, message):
    code, _, err = run_cli(capsys, "field", "render", "--state", "neel_out",
                           flag, value, "--out", str(tmp_path))
    assert code == 2
    assert f"argument {flag}: {message}\n" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["bench", "run", "--bench", "fig1", "--o"],
    ["field", "render", "--state", "neel_out", "--skyrmion", "--out"],
])
def test_abbreviated_flags_are_refused(tmp_path, capsys, argv):
    # an abbreviated --out would reach the sidecar's recorded command
    code, _, err = run_cli(capsys, *argv, str(tmp_path / "out"))
    assert code == 2
    assert "unrecognized arguments" in err
    assert not (tmp_path / "out").exists()


def test_out_given_with_equals_is_left_out_of_the_sidecar(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "bench", "run", "--bench", "fig1",
                         f"--out={tmp_path}")
    assert code == 0
    sidecar = json.loads((tmp_path / "camera_state.json.json").read_text())
    assert sidecar["command"] == "su6lab bench run --bench fig1"


@pytest.mark.parametrize("bins,message", [
    ("32", "bins must be THETA,PHI, e.g. 32,64"),
    ("0,4", "bin counts must be positive"),
    ("a,b", "bin counts must be positive integers, got 'a'"),
])
def test_bad_bubble_bins_are_usage_errors(tmp_path, capsys, bins, message):
    code, _, err = run_cli(capsys, "field", "render", "--state", "neel_out",
                           "--grid", "16", "--bubble", bins,
                           "--out", str(tmp_path))
    assert code == 2
    assert f"argument --bubble: {message}" in err
    assert not any(tmp_path.iterdir())


def test_grid_floor_is_the_transverse_grid_minimum(tmp_path, capsys):
    code, _, err = run_cli(capsys, "field", "render", "--state", "neel_out",
                           "--grid", "15", "--out", str(tmp_path))
    assert code == 2
    assert ">= 16" in err
    code, out, _ = run_cli(capsys, "field", "render", "--state", "neel_out",
                           "--grid", "16", "--out", str(tmp_path))
    assert code == 0
    assert last_json(out)["grid"]["size"] == 16


def test_reruns_are_byte_identical(tmp_path, capsys):
    recipes = [
        ["bench", "sweep", "--bench", "fig1", "--element", "HWP3",
         "--fields", "--grid", "16", "--seed", "7"],
        ["field", "render", "--state", "neel_out", "--grid", "32",
         "--skyrmion-number", "--bubble", "8,16", "--seed", "7"],
        ["algebra", "export", "--seed", "7"],
    ]
    for k, recipe in enumerate(recipes):
        dir_a = tmp_path / f"a{k}"
        dir_b = tmp_path / f"b{k}"
        code, out_a, _ = run_cli(capsys, *recipe, "--out", str(dir_a))
        assert code == 0
        code, out_b, _ = run_cli(capsys, *recipe, "--out", str(dir_b))
        assert code == 0
        assert out_a == out_b
        names = sorted(p.name for p in dir_a.iterdir())
        assert names == sorted(p.name for p in dir_b.iterdir())
        match, mismatch, errors = filecmp.cmpfiles(dir_a, dir_b, names,
                                                   shallow=False)
        assert mismatch == [] and errors == []


def test_module_invocation_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "su6lab.cli", "state", "eval",
         "--state", "neel_out"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["hypersphere_norm"] == pytest.approx(
        np.sqrt(5.0 / 3.0), abs=1e-12
    )


def test_field_render_leaves_scipy_ndimage_unloaded(tmp_path):
    # the grid-64 texture has dark corner pixels, but no stencil of the
    # charge reads one, so the nearest-pixel continuation is not needed
    code = ("import sys; from su6lab.cli import main; "
            f"code = main(['field', 'render', '--grid', '64', '--out', "
            f"{str(tmp_path)!r}, '--state', 'neel_out', '--skyrmion-number', "
            "'--bubble', '32,64']); "
            "print(code, 'scipy.ndimage' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_cli_import_leaves_scipy_submodules_unloaded(tmp_path):
    # su6lab runs on numpy alone: neither the import nor any command loads
    # a scipy module.  The last render reads dark pixels, so it runs the
    # nearest-pixel continuation of the charge pass
    commands = [
        ["algebra", "verify"],
        ["algebra", "export"],
        ["state", "eval", "--state", "neel_out", "--spheres", "--torus"],
        ["bench", "run", "--bench", "fig1"],
        ["bench", "sweep", "--bench", "fig1", "--element", "HWP3",
         "--fields", "--grid", "16"],
        ["field", "render", "--state", "neel_out", "--grid", "64",
         "--extent", "4.0", "--skyrmion-number", "--bubble", "8,16"],
    ]
    code = ("import json, sys\n"
            "from su6lab import field\n"
            "from su6lab.cli import main\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "runs, rule = [], field._nearest_defined\n"
            "field._nearest_defined = lambda *a: runs.append(1) or rule(*a)\n"
            "seen = [loaded()]\n"
            f"for argv in {commands!r}:\n"
            f"    seen.append([main([*argv, '--out', {str(tmp_path)!r}]), loaded()])\n"
            "print(json.dumps([seen, runs]))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    seen, runs = json.loads(proc.stdout.splitlines()[-1])
    assert seen == [[]] + [[0, []]] * len(commands)
    assert runs == [1]


def test_grid_flag_leaves_field_unloaded(tmp_path):
    # the --grid floor lives in state, so a bench run does not load field
    code = ("import sys; from su6lab.cli import main; "
            "code = main(['bench', 'run', '--bench', 'fig1', '--grid', '64', "
            f"'--out', {str(tmp_path)!r}]); "
            "print(code, 'su6lab.field' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_algebra_and_state_commands_leave_field_and_optics_unloaded(tmp_path):
    # field and optics are imported by the commands that run them
    code = ("import sys; from su6lab.cli import main; "
            "codes = [main(['state', 'eval', '--state', 'basis_3']), "
            f"main(['algebra', 'export', '--out', {str(tmp_path)!r}])]; "
            "print(codes, sorted(m for m in ('su6lab.field', 'su6lab.optics') "
            "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0] []"


def test_package_resolves_every_public_name():
    # a fresh process, so every name goes through the lazy module __getattr__
    code = ("import importlib, su6lab; print(sorted(n for n in su6lab.__all__ "
            "if getattr(su6lab, n) is not getattr(importlib.import_module("
            "getattr(su6lab, n).__module__), n)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    with pytest.raises(AttributeError, match="no_such_name"):
        su6lab.no_such_name


def test_bench_commands_load_field_only_for_sweep_fields(tmp_path):
    # texture labels come from state, so a bench command compiles field
    # only to render the frames of ``bench sweep --fields``
    code = ("import sys; from su6lab.cli import main; out = sys.argv[1]; "
            "runs = [['bench', 'run', '--bench', 'fig1'], "
            "['bench', 'sweep', '--bench', 'fig1', '--element', 'HWP1'], "
            "['bench', 'sweep', '--bench', 'fig1', '--element', 'HWP1', "
            "'--fields', '--grid', '32']]; "
            "print([(main(argv + ['--out', out]), 'su6lab.field' in sys.modules) "
            "for argv in runs])")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[(0, False), (0, False), (0, True)]"


def test_g_tensor_files_carry_the_one_noise_cutoff(tmp_path):
    assert main(["algebra", "export", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "g_tensor.json").read_text())
    assert doc["noise_cutoff"] == ser.NOISE_CUTOFF == 1e-14
    for name in ("g_tensor.json", "g_tensor.csv"):
        sidecar = json.loads((tmp_path / f"{name}.json").read_text())
        assert sidecar["noise_cutoff"] == ser.NOISE_CUTOFF
    g = alg.structure_constants()
    assert len(doc["entries"]) == int((np.abs(g) > ser.NOISE_CUTOFF).sum())
