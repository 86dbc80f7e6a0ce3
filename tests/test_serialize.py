"""Direct tests of the emitters in su6lab.serialize.

The emitters format arrays through one helper that formats each distinct
float once.  The reference emitters below format value by value, as the
emitters did before that helper; every property here asks for the same
bytes from both on values chosen to be awkward: signed zeros,
subnormals, infinities, nan, 17-digit boundary values, float32 and
complex arrays, empty arrays, and tables cut into blocks mid-array.
"""
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from hypothesis.extra import numpy as hnp

import su6lab.algebra as alg
import su6lab.serialize as ser
import su6lab.state as st

PROPERTY = settings(derandomize=True, max_examples=150, deadline=None,
                    database=None)

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
           np.inf, -np.inf, np.nan, 0.1 + 0.2, 1.0, -1.0, float(2**53 + 1),
           1.7976931348623157e308, -1.7976931348623157e308, 1e16, 1e17,
           0.1, 1.0 / 3.0]
FLOATS = hs.one_of(hs.sampled_from(SPECIAL), hs.floats(width=64),
                   hs.floats(width=32))


# ------------------------------------------------- per-value references


def ref_format(value):
    return "%.17g" % float(value)


def ref_json_value(value, indent, depth):
    pad = indent * (depth + 1)
    close = indent * depth
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        if not np.isfinite(value):
            return "null"
        return ref_format(value)
    if isinstance(value, (complex, np.complexfloating)):
        return ref_json_value([value.real, value.imag], indent, depth)
    if isinstance(value, str):
        out = value
        for raw, esc in (("\\", "\\\\"), ('"', '\\"'), ("\n", "\\n"), ("\t", "\\t")):
            out = out.replace(raw, esc)
        return f'"{out}"'
    if isinstance(value, np.ndarray):
        return ref_json_value(value.tolist(), indent, depth)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f'{pad}{ref_json_value(str(k), indent, depth)}: '
            f"{ref_json_value(v, indent, depth + 1)}"
            for k, v in value.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{close}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        parts = [ref_json_value(v, indent, depth + 1) for v in value]
        if all(isinstance(v, (int, float, np.integer, np.floating)) for v in value):
            return "[" + ", ".join(parts) + "]"
        items = [f"{pad}{p}" for p in parts]
        return "[\n" + ",\n".join(items) + f"\n{close}]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def ref_json_text(obj):
    return ref_json_value(obj, "  ", 0) + "\n"


def ref_field_csv(sf):
    g = sf.grid
    cols = [g.xx, g.yy, sf.s0, sf.s1, sf.s2, sf.s3,
            sf.n[..., 0], sf.n[..., 1], sf.n[..., 2]]
    data = np.column_stack([c.ravel() for c in cols])
    lines = [",".join(ser.FIELD_COLUMNS)]
    for row in data:
        lines.append(",".join(ref_format(v) for v in row))
    return "\n".join(lines) + "\n"


def ref_texture_map_csv(tm):
    lines = ["theta_bin,phi_bin,nx,ny,nz,count"]
    n_theta, n_phi = tm.bins
    for i in range(n_theta):
        for j in range(n_phi):
            v = tm.vectors[i, j]
            lines.append(f"{i},{j},{ref_format(v[0])},{ref_format(v[1])},"
                         f"{ref_format(v[2])},{int(tm.counts[i, j])}")
    return "\n".join(lines) + "\n"


def ref_trajectory_csv(parameters, frames):
    lines = [",".join(ser.TRAJECTORY_COLUMNS)]
    for value, frame in zip(parameters, frames):
        cells = [ref_format(value)]
        for sphere in (st.skyrmion_sphere, st.antiskyrmion_sphere, st.oam_sphere):
            cells.extend(ref_format(c) for c in sphere(frame).coords)
        try:
            torus = st.state_to_torus(frame, tol=1e-6)
            cells.extend([ref_format(torus.theta_p), ref_format(torus.phi_t)])
        except ValueError:
            cells.extend(["nan", "nan"])
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def ref_g_tensor_entries(g, cutoff=1e-14):
    rows = []
    for l, m, n in zip(*np.nonzero(np.abs(g) > cutoff)):
        rows.append((int(l) + 1, int(m) + 1, int(n) + 1, float(g[l, m, n])))
    return rows


def ref_g_tensor_csv(g):
    lines = ["l,m,n,value"]
    for l, m, n, value in ref_g_tensor_entries(g):
        lines.append(f"{l},{m},{n},{ref_format(value)}")
    return "\n".join(lines) + "\n"


def blocks():
    # cells per block, down to one row per block, so blocks end mid-array
    return hs.sampled_from([1, 2, 3, 7, 9, 10, 17, 64, ser._BLOCK_CELLS])


# ------------------------------------------------------------- scalars


@pytest.mark.parametrize("value, text", [
    (-0.0, "-0"),
    (5e-324, "4.9406564584124654e-324"),
    (np.inf, "inf"),
    (-np.inf, "-inf"),
    (np.nan, "nan"),
    (0.1 + 0.2, "0.30000000000000004"),
    (float(2**53 + 1), "9007199254740992"),
    (1.7976931348623157e308, "1.7976931348623157e+308"),
    (np.float32(0.1), "0.10000000149011612"),
])
def test_format_float_contract(value, text):
    assert ser.format_float(value) == text


def test_json_writes_null_where_csv_writes_nan():
    a = np.array([np.nan, np.inf, -np.inf, -0.0])
    assert ser.json_text(a) == "[null, null, null, -0]\n"
    c = np.array([complex(np.nan, -0.0), complex(np.inf, 1.0),
                  complex(-0.0, -np.inf)])
    assert ser.json_text(c) == "[\n  [null, -0],\n  [null, 1],\n  [-0, null]\n]\n"


@pytest.mark.parametrize("value, text", [
    (np.bool_(True), "true"),
    (np.bool_(False), "false"),
    ({"ok": np.bool_(True)}, '{\n  "ok": true\n}'),
    ([np.bool_(False), 1], "[\n  false,\n  1\n]"),
])
def test_json_accepts_numpy_booleans(value, text):
    assert ser.json_text(value) == text + "\n"


@pytest.mark.parametrize("obj,message", [
    ({"n0": 1.0}, "not a state file (missing 'alpha')"),
    ({"alpha": [[1.0, 0.0]] * 5}, "'alpha' must have 6 [re, im] pairs"),
])
def test_load_state_refuses_a_file_that_is_not_a_state(tmp_path, obj, message):
    path = tmp_path / "state.json"
    path.write_text(ser.json_text(obj))
    with pytest.raises(ValueError) as err:
        ser.load_state(str(path))
    assert str(err.value) == f"{path}: {message}"


SIX_PAIRS = [[1.0, 0.0]] + [[0, 0]] * 5


@pytest.mark.parametrize("obj,message", [
    ({"alpha": 5}, "'alpha' must have 6 [re, im] pairs"),
    ({"alpha": "123456"}, "'alpha' must have 6 [re, im] pairs"),
    ({"alpha": [1, 2, 3, 4, 5, 6]},
     "'alpha' must have 6 [re, im] pairs of real numbers, got 1"),
    ({"alpha": [[1, 0, 0]] + SIX_PAIRS[1:]},
     "'alpha' must have 6 [re, im] pairs of real numbers, got [1, 0, 0]"),
    ({"alpha": [[1, "0"]] + SIX_PAIRS[1:]},
     "'alpha' must have 6 [re, im] pairs of real numbers, got [1, '0']"),
    ({"alpha": [[True, 0]] + SIX_PAIRS[1:]},
     "'alpha' must have 6 [re, im] pairs of real numbers, got [True, 0]"),
    ({"alpha": SIX_PAIRS, "n0": [2]}, "'n0' must be a real number, got [2]"),
    ({"alpha": SIX_PAIRS, "n0": "2"}, "'n0' must be a real number, got '2'"),
    ({"alpha": SIX_PAIRS, "n0": None}, "'n0' must be a real number, got None"),
])
def test_load_state_refuses_a_file_of_the_wrong_shape(tmp_path, obj, message):
    path = tmp_path / "state.json"
    path.write_text(ser.json_text(obj))
    with pytest.raises(ValueError) as err:
        ser.load_state(str(path))
    assert str(err.value) == f"{path}: {message}"


def test_load_state_takes_integer_pairs_and_n0(tmp_path):
    path = tmp_path / "state.json"
    path.write_text(ser.json_text({"alpha": SIX_PAIRS, "n0": 2}))
    s = ser.load_state(str(path))
    assert s.n0 == 2.0 and s.alpha[0] == 1.0


# -------------------------------------------------------------- arrays


def test_json_zero_length_inner_axis():
    assert ser.json_text(np.zeros((2, 0))) == "[\n  [],\n  []\n]\n"
    assert ser.json_text(np.zeros((0, 3))) == "[]\n"
    assert ser.json_text(np.zeros(())) == "0\n"


ARRAYS = hs.one_of(
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=4,
                                            min_side=0, max_side=4),
               elements=FLOATS),
    hnp.arrays(np.float32, hnp.array_shapes(min_dims=0, max_dims=3,
                                            min_side=0, max_side=4),
               elements=hs.floats(width=32)),
    hnp.arrays(np.complex128, hnp.array_shapes(min_dims=0, max_dims=3,
                                               min_side=0, max_side=4),
               elements=hs.complex_numbers()),
    hnp.arrays(np.complex64, hnp.array_shapes(min_dims=0, max_dims=2,
                                              min_side=0, max_side=4),
               elements=hs.complex_numbers(width=64)),
)


@PROPERTY
@given(ARRAYS, hs.integers(0, 2))
def test_json_arrays_match_per_value_reference(array, depth):
    obj = array
    for _ in range(depth):
        obj = {"key": [obj, 1]}
    assert ser.json_text(obj) == ref_json_text(obj)


def fake_field(draw, rows, cols):
    plane = hnp.arrays(np.float64, (rows, cols), elements=FLOATS)
    xx, yy, s0, s1, s2, s3 = (draw(plane) for _ in range(6))
    # the spin planes as stokes_fields lays them out: component-major
    n = np.moveaxis(draw(hnp.arrays(np.float64, (3, rows, cols),
                                    elements=FLOATS)), 0, -1)
    return SimpleNamespace(grid=SimpleNamespace(xx=xx, yy=yy),
                           s0=s0, s1=s1, s2=s2, s3=s3, n=n)


@PROPERTY
@given(hs.data(), hs.integers(0, 5), hs.integers(0, 5), blocks())
def test_field_csv_matches_per_value_reference(data, rows, cols, block):
    sf = fake_field(data.draw, rows, cols)
    with mock.patch.object(ser, "_BLOCK_CELLS", block):
        assert ser.field_csv(sf) == ref_field_csv(sf)


@PROPERTY
@given(hs.data(), hs.integers(1, 4), hs.integers(1, 6), blocks())
def test_texture_map_csv_matches_per_value_reference(data, n_theta, n_phi,
                                                     block):
    vectors = data.draw(hnp.arrays(np.float64, (n_theta, n_phi, 3),
                                   elements=FLOATS))
    counts = data.draw(hnp.arrays(np.int64, (n_theta, n_phi),
                                  elements=hs.integers(0, 2**53)))
    tm = SimpleNamespace(vectors=vectors, counts=counts, bins=(n_theta, n_phi))
    with mock.patch.object(ser, "_BLOCK_CELLS", block):
        assert ser.texture_map_csv(tm) == ref_texture_map_csv(tm)


FRAMES = hs.one_of(
    hs.sampled_from(st.state_names()).map(st.named_state),
    hs.lists(hs.floats(-1.0, 1.0), min_size=12, max_size=12).filter(
        lambda p: np.linalg.norm(p) >= 1e-3).map(
        lambda p: st.CoherentState(np.array(p[:6]) + 1j * np.array(p[6:]))),
)


@PROPERTY
@given(hs.lists(hs.tuples(FLOATS, FRAMES), max_size=5), blocks())
def test_trajectory_csv_matches_per_value_reference(rows, block):
    parameters = np.array([p for p, _ in rows])
    frames = [f for _, f in rows]
    with mock.patch.object(ser, "_BLOCK_CELLS", block):
        assert (ser.trajectory_csv(parameters, frames)
                == ref_trajectory_csv(parameters, frames))


@PROPERTY
@given(hnp.arrays(np.float64, (3, 3, 3), elements=FLOATS), blocks())
def test_g_tensor_files_match_per_value_reference(g, block):
    with mock.patch.object(ser, "_BLOCK_CELLS", block):
        assert ser.g_tensor_csv(g) == ref_g_tensor_csv(g)
    entries = ref_g_tensor_entries(g)
    assert (ser.json_text({"entries": ser.g_tensor_entries(g)})
            == ref_json_text({"entries": [list(e) for e in entries]}))


def test_shipped_algebra_files_match_per_value_reference():
    basis = alg.su6_basis()
    g = alg.structure_constants(basis)
    adj = alg.adjoint_matrices(g)
    assert ser.g_tensor_csv(g) == ref_g_tensor_csv(g)
    for obj in ({"matrices": basis.matrices}, {"matrices": adj.matrices}):
        assert ser.json_text(obj) == ref_json_text(obj)
    assert (ser.json_text({"entries": ser.g_tensor_entries(g)}) == ref_json_text(
        {"entries": [list(e) for e in ref_g_tensor_entries(g)]}))
