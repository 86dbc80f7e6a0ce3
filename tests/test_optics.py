"""Oracle tests for the bench elements, the bench text format and sweeps.

The interferometer output is cross-checked against a chain of literal
Jones/permutation matrices composed right here in the test file, so a
bookkeeping slip in the package (basis change, arm order, recombination
flip) cannot hide.
"""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from su6lab import optics as op
from su6lab import state as st

DEG = np.pi / 180.0

# linear (H, V) to circular (up, down) coordinate change
C2 = np.array([[1, 1j], [1, -1j]], dtype=complex) / np.sqrt(2)
I2 = np.eye(2, dtype=complex)
I3 = np.eye(3, dtype=complex)


def hwp_lin(theta_deg):
    t = theta_deg * DEG
    c, s = np.cos(2 * t), np.sin(2 * t)
    return -1j * np.array([[c, s], [s, -c]], dtype=complex)


def qwp_lin(theta_deg):
    t = theta_deg * DEG
    c, s = np.cos(t), np.sin(t)
    return np.exp(-1j * np.pi / 4) * np.array(
        [
            [c * c + 1j * s * s, (1 - 1j) * s * c],
            [(1 - 1j) * s * c, s * s + 1j * c * c],
        ],
        dtype=complex,
    )


def lift(spin_op_linear):
    return np.kron(C2 @ spin_op_linear @ C2.conj().T, I3)


MIRROR6 = np.kron(
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex),
)
# vortex lens of R chirality: O -> R, R -> L, L -> O on the orbital index
VL6_R = np.kron(I2, np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=complex))
VL6_L = np.kron(I2, np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex))
PH6 = lift(np.array([[1, 0], [0, 0]], dtype=complex))
PV6 = lift(np.array([[0, 0], [0, 1]], dtype=complex))


def elem(kind, **kw):
    return op.OpticalElement(kind=kind, **kw)


# ---------------------------------------------------------------- elements


def test_waveplate_operators_match_literal_jones():
    for angle in (0.0, 10.0, 22.5, 45.0, 137.0, -45.0):
        got = op.element_operator(elem("HWP", angle=angle))
        assert np.allclose(got, lift(hwp_lin(angle)), atol=1e-14)
        got = op.element_operator(elem("QWP", angle=angle))
        assert np.allclose(got, lift(qwp_lin(angle)), atol=1e-14)


def test_unitary_elements_are_unitary():
    rng = np.random.default_rng(0)
    elems = [elem("HWP", angle=float(rng.uniform(0, 180)))]
    elems.append(elem("QWP", angle=float(rng.uniform(0, 180))))
    elems.append(elem("MIRROR"))
    elems.append(elem("VORTEX_LENS", chirality="L"))
    elems.append(elem("VORTEX_LENS", chirality="R", flipped=True))
    elems.append(elem("PHASE", angle=73.0))
    for e in elems:
        u = op.element_operator(e)
        assert np.max(np.abs(u.conj().T @ u - np.eye(6))) < 1e-12, e.kind


def test_half_wave_plate_squares_to_minus_identity():
    u = op.element_operator(elem("HWP", angle=33.0))
    assert np.allclose(u @ u, -np.eye(6), atol=1e-13)


def test_quarter_wave_plate_squared_is_half_wave_plate():
    q = op.element_operator(elem("QWP", angle=57.0))
    h = op.element_operator(elem("HWP", angle=57.0))
    assert np.allclose(q @ q, h, atol=1e-13)


def test_waveplate_angles_are_periodic_mod_180():
    assert np.allclose(
        op.element_operator(elem("HWP", angle=190.0)),
        op.element_operator(elem("HWP", angle=10.0)),
        atol=1e-12,
    )
    assert np.allclose(
        op.element_operator(elem("PHASE", angle=370.0)),
        op.element_operator(elem("PHASE", angle=10.0)),
        atol=1e-12,
    )


def test_mirror_swaps_both_chiralities_and_squares_to_identity():
    m = op.element_operator(elem("MIRROR"))
    assert np.allclose(m, MIRROR6, atol=1e-15)
    assert np.allclose(m @ m, np.eye(6), atol=1e-15)
    # state 1 = (up, L) maps to (down, R) = state 5; fundamental swaps spin only
    assert m[4, 0] == 1.0
    assert m[5, 2] == 1.0


def test_vortex_lens_action_table():
    r = op.element_operator(elem("VORTEX_LENS", chirality="R"))
    l = op.element_operator(elem("VORTEX_LENS", chirality="L"))
    assert np.allclose(r, VL6_R, atol=1e-15)
    assert np.allclose(l, VL6_L, atol=1e-15)
    # a flipped lens acts as the opposite chirality
    assert np.allclose(
        op.element_operator(elem("VORTEX_LENS", chirality="R", flipped=True)),
        l,
        atol=1e-15,
    )
    # the two chiralities invert each other and each has period three
    assert np.allclose(r @ l, np.eye(6), atol=1e-15)
    assert np.allclose(r @ r @ r, np.eye(6), atol=1e-15)


def test_polarizer_is_projector_not_unitary():
    p = op.element_operator(elem("POLARIZER", angle=30.0))
    assert np.allclose(p @ p, p, atol=1e-13)
    assert np.max(np.abs(p.conj().T @ p - np.eye(6))) > 0.5


def test_two_port_kinds_have_no_single_arm_operator():
    with pytest.raises(ValueError, match="two-port"):
        op.element_operator(elem("PBS"))
    with pytest.raises(ValueError, match="two-port"):
        op.element_operator(elem("NPBS"))


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown element kind"):
        op.element_operator(elem("GRATING"))


@pytest.mark.parametrize("kind", ["HWP", "MIRROR", "VORTEX_LENS"])
@pytest.mark.parametrize("angle", [np.nan, np.inf, -np.inf])
def test_element_refuses_a_non_finite_angle(kind, angle):
    with pytest.raises(ValueError) as err:
        elem(kind, angle=angle)
    assert str(err.value) == f"element angle must be finite, got {angle}"


def test_element_refuses_a_bad_lens_chirality():
    with pytest.raises(ValueError) as err:
        elem("VORTEX_LENS", chirality="Q")
    assert str(err.value) == "chirality must be L or R, got 'Q'"


@pytest.mark.parametrize("kind", ["HWP", "QWP", "POLARIZER", "MIRROR", "PHASE"])
@pytest.mark.parametrize("chirality", ["L", "X", ""])
def test_element_without_chirality_refuses_one(kind, chirality):
    with pytest.raises(ValueError) as err:
        elem(kind, chirality=chirality)
    assert str(err.value) == f"{kind} has no chirality, got {chirality!r}"


@pytest.mark.parametrize("kind", ["VORTEX_LENS", "HWP"])
@pytest.mark.parametrize("flipped", ["no", "true", 1, 0, None, np.bool_(True)])
def test_element_refuses_a_flipped_that_is_not_a_bool(kind, flipped):
    with pytest.raises(ValueError) as err:
        elem(kind, flipped=flipped)
    assert str(err.value) == f"flipped must be True or False, got {flipped!r}"


@pytest.mark.parametrize("reflect", ["Q", "a", ""])
def test_bench_refuses_a_reflect_other_than_a_or_b(reflect):
    with pytest.raises(ValueError) as err:
        op.BenchDescription("x", "h_gaussian", split=True, reflect=reflect)
    assert str(err.value) == f"reflect must be A or B, got {reflect!r}"


@pytest.mark.parametrize("fields", [
    {"arm_a": (elem("HWP", angle=10.0, element_id="HA"),)},
    {"arm_b": (elem("MIRROR", element_id="MB"),)},
    {"reflect": "A"},
])
def test_bench_refuses_arms_or_reflect_a_without_a_split(fields):
    # unrefused, the arms would not run and serialize_bench would drop them
    with pytest.raises(ValueError) as err:
        op.BenchDescription("x", "h_gaussian", **fields)
    assert str(err.value) == "arm elements and reflect=A need a split"


@pytest.mark.parametrize("build,message", [
    (lambda: op.BenchDescription('a"b', "h_gaussian"),
     "bench name must not contain a double quote or a line break, got 'a\"b'"),
    (lambda: op.BenchDescription("a\nb", "h_gaussian"),
     "bench name must not contain a double quote or a line break, got 'a\\nb'"),
    (lambda: op.BenchDescription("x", "h gaussian"),
     "input state must be one token without whitespace, ';' or '#', "
     "got 'h gaussian'"),
    (lambda: op.BenchDescription("x", ""),
     "input state must be one token without whitespace, ';' or '#', got ''"),
    (lambda: elem("HWP", angle=1.0, element_id="a b"),
     "element id must not contain whitespace, '/', ';' or '#', got 'a b'"),
    (lambda: elem("MIRROR", element_id="M/1"),
     "element id must not contain whitespace, '/', ';' or '#', got 'M/1'"),
])
def test_bench_types_refuse_text_the_parser_cannot_read(build, message):
    # unrefused, serialize_bench would write text that parse_bench refuses
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


@pytest.mark.parametrize("build,message", [
    (lambda: op.SweepSpec("H", 0.0, 10.0, 5.0, record="torus"),
     "sweep record must be a tuple of record names, got 'torus'"),
    (lambda: elem("HWP", angle=1.0, element_id=5),
     "element id must be a string, got 5"),
    (lambda: op.BenchDescription(name=5, input_state="h_gaussian"),
     "bench name must be a string, got 5"),
    (lambda: op.BenchDescription("x", input_state=None),
     "input state must be a string, got None"),
])
def test_bench_types_refuse_values_of_the_wrong_type(build, message):
    # unrefused, a string record was read letter by letter and the others
    # raised TypeError from the text checks
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


@pytest.mark.parametrize("build,message", [
    (lambda: elem("HWP", angle="1"), "element angle must be a real number, got '1'"),
    (lambda: elem("HWP", angle=None), "element angle must be a real number, got None"),
    (lambda: op.SweepSpec("H", "0", 10.0, 5.0), "sweep from must be a real number, got '0'"),
    (lambda: op.SweepSpec("H", 0.0, 10.0, None),
     "sweep step must be a real number, got None"),
    (lambda: op.SweepSpec(5, 0.0, 10.0, 5.0), "sweep element id must be a string, got 5"),
    (lambda: st.su2_state("1", 0.0), "angle theta must be a real number, got '1'"),
    (lambda: st.torus_state(0.0, 1j), "angle phi_t must be a real number, got 1j"),
    (lambda: st.CoherentState([1, 0, 0, 0, 0, 0], n0="2"),
     "n0 must be a real number, got '2'"),
    (lambda: st.positive_finite("x", "2"), "x must be a real number, got '2'"),
])
def test_values_of_the_wrong_type_are_refused_by_name(build, message):
    # unrefused, these raised TypeError from math.isfinite or a comparison,
    # naming neither the field nor the value, and SweepSpec took the int id
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


@pytest.mark.parametrize("sections", [
    {"pre": ("H", "H")},
    {"pre": ("H",), "arm_b": ("H",)},
    {"arm_a": ("H",), "arm_b": (None, "H")},
])
def test_bench_refuses_two_elements_with_one_id(sections):
    # unrefused, set_element_angle and run_sweep would set both plates and
    # serialize_bench would write text that parse_bench refuses
    fields = {key: tuple(elem("HWP", angle=10.0, element_id=eid) for eid in ids)
              for key, ids in sections.items()}
    with pytest.raises(ValueError) as err:
        op.BenchDescription("x", "h_gaussian", split=True, **fields)
    assert str(err.value) == "duplicate element id 'H'"


def test_bench_does_not_compare_elements_without_an_id():
    op.BenchDescription("x", "h_gaussian",
                        pre=(elem("HWP", angle=10.0), elem("HWP", angle=20.0)))


@pytest.mark.parametrize("fields,message", [
    ({"pre": (elem("HWP", angle=10.0),)}, "pre element 1 (HWP)"),
    ({"split": True, "arm_a": (elem("MIRROR", element_id="M1"),),
      "arm_b": (elem("QWP", angle=45.0, element_id="Q"), elem("VORTEX_LENS"))},
     "arm B element 2 (VORTEX_LENS)"),
])
def test_serialize_refuses_an_element_without_an_id(fields, message):
    # unrefused, it writes "id=None", which parses back as the id "None"
    bench = op.BenchDescription("x", "h_gaussian", **fields)
    with pytest.raises(ValueError) as err:
        op.serialize_bench(bench)
    assert str(err.value) == f"cannot serialize: {message} has no id"


_TEXT = hs.text(alphabet='ab" \t\n\r\x85/;#=:', max_size=6)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_TEXT, _TEXT, hs.lists(_TEXT, min_size=1, max_size=3, unique=True))
def test_benches_built_in_code_round_trip_or_are_refused(name, token, ids):
    try:
        bench = op.BenchDescription(
            name, token, pre=tuple(elem("HWP", angle=float(i), element_id=eid)
                                   for i, eid in enumerate(ids)))
    except ValueError:
        return
    assert op.parse_bench(op.serialize_bench(bench)) == bench


def _swept(over, **sections):
    """A bench with the sections given and one sweep over the id ``over``."""
    return op.BenchDescription("x", "h_gaussian", split="arm_b" in sections,
                               sweeps=(op.SweepSpec(over, 0.0, 10.0, 5.0),), **sections)


@pytest.mark.parametrize("build,message", [
    (lambda: elem("MIRROR", angle=5.0, element_id="M1"),
     "MIRROR has no angle, got 5.0"),
    (lambda: elem("VORTEX_LENS", angle=-1.0), "VORTEX_LENS has no angle, got -1.0"),
    (lambda: elem("HWP", angle=1.0, flipped=True), "HWP has no flipped, got True"),
    (lambda: _swept("X", pre=(elem("HWP", element_id="H"),)),
     "sweep references unknown element id 'X'"),
    (lambda: _swept("M1", pre=(elem("MIRROR", element_id="M1"), elem("HWP"))),
     "sweep element 'M1' is a MIRROR, which has no angle"),
    (lambda: _swept("VL1", pre=(elem("VORTEX_LENS"),)),
     "sweep references unknown element id 'VL1'"),
    (lambda: _swept(None, pre=(elem("HWP"), elem("HWP"))),
     "sweep references unknown element id None"),
    (lambda: op.SweepSpec(None, 0.0, 10.0, 5.0), "sweep references unknown element id None"),
    (lambda: _swept("VL1", arm_b=(elem("VORTEX_LENS", element_id="VL1"),)),
     "sweep element 'VL1' is a VORTEX_LENS, which has no angle"),
])
def test_bench_types_refuse_what_the_text_cannot_carry(build, message):
    # unrefused, a sweep over a mirror ran as frames that never changed and
    # serialize_bench wrote text that parse_bench refuses; an angle or a
    # flip on a kind without one was dropped from the text
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_set_element_angle_names_only_the_elements_with_an_id():
    bench = op.BenchDescription("x", "h_gaussian", pre=(
        elem("HWP", angle=1.0), elem("QWP", angle=2.0, element_id="Q"),
        elem("MIRROR")))
    with pytest.raises(ValueError) as err:
        op.set_element_angle(bench, "X", 3.0)
    assert str(err.value) == "bench 'x' has no element 'X' (known: Q)"
    assert op.set_element_angle(bench, "Q", 3.0).pre[1].angle == 3.0
    # a kind with no angle takes none, so the copy is refused when built
    with pytest.raises(ValueError, match="^MIRROR has no angle, got 3.0$"):
        op.set_element_angle(op.BenchDescription("y", "h_gaussian", pre=(
            elem("MIRROR", element_id="M1"),)), "M1", 3.0)
    assert op.set_element_angle(bench, "Q", 0.0).pre[2] == elem("MIRROR")


@hs.composite
def code_element_fields(draw):
    """OpticalElement fields: the attributes of the kind, and in one draw in
    eight an angle, chirality or flip on any kind; ids from a few names."""
    kind = draw(hs.sampled_from(sorted(AUTO_PREFIX)))
    stray = draw(hs.integers(0, 7)) == 0
    lens = kind == "VORTEX_LENS" or stray
    angle = (draw(hs.sampled_from([0.0, -0.0, 22.5, -1e-300, 7e300, 1 / 3]))
             if kind in ANGLE_KINDS or stray else 0.0)
    return (kind, angle, draw(hs.sampled_from("RL")) if lens else "R",
            draw(hs.booleans()) if lens else False,
            draw(hs.sampled_from(["H", "M1", "VL1", "a.b", "", "Q", "P2", "x", "PH1",
                                  "HWP3", "id=", "b\"c"])))


@hs.composite
def code_benches(draw):
    """A BenchDescription built in code from drawn fields, or None when a
    type refuses them; ids may repeat, and a sweep names a drawn id or X."""
    split = draw(hs.booleans())
    sections = [draw(hs.lists(code_element_fields(), max_size=3 if key == "pre" or split
                              else 0)) for key in ("pre", "A", "B")]
    ids = [fields[-1] for section in sections for fields in section] + ["X"]
    sweeps = draw(hs.lists(hs.tuples(
        hs.sampled_from(ids), hs.sampled_from([-90.0, 0.0, 12.5]), hs.integers(0, 4),
        hs.lists(hs.sampled_from(op.RECORD_NAMES), max_size=2).map(tuple)),
        max_size=2))
    name = draw(hs.sampled_from(["b", "a b;#"]))
    reflect = draw(hs.sampled_from("AB")) if split else "B"
    try:
        return op.BenchDescription(
            name, "h_gaussian",
            *(tuple(op.OpticalElement(*fields) for fields in s) for s in sections),
            split, reflect,
            tuple(op.SweepSpec(eid, start, start + 5.0 * n, 5.0, record)
                  for eid, start, n, record in sweeps))
    except ValueError:
        return None


@settings(derandomize=True, max_examples=600, deadline=None, database=None)
@given(code_benches())
def test_every_bench_the_types_accept_round_trips(bench):
    if bench is None:
        return
    text = op.serialize_bench(bench)
    assert op.parse_bench(text) == bench
    assert op.serialize_bench(op.parse_bench(text)) == text


# ---------------------------------------------------------------- parser

VALID_BENCH = """\
# comment line
bench "demo"
input state=h_gaussian
pre: HWP angle=22.5
split PBS
arm A: MIRROR / QWP angle=45
arm B: QWP angle=45 / HWP angle=0 / HWP angle=0 / QWP angle=-45 / MIRROR / QWP angle=-45 / VL chirality=R flipped=false / PHASE angle=-90
combine NPBS reflect=B
sweep element=HWP3 from=0 to=180 step=10 record=skyrmion_sphere,stokes_field
"""


def test_parse_assigns_auto_ids_in_order():
    b = op.parse_bench(VALID_BENCH)
    assert b.name == "demo"
    assert b.input_state == "h_gaussian"
    assert [e.element_id for e in b.pre] == ["HWP1"]
    assert [e.element_id for e in b.arm_a] == ["M1", "QWP1"]
    ids_b = [e.element_id for e in b.arm_b]
    assert ids_b == ["QWP2", "HWP2", "HWP3", "QWP3", "M2", "QWP4", "VL1", "PH1"]
    assert b.reflect == "B"
    assert len(b.sweeps) == 1
    sw = b.sweeps[0]
    assert sw.element_id == "HWP3"
    assert (sw.start, sw.stop, sw.step) == (0.0, 180.0, 10.0)
    assert sw.record == ("skyrmion_sphere", "stokes_field")
    assert sw.frame_count == 19


def test_parse_accepts_semicolon_separated_single_line():
    text = (
        'bench "oneline" ; input state=neel_out ; split PBS ; '
        "arm A: HWP angle=22.5 / QWP angle=45 ; arm B: MIRROR / QWP angle=45 ; "
        "combine NPBS reflect=B ; "
        "sweep element=HWP1 from=0 to=90 step=5 record=skyrmion_sphere"
    )
    b = op.parse_bench(text)
    assert b.name == "oneline"
    assert b.sweeps[0].element_id == "HWP1"
    assert b.sweeps[0].frame_count == 19


def test_serialize_round_trip_and_idempotence():
    b = op.parse_bench(VALID_BENCH)
    text1 = op.serialize_bench(b)
    b2 = op.parse_bench(text1)
    assert b2 == b
    assert op.serialize_bench(b2) == text1


def test_explicit_ids_survive_round_trip():
    text = (
        'bench "ids"\ninput state=neel_out\nsplit PBS\n'
        "arm A: HWP angle=10 id=HWPX\narm B: MIRROR id=MB\ncombine NPBS reflect=A\n"
        "sweep element=HWPX from=0 to=10 step=5"
    )
    b = op.parse_bench(text)
    assert [e.element_id for e in b.arm_a] == ["HWPX"]
    assert op.parse_bench(op.serialize_bench(b)) == b


_HEAD = 'bench "a"\ninput state=x\n'
_ARMS = _HEAD + "split PBS\narm A: HWP angle=0\ncombine NPBS reflect=A\n"

# (text, full diagnostic, line); each is compared whole, so a changed word
# or a shifted line number fails
MALFORMED = [
    ("input state=neel_out", "file must start with a bench statement", 1),
    ('bench "a"\nbench "b"', "duplicate bench statement", 2),
    ('bench noquotes', "bench name must be double-quoted", 1),
    ('bench "a"\ninput state=x\nsplit PBS\narm A: FOO angle=1\ncombine NPBS reflect=A',
     "unknown element kind 'FOO'", 4),
    ('bench "a"\ninput state=x\nsplit PBS\narm A: HWP\ncombine NPBS reflect=A',
     "HWP requires attribute 'angle'", 4),
    ('bench "a"\ninput state=x\nsplit PBS\narm A: HWP angle=abc\ncombine NPBS reflect=A',
     "attribute 'angle' is not a number: 'abc'", 4),
    ('bench "a"\ninput state=x\nsplit PBS\narm A: HWP angle=1 tilt=2\ncombine NPBS reflect=A',
     "unknown attribute 'tilt' for HWP", 4),
    ('bench "a"\ninput state=x\nsplit CUBE\narm A: HWP angle=1\ncombine NPBS reflect=A',
     "splitter must be PBS", 3),
    ('bench "a"\ninput state=x\nsplit PBS\nsplit PBS\ncombine NPBS reflect=A',
     "duplicate split statement", 4),
    ('bench "a"\ninput state=x\nsplit PBS\ncombine NPBS reflect=C',
     "reflect must be A or B, got 'C'", 4),
    ('bench "a"\ninput state=x\nsplit PBS\ncombine NPBS reflect=A\n'
     "sweep element=HWP9 from=0 to=10 step=5",
     "sweep references unknown element id 'HWP9'", 5),
    ('bench "a"\ninput state=x\nsplit PBS\narm A: HWP angle=0\ncombine NPBS reflect=A\n'
     "sweep element=HWP1 from=0 to=10 step=0",
     "sweep step must be nonzero", 6),
    (_HEAD + "pre: MIRROR / HWP angle=0\nsweep element=M1 from=0 to=90 step=10",
     "sweep element 'M1' is a MIRROR, which has no angle", 4),
    (_HEAD + "pre: VL chirality=L id=lens\n"
     "sweep element=lens from=0 to=nan step=x",
     "sweep element 'lens' is a VORTEX_LENS, which has no angle", 4),
    ('bench "a"\ninput state=x\nsplit PBS\narm A: HWP angle=0\ncombine NPBS reflect=A\n'
     "sweep element=HWP1 from=0 to=10 step=3",
     "sweep span is not an integer number of steps", 6),
    ('bench "a"\ninput state=x\nsplit PBS\narm A: HWP angle=0\ncombine NPBS reflect=A\n'
     "sweep element=HWP1 from=0 to=10 step=5 record=bogus_name",
     "unknown record name 'bogus_name' (valid: skyrmion_sphere, "
     "antiskyrmion_sphere, oam_sphere, polarization_sphere, torus, stokes_field)",
     6),
    ('bench "a"\ninput state=x\nsplit PBS\narm A: VL chirality=Q\ncombine NPBS reflect=A',
     "chirality must be L or R, got 'Q'", 4),
    (_HEAD + "pre: VL flipped=yes chirality=Q", "chirality must be L or R, got 'Q'", 3),
    ('bench "a"\ninput state=x\nsplit PBS\narm A: HWP angle=1 id=X / QWP angle=2 id=X\n'
     "combine NPBS reflect=A",
     "duplicate element id 'X'", 4),
    ('bench "a"\nsplit PBS\ncombine NPBS reflect=A', "missing input statement", 3),
    ('bench "a"\ninput state=x\narm A: HWP angle=3',
     "arm elements without a split statement", 3),
    ('bench "a"\ninput state=x\nsplit PBS', "split without a combine statement", 3),
    ('bench "a"\ninput state=x\nwobble frob', "unknown statement 'wobble'", 3),
    ('bench "a"\ninput state=x\nsplit PBS\narm A: HWP angle=nan\ncombine NPBS reflect=A',
     "attribute 'angle' is not a finite number: 'nan'", 4),
    ('bench "a"\ninput state=x\npre: QWP angle=-inf\nsplit PBS\ncombine NPBS reflect=A',
     "attribute 'angle' is not a finite number: '-inf'", 3),
    ('bench "a"\ninput state=x\nsplit PBS\narm A: HWP angle=0\ncombine NPBS reflect=A\n'
     "sweep element=HWP1 from=nan to=10 step=5",
     "attribute 'from' is not a finite number: 'nan'", 6),
    ('bench "a"\ninput state=x\nsplit PBS\narm A: HWP angle=0\ncombine NPBS reflect=A\n'
     "sweep element=HWP1 from=0 to=Infinity step=5",
     "attribute 'to' is not a finite number: 'Infinity'", 6),
    ('bench "a"\ninput state=x\nsplit PBS\narm A: HWP angle=0\ncombine NPBS reflect=A\n'
     "sweep element=HWP1 from=0 to=10 step=inf",
     "attribute 'step' is not a finite number: 'inf'", 6),
    ("", "empty bench file", 1),
    ("# only a comment\n\n", "empty bench file", 1),
    (_HEAD + "pre: HWP x", "malformed HWP attribute 'x', expected key=value", 3),
    (_HEAD + "pre: HWP angle=1 angle=2", "duplicate attribute 'angle'", 3),
    (_HEAD + "pre: PHASE phase=10 angle=20", "duplicate attribute 'angle'", 3),
    (_HEAD + "pre: PH angle=10 phase=20", "duplicate attribute 'angle'", 3),
    (_HEAD + "input state=y", "duplicate input statement", 3),
    ('bench "a"\ninput state=', "input statement must be 'input state=<token>'", 2),
    ('bench "a"\ninput neel_out', "input statement must be 'input state=<token>'", 2),
    ('bench "a"\ninput state="x;y"', "input statement must be 'input state=<token>'", 2),
    (_HEAD + "arm C: HWP angle=1",
     "arm statement must be 'arm A: ...' or 'arm B: ...'", 3),
    (_HEAD + "arm A HWP angle=1",
     "arm statement must be 'arm A: ...' or 'arm B: ...'", 3),
    (_HEAD + "arm A:", "arm elements without a split statement", 3),
    (_HEAD + "split PBS\narm A: VL flipped=yes\ncombine NPBS reflect=A",
     "flipped must be true or false, got 'yes'", 4),
    (_HEAD + "combine NPBS reflect=A", "combine without a split statement", 3),
    (_HEAD + "split PBS\ncombine NPBS reflect=A\ncombine NPBS reflect=B",
     "duplicate combine statement", 5),
    (_HEAD + "split PBS\ncombine BS reflect=A",
     "combine statement must be 'combine NPBS reflect=<A|B>'", 4),
    (_ARMS + "sweep element=HWP1 from=0 to=10", "sweep requires attribute 'step'", 6),
    (_ARMS + "sweep element=HWP1 from=0 to=10 step=5 x=1",
     "unknown attribute 'x' for sweep", 6),
    (_ARMS + "sweep element=HWP1 from=0 to=10 step=-5",
     "sweep step must point from 'from' toward 'to'", 6),
    (_ARMS + "sweep element=HWP1 from=0 to=10 step=5 step=5",
     "duplicate attribute 'step'", 6),
    (_ARMS + "sweep element=HWP1 from=0 to=10 5",
     "malformed sweep attribute '5', expected key=value", 6),
    (_HEAD + "prelude HWP angle=1", "unknown statement 'prelude'", 3),
    (_HEAD + "pre: PL angle=1", "unknown element kind 'PL'", 3),
    ('bench "a"\nsplit PBS\ncombine NPBS reflect=A\n# trailing comment\n\n',
     "missing input statement", 3),
    ('bench "a;#" ; input state=x ; split PBS # c\n'
     "arm A: HWP angle=1 ; arm B: HWP angle=2 id=HWP1\ncombine NPBS reflect=A",
     "duplicate element id 'HWP1'", 2),
]


@pytest.mark.parametrize("text,message,line", MALFORMED)
def test_malformed_inputs_have_line_diagnostics(text, message, line):
    with pytest.raises(op.BenchParseError) as err:
        op.parse_bench(text, source="bad.bench")
    assert str(err.value) == f"bad.bench:{line}: {message}"
    assert err.value.line == line


# the MALFORMED sweep statements refused by a SweepSpec rule
SWEEP_ROWS = [(text.splitlines()[-1], message) for text, message, _ in MALFORMED
              if message.startswith(("sweep step", "sweep span", "unknown record"))]


@pytest.mark.parametrize("sweep,message", SWEEP_ROWS)
def test_sweep_spec_refuses_what_the_parser_refuses(sweep, message):
    words = dict(word.split("=", 1) for word in sweep.split()[1:])
    record = tuple(words["record"].split(",")) if "record" in words else ()
    with pytest.raises(ValueError) as err:
        op.SweepSpec(words["element"], float(words["from"]), float(words["to"]),
                     float(words["step"]), record)
    assert type(err.value) is ValueError
    assert str(err.value) == message


def test_sweep_spec_refuses_a_runaway_frame_count():
    # refused when built, before ``values`` could ask for 10**15 floats
    with pytest.raises(ValueError) as err:
        op.SweepSpec("H", 0.0, 1e12, 1e-3)
    assert str(err.value) == (
        "sweep has 1000000000000001 frames, more than the cap of "
        f"{op.MAX_SWEEP_FRAMES}"
    )


@pytest.mark.parametrize("bounds", [(np.nan, 10.0, 5.0), (0.0, np.inf, 5.0),
                                    (0.0, 10.0, np.inf)])
def test_sweep_spec_refuses_non_finite_bounds(bounds):
    with pytest.raises(ValueError) as err:
        op.SweepSpec("H", *bounds)
    assert str(err.value) == f"sweep from, to and step must be finite, got {bounds}"


def _sweep_bench(spec):
    return ('bench "a"\ninput state=x\nsplit PBS\narm A: HWP angle=0\n'
            f"combine NPBS reflect=A\nsweep element=HWP1 {spec}")


def test_sweep_frame_cap_refuses_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(op.BenchParseError) as err:
            op.parse_bench(_sweep_bench("from=0 to=1e12 step=1"),
                           source="big.bench")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == (
        "big.bench:6: sweep has 1000000000001 frames, more than the cap of "
        f"{op.MAX_SWEEP_FRAMES}"
    )
    assert peak < 1 << 20


def test_sweep_frame_cap_boundary():
    cap = op.MAX_SWEEP_FRAMES
    bench = op.parse_bench(_sweep_bench(f"from=0 to={cap - 1} step=1"))
    assert bench.sweeps[0].frame_count == cap
    with pytest.raises(op.BenchParseError, match=f"sweep has {cap + 1} frames"):
        op.parse_bench(_sweep_bench(f"from=0 to={cap} step=1"))
    # a span that overflows to inf is refused too
    with pytest.raises(op.BenchParseError, match="sweep has inf frames"):
        op.parse_bench(_sweep_bench("from=-1e308 to=1e308 step=1"))


# ------------------------------------------------------- format properties

# fixed example set: the same benches are generated on every run
PROPERTY = settings(derandomize=True, max_examples=200, deadline=None,
                    database=None)

# every accepted element token with its canonical kind, and the automatic
# id prefix of each kind; written out here as the oracle for the parser
TOKENS = {
    "HWP": "HWP", "QWP": "QWP", "POLARIZER": "POLARIZER",
    "MIRROR": "MIRROR", "M": "MIRROR",
    "VL": "VORTEX_LENS", "VORTEX_LENS": "VORTEX_LENS",
    "PHASE": "PHASE", "PH": "PHASE",
}
AUTO_PREFIX = {"HWP": "HWP", "QWP": "QWP", "POLARIZER": "PL",
               "MIRROR": "M", "VORTEX_LENS": "VL", "PHASE": "PH"}
ANGLE_KINDS = ("HWP", "QWP", "POLARIZER", "PHASE")  # the kinds a sweep may name
HEADS = ("bench", "input", "pre", "arm", "split", "combine", "sweep")

# statement separators, some carrying a comment with the characters the
# scanner treats specially
SEPARATORS = (";", " ; ", "\n", "\n\n", '  # note; "q" #\n', "\n# a; b\n")
ANGLES = hs.one_of(
    hs.integers(-720, 720).map(str),
    hs.floats(-1e6, 1e6, allow_nan=False).map(repr),
)


@hs.composite
def element_specs(draw):
    """(token, kind, attribute texts, OpticalElement fields, explicit id?)"""
    token = draw(hs.sampled_from(sorted(TOKENS)))
    kind = TOKENS[token]
    attrs, fields = [], {}
    if kind in ANGLE_KINDS:
        angle = draw(ANGLES)
        key = "phase" if kind == "PHASE" and draw(hs.booleans()) else "angle"
        attrs.append(f"{key}={angle}")
        fields["angle"] = float(angle)
    if kind == "VORTEX_LENS":
        if draw(hs.booleans()):
            fields["chirality"] = draw(hs.sampled_from("LR"))
            attrs.append(f"chirality={fields['chirality']}")
        if draw(hs.booleans()):
            fields["flipped"] = draw(hs.booleans())
            attrs.append(f"flipped={str(fields['flipped']).lower()}")
    return token, kind, attrs, fields, draw(hs.booleans())


@hs.composite
def bench_cases(draw):
    """(statements, separators, expected BenchDescription)."""
    name = draw(hs.text(alphabet='ab #;/=:\\', max_size=10))
    input_state = draw(hs.sampled_from(
        ["h_gaussian", "neel_out", "states/in.json"]))
    split = draw(hs.booleans())
    sections = {"pre": draw(hs.lists(element_specs(), max_size=4))}
    for arm in "AB":
        sections[arm] = draw(hs.lists(element_specs(), max_size=4)) if split else []

    counts: dict[str, int] = {}
    texts, placed = {}, {}
    for key in ("pre", "A", "B"):
        texts[key], placed[key] = [], []
        for n, (token, kind, attrs, fields, explicit) in enumerate(sections[key]):
            counts[kind] = counts.get(kind, 0) + 1
            eid = f"{key}_{n}.x" if explicit else f"{AUTO_PREFIX[kind]}{counts[kind]}"
            attrs = attrs + [f"id={eid}"] if explicit else attrs
            texts[key].append(" ".join([token, *draw(hs.permutations(attrs))]))
            placed[key].append(op.OpticalElement(kind=kind, element_id=eid, **fields))

    # (statement, the SweepSpec it declares or None)
    statements = [(f"input state={input_state}", None)]
    if placed["pre"] or draw(hs.booleans()):
        joiner = draw(hs.sampled_from([" / ", "/"]))
        statements.append(("pre: " + joiner.join(texts["pre"]), None))
    reflect = "B"
    if split:
        reflect = draw(hs.sampled_from("AB"))
        statements += [("split PBS", None), (f"combine NPBS reflect={reflect}", None)]
        for arm in "AB":
            if placed[arm]:
                statements.append((f"arm {arm}: " + " / ".join(texts[arm]), None))

    ids = [e.element_id for key in ("pre", "A", "B") for e in placed[key]
           if e.kind in ANGLE_KINDS]
    for _ in range(draw(hs.integers(0, 2) if ids else hs.just(0))):
        start = draw(hs.integers(-360, 360))
        step = draw(hs.integers(-30, 30).filter(bool))
        stop = start + step * draw(hs.integers(0, 12))
        record = draw(hs.lists(hs.sampled_from(op.RECORD_NAMES), max_size=3))
        sweep = op.SweepSpec(draw(hs.sampled_from(ids)), start, stop, step,
                             tuple(record))
        words = [f"element={sweep.element_id}", f"from={start}", f"to={stop}",
                 f"step={step}"] + ([f"record={','.join(record)}"] if record else [])
        statements.append(("sweep " + " ".join(draw(hs.permutations(words))), sweep))

    statements = draw(hs.permutations(statements))
    expected = op.BenchDescription(
        name=name, input_state=input_state, pre=tuple(placed["pre"]),
        arm_a=tuple(placed["A"]), arm_b=tuple(placed["B"]), split=split,
        reflect=reflect, sweeps=tuple(sw for _, sw in statements if sw))
    statements = [f'bench "{name}"'] + [text for text, _ in statements]
    separators = [draw(hs.sampled_from(SEPARATORS)) for _ in statements]
    return statements, separators, expected


def _join(statements, separators, lead=""):
    return lead + "".join(s + sep for s, sep in zip(statements, separators))


@PROPERTY
@given(bench_cases(), hs.sampled_from(["", "# header\n", "\n \n"]))
def test_generated_benches_round_trip(case, lead):
    statements, separators, expected = case
    bench = op.parse_bench(_join(statements, separators, lead))
    assert bench == expected
    canonical = op.serialize_bench(bench)
    assert op.parse_bench(canonical) == bench
    assert op.serialize_bench(op.parse_bench(canonical)) == canonical


# statements that are wrong on their own, whatever surrounds them
BAD_STATEMENTS = hs.one_of(
    hs.from_regex(r"[a-z]{1,8}", fullmatch=True).filter(
        lambda w: w not in HEADS).map(lambda w: w + " x=1"),
    hs.from_regex(r"[A-Z]{1,6}", fullmatch=True).filter(
        lambda k: k not in TOKENS).map(lambda k: f"pre: {k} angle=1"),
    hs.sampled_from(sorted(TOKENS)).map(lambda t: f"pre: {t} bare"),
    hs.sampled_from(["HWP", "QWP", "POLARIZER", "PH"]).map(
        lambda t: f"pre: {t} id=Q"),
    hs.from_regex(r"[a-z]{1,5}", fullmatch=True).filter(
        lambda v: v not in ("inf", "nan")).map(lambda v: f"pre: HWP angle={v}"),
    hs.sampled_from(["split CUBE", "combine NPBS reflect=C", "arm C: HWP angle=1",
                     "input nowhere", 'bench unquoted', "pre: VL flipped=maybe",
                     "sweep element=HWP1 from=0 to=1 step=1 loose"]),
)


@PROPERTY
@given(bench_cases(), BAD_STATEMENTS, hs.data())
def test_generated_malformed_statements_name_their_line(case, bad, data):
    statements, separators, _ = case
    at = data.draw(hs.integers(0, len(statements)), label="insert at")
    text = _join(statements[:at], separators[:at])
    line = text.count("\n") + 1
    text += bad + "\n" + _join(statements[at:], separators[at:])
    with pytest.raises(op.BenchParseError) as err:
        op.parse_bench(text)
    assert 1 <= err.value.line <= len(text.splitlines())
    assert err.value.line == line


@PROPERTY
@given(hs.text(alphabet='bench"input state=x pre:HWP angle1/;#\nsplitPBS', max_size=60))
def test_arbitrary_text_parses_or_names_a_line(text):
    try:
        op.parse_bench(text)
    except op.BenchParseError as err:
        assert 1 <= err.line <= max(1, len(text.splitlines()))


# ---------------------------------------------------------------- running


def fig1_bench():
    return op.parse_bench(op.shipped_bench_path("fig1").read_text())


def compose_fig1_oracle(psi1_deg, theta3_deg):
    """The shipped interferometer composed from literal matrices."""
    a = np.zeros(6, dtype=complex)
    a[2] = a[5] = 1 / np.sqrt(2)           # linear H fundamental input
    a = lift(hwp_lin(psi1_deg)) @ a
    arm_a = lift(qwp_lin(45)) @ (MIRROR6 @ (PH6 @ a))
    arm_b = PV6 @ a
    for m in (
        lift(qwp_lin(45)),
        lift(hwp_lin(0)),
        lift(hwp_lin(theta3_deg)),
        lift(qwp_lin(-45)),
        MIRROR6,
        lift(qwp_lin(-45)),
        VL6_R,
    ):
        arm_b = m @ arm_b
    arm_b = np.exp(-1j * np.pi / 2) * arm_b
    out = arm_a + MIRROR6 @ arm_b
    return out / np.linalg.norm(out)


def test_fig1_defaults_give_radial_hedgehog():
    out = op.run_bench(fig1_bench())
    target = st.named_state("neel_out")
    assert abs(st.overlap(target, out)) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(
        st.skyrmion_sphere(out).coords, (1, 0, 0), atol=1e-12
    )


def test_fig1_matches_literal_matrix_oracle():
    for theta3 in (0.0, 20.0, 90.0, 130.0):
        bench = op.set_element_angle(fig1_bench(), "HWP3", theta3)
        got = op.run_bench(bench).alpha
        want = compose_fig1_oracle(22.5, theta3)
        assert np.allclose(got, want, atol=1e-12), theta3


def test_fig1_phase_sweep_rates_and_frames():
    res = op.run_sweep(fig1_bench(), "HWP3")
    assert len(res.frames) == 19
    assert np.allclose(res.parameters, np.arange(0.0, 181.0, 10.0))
    pts = [st.skyrmion_sphere(f) for f in res.frames]
    azimuth = np.unwrap([p.phi for p in pts])
    steps = np.diff(azimuth)
    # azimuth advances at twice the plate angle, clockwise
    assert np.allclose(steps, -2 * np.deg2rad(10.0), atol=1e-9)
    # polar expectation frozen across the sweep
    s3 = [p.coords[2] for p in pts]
    assert np.max(np.abs(s3)) < 1e-12
    # quarter-turn frame is the antiradial hedgehog
    assert np.allclose(pts[9].coords, (-1, 0, 0), atol=1e-12)


def test_fig1_rotator_sweep_rates():
    res = op.run_sweep(fig1_bench(), "HWP1")
    assert len(res.frames) == 19
    pts = [st.skyrmion_sphere(f) for f in res.frames]
    # polar angle in the S1-S3 plane advances at four times the plate angle
    polar = np.unwrap([np.arctan2(p.coords[0], p.coords[2]) for p in pts])
    steps = np.diff(polar)
    assert np.allclose(np.abs(steps), 4 * np.deg2rad(5.0), atol=1e-9)
    assert np.all(np.sign(steps) == np.sign(steps[0]))
    # the trajectory never leaves the S1-S3 great circle
    assert np.max(np.abs([p.coords[1] for p in pts])) < 1e-12


def test_flipped_vortex_lens_gives_antiskyrmion_family():
    bench = op.parse_bench(op.shipped_bench_path("antiskyrmion").read_text())
    out = op.run_bench(bench)
    target = st.named_state("antiskyrmion_h")
    assert abs(st.overlap(target, out)) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(st.antiskyrmion_sphere(out).coords, (1, 0, 0), atol=1e-12)


def test_run_bench_with_explicit_input_state():
    bench = fig1_bench()
    out = op.run_bench(bench, input_state=st.named_state("h_gaussian", n0=2.0))
    assert out.n0 == 2.0
    assert abs(st.overlap(st.named_state("neel_out"), out)) == pytest.approx(
        1.0, abs=1e-12
    )


def test_set_element_angle_refuses_nan():
    with pytest.raises(ValueError) as err:
        op.set_element_angle(fig1_bench(), "HWP3", np.nan)
    assert str(err.value) == "element angle must be finite, got nan"


def test_run_bench_rejects_file_input_token_without_state():
    text = 'bench "f"\ninput state=some/file.json\nsplit PBS\ncombine NPBS reflect=A'
    bench = op.parse_bench(text)
    with pytest.raises(ValueError, match="file"):
        op.run_bench(bench)


def test_single_path_bench_and_polarizer_extinction():
    text = 'bench "p"\ninput state=v_gaussian\npre: POLARIZER angle=0'
    bench = op.parse_bench(text)
    with pytest.raises(RuntimeError, match="[Ee]xtinguish|destructive"):
        op.run_bench(bench)
    text = 'bench "p"\ninput state=h_gaussian\npre: POLARIZER angle=0'
    out = op.run_bench(op.parse_bench(text))
    assert abs(st.overlap(st.named_state("h_gaussian"), out)) == pytest.approx(
        1.0, abs=1e-12
    )


def test_destructive_recombination_raises():
    text = (
        'bench "null"\ninput state=basis_3\nsplit PBS\n'
        "arm B: HWP angle=45\ncombine NPBS reflect=B"
    )
    with pytest.raises(RuntimeError, match="destructive"):
        op.run_bench(op.parse_bench(text))


def test_sweep_selection_and_unknown_id():
    bench = fig1_bench()
    assert len(bench.sweeps) == 2
    res = op.run_sweep(bench)            # defaults to the first sweep
    assert res.sweep.element_id == "HWP3"
    with pytest.raises(ValueError, match="HWP9"):
        op.run_sweep(bench, "HWP9")


def test_run_sweep_on_a_bench_without_sweeps():
    with pytest.raises(ValueError) as err:
        op.run_sweep(op.BenchDescription("plain", "h_gaussian"))
    assert str(err.value) == "bench 'plain' declares no sweep"


def test_sweeping_a_phase_element():
    text = (
        'bench "ph"\ninput state=basis_3\nsplit PBS\narm A: PHASE angle=0\n'
        "combine NPBS reflect=B\n"
        "sweep element=PH1 from=0 to=360 step=90 record=polarization_sphere"
    )
    res = op.run_sweep(op.parse_bench(text))
    assert len(res.frames) == 5
    # a full turn of the arm phase reproduces the first frame
    assert abs(st.overlap(res.frames[0], res.frames[4])) == pytest.approx(
        1.0, abs=1e-12
    )


# ------------------------------------------------- sweeps reuse operators


def _outcome(fn):
    """Bytes of a camera state, or the type and text of its error."""
    try:
        out = fn()
    except (ValueError, RuntimeError) as err:
        return type(err), str(err)
    return out.alpha.tobytes(), out.n0


def _wrapper_run(bench, input_state):
    """run_bench's camera state by numpy's wrappers: np.linalg.norm for the
    extinction test and the normalization, np.sqrt(2) at the combiner."""
    a = input_state.alpha.astype(complex)
    for e in bench.pre:
        a = op.element_operator(e) @ a
    if bench.split:
        arms = [op._PROJ_H6 @ a, op._PROJ_V6 @ a]
        for k, elems in enumerate((bench.arm_a, bench.arm_b)):
            for e in elems:
                arms[k] = op.element_operator(e) @ arms[k]
        k = "AB".index(bench.reflect)
        arms[k] = op._MIRROR6 @ arms[k]
        a = (arms[0] + arms[1]) / np.sqrt(2)
    if np.linalg.norm(a) < 1e-12:
        return RuntimeError
    return (a / float(np.linalg.norm(a))).tobytes(), input_state.n0


@hs.composite
def sparse_amplitudes(draw):
    """Random amplitudes with about half of them zeroed."""
    parts = draw(hs.lists(hs.floats(-1.0, 1.0), min_size=12, max_size=12))
    zeroed = draw(hs.lists(hs.booleans(), min_size=6, max_size=6))
    a = np.where(zeroed, 0.0, np.array(parts[:6]) + 1j * np.array(parts[6:]))
    return a if np.linalg.norm(a) >= 1e-3 else np.eye(6)[2]


@PROPERTY
@given(bench_cases(),
       hs.one_of(hs.sampled_from([None, "dipolar", "basis_3"]), sparse_amplitudes()),
       hs.sampled_from([1.0, 2.5, 1000.0, 1e160, 1e-160]))
def test_sweep_frames_equal_single_runs(case, given_input, n0):
    bench = case[2]
    if isinstance(given_input, np.ndarray):
        input_state = st.CoherentState(given_input, n0=n0)
    else:
        # a file input stays None, so both sides refuse it
        name = given_input or bench.input_state
        input_state = (st.named_state(name, n0=n0) if name in st.state_names()
                       else None)
    for element_id in {sw.element_id for sw in bench.sweeps}:
        spec = next(sw for sw in bench.sweeps if sw.element_id == element_id)
        want = [_outcome(lambda: op.run_bench(
                    op.set_element_angle(bench, element_id, float(v)),
                    input_state=input_state))
                for v in spec.values]
        if input_state is not None:
            wrapped = [_wrapper_run(op.set_element_angle(bench, element_id, float(v)),
                                    input_state) for v in spec.values]
            assert [w if isinstance(w[0], bytes) else w[0] for w in want] == wrapped
        errors = [w for w in want if isinstance(w[0], type)]
        try:
            res = op.run_sweep(bench, element_id, input_state=input_state)
        except (ValueError, RuntimeError) as err:
            # the sweep stops at its first failing frame, with that error
            assert errors and (type(err), str(err)) == errors[0]
            continue
        assert not errors
        assert res.parameters.tobytes() == spec.values.tobytes()
        assert [(f.alpha.tobytes(), f.n0) for f in res.frames] == want


def test_sweep_errors_keep_their_text_and_order():
    plate = op.OpticalElement("HWP", 0.0, element_id="H")
    crossed = op.OpticalElement("POLARIZER", 90.0, element_id="P")
    # an unknown id is refused when the bench is built
    with pytest.raises(ValueError) as err:
        op.BenchDescription("o", "in.json", pre=(plate, crossed),
                            sweeps=(op.SweepSpec("X", 0.0, 10.0, 5.0),))
    assert str(err.value) == "sweep references unknown element id 'X'"
    bench = op.BenchDescription("o", "in.json", pre=(plate, crossed),
                                sweeps=(op.SweepSpec("H", 0.0, 10.0, 5.0),))
    h_in = st.named_state("h_gaussian")
    # the file input comes before extinction
    file_input = (
        "input state 'in.json' is not a named state; load the file yourself "
        "and pass input_state explicitly"
    )
    for run in (lambda: op.run_sweep(bench, "H"), lambda: op.run_bench(bench)):
        with pytest.raises(ValueError) as err:
            run()
        assert str(err.value) == file_input
    extinguished = (
        "bench output is fully extinguished "
        "(destructive recombination or a crossed polarizer)"
    )
    for run in (lambda: op.run_sweep(bench, "H", input_state=h_in),
                lambda: op.run_bench(bench, input_state=h_in)):
        with pytest.raises(RuntimeError) as err:
            run()
        assert str(err.value) == extinguished


def test_lift_spin_equals_kron_byte_for_byte():
    rng = np.random.default_rng(3)
    zeros = np.array([0.0, -0.0])
    for _ in range(2000):
        parts = rng.normal(size=(2, 2, 2))
        # about a third of the parts are signed zeros
        hit = rng.random(parts.shape) < 0.35
        parts[hit] = rng.choice(zeros, size=int(hit.sum()))
        jones = np.empty((2, 2), dtype=complex)
        jones.real, jones.imag = parts  # no arithmetic, so -0.0 survives
        got = op._lift_spin(jones)
        assert got.tobytes() == lift(jones).tobytes()
        assert got.flags.c_contiguous


def test_sweep_builds_each_fixed_operator_once(monkeypatch):
    bench = fig1_bench()
    built = []
    element_operator = op.element_operator

    def counting(e):
        built.append(e.element_id)
        return element_operator(e)

    monkeypatch.setattr(op, "element_operator", counting)
    n = len(bench.all_elements())
    op.run_bench(bench)
    assert len(built) == n == 11
    built.clear()
    res = op.run_sweep(bench, "HWP3")
    frames = len(res.frames)
    # 11 + F calls; building every operator per frame took 11 * F
    assert len(built) == n + frames == 30
    assert built[n:] == ["HWP3"] * frames
