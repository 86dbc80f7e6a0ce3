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


MALFORMED = [
    ("input state=neel_out", "must start with a bench statement", 1),
    ('bench "a"\nbench "b"', "duplicate bench statement", 2),
    ('bench noquotes', "double-quoted", 1),
    ('bench "a"\ninput state=x\nsplit PBS\narm A: FOO angle=1\ncombine NPBS reflect=A',
     "unknown element kind 'FOO'", 4),
    ('bench "a"\ninput state=x\nsplit PBS\narm A: HWP\ncombine NPBS reflect=A',
     "requires attribute 'angle'", 4),
    ('bench "a"\ninput state=x\nsplit PBS\narm A: HWP angle=abc\ncombine NPBS reflect=A',
     "not a number", 4),
    ('bench "a"\ninput state=x\nsplit PBS\narm A: HWP angle=1 tilt=2\ncombine NPBS reflect=A',
     "unknown attribute 'tilt'", 4),
    ('bench "a"\ninput state=x\nsplit CUBE\narm A: HWP angle=1\ncombine NPBS reflect=A',
     "splitter must be PBS", 3),
    ('bench "a"\ninput state=x\nsplit PBS\nsplit PBS\ncombine NPBS reflect=A',
     "duplicate split", 4),
    ('bench "a"\ninput state=x\nsplit PBS\ncombine NPBS reflect=C',
     "reflect must be A or B", 4),
    ('bench "a"\ninput state=x\nsplit PBS\ncombine NPBS reflect=A\n'
     "sweep element=HWP9 from=0 to=10 step=5",
     "unknown element id 'HWP9'", 5),
    ('bench "a"\ninput state=x\nsplit PBS\narm A: HWP angle=0\ncombine NPBS reflect=A\n'
     "sweep element=HWP1 from=0 to=10 step=0",
     "step must be nonzero", 6),
    ('bench "a"\ninput state=x\nsplit PBS\narm A: HWP angle=0\ncombine NPBS reflect=A\n'
     "sweep element=HWP1 from=0 to=10 step=3",
     "integer number of steps", 6),
    ('bench "a"\ninput state=x\nsplit PBS\narm A: HWP angle=0\ncombine NPBS reflect=A\n'
     "sweep element=HWP1 from=0 to=10 step=5 record=bogus_name",
     "unknown record name 'bogus_name'", 6),
    ('bench "a"\ninput state=x\nsplit PBS\narm A: VL chirality=Q\ncombine NPBS reflect=A',
     "chirality must be L or R", 4),
    ('bench "a"\ninput state=x\nsplit PBS\narm A: HWP angle=1 id=X / QWP angle=2 id=X\n'
     "combine NPBS reflect=A",
     "duplicate element id 'X'", 4),
    ('bench "a"\nsplit PBS\ncombine NPBS reflect=A', "missing input statement", 3),
    ('bench "a"\ninput state=x\narm A: HWP angle=3', "arm elements without a split", 3),
    ('bench "a"\ninput state=x\nsplit PBS', "split without a combine", 3),
    ('bench "a"\ninput state=x\nwobble frob', "unknown statement", 3),
    ('bench "a"\ninput state=x\nsplit PBS\narm A: HWP angle=nan\ncombine NPBS reflect=A',
     "attribute 'angle' is not a finite number: 'nan'", 4),
    ('bench "a"\ninput state=x\npre: QWP angle=-inf\nsplit PBS\ncombine NPBS reflect=A',
     "attribute 'angle' is not a finite number: '-inf'", 3),
    ('bench "a"\ninput state=x\nsplit PBS\narm A: HWP angle=0\ncombine NPBS reflect=A\n'
     "sweep element=HWP1 from=nan to=10 step=5",
     "attribute 'from' is not a finite number", 6),
    ('bench "a"\ninput state=x\nsplit PBS\narm A: HWP angle=0\ncombine NPBS reflect=A\n'
     "sweep element=HWP1 from=0 to=Infinity step=5",
     "attribute 'to' is not a finite number", 6),
    ('bench "a"\ninput state=x\nsplit PBS\narm A: HWP angle=0\ncombine NPBS reflect=A\n'
     "sweep element=HWP1 from=0 to=10 step=inf",
     "attribute 'step' is not a finite number", 6),
]


@pytest.mark.parametrize("text,match,line", MALFORMED)
def test_malformed_inputs_have_line_diagnostics(text, match, line):
    with pytest.raises(op.BenchParseError) as err:
        op.parse_bench(text, source="bad.bench")
    assert match in str(err.value)
    assert err.value.line == line
    assert "bad.bench" in str(err.value)


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
