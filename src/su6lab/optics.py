"""Bench elements, the bench text format, and interferometer runs.

A bench is a two-arm polarizing interferometer acting on the six
amplitudes of a coherent beam (two circular polarizations times the
three lowest orbital modes).  Bench files are plain text::

    bench "demo"                      # required, must come first
    input state=h_gaussian            # named state or a file token
    pre: HWP angle=22.5               # elements before the splitter
    split PBS                         # arm A = horizontal, arm B = vertical
    arm A: MIRROR / QWP angle=45
    arm B: QWP angle=45 / PHASE angle=-90
    combine NPBS reflect=B            # the reflected arm picks up a mirror flip
    sweep element=HWP1 from=0 to=90 step=5 record=skyrmion_sphere

Statements are separated by newlines or semicolons and '#' starts a
comment; both are plain characters inside the quoted bench name.
Elements are applied in the order written.  Every element gets an id:
either an explicit ``id=`` attribute or an automatic one built from the
kind's id prefix and the (1-based) ordinal of that kind within the file,
counting pre, arm A, then arm B.

Element kinds and attributes (angles in degrees).  Each kind is one row
of ``_KINDS``: its tokens, id prefix, attributes and 6x6 operator.  The
first token is the one ``serialize_bench`` writes, the one in
parentheses an accepted alias.  The id prefixes are HWP, QWP, PL, M, VL
and PH; ``PL`` is only a prefix and is refused as a token.  The
statements that may appear once (bench, input, split, combine) are the
rows of ``_ONCE``.

=================  ========================  ================================
token              attributes                action on the beam
=================  ========================  ================================
HWP                angle                     half-wave plate, fast axis at
                                             angle
QWP                angle                     quarter-wave plate
POLARIZER          angle                     linear polarizer (projector)
MIRROR (M)                                   swaps circular polarizations
                                             and the two vortex modes,
                                             leaves the fundamental alone
VL (VORTEX_LENS)   chirality (L/R), flipped  vortex lens: cycles the orbital
                                             modes one step (R: fundamental
                                             -> right vortex -> left vortex
                                             -> fundamental); a flipped lens
                                             acts as the opposite chirality
PHASE (PH)         angle (or phase)          uniform phase factor
                                             exp(i*angle)
=================  ========================  ================================

A sweep names an element with an angle (HWP, QWP, POLARIZER or PHASE)
and steps a whole number of times, at most MAX_SWEEP_FRAMES frames, from
``from`` to ``to``.  Its ``record=`` is a comma list of RECORD_NAMES,
validated and echoed into the trajectory sidecar; it selects no output
(``bench sweep --fields`` writes the field frames).  A sweep builds each
fixed element operator once and rebuilds only the swept one per frame.

``OpticalElement``, ``SweepSpec`` and ``BenchDescription`` refuse values
that break these rules (numbers that are not real and finite, an angle,
chirality or flip on a kind without one, a reflect other than A or B,
arms or reflect=A without a split, a name, input token or element id that
the text cannot hold, two elements with one id, a sweep over an unknown
id or a kind without an angle) when built; ``parse_bench`` calls the same
rules and reports a refusal at the line of the statement being read.  A
run's input is ``input_state`` or the named input state.

Waveplate and polarizer matrices follow the usual Jones conventions in
the linear basis and are conjugated into the circular basis used by the
amplitude vector.  A half-wave plate at angle t is -i*[[cos 2t, sin 2t],
[sin 2t, -cos 2t]]; a quarter-wave plate is exp(-i*pi/4) times
[[c^2+i s^2, (1-i)sc], [(1-i)sc, s^2+i c^2]].  These make two stacked
half-wave plates at angles t1, t2 a pure polarization rotator by
2*(t2-t1) up to a global sign.
"""
from __future__ import annotations

import dataclasses
import math
import re
from dataclasses import dataclass
from importlib import resources
from typing import Callable, NamedTuple

import numpy as np

from .serialize import format_float
from .state import (R2, CoherentState, _finite, _is_finite, _norm, named_state,
                    state_names)

__all__ = [
    "BenchDescription",
    "BenchParseError",
    "MAX_SWEEP_FRAMES",
    "OpticalElement",
    "RECORD_NAMES",
    "SweepResult",
    "SweepSpec",
    "element_operator",
    "parse_bench",
    "run_bench",
    "run_sweep",
    "serialize_bench",
    "set_element_angle",
    "shipped_bench_path",
]

RECORD_NAMES = (
    "skyrmion_sphere",
    "antiskyrmion_sphere",
    "oam_sphere",
    "polarization_sphere",
    "torus",
    "stokes_field",
)

# largest frame count a sweep may declare; each frame is one bench
# run (and one rendered field with ``--fields``)
MAX_SWEEP_FRAMES = 100_000


_SECTIONS = ("pre", "A", "B")
_SWEEP_ATTRS = ("element", "from", "to", "step", "record")  # all but record required
# the statements that appear at most once, by head: (form, message when
# the statement does not fit the form); a form's group is the value
_ONCE = {
    "bench": (r'bench\s+"([^"]*)"', "bench name must be double-quoted"),
    "input": (r"input\s+state=([^\s;#]+)",  # one token, as BenchDescription requires
              "input statement must be 'input state=<token>'"),
    "split": (r"split\s+PBS", "splitter must be PBS"),
    "combine": (r"combine\s+NPBS\s+reflect=(\S+)",
                "combine statement must be 'combine NPBS reflect=<A|B>'"),
}


@dataclass(frozen=True)
class OpticalElement:
    """One single-arm element.  Angles are degrees throughout."""

    kind: str
    angle: float = 0.0
    chirality: str = "R"
    flipped: bool = False
    element_id: str | None = None

    def __post_init__(self) -> None:
        row = _KINDS.get(self.kind)
        if row is None:
            if self.kind in ("PBS", "NPBS"):
                raise ValueError(
                    f"{self.kind} is a two-port device with no single-arm operator")
            raise ValueError(f"unknown element kind {self.kind!r}")
        if "chirality" in row.attrs and self.chirality not in ("L", "R"):
            raise ValueError(f"chirality must be L or R, got {self.chirality!r}")
        if not isinstance(self.flipped, bool):
            raise ValueError(f"flipped must be True or False, got {self.flipped!r}")
        _finite("element angle", self.angle)
        # the text leaves out what a kind has not, so it must keep its default
        for attr, default in (("angle", 0.0), ("chirality", "R"), ("flipped", False)):
            value = getattr(self, attr)
            if attr not in row.attrs and value != default:
                raise ValueError(f"{self.kind} has no {attr}, got {value!r}")
        eid = self.element_id
        if not isinstance(eid, (str, type(None))):
            raise ValueError(f"element id must be a string, got {eid!r}")
        if eid is not None and not re.fullmatch(r"[^\s/;#]*", eid):
            raise ValueError("element id must not contain whitespace, '/', ';' or "
                             f"'#', got {eid!r}")


@dataclass(frozen=True)
class SweepSpec:
    """A declared parameter sweep over one element's angle."""

    element_id: str
    start: float
    stop: float
    step: float
    record: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        eid = self.element_id
        if not isinstance(eid, str):
            raise ValueError("sweep references unknown element id None" if eid is None
                             else f"sweep element id must be a string, got {eid!r}")
        bounds = (self.start, self.stop, self.step)
        if not all(_is_finite(f"sweep {key}", value)
                   for key, value in zip(("from", "to", "step"), bounds)):
            raise ValueError(f"sweep from, to and step must be finite, got {bounds}")
        if self.step == 0.0:
            raise ValueError("sweep step must be nonzero")
        n = (self.stop - self.start) / self.step
        if n < -1e-9:
            raise ValueError("sweep step must point from 'from' toward 'to'")
        if n >= MAX_SWEEP_FRAMES:
            raise ValueError(f"sweep has {n + 1:.0f} frames, more than the cap of "
                             f"{MAX_SWEEP_FRAMES}")
        if abs(n - round(n)) > 1e-9 * max(1.0, abs(n)):
            raise ValueError("sweep span is not an integer number of steps")
        if not isinstance(self.record, tuple):
            raise ValueError("sweep record must be a tuple of record names, got "
                             f"{self.record!r}")
        for token in self.record:
            if token not in RECORD_NAMES:
                raise ValueError(f"unknown record name {token!r} "
                                 f"(valid: {', '.join(RECORD_NAMES)})")

    @property
    def frame_count(self) -> int:
        return int(round((self.stop - self.start) / self.step)) + 1

    @property
    def values(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.frame_count, dtype=float)


# the bench rules: BenchDescription checks every bench with them, and
# parse_bench reports their refusals at the line of the statement being read
def _check_reflect(reflect: str) -> None:
    """Refuse a reflect (the NPBS arm that gets the mirror flip) other than A or B."""
    if reflect not in ("A", "B"):
        raise ValueError(f"reflect must be A or B, got {reflect!r}")


def _check_new_id(seen: set[str], element: OpticalElement) -> None:
    """Refuse an element whose id is in ``seen``, else add its id if it has one."""
    if element.element_id in seen:
        raise ValueError(f"duplicate element id {element.element_id!r}")
    if element.element_id is not None:
        seen.add(element.element_id)


def _check_sweep_target(elements, eid: str) -> None:
    """Refuse a sweep over an id no element has, or over a kind with no angle."""
    kind = next((e.kind for e in elements if e.element_id == eid), None)
    if kind is None:
        raise ValueError(f"sweep references unknown element id {eid!r}")
    if "angle" not in _KINDS[kind].attrs:
        raise ValueError(f"sweep element {eid!r} is a {kind}, which has no angle")


@dataclass(frozen=True)
class BenchDescription:
    """A parsed bench file."""

    name: str
    input_state: str
    pre: tuple[OpticalElement, ...] = ()
    arm_a: tuple[OpticalElement, ...] = ()
    arm_b: tuple[OpticalElement, ...] = ()
    split: bool = False
    reflect: str = "B"
    sweeps: tuple[SweepSpec, ...] = ()

    def __post_init__(self) -> None:
        # the name is written between double quotes on one line, the input
        # token as one word of a statement
        for what, value in (("bench name", self.name), ("input state", self.input_state)):
            if not isinstance(value, str):
                raise ValueError(f"{what} must be a string, got {value!r}")
        if '"' in self.name or len(f".{self.name}.".splitlines()) > 1:
            raise ValueError("bench name must not contain a double quote or a "
                             f"line break, got {self.name!r}")
        if not re.fullmatch(r"[^\s;#]+", self.input_state):
            raise ValueError("input state must be one token without whitespace, "
                             f"';' or '#', got {self.input_state!r}")
        _check_reflect(self.reflect)
        if not self.split and (self.arm_a or self.arm_b or self.reflect != "B"):
            raise ValueError("arm elements and reflect=A need a split")
        elements, seen = self.all_elements(), set()
        for e in elements:
            _check_new_id(seen, e)
        for sw in self.sweeps:
            _check_sweep_target(elements, sw.element_id)

    def all_elements(self) -> tuple[OpticalElement, ...]:
        return self.pre + self.arm_a + self.arm_b


@dataclass(frozen=True)
class SweepResult:
    """Frames of a sweep together with the parameter values."""

    sweep: SweepSpec
    parameters: np.ndarray
    frames: tuple[CoherentState, ...]


class BenchParseError(ValueError):
    """Raised for malformed bench text; carries the source line number."""

    def __init__(self, message: str, source: str = "<string>", line: int = 0):
        self.line = line
        super().__init__(f"{source}:{line}: {message}")


# --------------------------------------------------------------- operators

_C2 = np.array([[1, 1j], [1, -1j]], dtype=complex) / np.sqrt(2)
_C2_H = _C2.conj().T
_EYE3 = np.eye(3, dtype=complex)


def _lift_spin(op2: np.ndarray) -> np.ndarray:
    # conjugate a linear-basis Jones matrix into the circular basis and
    # extend it over the three orbital modes: kron(m, 1_3) as the same
    # broadcast product np.kron forms, without its expand_dims overhead
    m = _C2 @ op2 @ _C2_H
    return (m[:, None, :, None] * _EYE3[None, :, None, :]).reshape(6, 6)


def _jones_half_wave(theta: float) -> np.ndarray:
    c, s = np.cos(2 * theta), np.sin(2 * theta)
    return -1j * np.array([[c, s], [s, -c]], dtype=complex)


def _jones_quarter_wave(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.exp(-1j * np.pi / 4) * np.array(
        [
            [c * c + 1j * s * s, (1 - 1j) * s * c],
            [(1 - 1j) * s * c, s * s + 1j * c * c],
        ],
        dtype=complex,
    )


def _jones_polarizer(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c * c, s * c], [s * c, s * s]], dtype=complex)


_MIRROR6 = np.kron(
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex),
)
# orbital cycle of an R-chirality vortex lens; the L lens is its inverse
_VORTEX_R = np.kron(
    np.eye(2, dtype=complex),
    np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=complex),
)
_PROJ_H6 = _lift_spin(np.array([[1, 0], [0, 0]], dtype=complex))
_PROJ_V6 = _lift_spin(np.array([[0, 0], [0, 1]], dtype=complex))


def _jones(matrix: Callable[[float], np.ndarray]):
    # the operator of a linear-basis Jones matrix at the element's angle
    return lambda e: _lift_spin(matrix(np.deg2rad(e.angle)))


def _vortex_lens(e: OpticalElement) -> np.ndarray:
    right = (e.chirality == "R") != e.flipped  # flipped swaps L and R
    return _VORTEX_R.copy() if right else _VORTEX_R.T.copy()


def _phase(e: OpticalElement) -> np.ndarray:
    return np.exp(1j * np.deg2rad(e.angle)) * np.eye(6, dtype=complex)


class _Kind(NamedTuple):
    tokens: tuple[str, ...]  # accepted in bench text; the first is emitted
    prefix: str              # automatic ids are prefix + ordinal
    attrs: tuple[str, ...]   # attributes besides id, in emitted order
    operator: Callable[[OpticalElement], np.ndarray]  # 6x6, circular basis


# every element kind of the bench format, keyed by OpticalElement.kind;
# an element with an angle attribute must give it
_KINDS = {
    "HWP": _Kind(("HWP",), "HWP", ("angle",), _jones(_jones_half_wave)),
    "QWP": _Kind(("QWP",), "QWP", ("angle",), _jones(_jones_quarter_wave)),
    "POLARIZER": _Kind(("POLARIZER",), "PL", ("angle",),
                       _jones(_jones_polarizer)),
    "MIRROR": _Kind(("MIRROR", "M"), "M", (), lambda e: _MIRROR6.copy()),
    "VORTEX_LENS": _Kind(("VL", "VORTEX_LENS"), "VL", ("chirality", "flipped"),
                         _vortex_lens),
    "PHASE": _Kind(("PHASE", "PH"), "PH", ("angle",), _phase),
}
_TOKEN_KIND = {token: kind for kind, row in _KINDS.items() for token in row.tokens}


def element_operator(element: OpticalElement) -> np.ndarray:
    """6x6 matrix of a single-arm element in the circular amplitude basis.

    POLARIZER returns a projector, which is not unitary; every other
    supported kind is unitary.  PBS and NPBS are two-port devices handled
    by run_bench, and OpticalElement refuses them.
    """
    return _KINDS[element.kind].operator(element)


# ----------------------------------------------------------------- parsing


def _statements(text: str) -> list[tuple[int, str]]:
    """(line, statement) pairs: each line is split at an unquoted ';' and
    ends at an unquoted '#'."""
    out = []
    for ln, raw in enumerate(text.splitlines(), 1):
        pieces, start, quoted = [], 0, False
        for i, ch in enumerate(raw):
            if ch == '"':
                quoted = not quoted
            elif ch in ";#" and not quoted:
                pieces.append(raw[start:i])
                start = i + 1
                if ch == "#":
                    break
        else:
            pieces.append(raw[start:])
        out.extend((ln, p.strip()) for p in pieces if p.strip())
    return out


def _parse_number(value: str, what: str) -> float:
    try:
        number = float(value)
    except ValueError:
        raise ValueError(f"attribute {what} is not a number: {value!r}") from None
    if not math.isfinite(number):
        raise ValueError(f"attribute {what} is not a finite number: {value!r}")
    return number


def _parse_element(text: str) -> OpticalElement:
    token, *words = text.split()
    kind = _TOKEN_KIND.get(token)
    if kind is None:
        raise ValueError(f"unknown element kind {token!r}")
    attrs = _parse_keyvals(words, token)
    if kind == "PHASE" and "phase" in attrs:
        if "angle" in attrs:
            raise ValueError("duplicate attribute 'angle'")
        attrs["angle"] = attrs.pop("phase")
    allowed = _KINDS[kind].attrs
    for key in attrs:
        if key != "id" and key not in allowed:
            raise ValueError(f"unknown attribute {key!r} for {token}")
    angle = 0.0
    if "angle" in allowed:
        if "angle" not in attrs:
            raise ValueError(f"{token} requires attribute 'angle'")
        angle = _parse_number(attrs["angle"], "'angle'")
    flipped = attrs.get("flipped", "false")
    # built before the flipped check, so a bad chirality is reported first
    element = OpticalElement(kind, angle, attrs.get("chirality", "R"),
                             flipped == "true", attrs.get("id"))
    if flipped not in ("true", "false"):
        raise ValueError(f"flipped must be true or false, got {flipped!r}")
    return element


def _parse_keyvals(parts: list[str], stmt: str) -> dict[str, str]:
    attrs: dict[str, str] = {}
    for part in parts:
        if "=" not in part:
            raise ValueError(f"malformed {stmt} attribute {part!r}, expected key=value")
        key, value = part.split("=", 1)
        if key in attrs:
            raise ValueError(f"duplicate attribute {key!r}")
        attrs[key] = value
    return attrs


def _parse_sweep(attrs: dict[str, str], elements) -> SweepSpec:
    for req in _SWEEP_ATTRS[:4]:
        if req not in attrs:
            raise ValueError(f"sweep requires attribute {req!r}")
    for key in attrs:
        if key not in _SWEEP_ATTRS:
            raise ValueError(f"unknown attribute {key!r} for sweep")
    _check_sweep_target(elements, attrs["element"])
    bounds = [_parse_number(attrs[key], repr(key)) for key in ("from", "to", "step")]
    record = tuple(t.strip() for t in attrs.get("record", "").split(",") if t.strip())
    return SweepSpec(attrs["element"], *bounds, record)


def parse_bench(text: str, source: str = "<string>") -> BenchDescription:
    """Parse bench text into a BenchDescription.

    Raises BenchParseError with the 1-based source line on any problem.
    """
    line = 1  # the line of the statement being read
    try:
        stmts = _statements(text)
        if not stmts:
            raise ValueError("empty bench file")

        lines: dict[str, int] = {}   # once-only head, or "arm" -> its first line
        values: dict[str, str] = {}  # head -> the value its form captures
        placed: list[tuple[str, int, OpticalElement]] = []  # (section, line, element)
        sweeps_raw: list[tuple[int, dict[str, str]]] = []

        for idx, (line, stmt) in enumerate(stmts):
            head = stmt.split(None, 1)[0]
            if idx == 0 and head != "bench":
                raise ValueError("file must start with a bench statement")
            if head in _ONCE:
                if head in lines:
                    raise ValueError(f"duplicate {head} statement")
                form, message = _ONCE[head]
                m = re.fullmatch(form, stmt)
                if m is None:
                    raise ValueError(message)
                if m.re.groups:
                    values[head] = m.group(1)
                if head == "combine":
                    _check_reflect(values[head])
                lines[head] = line
            elif m := re.fullmatch(r"(?:pre|arm\s+([AB]))\s*:\s*(.*)", stmt, re.S):
                section = m.group(1) or "pre"
                if section != "pre":
                    lines.setdefault("arm", line)
                for token in m.group(2).split("/"):
                    if token.strip():
                        placed.append((section, line, _parse_element(token)))
            elif head == "arm":
                raise ValueError("arm statement must be 'arm A: ...' or 'arm B: ...'")
            elif head == "sweep":
                sweeps_raw.append((line, _parse_keyvals(stmt.split()[1:], "sweep")))
            else:
                raise ValueError(f"unknown statement {head!r}")

        if "input" not in values:  # line is the last statement's
            raise ValueError("missing input statement")

        # automatic ids count each kind over pre, arm A, then arm B
        placed.sort(key=lambda entry: _SECTIONS.index(entry[0]))
        kind_counts: dict[str, int] = {}
        seen: set[str] = set()
        for i, (section, line, e) in enumerate(placed):
            kind_counts[e.kind] = kind_counts.get(e.kind, 0) + 1
            if e.element_id is None:
                auto = f"{_KINDS[e.kind].prefix}{kind_counts[e.kind]}"
                e = dataclasses.replace(e, element_id=auto)
                placed[i] = (section, line, e)
            _check_new_id(seen, e)
        pre, arm_a, arm_b = (tuple(e for s, _, e in placed if s == key)
                             for key in _SECTIONS)

        # a statement without its partner, reported at the statement's line
        for head, partner, message in (
            ("arm", "split", "arm elements without a split statement"),
            ("split", "combine", "split without a combine statement"),
            ("combine", "split", "combine without a split statement"),
        ):
            if head in lines and partner not in lines:
                line = lines[head]
                raise ValueError(message)

        sweeps = []
        for line, attrs in sweeps_raw:  # a loop, so the except sees line
            sweeps.append(_parse_sweep(attrs, pre + arm_a + arm_b))
    except ValueError as err:
        raise BenchParseError(str(err), source, line) from None

    return BenchDescription(
        name=values["bench"],
        input_state=values["input"],
        pre=pre,
        arm_a=arm_a,
        arm_b=arm_b,
        split="split" in lines,
        reflect=values.get("combine", "B"),
        sweeps=tuple(sweeps),
    )


def _emit_element(e: OpticalElement) -> str:
    row = _KINDS[e.kind]
    text = {
        "angle": format_float(e.angle),
        "chirality": e.chirality,
        "flipped": "true" if e.flipped else "false",
    }
    attrs = [f"{key}={text[key]}" for key in row.attrs]
    return " ".join([row.tokens[0], *attrs, f"id={e.element_id}"])


def _emit_section(label: str, elements: tuple[OpticalElement, ...]) -> list[str]:
    if not elements:
        return []
    for i, e in enumerate(elements, 1):
        # "id=None" would parse back as the id "None"
        if e.element_id is None:
            raise ValueError(f"cannot serialize: {label} element {i} ({e.kind}) "
                             "has no id")
    return [f"{label}: " + " / ".join(_emit_element(e) for e in elements)]


def serialize_bench(bench: BenchDescription) -> str:
    """Canonical text for a bench; parse(serialize(b)) == b.

    Every element needs an id, as every parsed element has; a bench built
    in code with an element of no id is refused with ValueError.
    """
    lines = [f'bench "{bench.name}"', f"input state={bench.input_state}"]
    lines += _emit_section("pre", bench.pre)
    if bench.split:
        lines += ["split PBS", *_emit_section("arm A", bench.arm_a),
                  *_emit_section("arm B", bench.arm_b),
                  f"combine NPBS reflect={bench.reflect}"]
    for sw in bench.sweeps:
        line = (
            f"sweep element={sw.element_id} from={format_float(sw.start)} "
            f"to={format_float(sw.stop)} step={format_float(sw.step)}"
        )
        if sw.record:
            line += " record=" + ",".join(sw.record)
        lines.append(line)
    return "\n".join(lines) + "\n"


def shipped_bench_path(name: str):
    """Path-like handle to one of the bench files shipped in the package."""
    base = resources.files("su6lab").joinpath("benches")
    path = base.joinpath(name + ".bench")
    if not path.is_file():
        available = sorted(
            p.name[: -len(".bench")]
            for p in base.iterdir()
            if p.name.endswith(".bench")
        )
        raise ValueError(
            f"no shipped bench named {name!r} (available: {', '.join(available)})"
        )
    return path


# ----------------------------------------------------------------- running


def _input_state(bench: BenchDescription,
                 input_state: CoherentState | None) -> CoherentState:
    if input_state is not None:
        return input_state
    if bench.input_state not in state_names():
        raise ValueError(
            f"input state {bench.input_state!r} is not a named state; load "
            "the file yourself and pass input_state explicitly"
        )
    return named_state(bench.input_state)


def _operators(bench: BenchDescription) -> list[list[np.ndarray]]:
    """Element operators of the bench as [pre, arm A, arm B], in bench order."""
    return [[element_operator(e) for e in elems]
            for elems in (bench.pre, bench.arm_a, bench.arm_b)]


def _propagate(
    bench: BenchDescription, ops: list[list[np.ndarray]], input_state: CoherentState
) -> CoherentState:
    """Apply prebuilt operators to the input; see run_bench."""
    pre, ops_a, ops_b = ops
    a = input_state.alpha.astype(complex)
    for m in pre:
        a = m @ a
    if bench.split:
        arm_a = _PROJ_H6 @ a
        arm_b = _PROJ_V6 @ a
        for m in ops_a:
            arm_a = m @ arm_a
        for m in ops_b:
            arm_b = m @ arm_b
        if bench.reflect == "A":
            arm_a = _MIRROR6 @ arm_a
        else:
            arm_b = _MIRROR6 @ arm_b
        a = (arm_a + arm_b) / R2
    if _norm(a) < 1e-12:
        raise RuntimeError(
            "bench output is fully extinguished "
            "(destructive recombination or a crossed polarizer)"
        )
    return CoherentState(a, n0=input_state.n0)


def run_bench(
    bench: BenchDescription, input_state: CoherentState | None = None
) -> CoherentState:
    """Propagate the input through the bench and return the camera state.

    The input is ``input_state``, or else the bench's named input state.
    The PBS sends the horizontal component into arm A and the vertical
    component into arm B; at the NPBS the reflected arm picks up one
    mirror flip before the two amplitudes add.
    """
    input_state = _input_state(bench, input_state)
    return _propagate(bench, _operators(bench), input_state)


def set_element_angle(
    bench: BenchDescription, element_id: str, angle: float
) -> BenchDescription:
    """Copy of the bench with one element's angle replaced; a MIRROR or a VL
    has no angle and refuses a nonzero one with ValueError."""
    named = [e.element_id for e in bench.all_elements() if e.element_id is not None]
    if element_id not in named:
        raise ValueError(f"bench {bench.name!r} has no element {element_id!r} "
                         f"(known: {', '.join(named)})")
    return dataclasses.replace(bench, **{
        key: tuple(dataclasses.replace(e, angle=angle) if e.element_id == element_id
                   else e for e in getattr(bench, key))
        for key in ("pre", "arm_a", "arm_b")})


def run_sweep(
    bench: BenchDescription,
    sweep: str | None = None,
    input_state: CoherentState | None = None,
) -> SweepResult:
    """Run every frame of a sweep.

    ``sweep`` selects among the bench's declared sweeps by element id;
    None takes the first declared sweep, and the input is as in run_bench.
    Each frame equals run_bench on set_element_angle(bench, id, value),
    bit for bit: the fixed element operators are built once, and only the
    swept one per frame.
    """
    specs = [s for s in bench.sweeps if sweep is None or s.element_id == sweep]
    if not specs:
        if sweep is None:
            raise ValueError(f"bench {bench.name!r} declares no sweep")
        declared = ", ".join(s.element_id for s in bench.sweeps) or "none"
        raise ValueError(
            f"bench {bench.name!r} declares no sweep over {sweep!r} "
            f"(declared: {declared})"
        )
    spec = specs[0]
    input_state = _input_state(bench, input_state)
    ops = _operators(bench)
    # BenchDescription holds exactly one element with the swept id
    row, i, e = next(
        (row, i, e) for row, elems in zip(ops, (bench.pre, bench.arm_a, bench.arm_b))
        for i, e in enumerate(elems) if e.element_id == spec.element_id)
    values, frames = spec.values, []
    for v in values:
        row[i] = element_operator(dataclasses.replace(e, angle=float(v)))
        frames.append(_propagate(bench, ops, input_state))
    return SweepResult(sweep=spec, parameters=values, frames=tuple(frames))
