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
comment.  Elements are applied in the order written.  Every element gets
an id: either an explicit ``id=`` attribute or an automatic one built
from the kind prefix and the (1-based) ordinal of that kind within the
file, counting pre, arm A, then arm B.

Element kinds and attributes (angles in degrees):

===========  ==========================  =====================================
kind         attributes                  action on the beam
===========  ==========================  =====================================
HWP          angle                       half-wave plate, fast axis at angle
QWP          angle                       quarter-wave plate
POLARIZER    angle                       linear polarizer (projector)
MIRROR                                   swaps circular polarizations and the
                                         two vortex modes, leaves the
                                         fundamental mode alone
VL           chirality (L/R), flipped    vortex lens: cycles the orbital modes
                                         one step (R: fundamental -> right
                                         vortex -> left vortex -> fundamental);
                                         a flipped lens acts as the opposite
                                         chirality
PHASE        angle                       uniform phase factor exp(i*angle)
===========  ==========================  =====================================

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
import re
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .state import CoherentState, named_state

__all__ = [
    "BenchDescription",
    "BenchParseError",
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

_KIND_ALIASES = {
    "HWP": "HWP",
    "QWP": "QWP",
    "POLARIZER": "POLARIZER",
    "MIRROR": "MIRROR",
    "M": "MIRROR",
    "VL": "VORTEX_LENS",
    "VORTEX_LENS": "VORTEX_LENS",
    "PHASE": "PHASE",
    "PH": "PHASE",
}
_ID_PREFIX = {
    "HWP": "HWP",
    "QWP": "QWP",
    "POLARIZER": "PL",
    "MIRROR": "M",
    "VORTEX_LENS": "VL",
    "PHASE": "PH",
}
_EMIT_TOKEN = {
    "HWP": "HWP",
    "QWP": "QWP",
    "POLARIZER": "POLARIZER",
    "MIRROR": "MIRROR",
    "VORTEX_LENS": "VL",
    "PHASE": "PHASE",
}
_ANGLE_KINDS = ("HWP", "QWP", "POLARIZER", "PHASE")


@dataclass(frozen=True)
class OpticalElement:
    """One single-arm element.  Angles are degrees throughout."""

    kind: str
    angle: float = 0.0
    chirality: str = "R"
    flipped: bool = False
    element_id: str | None = None


@dataclass(frozen=True)
class SweepSpec:
    """A declared parameter sweep over one element's angle."""

    element_id: str
    start: float
    stop: float
    step: float
    record: tuple[str, ...] = ()

    @property
    def frame_count(self) -> int:
        return int(round((self.stop - self.start) / self.step)) + 1

    @property
    def values(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.frame_count, dtype=float)


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

    def all_elements(self) -> tuple[OpticalElement, ...]:
        return self.pre + self.arm_a + self.arm_b

    def find_element(self, element_id: str) -> OpticalElement:
        for e in self.all_elements():
            if e.element_id == element_id:
                return e
        known = ", ".join(e.element_id for e in self.all_elements())
        raise ValueError(
            f"bench {self.name!r} has no element {element_id!r} (known: {known})"
        )


@dataclass(frozen=True)
class SweepResult:
    """Frames of a sweep together with the parameter values."""

    bench: BenchDescription
    sweep: SweepSpec
    parameters: np.ndarray
    frames: tuple[CoherentState, ...]


class BenchParseError(ValueError):
    """Raised for malformed bench text; carries the source line number."""

    def __init__(self, message: str, source: str = "<string>", line: int = 0):
        self.message = message
        self.source = source
        self.line = line
        super().__init__(f"{source}:{line}: {message}")


# --------------------------------------------------------------- operators

_C2 = np.array([[1, 1j], [1, -1j]], dtype=complex) / np.sqrt(2)


def _lift_spin(op2: np.ndarray) -> np.ndarray:
    # conjugate a linear-basis Jones matrix into the circular basis and
    # extend it over the three orbital modes
    return np.kron(_C2 @ op2 @ _C2.conj().T, np.eye(3, dtype=complex))


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


def element_operator(element: OpticalElement) -> np.ndarray:
    """6x6 matrix of a single-arm element in the circular amplitude basis.

    POLARIZER returns a projector, which is not unitary; every other
    supported kind is unitary.  PBS and NPBS are two-port devices handled
    by run_bench and have no single-arm operator.
    """
    kind = element.kind
    theta = np.deg2rad(element.angle)
    if kind == "HWP":
        return _lift_spin(_jones_half_wave(theta))
    if kind == "QWP":
        return _lift_spin(_jones_quarter_wave(theta))
    if kind == "POLARIZER":
        return _lift_spin(_jones_polarizer(theta))
    if kind == "MIRROR":
        return _MIRROR6.copy()
    if kind == "VORTEX_LENS":
        chirality = element.chirality
        if chirality not in ("L", "R"):
            raise ValueError(f"chirality must be L or R, got {chirality!r}")
        if element.flipped:
            chirality = "L" if chirality == "R" else "R"
        return _VORTEX_R.copy() if chirality == "R" else _VORTEX_R.T.copy()
    if kind == "PHASE":
        return np.exp(1j * theta) * np.eye(6, dtype=complex)
    if kind in ("PBS", "NPBS"):
        raise ValueError(f"{kind} is a two-port device with no single-arm operator")
    raise ValueError(f"unknown element kind {kind!r}")


# ----------------------------------------------------------------- parsing


def _strip_comment(line: str) -> str:
    out = []
    quoted = False
    for ch in line:
        if ch == '"':
            quoted = not quoted
        if ch == "#" and not quoted:
            break
        out.append(ch)
    return "".join(out)


def _split_quoted(line: str, sep: str) -> list[str]:
    parts, buf, quoted = [], [], False
    for ch in line:
        if ch == '"':
            quoted = not quoted
        if ch == sep and not quoted:
            parts.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
    parts.append("".join(buf))
    return parts


def _statements(text: str) -> list[tuple[int, str]]:
    out = []
    for ln, raw in enumerate(text.splitlines(), 1):
        for piece in _split_quoted(_strip_comment(raw), ";"):
            piece = piece.strip()
            if piece:
                out.append((ln, piece))
    return out


def _parse_number(value: str, what: str, source: str, line: int) -> float:
    try:
        return float(value)
    except ValueError:
        raise BenchParseError(
            f"attribute {what} is not a number: {value!r}", source, line
        ) from None


def _parse_element(token: str, source: str, line: int):
    parts = token.split()
    raw_kind = parts[0]
    kind = _KIND_ALIASES.get(raw_kind)
    if kind is None:
        raise BenchParseError(f"unknown element kind {raw_kind!r}", source, line)
    attrs = _parse_keyvals(parts[1:], raw_kind, source, line)
    if kind == "PHASE" and "phase" in attrs:
        if "angle" in attrs:
            raise BenchParseError("duplicate attribute 'angle'", source, line)
        attrs["angle"] = attrs.pop("phase")

    allowed = {"id"}
    if kind in _ANGLE_KINDS:
        allowed.add("angle")
    if kind == "VORTEX_LENS":
        allowed.update(("chirality", "flipped"))
    for key in attrs:
        if key not in allowed:
            raise BenchParseError(
                f"unknown attribute {key!r} for {raw_kind}", source, line
            )
    if kind in _ANGLE_KINDS and "angle" not in attrs:
        raise BenchParseError(f"{raw_kind} requires attribute 'angle'", source, line)

    angle = 0.0
    if "angle" in attrs:
        angle = _parse_number(attrs["angle"], "'angle'", source, line)
    chirality = attrs.get("chirality", "R")
    if chirality not in ("L", "R"):
        raise BenchParseError(
            f"chirality must be L or R, got {chirality!r}", source, line
        )
    flipped = False
    if "flipped" in attrs:
        if attrs["flipped"] not in ("true", "false"):
            raise BenchParseError(
                f"flipped must be true or false, got {attrs['flipped']!r}",
                source,
                line,
            )
        flipped = attrs["flipped"] == "true"
    element = OpticalElement(
        kind=kind,
        angle=angle,
        chirality=chirality,
        flipped=flipped,
        element_id=attrs.get("id"),
    )
    return element


def _parse_element_list(body: str, source: str, line: int):
    elements = []
    for token in body.split("/"):
        token = token.strip()
        if token:
            elements.append(_parse_element(token, source, line))
    return elements


def _parse_keyvals(parts: list[str], stmt: str, source: str, line: int):
    attrs: dict[str, str] = {}
    for part in parts:
        if "=" not in part:
            raise BenchParseError(
                f"malformed {stmt} attribute {part!r}, expected key=value",
                source,
                line,
            )
        key, value = part.split("=", 1)
        if key in attrs:
            raise BenchParseError(f"duplicate attribute {key!r}", source, line)
        attrs[key] = value
    return attrs


def parse_bench(text: str, source: str = "<string>") -> BenchDescription:
    """Parse bench text into a BenchDescription.

    Raises BenchParseError with the 1-based source line on any problem.
    """
    stmts = _statements(text)
    if not stmts:
        raise BenchParseError("empty bench file", source, 1)

    name = None
    input_state = None
    sections: dict[str, list[OpticalElement]] = {"pre": [], "A": [], "B": []}
    section_lines: dict[str, list[int]] = {"pre": [], "A": [], "B": []}
    first_arm_line = None
    split_line = None
    combine_line = None
    reflect = None
    sweeps_raw: list[tuple[int, dict[str, str]]] = []

    for idx, (line, stmt) in enumerate(stmts):
        head = stmt.split(None, 1)[0]
        if idx == 0 and head != "bench":
            raise BenchParseError(
                "file must start with a bench statement", source, line
            )
        if head == "bench":
            if name is not None:
                raise BenchParseError("duplicate bench statement", source, line)
            m = re.fullmatch(r'bench\s+"([^"]*)"', stmt)
            if m is None:
                raise BenchParseError(
                    "bench name must be double-quoted", source, line
                )
            name = m.group(1)
        elif head == "input":
            if input_state is not None:
                raise BenchParseError("duplicate input statement", source, line)
            m = re.fullmatch(r"input\s+state=(\S+)", stmt)
            if m is None:
                raise BenchParseError(
                    "input statement must be 'input state=<token>'", source, line
                )
            input_state = m.group(1)
        elif head.startswith("pre"):
            m = re.fullmatch(r"pre\s*:\s*(.*)", stmt, re.S)
            if m is None:
                raise BenchParseError(f"unknown statement {head!r}", source, line)
            elems = _parse_element_list(m.group(1), source, line)
            sections["pre"].extend(elems)
            section_lines["pre"].extend([line] * len(elems))
        elif head == "arm":
            m = re.fullmatch(r"arm\s+([AB])\s*:\s*(.*)", stmt, re.S)
            if m is None:
                raise BenchParseError(
                    "arm statement must be 'arm A: ...' or 'arm B: ...'",
                    source,
                    line,
                )
            if first_arm_line is None:
                first_arm_line = line
            elems = _parse_element_list(m.group(2), source, line)
            sections[m.group(1)].extend(elems)
            section_lines[m.group(1)].extend([line] * len(elems))
        elif head == "split":
            if split_line is not None:
                raise BenchParseError("duplicate split statement", source, line)
            m = re.fullmatch(r"split\s+(\S+)", stmt)
            if m is None or m.group(1) != "PBS":
                raise BenchParseError("splitter must be PBS", source, line)
            split_line = line
        elif head == "combine":
            if combine_line is not None:
                raise BenchParseError("duplicate combine statement", source, line)
            m = re.fullmatch(r"combine\s+NPBS\s+reflect=(\S+)", stmt)
            if m is None:
                raise BenchParseError(
                    "combine statement must be 'combine NPBS reflect=<A|B>'",
                    source,
                    line,
                )
            if m.group(1) not in ("A", "B"):
                raise BenchParseError(
                    f"reflect must be A or B, got {m.group(1)!r}", source, line
                )
            combine_line = line
            reflect = m.group(1)
        elif head == "sweep":
            attrs = _parse_keyvals(stmt.split()[1:], "sweep", source, line)
            sweeps_raw.append((line, attrs))
        else:
            raise BenchParseError(f"unknown statement {head!r}", source, line)

    last_line = stmts[-1][0]
    if input_state is None:
        raise BenchParseError("missing input statement", source, last_line)

    ordered = (
        [("pre", i) for i in range(len(sections["pre"]))]
        + [("A", i) for i in range(len(sections["A"]))]
        + [("B", i) for i in range(len(sections["B"]))]
    )
    kind_counts: dict[str, int] = {}
    seen_ids: dict[str, int] = {}
    for key, i in ordered:
        e = sections[key][i]
        line = section_lines[key][i]
        kind_counts[e.kind] = kind_counts.get(e.kind, 0) + 1
        if e.element_id is None:
            auto = f"{_ID_PREFIX[e.kind]}{kind_counts[e.kind]}"
            e = dataclasses.replace(e, element_id=auto)
            sections[key][i] = e
        if e.element_id in seen_ids:
            raise BenchParseError(
                f"duplicate element id {e.element_id!r}", source, line
            )
        seen_ids[e.element_id] = line

    has_arm_elements = bool(sections["A"] or sections["B"]) or (
        first_arm_line is not None
    )
    if has_arm_elements and split_line is None:
        raise BenchParseError(
            "arm elements without a split statement", source, first_arm_line
        )
    if split_line is not None and combine_line is None:
        raise BenchParseError("split without a combine statement", source, split_line)
    if combine_line is not None and split_line is None:
        raise BenchParseError(
            "combine without a split statement", source, combine_line
        )

    sweeps = []
    for line, attrs in sweeps_raw:
        for req in ("element", "from", "to", "step"):
            if req not in attrs:
                raise BenchParseError(
                    f"sweep requires attribute {req!r}", source, line
                )
        for key in attrs:
            if key not in ("element", "from", "to", "step", "record"):
                raise BenchParseError(
                    f"unknown attribute {key!r} for sweep", source, line
                )
        element_id = attrs["element"]
        if element_id not in seen_ids:
            raise BenchParseError(
                f"sweep references unknown element id {element_id!r}", source, line
            )
        start = _parse_number(attrs["from"], "'from'", source, line)
        stop = _parse_number(attrs["to"], "'to'", source, line)
        step = _parse_number(attrs["step"], "'step'", source, line)
        if step == 0.0:
            raise BenchParseError("sweep step must be nonzero", source, line)
        n = (stop - start) / step
        if n < -1e-9:
            raise BenchParseError(
                "sweep step must point from 'from' toward 'to'", source, line
            )
        if abs(n - round(n)) > 1e-9 * max(1.0, abs(n)):
            raise BenchParseError(
                "sweep span is not an integer number of steps", source, line
            )
        record = []
        if "record" in attrs:
            for token in attrs["record"].split(","):
                token = token.strip()
                if not token:
                    continue
                if token not in RECORD_NAMES:
                    raise BenchParseError(
                        f"unknown record name {token!r} "
                        f"(valid: {', '.join(RECORD_NAMES)})",
                        source,
                        line,
                    )
                record.append(token)
        sweeps.append(
            SweepSpec(
                element_id=element_id,
                start=start,
                stop=stop,
                step=step,
                record=tuple(record),
            )
        )

    return BenchDescription(
        name=name,
        input_state=input_state,
        pre=tuple(sections["pre"]),
        arm_a=tuple(sections["A"]),
        arm_b=tuple(sections["B"]),
        split=split_line is not None,
        reflect=reflect if reflect is not None else "B",
        sweeps=tuple(sweeps),
    )


def _fmt(value: float) -> str:
    return "%.17g" % value


def _emit_element(e: OpticalElement) -> str:
    parts = [_EMIT_TOKEN[e.kind]]
    if e.kind in _ANGLE_KINDS:
        parts.append(f"angle={_fmt(e.angle)}")
    if e.kind == "VORTEX_LENS":
        parts.append(f"chirality={e.chirality}")
        parts.append(f"flipped={'true' if e.flipped else 'false'}")
    parts.append(f"id={e.element_id}")
    return " ".join(parts)


def serialize_bench(bench: BenchDescription) -> str:
    """Canonical text for a bench; parse(serialize(b)) == b."""
    lines = [f'bench "{bench.name}"', f"input state={bench.input_state}"]
    if bench.pre:
        lines.append("pre: " + " / ".join(_emit_element(e) for e in bench.pre))
    if bench.split:
        lines.append("split PBS")
        if bench.arm_a:
            lines.append(
                "arm A: " + " / ".join(_emit_element(e) for e in bench.arm_a)
            )
        if bench.arm_b:
            lines.append(
                "arm B: " + " / ".join(_emit_element(e) for e in bench.arm_b)
            )
        lines.append(f"combine NPBS reflect={bench.reflect}")
    for sw in bench.sweeps:
        line = (
            f"sweep element={sw.element_id} from={_fmt(sw.start)} "
            f"to={_fmt(sw.stop)} step={_fmt(sw.step)}"
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


def run_bench(
    bench: BenchDescription,
    input_state: CoherentState | None = None,
    n0: float = 1.0,
    hbar: float = 1.0,
) -> CoherentState:
    """Propagate the input through the bench and return the camera state.

    The PBS sends the horizontal component into arm A and the vertical
    component into arm B; at the NPBS the reflected arm picks up one
    mirror flip before the two amplitudes add.
    """
    if input_state is None:
        token = bench.input_state
        try:
            input_state = named_state(token, n0=n0, hbar=hbar)
        except ValueError:
            raise ValueError(
                f"input state {token!r} is not a named state; load the file "
                "yourself and pass input_state explicitly"
            ) from None
    a = input_state.alpha.astype(complex)
    for e in bench.pre:
        a = element_operator(e) @ a
    if bench.split:
        arm_a = _PROJ_H6 @ a
        arm_b = _PROJ_V6 @ a
        for e in bench.arm_a:
            arm_a = element_operator(e) @ arm_a
        for e in bench.arm_b:
            arm_b = element_operator(e) @ arm_b
        if bench.reflect == "A":
            arm_a = _MIRROR6 @ arm_a
        else:
            arm_b = _MIRROR6 @ arm_b
        a = (arm_a + arm_b) / np.sqrt(2)
    if np.linalg.norm(a) < 1e-12:
        raise RuntimeError(
            "bench output is fully extinguished "
            "(destructive recombination or a crossed polarizer)"
        )
    return CoherentState(a, n0=input_state.n0, hbar=input_state.hbar)


def set_element_angle(
    bench: BenchDescription, element_id: str, angle: float
) -> BenchDescription:
    """Copy of the bench with one element's angle replaced."""
    bench.find_element(element_id)
    def swap(elems):
        return tuple(
            dataclasses.replace(e, angle=angle) if e.element_id == element_id else e
            for e in elems
        )
    return dataclasses.replace(
        bench, pre=swap(bench.pre), arm_a=swap(bench.arm_a), arm_b=swap(bench.arm_b)
    )


def run_sweep(
    bench: BenchDescription,
    sweep: SweepSpec | str | None = None,
    input_state: CoherentState | None = None,
    n0: float = 1.0,
    hbar: float = 1.0,
) -> SweepResult:
    """Run every frame of a sweep.

    ``sweep`` selects among the bench's declared sweeps by element id, or
    passes an ad-hoc SweepSpec; None takes the first declared sweep.
    """
    if sweep is None:
        if not bench.sweeps:
            raise ValueError(f"bench {bench.name!r} declares no sweep")
        spec = bench.sweeps[0]
    elif isinstance(sweep, SweepSpec):
        spec = sweep
    else:
        matches = [s for s in bench.sweeps if s.element_id == sweep]
        if not matches:
            declared = ", ".join(s.element_id for s in bench.sweeps) or "none"
            raise ValueError(
                f"bench {bench.name!r} declares no sweep over {sweep!r} "
                f"(declared: {declared})"
            )
        spec = matches[0]
    values = spec.values
    frames = tuple(
        run_bench(
            set_element_angle(bench, spec.element_id, float(v)),
            input_state=input_state,
            n0=n0,
            hbar=hbar,
        )
        for v in values
    )
    return SweepResult(bench=bench, sweep=spec, parameters=values, frames=frames)
