"""Spans around the calls into su6lab's layers, recorded from outside.

``Tracer.install`` replaces each target function with a wrapper in every
su6lab module that binds it, so calls made through module globals inside
the package are caught too (``lg_mode`` inside ``synthesize``,
``element_operator`` inside ``run_bench``, ``skyrmion_sphere`` inside
``classify_texture``).  A span is [name, start, end, parent, op, error];
spans stay in memory until the process writes them out.  ``aggregate``
turns span lists into per-function call counts and self times: a span's
self time is its duration minus the durations of its direct children.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time

LAYERS = ("cli", "algebra", "state", "optics", "field", "serialize")
TARGETS = {
    "cli": ("main",),
    "algebra": ("structure_constants", "adjoint_matrices", "exp_adjoint",
                "exp_generator"),
    "state": ("all_expectations", "correspondence_residual", "skyrmion_sphere",
              "antiskyrmion_sphere", "oam_sphere", "polarization_sphere",
              "state_to_torus"),
    "optics": ("parse_bench", "run_bench", "run_sweep", "element_operator"),
    "field": ("lg_mode", "synthesize", "stokes_fields", "skyrmion_number",
              "skyrmion_number_solid_angle", "soup_bubble", "classify_texture"),
    "serialize": ("field_csv", "pgm_bytes", "trajectory_csv", "texture_map_csv",
                  "json_text", "write_sidecar"),
}
OP_SPAN = "bench.op"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1,
                          self.op, 0])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                spans[idx][5] = 1
                raise
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "su6lab" or n.startswith("su6lab."))]
        for layer, names in TARGETS.items():
            home = importlib.import_module(f"su6lab.{layer}")
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def run_op(self, op: int, fn, *args):
        """Call fn(*args) under a root span for op number ``op``."""
        self.op = op
        return self._wrap(OP_SPAN, fn)(*args)


def self_times(spans: list[list]) -> list[float]:
    child = [0.0] * len(spans)
    for name, start, end, parent, _op, _err in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(s[2] - s[1]) - c for s, c in zip(spans, child)]


def aggregate(span_lists: list[list[list]]) -> dict[str, dict[str, float]]:
    """name -> {"calls", "self_s", "errors"} summed over span lists."""
    table: dict[str, dict[str, float]] = {}
    for spans in span_lists:
        for span, own in zip(spans, self_times(spans)):
            row = table.setdefault(span[0], {"calls": 0, "self_s": 0.0, "errors": 0})
            row["calls"] += 1
            row["self_s"] += own
            row["errors"] += span[5]
    return table
