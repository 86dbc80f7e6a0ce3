"""The traced benchmark names functions of su6lab by string: every name in
perfbench/spans.py's TARGETS must resolve in its module, or Tracer.install
fails on its getattr and every traced run with it."""
import importlib
import runpy
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_target_resolves_in_its_module():
    # run_path compiles the file in memory and writes no bytecode beside it
    spans = runpy.run_path(str(SPANS))
    assert sorted(spans["TARGETS"]) == sorted(spans["LAYERS"])
    for layer, names in spans["TARGETS"].items():
        module = importlib.import_module(f"su6lab.{layer}")
        missing = [name for name in names if not callable(getattr(module, name, None))]
        assert missing == [], f"su6lab.{layer} lacks {missing}"
