"""Smoke test of tools/stages.py: it runs in a subprocess against this
checkout's src and prints the keys, stage names and call counts its
benchmark records hold, so a rename in su6lab fails here."""
import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "stages.py"


def test_tool_times_every_texture_stage():
    out = subprocess.run([sys.executable, str(TOOL), "--grids", "16"], check=True,
                         capture_output=True, text=True, timeout=300).stdout
    (obj,) = [json.loads(line) for line in out.splitlines()]
    assert list(obj) == ["grid", "calls_per_stage", "first_s", "best_s",
                         "median_s", "peak_rss_setup_mb", "peak_rss_mb"]
    # seven passes over four states
    assert (obj["grid"], obj["calls_per_stage"]) == (16, 28)
    for key in ("first_s", "best_s", "median_s"):
        assert list(obj[key]) == ["synthesize", "stokes_fields",
                                  "topological_charge", "soup_bubble"]
        assert all(t > 0 for t in obj[key].values())
    assert 0 < obj["peak_rss_setup_mb"] <= obj["peak_rss_mb"]
