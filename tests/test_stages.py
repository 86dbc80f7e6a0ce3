"""Smoke test of tools/stages.py: both modes run in subprocesses against
this checkout's src and print the keys, stage names and call counts
their benchmark records hold, so a rename in su6lab fails here."""
import json
import subprocess
import sys
from pathlib import Path

import su6lab.optics as op

TOOL = Path(__file__).resolve().parents[1] / "tools" / "stages.py"


def run_tool(*argv):
    out = subprocess.run([sys.executable, str(TOOL), *argv], check=True,
                         capture_output=True, text=True, timeout=300).stdout
    return [json.loads(line) for line in out.splitlines()]


def test_texture_mode_times_every_stage():
    (obj,) = run_tool("texture", "--grids", "16")
    assert list(obj) == ["grid", "calls_per_stage", "first_s", "best_s",
                         "median_s", "peak_rss_setup_mb", "peak_rss_mb"]
    # seven passes over four states
    assert (obj["grid"], obj["calls_per_stage"]) == (16, 28)
    for key in ("first_s", "best_s", "median_s"):
        assert list(obj[key]) == ["synthesize", "stokes_fields",
                                  "topological_charge", "soup_bubble"]
        assert all(t > 0 for t in obj[key].values())
    assert 0 < obj["peak_rss_setup_mb"] <= obj["peak_rss_mb"]


def test_geometry_mode_times_every_stage():
    (obj,) = run_tool("geometry")
    assert list(obj) == ["passes", "calls", "best_us", "median_us", "peak_rss_mb"]
    frames = sum(len(op.run_sweep(op.parse_bench(op.shipped_bench_path(b).read_text()),
                                  sweep).frames)
                 for b in ("fig1", "antiskyrmion") for sweep in ("HWP3", "HWP1"))
    per_frame = ["all_expectations", "skyrmion_sphere", "antiskyrmion_sphere",
                 "oam_sphere", "polarization_sphere", "state_to_torus",
                 "classify_texture", "correspondence_residual"]
    passes = obj["passes"]
    assert obj["calls"] == {"parse_bench": 4 * passes, "run_sweep_frame": 4 * passes,
                            **{stage: frames * passes for stage in per_frame}}
    for key in ("best_us", "median_us"):
        assert list(obj[key]) == list(obj["calls"])
        assert all(t > 0 for t in obj[key].values())
    assert obj["peak_rss_mb"] > 0
