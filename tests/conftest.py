"""Shared pytest hooks: a one-line pass/fail report per acceptance
criterion printed after the run, and the source path that the Python child processes
of some tests inherit."""
import os
from pathlib import Path

# the package source directory goes first on PYTHONPATH, so the Python
# children that some tests start import su6lab from this checkout too
_SRC = str(Path(__file__).resolve().parent.parent / "src")
_path = os.environ.get("PYTHONPATH")
os.environ["PYTHONPATH"] = _SRC + (os.pathsep + _path if _path else "")
_acceptance = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py" in report.nodeid and report.when == "call":
        _acceptance[report.nodeid] = (report.outcome, report.duration)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for nodeid in sorted(_acceptance):
        outcome, duration = _acceptance[nodeid]
        name = nodeid.split("::")[-1]
        status = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"{status}  {name}  ({duration:.2f} s)")
