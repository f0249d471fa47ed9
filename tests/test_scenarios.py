"""Every shipped scenario runs to completion, passes, and stays well under
the one-minute budget."""

import os
import pathlib
import subprocess
import sys
import time

import pytest

import suslov
from suslov.cli import main

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
SCENARIOS = sorted(SCENARIO_DIR.glob("*.cfg"))


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_scenario_runs_quickly_and_passes(path, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    start = time.monotonic()
    status = main(["simulate", str(path)])
    elapsed = time.monotonic() - start
    assert status == 0
    assert elapsed < 60.0
    out_dir = None
    for line in path.read_text().splitlines():
        if line.startswith("run.output_dir"):
            out_dir = line.split("=", 1)[1].strip()
    assert out_dir is not None
    assert (tmp_path / out_dir / "trajectory.csv").exists()
    report = (tmp_path / out_dir / "report.txt").read_text()
    assert "pass = true" in report


def test_scenarios_leave_scipy_optimize_unloaded(tmp_path):
    # one fresh interpreter, since this session may have imported it already
    runs = [(str(path), str(tmp_path / path.stem)) for path in SCENARIOS]
    code = (
        "import sys\n"
        "from suslov.cli import main\n"
        f"status = [main(['simulate', p, '--output-dir', d]) for p, d in {runs!r}]\n"
        "print(status, 'scipy.optimize' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(suslov.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.stdout.splitlines()[-1:] == [f"{[0] * len(runs)} False"], proc.stderr


def test_scenarios_exist():
    assert len(SCENARIOS) >= 5
