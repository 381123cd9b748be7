"""The experiment scripts run end to end on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

CASES = [
    ("run_collapse_probe.py", ["--alphas", "1.0", "--bumps", "2", "--width", "5"],
     ["collapse_probe.json", "trajectory_alpha1.0.csv"]),
    ("run_figure_sweep.py", ["--steps", "8"], ["figure_sweep.csv", "thresholds.json"]),
    ("run_weakforce_suite.py", ["--grid", "0.5,0.1", "--eps", "0.5", "--tau-max", "4"],
     ["weakforce_eps0.5.csv"]),
]


def run_script(name, args, outdir):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args, "--outdir", str(outdir)],
        env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("name,args,outputs", CASES, ids=[c[0] for c in CASES])
def test_script_runs(tmp_path, name, args, outputs):
    proc = run_script(name, args, tmp_path)
    assert proc.returncode == 0, proc.stderr
    for out in outputs:
        assert (tmp_path / out).stat().st_size > 0


def test_figure_sweep_script_matches_cli(tmp_path, capsys):
    from ncol.cli import main

    assert run_script("run_figure_sweep.py", ["--steps", "8"], tmp_path).returncode == 0
    assert main(["figure1", "--steps", "8", "--out", str(tmp_path / "figure1.csv")]) == 0
    assert (tmp_path / "figure_sweep.csv").read_text() == \
        (tmp_path / "figure1.csv").read_text()
