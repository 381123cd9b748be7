"""The experiment scripts run end to end on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ncol import central, mcgehee, spectral

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


@pytest.mark.parametrize("name,args", [
    ("run_collapse_probe.py", ["--bumps", "0"]),
    ("run_collapse_probe.py", ["--width", "-1"]),
    ("run_collapse_probe.py", ["--alphas", "2.5"]),
    ("run_collapse_probe.py", ["--alphas", "1.0,x"]),
    ("run_weakforce_suite.py", ["--eps", "0"]),
    ("run_weakforce_suite.py", ["--eps", "0.5,-0.1"]),
    ("run_weakforce_suite.py", ["--eps", "nan"]),
    ("run_weakforce_suite.py", ["--grid", "0"]),
    ("run_weakforce_suite.py", ["--tau-max", "inf"]),
])
def test_scripts_refuse_bad_options_with_a_usage_message(tmp_path, name, args):
    proc = run_script(name, args, tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage:") and "Traceback" not in proc.stderr
    assert f"argument {args[0]}: must be" in proc.stderr
    assert not any(tmp_path.iterdir())


def test_collapse_probe_runs_keep_the_sampling_contract(tmp_path, sampling_contract,
                                                       read_trajectory_csv):
    proc = run_script("run_collapse_probe.py", ["--alphas", "1.0,0.05", "--bumps", "2",
                                                "--width", "5"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    for alpha in (1.0, 0.05):
        # the script's horizon: capped at 8, and before a kick of 1e-6 grows
        # to 0.02 along the unstable mode
        cc = central.collinear3(1.0, 1.0, alpha)
        c = mcgehee.homothetic_decay_rate(cc)
        rate = c + np.sqrt(max(c**2 + spectral.smallest_eigenvalue(cc).mu1, 0.0))
        tau_cap = min(8.0, np.log(0.02 / 1e-6) / rate)
        path = tmp_path / f"trajectory_alpha{alpha}.csv"
        tau, rho, rho_prime, s, s_prime = read_trajectory_csv(path)
        sampling_contract(tau, rho, rho_prime, s, s_prime, cc.masses, 0.05, tau_cap, 1e-8)


def test_figure_sweep_script_matches_cli(tmp_path, capsys):
    from ncol.cli import main

    assert run_script("run_figure_sweep.py", ["--steps", "8"], tmp_path).returncode == 0
    assert main(["figure1", "--steps", "8", "--out", str(tmp_path / "figure1.csv")]) == 0
    assert (tmp_path / "figure_sweep.csv").read_text() == \
        (tmp_path / "figure1.csv").read_text()


def test_weakforce_suite_writes_the_command_csv(tmp_path, capsys):
    from ncol.cli import main

    proc = run_script("run_weakforce_suite.py", ["--eps", "0.1"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert main(["weakforce", "--eps", "0.1"]) == 0
    assert (tmp_path / "weakforce_eps0.1.csv").read_bytes() == \
        capsys.readouterr().out.encode()
