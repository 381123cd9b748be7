import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncol import central, cli, mcgehee, morse, nbody, spectral
from ncol.cli import SWEEP_HEADER, WEAKFORCE_HEADER, main


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def assert_same_text(got: str, want: str) -> None:
    """Byte equality that names the first differing line; pytest's own diff
    of two texts this long can take minutes."""
    if got != want:
        a, b = got.splitlines(keepends=True), want.splitlines(keepends=True)
        k = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        pytest.fail(f"line {k} differs: {a[k:k + 1]} vs {b[k:k + 1]} "
                    f"({len(a)} vs {len(b)} lines)")


def test_central_collinear(capsys):
    rc, out, _ = run(capsys, "central", "--family", "collinear3", "--alpha", "1")
    assert rc == 0
    payload = json.loads(out)
    assert payload["b"] == pytest.approx(3.5355339, abs=1e-6)
    assert payload["residual"] < 1e-9
    assert set(payload) == {"alpha", "dim", "masses", "positions", "b", "residual", "family"}


def test_central_ngon_value(capsys):
    rc, out, _ = run(capsys, "central", "--family", "ngon", "--n", "4", "--alpha", "1")
    assert rc == 0
    assert json.loads(out)["b"] == pytest.approx(2 + 4 * np.sqrt(2), rel=1e-12)


def test_central_ngon3_warns_but_succeeds(capsys):
    with pytest.warns(UserWarning):
        rc, out, _ = run(capsys, "central", "--family", "ngon", "--n", "3", "--alpha", "1")
    assert rc == 0
    assert json.loads(out)["b"] == pytest.approx(3.0, rel=1e-12)


def test_central_file_roundtrip(tmp_path, capsys):
    cfg = tmp_path / "cc.json"
    rc, out, _ = run(capsys, "central", "--family", "collinear3", "--alpha", "1",
                     "--out", str(cfg))
    assert rc == 0
    # emitted JSON is accepted as --file input by other commands
    rc, out, _ = run(capsys, "central", "--family", "file", "--file", str(cfg))
    assert rc == 0
    assert json.loads(out)["b"] == pytest.approx(3.5355339, abs=1e-6)


def test_central_file_at_a_collision_exits_two_in_one_line(tmp_path, capsys):
    # the projected start has a pair 1.2e-9 apart, inside the solver's 1e-8
    cfg = tmp_path / "collision.json"
    cfg.write_text(nbody.config_to_json([[0.0, 0.0], [1e-9, 0.0], [0.0, 1.0]], np.ones(3), 1.0,
                                        {}))
    rc, out, err = run(capsys, "central", "--family", "file", "--file", str(cfg))
    assert (rc, out, err) == (2, "", "numeric failure: iterate entered the collision neighborhood\n")


def test_file_config_accepted_by_other_commands(tmp_path, capsys):
    cfg = tmp_path / "ngon4.json"
    rc, _, _ = run(capsys, "central", "--family", "ngon", "--n", "4", "--alpha", "1",
                   "--out", str(cfg))
    assert rc == 0
    rc, out, _ = run(capsys, "spectral", "--family", "file", "--file", str(cfg))
    assert rc == 0
    assert json.loads(out)["satisfied"] in (True, False)
    traj_path = tmp_path / "t.csv"
    rc, _, _ = run(capsys, "simulate", "--family", "file", "--file", str(cfg),
                   "--tau-max", "1.0", "--out", str(traj_path))
    assert rc == 0
    assert traj_path.exists()
    # the file's alpha is honored when --alpha is omitted
    rc, out, _ = run(capsys, "central", "--family", "file", "--file", str(cfg))
    assert json.loads(out)["alpha"] == 1.0


def test_spectral_command(capsys):
    rc, out, _ = run(capsys, "spectral", "--family", "collinear3", "--alpha", "1")
    assert rc == 0
    payload = json.loads(out)
    assert payload["satisfied"] is True
    assert payload["margin"] == pytest.approx(-4.5078057, abs=1e-6)


def test_threshold_command(capsys):
    rc, out, _ = run(capsys, "threshold", "--family", "collinear3")
    assert rc == 0
    payload = json.loads(out)
    assert payload["alpha_star"] < 6 - 4 * np.sqrt(2)
    assert payload["residual"] < 1e-12


def test_sweep_header_and_rows(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    rc, _, _ = run(capsys, "sweep", "--alpha-min", "0.1", "--alpha-max", "1.9",
                   "--steps", "7", "--out", str(out_path))
    assert rc == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 1 + 2 * 7


def scalar_sweep_rows(alpha, mu1, margin):
    """The two CSV rows of one alpha, from scalar calls of the closed forms."""
    lhs_eq, rhs, holds_eq = spectral.collinear_equal_condition(alpha)
    lhs_b, _, holds_b = spectral.collinear_B_eigen_condition(alpha)
    tail = f"{mu1:.12g},{margin:.12g}"
    return [f"{alpha:.12g},collinear3-equal,3,{lhs_eq:.12g},{rhs:.12g},{int(holds_eq)},{tail}",
            f"{alpha:.12g},collinear3-B,3,{lhs_b:.12g},{rhs:.12g},{int(holds_b)},{tail}"]


def test_sweep_rows_equal_rows_from_a_configuration_built_per_alpha(capsys):
    # the sweep moves one collinear configuration across alpha; a row from a
    # configuration constructed and verified at its own alpha is byte-equal
    rc, out, _ = run(capsys, "sweep", "--alpha-min", "0.01", "--alpha-max", "1.99",
                     "--steps", "41")
    assert rc == 0
    rows = [SWEEP_HEADER]
    for alpha in np.linspace(0.01, 1.99, 41):
        rep = spectral.smallest_eigenvalue(central.collinear3(1.0, 1.0, alpha))
        rows.extend(scalar_sweep_rows(alpha, rep.mu1, rep.margin))
    assert_same_text(out, "\n".join(rows) + "\n")


def test_sweep_empty_range_exits_one(capsys):
    rc, _, err = run(capsys, "sweep", "--alpha-min", "1.0", "--alpha-max", "0.5",
                     "--steps", "10")
    assert rc == 1
    assert "usage error" in err


def test_sweep_below_the_criterion_floor_is_usage_error():
    # the closed-form criteria are evaluated from spectral.ALPHA_FLOOR up
    rc, err = run_with_closed_reader(0, "sweep", "--alpha-min", "1e-7", "--alpha-max", "0.5",
                                     "--steps", "3")
    assert rc == 1
    assert err.startswith("usage error: ") and "1e-06" in err
    assert "Traceback" not in err


def test_sweep_names_the_first_non_central_alpha(monkeypatch, capsys):
    # a shape central at alpha = 1 only, in place of the collinear family
    solved = central.solve_central(np.array([[-0.6, 0.0], [0.05, 0.0], [0.5, 0.0]]),
                                   [1.0, 2.0, 3.0], 1.0)
    monkeypatch.setattr(central, "collinear3", lambda m1, m2, alpha: solved)
    rc, out, err = run(capsys, "sweep", "--alpha-min", "0.5", "--alpha-max", "1.5",
                       "--steps", "3")
    assert rc == 2
    assert out == ""
    assert "numeric failure" in err and "at alpha = 0.5" in err


def test_sweep_crossings_bracket_thresholds(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    steps = 200
    rc, _, _ = run(capsys, "sweep", "--alpha-min", "0.05", "--alpha-max", "1.0",
                   "--steps", str(steps), "--out", str(out_path))
    assert rc == 0
    rows = [ln.split(",") for ln in out_path.read_text().splitlines()[1:]]
    eq_rows = [(float(r[0]), int(r[5])) for r in rows if r[1] == "collinear3-equal"]
    flips = [(a1, a2) for (a1, h1), (a2, h2) in zip(eq_rows, eq_rows[1:]) if h1 != h2]
    assert len(flips) == 1
    th = spectral.collinear_threshold().alpha_star
    assert flips[0][0] <= th <= flips[0][1]


def test_figure1_contains_newtonian_row(tmp_path, capsys):
    out_path = tmp_path / "fig1.csv"
    rc, _, _ = run(capsys, "figure1", "--out", str(out_path))
    assert rc == 0
    rows = [ln.split(",") for ln in out_path.read_text().splitlines()[1:]]
    alphas = np.array([float(r[0]) for r in rows if r[1] == "collinear3-equal"])
    assert alphas.size == 400
    k = int(np.argmin(np.abs(alphas - 1.0)))
    row = [r for r in rows if r[1] == "collinear3-equal"][k]
    assert float(row[4]) == pytest.approx(1.125, abs=5e-3)
    # containment: wherever the equal-mass condition holds, the B condition holds
    holds_eq = {r[0]: int(r[5]) for r in rows if r[1] == "collinear3-equal"}
    holds_b = {r[0]: int(r[5]) for r in rows if r[1] == "collinear3-B"}
    for a, h in holds_eq.items():
        if h:
            assert holds_b[a] == 1


def test_figure1_matches_the_benchmark_reference(capsys):
    rc, out, _ = run(capsys, "figure1")
    assert rc == 0
    ref = Path(__file__).resolve().parents[1] / "perfbench" / "ref" / "figure1.csv"
    assert_same_text(out, ref.read_text())


@pytest.mark.parametrize("steps", [1, 2, 37, 400])
def test_figure1_rows_are_those_of_numpy_scalars(capsys, steps):
    # the rows are formatted from Python floats; numpy's scalars of the same
    # sweep give the same bytes
    rc, out, _ = run(capsys, "figure1", "--steps", str(steps))
    assert rc == 0
    sweep = spectral.spectral_sweep(central.collinear3(1.0, 1.0, 1.0),
                                    np.linspace(0.05, 2.0 - 1e-9, steps))
    lhs_eq, rhs, holds_eq = spectral.collinear_equal_condition(sweep.alphas)
    lhs_b, _, holds_b = spectral.collinear_B_eigen_condition(sweep.alphas)
    rows = [SWEEP_HEADER]
    for a, le, r, he, lb, hb, mu1, margin in zip(sweep.alphas, lhs_eq, rhs, holds_eq,
                                                lhs_b, holds_b, sweep.mu1, sweep.margin):
        assert isinstance(a, np.float64) and isinstance(he, np.bool_)
        tail = f"{mu1:.12g},{margin:.12g}"
        rows.append(f"{a:.12g},collinear3-equal,3,{le:.12g},{r:.12g},{int(he)},{tail}")
        rows.append(f"{a:.12g},collinear3-B,3,{lb:.12g},{r:.12g},{int(hb)},{tail}")
    assert_same_text(out, "\n".join(rows) + "\n")


def test_figure1_negative_steps_is_usage_error(capsys):
    rc, out, err = run(capsys, "figure1", "--steps", "-3")
    assert rc == 1
    assert out == "" and "usage error" in err


def test_figure1_zero_steps_prints_the_header(capsys):
    rc, out, _ = run(capsys, "figure1", "--steps", "0")
    assert rc == 0
    assert out == SWEEP_HEADER + "\n"


def test_simulate_command(tmp_path, capsys):
    out_path = tmp_path / "traj.csv"
    rc, _, err = run(capsys, "simulate", "--family", "collinear3", "--alpha", "1",
                     "--energy", "0", "--tau-max", "50", "--out", str(out_path))
    assert rc == 0
    lines = out_path.read_text().splitlines()
    header = lines[0].split(",")
    i_lam1, i_rho = header.index("lambda1"), header.index("rho")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    # constant multiplier column over the numerically trusted prefix
    beta = 6.0
    trusted = data[:, i_rho] ** (-beta) * np.finfo(float).eps < 2e-9
    lam1 = data[trusted, i_lam1]
    assert lam1.size > 50
    assert np.max(np.abs(lam1 - lam1[0])) < 1e-7


@pytest.mark.parametrize("argv,tau_max,max_step", [
    # h = 0 at alpha = 1 ends at the rho_min wall, or turns back just above it, near tau 27.5
    (["--tau-max", "50"], 50.0, 0.1),
    (["--perturb", "1e-6", "--seed", "5", "--tau-max", "2", "--max-step", "0.3"], 2.0, 0.3),
    (["--perturb", "1e-4", "--tau-max", "1.5", "--max-step", "0.02", "--rtol", "1e-8"],
     1.5, 0.02),
])
def test_simulate_rows_keep_the_sampling_contract(tmp_path, capsys, sampling_contract,
                                                  read_trajectory_csv, argv, tau_max,
                                                  max_step):
    out_path = tmp_path / "traj.csv"
    rc, _, err = run(capsys, "simulate", "--family", "collinear3", "--alpha", "1", *argv,
                     "--out", str(out_path))
    assert rc == 0, err
    tau, rho, rho_prime, s, s_prime = read_trajectory_csv(out_path)
    assert f"samples={tau.size} " in err
    sampling_contract(tau, rho, rho_prime, s, s_prime, np.ones(3), max_step, tau_max, 1e-8)


def test_simulate_rejects_oversized_perturbation(capsys):
    rc, _, err = run(capsys, "simulate", "--family", "collinear3", "--alpha", "1",
                     "--energy", "-3.4", "--perturb", "3.0")
    assert rc == 1


@pytest.mark.parametrize("perturb", ["1e200", "1e300"])
def test_simulate_rejects_a_kick_too_large_to_square_in_one_line(tmp_path, perturb):
    # the kick's |s'|^2 overflowed with numpy's warning, two lines on stderr
    # before the usage error
    proc = subprocess.run(
        [sys.executable, "-c", NCOL_MAIN, "simulate", "--family", "collinear3", "--alpha", "1",
         "--perturb", perturb, "--tau-max", "1", "--out", str(tmp_path / "t.csv")],
        capture_output=True, text=True, env=child_env(), timeout=300)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "usage error: perturbation too large for the requested energy\n"


def test_simulate_stops_at_its_step_budget(tmp_path, monkeypatch, capsys):
    # this perturbed run creeps towards a near-binary passage with ever
    # smaller steps; without a budget it ran for minutes
    monkeypatch.setattr(mcgehee, "MAX_STEPS", 500)
    rc, _, err = run(capsys, "simulate", "--family", "collinear3", "--perturb", "1e-3",
                     "--seed", "2", "--energy", "0.7", "--out", str(tmp_path / "t.csv"))
    assert rc == 2
    assert "numeric failure: step budget spent: 500 attempted steps" in err
    assert not (tmp_path / "t.csv").exists()
    # the budget also caps the stored samples: 1e-300 asks for more cuts than
    # an array holds, and half of 5e-324 is a sample gap of 0
    for max_step in ("2e-6", "1e-300", "5e-324"):
        rc, _, err = run(capsys, "simulate", "--family", "collinear3", "--tau-max", "1",
                         "--max-step", max_step, "--out", str(tmp_path / "t.csv"))
        assert rc == 2
        assert "numeric failure: sample budget spent: " in err
        assert not (tmp_path / "t.csv").exists()


def test_morse_command_counts(tmp_path, capsys):
    out_path = tmp_path / "morse.json"
    rc, _, err = run(capsys, "morse", "--family", "collinear3", "--alpha", "1",
                     "--bumps", "10", "--out", str(out_path))
    assert rc == 0
    payload = json.loads(out_path.read_text())
    assert payload["witnesses"] == 10
    assert payload["Q"] < 0
    assert set(payload) == {"Q", "kinetic", "rho_term", "cross", "hessian", "witnesses"}

    rc, _, _ = run(capsys, "morse", "--family", "collinear3", "--alpha", "0.05",
                   "--bumps", "10", "--out", str(out_path))
    assert rc == 0
    assert json.loads(out_path.read_text())["witnesses"] == 0


def test_morse_command_ngon(tmp_path, capsys):
    # polygon probe runs in the 3d embedding; criterion holds at alpha = 1
    out_path = tmp_path / "morse_ngon.json"
    rc, _, _ = run(capsys, "morse", "--family", "ngon", "--n", "4", "--alpha", "1",
                   "--bumps", "3", "--out", str(out_path))
    assert rc == 0
    assert json.loads(out_path.read_text())["witnesses"] == 3


@pytest.mark.parametrize("option,value", [
    ("--bumps", "0"), ("--bumps", "-1"), ("--width", "0"), ("--width", "-5"),
    ("--width", "1e-9"), ("--width", "inf"), ("--width", "nan"),
    ("--flat-fraction", "1.0"), ("--flat-fraction", "1.5"), ("--flat-fraction", "-0.1"),
    ("--flat-fraction", "nan"), ("--width", "1e300"), ("--width", "1e7"),
    ("--bumps", "10000000"), pytest.param("--bumps", "1" + "0" * 400, id="--bumps-1e400")])
def test_morse_rejects_invalid_probe_arguments(capsys, option, value):
    rc, out, err = run(capsys, "morse", "--family", "collinear3", "--alpha", "1",
                       option, value)
    assert rc == 1
    assert out == "" and err.startswith("usage error: ") and option in err


@pytest.mark.parametrize("argv,option", [
    (["weakforce", "--grid", "0.5,abc"], "--grid"), (["weakforce", "--grid", ","], "--grid"),
    (["weakforce", "--grid", "0.5,2.5"], "--grid"), (["weakforce", "--eps", "0"], "--eps"),
    (["weakforce", "--eps", "nan"], "--eps"),
    *[([cmd, "--family", "collinear3", "--alpha", "3"], "--alpha")
      for cmd in ("central", "spectral", "simulate", "morse")],
    (["central", "--family", "ngon", "--alpha", "0"], "--alpha"),
    (["spectral", "--family", "collinear3", "--dim", "5"], "--dim"),
    *[(["simulate", "--family", "collinear3", option, value], option) for option, value in (
        ("--tau-max", "-1"), ("--tau-max", "nan"), ("--rtol", "0"), ("--max-step", "inf"),
        ("--rho-min", "nan"))],
    *[(["weakforce", option, value], option)
      for option, value in (("--tau-max", "-1"), ("--tau-max", "nan"), ("--m1", "0"))],
    (["central", "--family", "ngon", "--n", "1"], "--n"),
    (["spectral", "--family", "ngon", "--n", "0"], "--n"),
    (["central", "--family", "collinear3", "--m1", "0"], "--m1"),
    (["morse", "--family", "collinear3-m2", "--m2", "-1"], "--m2"),
    (["threshold", "--family", "ngon", "--n", "3"], "--n"),
    *[(["simulate", "--family", "collinear3", "--tau-max", "1", option, value], option)
      for option, value in (("--energy", "nan"), ("--perturb", "nan"), ("--energy", "inf"))],
    (["simulate", "--family", "collinear3", "--perturb", "1e-6", "--seed", "-1"], "--seed"),
    # checked in the parser, so also where the family ignores the mass
    (["central", "--family", "ngon", "--m1", "0"], "--m1"),
    (["spectral", "--family", "collinear3", "--m2", "-1"], "--m2"),
    (["weakforce", "--grid", "0.5,abc"], "--grid: must be comma-separated exponents in (0, 2)")])
def test_invalid_arguments_are_usage_errors(capsys, monkeypatch, argv, option):
    integrated = []
    monkeypatch.setattr(mcgehee, "integrate_el", lambda *a, **k: integrated.append(a))
    rc, out, err = run(capsys, *argv)
    assert rc == 1
    assert out == "" and err.startswith("usage error: ") and option in err
    assert integrated == []


def test_spectral_probes_polygons_out_of_plane(capsys):
    def spectral_json(*argv):
        rc, out, _ = run(capsys, "spectral", *argv)
        assert rc == 0
        return json.loads(out)

    # a polygon is embedded in 3d unless --dim 2 keeps it planar
    square = ("--family", "ngon", "--n", "4", "--alpha", "1")
    cc = central.ngon(4, 1.0)
    assert spectral_json(*square) == spectral_json(*square, "--dim", "3")
    assert spectral_json(*square, "--dim", "2") == spectral.smallest_eigenvalue(cc).to_dict()
    # --dim 3 embeds any planar family
    coll = central.embed_in_3d(central.collinear3(1.0, 1.0, 1.0))
    assert spectral_json("--family", "collinear3", "--dim", "3") == \
        spectral.smallest_eigenvalue(coll).to_dict()


@pytest.mark.parametrize("payload", [
    {"positions": [[0, 0], [1, 0]], "masses": [1, 1], "dim": 3, "alpha": 1},
    {"positions": [[0, 0], [1, 0]], "masses": [1, -1], "dim": 2, "alpha": 1},
    {"positions": [[0, 0], [1, 0]], "masses": [1, 1], "dim": 2},
    {"positions": [[0, 0], [1, 0]], "masses": [1, 1], "dim": 2, "alpha": 3},
    {"positions": "abc", "masses": [1, 1], "dim": 2, "alpha": 1},
    [1, 2]])
def test_invalid_configuration_file_is_usage_error(tmp_path, capsys, payload):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    rc, out, err = run(capsys, "central", "--family", "file", "--file", str(cfg))
    assert rc == 1
    assert out == "" and err.startswith("usage error: ") and "--file" in err


_LINE3 = [[-0.7, 0.0], [0.0, 0.0], [0.7, 0.0]]


@pytest.mark.parametrize("positions,masses,want", [
    ([[-0.7, 0.0], [np.nan, 0.0], [0.7, 0.0]], [1, 1, 1], 1),
    ([[-0.7, 0.0], [np.inf, 0.0], [0.7, 0.0]], [1, 1, 1], 1),
    (_LINE3, [1, np.nan, 1], 1),
    (_LINE3, [1, np.inf, 1], 1),
    ([[0.0, 0.0]] * 3, [1, 1, 1], 2),
    # U underflows to 0 on the unit ellipsoid, which would read as central
    (_LINE3, [1e-300] * 3, 2),
    # finite, but the moment of inertia about the center of mass overflows
    ([[1e308, 0.0], [1e308, 0.0], [0.0, 1.0]], [1, 1, 1], 2)], ids=[
    "nan-position", "inf-position", "nan-mass", "inf-mass", "all-at-origin", "tiny-masses",
    "overflowing-inertia"])
def test_unusable_configuration_file_fails_in_one_line(tmp_path, capsys, positions, masses,
                                                       want):
    # json writes NaN and Infinity, which it reads back; an uncaught error
    # would escape main and fail the test with its traceback
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"positions": positions, "masses": masses, "dim": 2,
                               "alpha": 1.0}))
    for command in ("central", "spectral", "morse", "simulate"):
        rc, out, err = run(capsys, command, "--family", "file", "--file", str(cfg),
                           "--out", str(tmp_path / "out"))
        assert (rc, out) == (want, "")
        assert err.startswith(("usage error: ", "numeric failure: "))
        assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["central", "spectral", "morse"])
def test_a_nan_centrality_residual_fails_the_gate_in_one_line(capsys, command):
    # alpha U M x overflows at m2 = 1e300, so the residual is NaN: the gate
    # must reject it (a NaN passed `res > tol`), and without numpy's
    # overflow warnings, which the filter turns into errors here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, command, "--family", "collinear3-m2", "--m2", "1e300")
    assert rc == 2
    assert err.startswith("numeric failure: centrality residual nan")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "nan" not in out.lower()


def test_malformed_configuration_file_is_io_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    rc, out, err = run(capsys, "central", "--family", "file", "--file", str(cfg))
    assert rc == 1
    assert out == "" and err.startswith("io error")


def test_morse_accepts_the_argument_bounds(capsys):
    rc, out, _ = run(capsys, "morse", "--family", "collinear3", "--alpha", "1",
                     "--bumps", "1", "--width", "5", "--flat-fraction", "0")
    assert rc == 0
    assert json.loads(out)["witnesses"] == 1


def test_weakforce_command(tmp_path, capsys):
    out_path = tmp_path / "wf.csv"
    rc, _, err = run(capsys, "weakforce", "--eps", "0.5", "--out", str(out_path))
    assert rc == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == WEAKFORCE_HEADER
    assert len(lines) == 7


def child_env() -> dict:
    """The environment with this checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


NCOL_MAIN = "import sys; from ncol.cli import main; sys.exit(main())"


def run_with_closed_reader(lines, *argv):
    """Run ncol in a child whose stdout reader closes after `lines` lines.

    Returns the child's exit code and stderr.
    """
    proc = subprocess.Popen(
        [sys.executable, "-c", NCOL_MAIN, *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(), text=True)
    for _ in range(lines):
        proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=300)
    return proc.returncode, err


def test_figure1_into_a_closed_pipe_exits_zero():
    # more than 64 KiB, so the child is still writing when the reader goes
    rc, err = run_with_closed_reader(1, "figure1", "--steps", "2000")
    assert (rc, err) == (0, "")


def test_weakforce_names_the_underflow_of_rho(capsys):
    # rho of the alpha = 0.02 member leaves double range at tau ~ 90.53, where
    # rho' = -rho * speed becomes -0.0; the radial velocity never changes sign
    rc, out, err = run(capsys, "weakforce", "--tau-max", "100")
    assert rc == 2 and out == ""
    assert "numeric failure: alpha=0.02: rho underflows to 0.0 at tau = 90.53" in err
    assert "changed sign" not in err


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("argv", [("--tau-max", "1e300"), ("--tau-max", "1.7e308"),
                                  ("--m2", "1e150")], ids=["tau-max", "largest-tau-max", "m2"])
def test_weakforce_grid_stops_where_rho_underflows(capsys, argv):
    # the sigma grid ends one unit past the underflow of rho = e^(-sigma),
    # not at a depth that grows with the horizon or the masses; a grid sized
    # by either asked numpy for more points than it can allocate.  (At m2 =
    # 1e300 the centrality residual is NaN, which the gate now rejects.)
    rc, out, err = run(capsys, "weakforce", *argv)
    assert (rc, out) == (2, "")
    assert err.startswith("numeric failure: alpha=0.5: rho underflows to 0.0 at tau = ")
    assert err.count("\n") == 1


def test_weakforce_into_a_closed_pipe_keeps_its_verdict(capsys):
    want_rc, _, want_err = run(capsys, "weakforce", "--eps", "0.5")
    assert want_rc in (0, 2)
    # the reader is gone before the CSV is written
    assert run_with_closed_reader(0, "weakforce", "--eps", "0.5") == (want_rc, want_err)


def test_failed_out_write_is_io_error(tmp_path, capsys):
    rc, _, err = run(capsys, "figure1", "--steps", "3", "--out", str(tmp_path / "no" / "x.csv"))
    assert rc == 1
    assert err.startswith("io error")


def test_unknown_family_is_usage_error(capsys):
    rc, _, err = run(capsys, "central", "--family", "nonsense")
    assert rc == 1
    assert "usage error" in err


def test_repeated_calls_are_independent(capsys):
    # main builds its parser once per process; no call may see another's options
    rc, out, _ = run(capsys, "weakforce", "--grid", "0.5,0.3")
    assert rc in (0, 2) and len(out.splitlines()) == 3
    rc, out, _ = run(capsys, "weakforce")
    rows = out.splitlines()
    assert rc in (0, 2) and rows[0] == WEAKFORCE_HEADER
    assert [float(r.split(",")[0]) for r in rows[1:]] == [0.5, 0.3, 0.2, 0.1, 0.05, 0.02]

    a = ("spectral", "--family", "collinear3-m2", "--m2", "2", "--alpha", "0.5", "--dim", "3")
    b = ("spectral", "--family", "collinear3")
    first = run(capsys, *a)
    assert run(capsys, *b)[0] == 0
    assert run(capsys, *a) == first and first[0] == 0

    assert run(capsys, "figure1", "--steps", "-3")[0] == 1
    rc, out, err = run(capsys, "figure1", "--steps", "2")
    assert (rc, err, len(out.splitlines())) == (0, "", 5)


def test_commands_are_looked_up_when_called(capsys, monkeypatch):
    assert run(capsys, "threshold", "--family", "collinear3")[0] == 0
    seen = []

    def fake(args):
        seen.append((args.family, args.n))
        return 7

    monkeypatch.setattr(cli, "cmd_threshold", fake)
    assert main(["threshold", "--family", "ngon", "--n", "5"]) == 7
    assert seen == [("ngon", 5)]


def test_every_command_has_its_function():
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    (commands,) = [a.choices for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction)]
    assert all(callable(getattr(cli, f"cmd_{name}", None)) for name in commands)
    assert {name[4:] for name in vars(cli) if name.startswith("cmd_")} == set(commands)


def test_missing_file_is_io_error(capsys):
    rc, _, err = run(capsys, "central", "--family", "file", "--file", "/nonexistent.json")
    assert rc == 1


def test_sweep_prints_its_header(capsys):
    rc, out, _ = run(capsys, "sweep", "--alpha-min", "0.5", "--alpha-max", "1.5",
                     "--steps", "3")
    assert rc == 0
    assert out.splitlines()[0] == SWEEP_HEADER


def test_repeated_sweeps_are_identical(capsys):
    rc, first, _ = run(capsys, "sweep", "--alpha-min", "0.2", "--alpha-max", "1.8",
                       "--steps", "9")
    assert rc == 0
    rc, second, _ = run(capsys, "sweep", "--alpha-min", "0.2", "--alpha-max", "1.8",
                        "--steps", "9")
    assert rc == 0
    assert second == first


def test_huge_n_is_a_usage_error(capsys, monkeypatch):
    # the parser bounds --n, so no polygon is built: 10**6 vertices would ask
    # numpy for 931 GiB of pair indices
    built = []
    monkeypatch.setattr(central, "ngon", lambda *a: built.append(a))
    monkeypatch.setattr(spectral, "ngon_threshold", lambda *a: built.append(a))
    for argv in (["spectral", "--family", "ngon", "--n", "1000000"],
                 ["threshold", "--family", "ngon", "--n", "1000000"],
                 ["central", "--family", "ngon", "--n", str(cli.MAX_N + 1)]):
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (1, "") and err.startswith("usage error: argument --n: ")
        assert f"from 2 to {cli.MAX_N}" in err
    assert built == []
    proc = subprocess.run(
        [sys.executable, "-c", NCOL_MAIN, "spectral", "--family", "ngon", "--n", "1000000"],
        capture_output=True, env=child_env(), text=True, timeout=300)
    assert proc.returncode == 1 and "Traceback" not in proc.stderr
    # --help states the bound
    with pytest.raises(SystemExit):
        main(["spectral", "--help"])
    assert f"at most {cli.MAX_N}" in " ".join(capsys.readouterr().out.split())


def test_polygons_past_the_old_gate_are_central(capsys):
    # the centrality gate allows for rounding the polygon to float64, which
    # grows with N; N = 67 at alpha = 1 exited 2 without it
    for argv in (["central", "--family", "ngon", "--n", "67"],
                 ["spectral", "--family", "ngon", "--n", "48", "--alpha", "1.5"]):
        rc, out, err = run(capsys, *argv)
        assert (rc, err) == (0, "")
        assert json.loads(out)


def test_benchmark_commands_do_not_depend_on_the_blas_threads():
    # the commands run on numpy's default BLAS threads; these, whose dense
    # solves are small or go through the polygon's d x d blocks, print the
    # same bytes on one OpenBLAS thread as on two
    commands = [["figure1", "--steps", "50"], ["spectral", "--family", "ngon", "--n", "64"],
                ["morse", "--family", "ngon", "--n", "8"],
                ["threshold", "--family", "ngon", "--n", "64"]]
    code = ("import json, sys; from ncol.cli import main; "
            "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))")
    outputs = []
    for threads in ("1", "2"):
        env = child_env() | {"OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(commands)],
                              capture_output=True, env=env, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0].count("\n") > 100
    assert_same_text(outputs[1], outputs[0])


@st.composite
def morse_arguments(draw):
    """An `ncol morse` command line over the ranges its options accept."""
    family = draw(st.sampled_from(["collinear3", "collinear3-m2", "ngon"]))
    argv = ["morse", "--family", family]
    if family == "ngon":
        # n = 3 is outside the polygon family's range and warns on every run
        argv += ["--n", str(draw(st.integers(min_value=4, max_value=12)))]
    alpha = draw(st.floats(min_value=spectral.ALPHA_FLOOR, max_value=2.0, exclude_max=True))
    # masses from 1e-300 to 1e300, the ends included
    masses = st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0**e)
    bumps = draw(st.integers(min_value=1, max_value=20))
    # just above the bump start up to just past the oracle's cap of tau
    cap = mcgehee.ORACLE_MAX_TAU / (2.0 * (bumps + 1))
    width = draw(st.one_of(
        st.floats(min_value=np.nextafter(morse.BUMP_START, 1.0), max_value=2e-9),
        st.floats(min_value=math.log(morse.BUMP_START), max_value=math.log(cap * 1.001))
        .map(math.exp).filter(lambda w: w > morse.BUMP_START)))
    return argv + ["--alpha", repr(alpha), "--m1", repr(draw(masses)), "--m2", repr(draw(masses)),
                   "--bumps", str(bumps), "--width", repr(width),
                   "--flat-fraction", repr(draw(st.floats(min_value=0.0, max_value=0.999999)))]


@settings(max_examples=40, deadline=None)
@given(argv=morse_arguments())
# the pair Hessians' powers overflowed here with numpy's warning, on a run
# that exits 0
@example(argv=["morse", "--family", "collinear3-m2", "--m1", "2.462585564385758e-271",
               "--m2", "2.2146789230045676", "--alpha", "0.15366317590924958"])
# the norm of spectral's mass-sum row overflowed with numpy's warning before
# this one-line exit 2
@example(argv=["morse", "--family", "collinear3-m2", "--m1", "2.4490723089385338e-82",
               "--m2", "1.2216162201634105e+180", "--alpha", "0.538933058275315"])
def test_morse_fails_in_one_line_whatever_its_options(argv):
    assert_exits_cleanly(argv)


@pytest.mark.parametrize("extra,code,line", [
    # the bump's support rounds to one point at tau = 2e-9: this died with
    # "ValueError: cannot convert float NaN to integer"
    (["--family", "collinear3", "--width", "1.0000000000000003e-09"], 2,
     "numeric failure: support (2.0000000000000005e-09, 2.0000000000000005e-09) is too narrow "
     "to refine at its position"),
    # a support of a few float spacings asked for an array of 1e17 points
    (["--family", "collinear3", "--width", "1.0000000000000005e-09", "--bumps", "3"], 2,
     "is too narrow to refine at its position"),
    # the eigenvector's round-off, 4e-4 in sum m_i v_i at masses near 1e12,
    # failed an absolute bound of 1e-8 with a traceback
    (["--family", "collinear3-m2", "--m1", "1e12", "--m2", "3e12"], 0, "witnesses=10 of 10"),
    # at a mass ratio of 1e20 the eigenvector is not tangent to working precision
    (["--family", "collinear3-m2", "--m1", "1", "--m2", "1e20"], 2,
     "numeric failure: direction is not an admissible tangent"),
])
def test_morse_edge_inputs_end_in_one_line(capsys, extra, code, line):
    rc, _, err = run(capsys, "morse", *extra)
    assert rc == code
    assert len(err.splitlines()) == 1 and line in err


def magnitudes(lo=-300.0, hi=300.0):
    """Positive floats from 10^lo to 10^hi, drawn by their exponent, half of
    them within 10^(+-3) of 1 where the range allows."""
    near_one = st.floats(min_value=max(lo, -3.0), max_value=min(hi, 3.0))
    return st.one_of(st.floats(min_value=lo, max_value=hi), near_one).map(lambda e: 10.0**e)


ALPHAS = st.one_of(st.floats(min_value=1e-300, max_value=math.nextafter(2.0, 0.0)),
                   magnitudes(hi=0.3).filter(lambda a: a < 2.0))
SIGNED = st.one_of(st.just(0.0), magnitudes(), magnitudes().map(lambda v: -v))


@st.composite
def command_arguments(draw):
    """An ncol command line, any subcommand but morse, over the ranges its
    options accept, without simulate's --out.  The bounds on --n, --steps,
    simulate's --tau-max and --max-step keep every run short."""
    command = draw(st.sampled_from(["central", "spectral", "threshold", "sweep", "figure1",
                                    "simulate", "weakforce"]))
    argv = [command]
    if command in ("central", "spectral", "simulate"):
        family = draw(st.sampled_from(["collinear3", "collinear3-m2", "ngon"]))
        argv += ["--family", family, f"--alpha={draw(ALPHAS)!r}",
                 f"--m1={draw(magnitudes())!r}", f"--m2={draw(magnitudes())!r}"]
        if family == "ngon":
            # n = 3 is outside the polygon family's range and warns on every run
            argv += ["--n", str(draw(st.integers(min_value=4, max_value=12)))]
    if command == "spectral":
        argv += draw(st.sampled_from([[], ["--dim", "2"], ["--dim", "3"]]))
    elif command == "threshold":
        argv += ["--family", draw(st.sampled_from(["collinear3", "ngon"])),
                 "--n", str(draw(st.integers(min_value=2, max_value=12)))]
    elif command == "sweep":
        argv += [f"--alpha-min={draw(ALPHAS)!r}", f"--alpha-max={draw(ALPHAS)!r}",
                 f"--steps={draw(st.integers(min_value=-1, max_value=50))}"]
    elif command == "figure1":
        argv += ["--steps", str(draw(st.integers(min_value=0, max_value=50)))]
    elif command == "simulate":
        argv += [f"--energy={draw(SIGNED)!r}", f"--perturb={draw(SIGNED)!r}",
                 f"--tau-max={min(draw(magnitudes(hi=math.log10(5.0))), 5.0)!r}",
                 f"--rtol={draw(magnitudes())!r}", f"--rho-min={draw(magnitudes())!r}",
                 f"--max-step={draw(magnitudes(lo=-3.0))!r}",
                 "--seed", str(draw(st.integers(min_value=0, max_value=2**32 - 1)))]
    elif command == "weakforce":
        grid = draw(st.lists(ALPHAS, min_size=1, max_size=3))
        argv += [f"--grid={','.join(map(repr, grid))}", f"--eps={draw(magnitudes())!r}",
                 f"--tau-max={draw(magnitudes())!r}",
                 f"--m1={draw(magnitudes())!r}", f"--m2={draw(magnitudes())!r}"]
    return argv


def run_recording_warnings(argv):
    """main(argv): its exit code, stdout, stderr and the warnings it raised,
    each as a fresh process would print it, once per place."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("default")
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


def assert_exits_cleanly(argv):
    """Exit 0, 1 or 2 and no warning; a failure prints one stderr line and no
    traceback; stdout holds no nan but weakforce's documented tau_eps."""
    rc, text, err, caught = run_recording_warnings(argv)
    lines = err.splitlines()
    assert rc in (0, 1, 2)
    assert not caught, caught
    if rc:
        assert len(lines) == 1 and "Traceback" not in lines[0], lines
    if argv[0] == "weakforce" and text:
        rows = [row.split(",") for row in text.splitlines()]
        text = "\n".join(",".join(row[:1] + row[2:]) for row in rows)
    assert "nan" not in text.lower()


@settings(max_examples=60, deadline=None)
@given(argv=command_arguments())
# the norm of the basis's mass-sum row overflowed with numpy's warning, and
# the zeroed row made mu1 exactly 0.0, on a run that exits 0
@example(argv=["spectral", "--family", "collinear3-m2", "--alpha", "1", "--m1", "0.01",
               "--m2", "1e155"])
def test_every_other_command_fails_in_one_line_whatever_its_options(tmp_path_factory, argv):
    if argv[0] == "simulate":
        argv = argv + ["--out", str(tmp_path_factory.getbasetemp() / "fuzz-trajectory.csv")]
    assert_exits_cleanly(argv)


@pytest.mark.parametrize("argv,code,line", [
    # the kick's radial part, round-off of 1e-8 at this size, failed an
    # absolute bound of 1e-10 with a ValueError traceback
    (["simulate", "--family", "collinear3", "--energy", "1e20", "--perturb", "1e9",
      "--tau-max", "1"], 0, "samples=25 tau_end=5.596e-10 "),
    # beta - 2 rounds to 0 below alpha ~ 1.1e-16: a ZeroDivisionError
    # traceback from the frozen clock
    (["weakforce", "--grid", "1e-300", "--m2", "4.3729221831331345e+160"], 2,
     "numeric failure: alpha=1e-300: beta - 2 rounds to 0 at this alpha"),
    # tau_max times the speed overflowed, with numpy's warning before the line
    (["weakforce", "--grid", "0.5", "--tau-max", "1.7e308"], 2,
     "numeric failure: alpha=0.5: rho underflows to 0.0 at tau = 554.24"),
], ids=["simulate-large-kick", "weakforce-tiny-alpha", "weakforce-huge-tau-max"])
def test_fuzz_findings_end_in_one_line(tmp_path, argv, code, line):
    out = ["--out", str(tmp_path / "t.csv")] if argv[0] == "simulate" else []
    rc, _, err, caught = run_recording_warnings(argv + out)
    assert rc == code and not caught, caught
    assert len(err.splitlines()) == 1 and line in err
