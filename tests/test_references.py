"""`ncol figure1`, `weakforce`, `threshold` and `morse` reproduce the benchmark's references.

The files under perfbench/ref/ are only read.  The CSV comparison is the
benchmark's rule: numbers agree to 1e-8 relative plus 1e-12 absolute, a
`nan` reference needs a `nan`, and text columns and `holds` match exactly.
Threshold roots agree with refs.json's `alpha_star` to the benchmark's 1e-10
absolute.  Each bump of the `probe` families' `ncol morse` runs, with the
CLI defaults, has the sign refs.json's `bump_verdicts` gives it.
"""

import json
import math
from pathlib import Path

import pytest

from ncol import morse
from ncol.cli import main

REF_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "ref"


def assert_matches_reference(got: str, name: str, exact_cols=()) -> None:
    got_rows = [r.split(",") for r in got.strip().splitlines()]
    ref_rows = [r.split(",") for r in (REF_DIR / name).read_text().strip().splitlines()]
    header = ref_rows[0]
    assert got_rows[0] == header
    assert len(got_rows) == len(ref_rows)
    for k, (g_row, r_row) in enumerate(zip(got_rows[1:], ref_rows[1:]), start=1):
        assert len(g_row) == len(header), f"{name} row {k}"
        for col, g, r in zip(header, g_row, r_row):
            where = f"{name} row {k} {col}: {g} against {r}"
            try:
                want = float(r)
            except ValueError:
                want = None
            if want is None or col in exact_cols:
                assert g == r, where
            elif math.isnan(want):
                assert math.isnan(float(g)), where
            else:
                assert abs(float(g) - want) <= 1e-12 + 1e-8 * abs(want), where


def test_figure1_matches_reference(capsys):
    assert main(["figure1"]) == 0
    assert_matches_reference(capsys.readouterr().out, "figure1.csv", exact_cols=("holds",))


def test_weakforce_matches_reference(capsys):
    assert main(["weakforce"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "esplode1=True esplode2=True eps=0.1\n"
    assert_matches_reference(captured.out, "weakforce.csv")


@pytest.mark.parametrize("args, key", [(["--family", "collinear3"], "collinear3-equal")]
                         + [(["--family", "ngon", "--n", str(n)], f"ngon-{n}")
                            for n in (4, 6, 8, 12, 24, 64)])
def test_threshold_matches_reference(capsys, args, key):
    want = json.loads((REF_DIR / "refs.json").read_text())["alpha_star"][key]
    assert main(["threshold"] + args) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["family"] == key
    assert abs(got["alpha_star"] - want) <= 1e-10


@pytest.mark.parametrize("key, args", [
    ("collinear3-a1", ["--family", "collinear3", "--alpha", "1"]),
    ("collinear3-a0.05", ["--family", "collinear3", "--alpha", "0.05"]),
    ("ngon4", ["--family", "ngon", "--n", "4", "--alpha", "1"]),
    ("ngon8", ["--family", "ngon", "--n", "8", "--alpha", "1"]),
])
def test_morse_bump_verdicts_match_reference(capsys, monkeypatch, key, args):
    # the command prints only the worst Q, so the per-bump values are read off
    # the report that morse_witnesses returns to it
    reports = []
    inner = morse.morse_witnesses

    def capture(*a, **kw):
        reports.append(inner(*a, **kw))
        return reports[-1]

    monkeypatch.setattr(morse, "morse_witnesses", capture)
    want = json.loads((REF_DIR / "refs.json").read_text())["bump_verdicts"][key]
    assert main(["morse"] + args) == 0
    capsys.readouterr()
    assert len(reports) == 1
    q_values = reports[0].q_values
    assert all(math.isfinite(q) for q in q_values)
    assert ["negative" if q < 0 else "positive" for q in q_values] == want
