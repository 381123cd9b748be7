"""`ncol figure1`, `ncol weakforce` and `ncol threshold` reproduce the benchmark's references.

The files under perfbench/ref/ are only read.  The CSV comparison is the
benchmark's rule: numbers agree to 1e-8 relative plus 1e-12 absolute, a
`nan` reference needs a `nan`, and text columns and `holds` match exactly.
Threshold roots agree with refs.json's `alpha_star` to the benchmark's 1e-10
absolute.
"""

import json
import math
from pathlib import Path

import pytest

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
