"""`ncol figure1` and `ncol weakforce` reproduce the benchmark's reference CSVs.

The files under perfbench/ref/ are only read.  The comparison is the
benchmark's rule: numbers agree to 1e-8 relative plus 1e-12 absolute, a
`nan` reference needs a `nan`, and text columns and `holds` match exactly.
"""

import math
from pathlib import Path

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
