#!/usr/bin/env python3
"""Write the references that perfbench/run.py checks outputs against.

Run from the repository root on a tree whose answers are trusted:

    python3 perfbench/make_refs.py

On exact frozen-shape data Q(w) does not depend on the bump's shift, so every
bump of one `ncol morse` family has the verdict of its finite bumps; a
family whose finite bumps disagree is an error.
"""

import json
import os
import re
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from ncol import central  # noqa: E402

ASYMPTOTIC_KEYS = ("b_limit", "b_converged", "rho_ratio_limit", "rho_ratio_converged",
                   "rho_ratio_predicted", "tau_end")


def command(run, argv):
    """stdout and stderr of `ncol <argv>`, which must succeed."""
    rc, out, err = run.cli(argv)
    if rc:
        raise SystemExit(f"ncol {' '.join(argv)} exited {rc}: {err}")
    return out, err


def main():
    tmpdir = tempfile.mkdtemp(prefix=".perfbench_tmp", dir=os.path.dirname(HERE))
    run = workloads.Runner({}, tmpdir, print)
    try:
        refs = {"alpha_star": {}, "collapse_probe": {}, "bump_verdicts": {}}
        csv = {}
        csv["figure1"], _ = command(run, ["figure1"])
        csv["weakforce"], err = command(run, ["weakforce"])
        refs["esplode"] = dict(re.findall(r"(esplode\d)=(\w+)", err))
        for args, key in [(["--family", "collinear3"], "collinear3-equal")] + [
                (["--family", "ngon", "--n", str(n)], f"ngon-{n}")
                for n in workloads.THRESHOLD_NGONS]:
            out, _ = command(run, ["threshold"] + args)
            refs["alpha_star"][key] = json.loads(out)["alpha_star"]
        out, _ = command(run, ["spectral", "--family", "ngon", "--n", "64"])
        rep = json.loads(out)
        refs["spectral_ngon64"] = {k: rep[k] for k in ("mu1", "margin", "satisfied")}
        refs["ngon7_b"] = central.ngon(7, 1.0).b
        for alpha in (1.0, 0.05):
            _, _, asym = workloads.collapse_probe(run, alpha)
            refs["collapse_probe"][str(alpha)] = {k: asym[k] for k in ASYMPTOTIC_KEYS}
        for name, args in workloads.PROBE_FAMILIES:
            q = np.array(workloads.witness_q_values(run, args))
            signs = set(np.sign(q[np.isfinite(q)]))
            if len(signs) != 1:
                raise SystemExit(f"{name}: finite bumps disagree in sign: {q}")
            verdict = "negative" if signs.pop() < 0 else "positive"
            refs["bump_verdicts"][name] = [verdict] * q.size
    finally:
        run.restore()
        shutil.rmtree(tmpdir)

    ref_dir = workloads.REF_DIR
    with open(os.path.join(ref_dir, "refs.json"), "w") as fh:
        json.dump(refs, fh, indent=2)
        fh.write("\n")
    for name, text in csv.items():
        with open(os.path.join(ref_dir, f"{name}.csv"), "w") as fh:
            fh.write(text)
    print(f"wrote references to {ref_dir}")


if __name__ == "__main__":
    main()
