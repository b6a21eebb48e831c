"""Import policy: the exact census and the limit law run without scipy.
numpy is a module-level import; each scipy piece is imported inside the one
function that uses it (census_rows, solve_zeta, chi_square_gof)."""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

PROBE = r"""
import json, os, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import degseq
import degseq.cli

out = sys.argv[1]
codes = [
    degseq.cli.main(["exact", "--n1", "4", "--n2", "4", "--q", "8", "--out", os.path.join(out, "exact.json")]),
    degseq.cli.main(["limit-law", "--alpha", "1", "--q", "4", "--out", os.path.join(out, "law.json")]),
]
before = scipy_modules()
degseq.run_experiment(degseq.GraphClassParams(4, 4, q=3), 5, seed=1)
print(json.dumps({"codes": codes, "before": before, "after": scipy_modules()}))
"""


def test_exact_and_limit_law_load_no_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["codes"] == [0, 0]
    assert report["before"] == []
    # positive control: the sampler's labeller does load scipy, and the probe sees it
    assert "scipy.sparse.csgraph" in report["after"]
