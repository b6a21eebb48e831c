"""Import policy: ``degseq exact`` runs without numpy, scipy, dataclasses or
inspect, ``degseq limit-law`` and ``degseq asymptote`` without scipy,
neither ``exact`` nor ``asymptote`` loads the reference modules ``series``
and ``unionfind``, and the lazy ``degseq`` namespace still exports every
name it did when it imported all submodules eagerly.  numpy is loaded by the
submodules that use it (asymptotics, sampler, stats, verify); each of the two
scipy pieces is imported inside the one function that uses it
(sampler._tally, which census_rows and run_experiment call, and
chi_square_gof)."""

import ast
import glob
import json
import os
import subprocess
import sys

import pytest

import degseq

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

PROBE = r"""
import json, os, sys

def loaded(top):
    return sorted(m for m in sys.modules if m == top or m.startswith(top + "."))

import degseq
import degseq.cli

out = sys.argv[1]
codes = [degseq.cli.main(["exact", "--n1", "4", "--n2", "4", "--q", "8", "--out", os.path.join(out, "exact.json")])]
after_exact = loaded("numpy") + loaded("scipy")
stdlib_after_exact = [m for m in ("dataclasses", "inspect") if m in sys.modules]
degseq_after_exact = loaded("degseq")
codes.append(degseq.cli.main(["limit-law", "--alpha", "1", "--q", "4", "--out", os.path.join(out, "law.json")]))
after_law = {"numpy": "numpy" in sys.modules, "scipy": loaded("scipy")}
codes.append(degseq.cli.main(["asymptote", "--n1", "20", "--n2", "10", "--q", "3", "--u", "1.1,0.9",
                              "--out", os.path.join(out, "asym.json")]))
after_asymptote = loaded("scipy")
inspect_after_asymptote = "inspect" in sys.modules
degseq_after_asymptote = loaded("degseq")
degseq.run_experiment(degseq.GraphClassParams(4, 4, q=3), 5, seed=1)
print(json.dumps({"codes": codes, "after_exact": after_exact, "after_law": after_law,
                  "after_asymptote": after_asymptote, "after_sample": loaded("scipy"),
                  "degseq_after_exact": degseq_after_exact, "stdlib_after_exact": stdlib_after_exact,
                  "inspect_after_asymptote": inspect_after_asymptote,
                  "degseq_after_asymptote": degseq_after_asymptote}))
"""

# The names `import degseq` bound when __init__ imported every submodule.
EXPORTED = [
    "CensusPolynomial", "ComponentCensus", "ConvergenceError", "DegseqError", "DomainError",
    "EmptyClassError", "ExperimentResult", "GraphClassParams", "LimitLaw", "MPoly",
    "MomentReport", "SaddleData", "StructuralError", "StubMultigraph", "TruncatedSeries",
    "Verdict", "asymptotic_log_gf", "asymptotics", "brute_force_multigraph",
    "brute_force_simple", "build_cycle_series", "build_path_series", "census",
    "census_to_json", "chi_square_gof", "class_is_empty",
    "compensation_factor", "contour_extract", "errors", "exact", "gaussian_check",
    "gradient_chi", "graph_gf", "graph_gf_value", "hessian_H", "joint_pmf", "limit_law",
    "moment_report", "poisson_check", "psd_check", "run_experiment",
    "saddle_data", "sample_multigraph", "sample_simple", "sampler", "series", "solve_zeta",
    "standardize", "stats", "unionfind", "v_factor", "validate_structure",
    "write_samples_csv",
]


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
    assert report["codes"] == [0, 0, 0]
    assert report["after_exact"] == []
    assert report["after_asymptote"] == []
    # the exact records are plain classes: dataclasses would load inspect
    assert report["stdlib_after_exact"] == []
    # the production paths import no reference code: the brute-force oracles
    # and the MPoly view load series and unionfind on first use
    assert report["degseq_after_exact"] == [
        "degseq", "degseq.cli", "degseq.errors", "degseq.exact"]
    assert not {"degseq.series", "degseq.unionfind"} & set(report["degseq_after_asymptote"])
    # positive controls: the limit law loads numpy, numpy loads inspect, the
    # sampler's labeller loads scipy, and the probe sees all three
    assert report["after_law"] == {"numpy": True, "scipy": []}
    assert report["inspect_after_asymptote"]
    assert "scipy.sparse.csgraph" in report["after_sample"]


def test_namespace_exports_the_eager_names():
    assert degseq.__all__ == EXPORTED
    namespace = {}
    exec("from degseq import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == EXPORTED
    for name in EXPORTED:
        assert getattr(degseq, name) is namespace[name]


def test_no_module_imports_a_private_name_of_another():
    # the command line and each pipeline reach one another through public names
    for path in glob.glob(os.path.join(SRC, "degseq", "*.py")):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("degseq")):
                assert not [a.name for a in node.names if a.name.startswith("_")], path


def test_series_reads_the_model_facts_from_exact():
    from degseq import exact, series

    assert series.check_q is exact.check_q


def test_namespace_resolves_each_access_and_rejects_unknown_names(monkeypatch):
    from degseq import exact

    assert degseq.graph_gf is exact.graph_gf
    assert "graph_gf" not in vars(degseq)  # not cached: a later patch is seen
    monkeypatch.setattr(exact, "graph_gf", len)
    assert degseq.graph_gf is len
    with pytest.raises(AttributeError):
        degseq.no_such_name
