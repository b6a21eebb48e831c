"""Tests of the benchmark itself: every output gate passes on real outputs and
fails on a perturbed one, and the span recorder's self times and counts are
right.  Run from the repository root with

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
from collections import Counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import spans  # noqa: E402
import workloads  # noqa: E402


def run_ops(wl, n_ops):
    for i in range(n_ops):
        out = wl.op(i)
        assert wl.check(i, out) is None
        wl.collect(out)


@pytest.fixture(scope="module")
def gauss(tmp_path_factory):
    wl = workloads.McGauss(5, str(tmp_path_factory.mktemp("gauss")))
    wl.setup()
    run_ops(wl, wl.min_ops)
    return wl


def test_gaussian_gate_passes_on_samples(gauss):
    passed, details = gauss.gate()
    assert passed, details


def test_gaussian_gate_fails_on_tampered_covariance(gauss):
    # the same perturbation DEGSEQ_TAMPER_H=2 applies to the battery
    law = dataclasses.replace(gauss.law, hessian=gauss.law.hessian * 2.0)
    passed, _ = workloads.gaussian_gate(gauss.np.concatenate(gauss.rows), law, gauss.p.n1, gauss.p.n2)
    assert not passed


def test_gaussian_block_check_catches_csv_mismatch(gauss):
    out = gauss.op(0)
    with open(gauss.csv_path, "a") as fh:
        fh.write("25,0,1,1,1,0\n")
    assert gauss.check(0, out) == "CSV differs from the census matrix"


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    wl = workloads.McSmallGof(5, str(tmp_path_factory.mktemp("small")))
    wl.setup()
    run_ops(wl, wl.min_ops)
    return wl


def test_gof_gate_passes_on_samples(small):
    passed, details = small.gate()
    assert passed, details


def test_gof_gate_fails_on_biased_counts(small):
    observed = {key: Counter(obs) for key, obs in small.observed.items()}
    key = ("simple", 4, 4, 8)
    top, second = [k for k, _ in observed[key].most_common(2)]
    moved = observed[key][top] // 2
    observed[key][top] -= moved
    observed[key][second] += moved
    passed, _ = workloads.gof_gate(observed, small.oracles)
    assert not passed


@pytest.mark.parametrize("field,value", [(1, 13), (2, 3), (5, "component at root 0 is neither")])
def test_structural_violation_fails_the_op(small, field, value):
    out = small.op(0)
    key, graphs = out[3]  # the simple (8,6) instance, which runs validate_structure
    bad = list(graphs[0])
    bad[field] = value
    out[3] = (key, [tuple(bad)] + graphs[1:])
    assert small.check(0, out).startswith("simple/8/6/4")


def test_out_of_support_census_fails_the_op(small):
    out = small.op(0)
    key, graphs = out[0]
    out[0] = (key, [((9,) * 8,) + graphs[0][1:]] + graphs[1:])
    assert "outside the exact support" in small.check(0, out)


@pytest.fixture(scope="module")
def exact_out(tmp_path_factory):
    wl = workloads.ExactCensus(5, str(tmp_path_factory.mktemp("exact")))
    wl.setup()
    return wl, wl.op(0)


def test_exact_outputs_match_pins(exact_out):
    wl, out = exact_out
    assert wl.check(0, out) is None


def test_exact_check_fails_on_flipped_digest(exact_out):
    wl, (code, blob, value) = exact_out
    for name in ("cli_json", "graph_gf_value_320"):
        pins = dict(wl.pins)
        pins[name] = ("0" if pins[name][0] != "0" else "1") + pins[name][1:]
        assert workloads.check_exact_outputs(code, blob, value, wl.total_ref, pins) is not None


def test_exact_check_fails_on_changed_outputs(exact_out):
    wl, (code, blob, value) = exact_out
    flipped = blob.replace(b'"model": "simple"', b'"model": "simplE"', 1)
    assert flipped != blob
    assert workloads.check_exact_outputs(code, flipped, value, wl.total_ref, wl.pins) is not None
    assert workloads.check_exact_outputs(code, blob, value + 1, wl.total_ref, wl.pins) is not None
    assert workloads.check_exact_outputs(2, blob, value, wl.total_ref, wl.pins) is not None


@pytest.fixture(scope="module")
def asym(tmp_path_factory):
    wl = workloads.AsymSweep(5, str(tmp_path_factory.mktemp("asym")))
    wl.setup()
    return wl


def test_asym_sweep_fails_only_at_the_recorded_points(asym):
    failing = set()
    for i in range(len(asym.GRID)):
        if asym.check(i, asym.op(i)) is not None:
            failing.add(workloads.grid_key(*asym.point(i)))
    assert failing <= asym.known
    assert {key.split("/")[2] for key in asym.known} == {"1280", "2000"}


def test_asym_check_fails_on_injected_nan(asym):
    i = next(i for i in range(len(asym.GRID)) if asym.point(i)[2] == 320)
    out = asym.op(i)
    assert asym.check(i, out) is None
    for field in ("log_gf_estimate", "coefficient_estimate"):
        assert asym.check(i, dict(out, **{field: math.nan})) == "non-finite output"
    assert asym.check(i, dict(out, saddle=(math.nan,) + out["saddle"][1:])) == "non-finite output"


def test_asym_check_compares_against_exact_and_laplace(asym):
    small = next(i for i in range(len(asym.GRID)) if asym.point(i)[2] == 20)
    out = asym.op(small)
    perturbed = dict(out, coefficient_estimate=out["coefficient_estimate"] * (1 + 1e-6))
    assert "exact coefficient" in asym.check(small, perturbed)
    large = next(i for i in range(len(asym.GRID)) if asym.point(i)[2] == 320)
    out = asym.op(large)
    assert "Laplace" in asym.check(large, dict(out, log_gf_estimate=out["log_gf_estimate"] + 0.1))


def test_recorder_self_times_and_counts(tmp_path):
    rec = spans.Recorder()

    def leaf():
        return sum(range(20000))

    def outer():
        return wrapped_leaf() + wrapped_leaf()

    wrapped_leaf = rec.span_wrapper("t.leaf", leaf)
    wrapped_outer = rec.span_wrapper("t.outer", outer)
    rec.reset(spans.SPANS)
    wrapped_outer()
    rec.mode = spans.OFF
    wrapped_outer()
    assert rec.counts == {"t.outer": 1, "t.leaf": 2}
    times = rec.self_times()
    total = rec.span_end[0] - rec.span_start[0]
    assert times["t.leaf"] > 0 and times["t.outer"] >= 0
    assert math.isclose(times["t.leaf"] + times["t.outer"], total, rel_tol=1e-9)
    rec.dump(str(tmp_path / "spans.json"))
    with open(tmp_path / "spans.json") as fh:
        assert json.load(fh)["parent"] == [-1, 0, 0]


def test_recorder_patches_every_namespace_and_restores():
    from degseq import cli, exact, series

    original = exact.graph_gf
    original_mul = series.MPoly.__dict__["__mul__"]
    rec = spans.Recorder()
    rec.install()
    try:
        assert cli.graph_gf is exact.graph_gf is not original
        rec.reset(spans.COUNTS)
        gf = exact.joint_pmf(exact.GraphClassParams(4, 3, q=3))
        first = rec.exact_counts()
        rec.reset(spans.COUNTS)
        exact.joint_pmf(exact.GraphClassParams(4, 3, q=3))
        assert rec.exact_counts() == first
        assert first["exact.graph_gf.calls"] == 1
        assert first["series.mpoly_mul.calls"] > 0 and first["series.term_products"] > 0
    finally:
        rec.uninstall()
    assert exact.graph_gf is original and cli.graph_gf is original
    assert series.MPoly.__dict__["__mul__"] is original_mul
    assert gf


def test_benchmark_without_sources_exits_nonzero(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "asym_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
