"""Acceptance battery: one test per criterion, each printing a PASS/FAIL line
and asserting at its pinned tolerance, then negative controls that must fail
them.  Run with `pytest tests/test_acceptance.py -v -s` or via `degseq verify`.
"""

import time

import pytest

from degseq import sampler, verify
from degseq.exact import CensusPolynomial


@pytest.mark.parametrize("number,name", [(c[0], c[1]) for c in verify.CHECKS])
def test_acceptance_criterion(number, name):
    result = verify.run_check(number)
    print(result.line())
    assert result.passed, "criterion %d (%s) failed: %s" % (number, name, result.details)
    if number in (8, 9, 11):  # the Monte Carlo checks run on every CPU the process may use
        assert result.details["workers"] == sampler.available_cpus()


def test_gaussian_limit_check_runs_at_given_parameters_in_the_multigraph_model():
    # every pairing is accepted, so the acceptance has no standard error and
    # its gap to the limit reads 0 standard errors
    details = verify.check_gaussian_limit(n1=200, model="multigraph", n_reps=1000)
    assert details["acceptance"] == details["acceptance_limit"] == 1.0
    assert details["acceptance_gap_se"] == 0
    assert details["n_samples"] == 1000 and details["seed"] == verify.SEED_GAUSSIAN
    assert len(details["empirical_mean"]) == 3 and len(details["empirical_cov"]) == 3


# Negative controls: each replaces a name verify imports with a faulty copy,
# which must fail the check that reads it.


def _one_count_moved(gf):
    counts = dict(gf.counts)
    e = min(counts)
    counts[e] -= 1
    moved = tuple(x + 1 for x in e)
    counts[moved] = counts.get(moved, 0) + 1
    return CensusPolynomial(gf.q, {k: v for k, v in counts.items() if v}, gf.scale)


@pytest.mark.parametrize("number, first_instance", [(1, [0, 3]), (2, [0, 0])])
def test_census_with_one_count_moved_fails_the_exact_checks(number, first_instance, monkeypatch):
    real = verify.graph_gf
    monkeypatch.setattr(verify, "graph_gf", lambda p: _one_count_moved(real(p)))
    result = verify.run_check(number)
    assert not result.passed and result.details["failed_at"] == first_instance


def test_non_psd_covariance_fails_the_psd_check(monkeypatch):
    real = verify.hessian_H
    monkeypatch.setattr(verify, "hessian_H", lambda alpha, q: -real(alpha, q))
    result = verify.run_check(5)
    assert not result.passed
    assert result.details["alpha"] == 0.1 and result.details["min_eigenvalue"] < 0


# Check 10 at one small batch per model: the negative controls below need
# only a few graphs to fail it.
SMALL_STRUCTURE_BATCHES = (("simple", 8, 6, 4, 1000), ("multigraph", 8, 6, 4, 1000))


def test_structural_check_passes_on_small_batches():
    details = verify.check_structural_invariants(batches=SMALL_STRUCTURE_BATCHES)
    assert details["passed"] and details["samples"] == 2000
    assert details["violations"] == details["batch_census_mismatches"] == 0


def test_batch_census_with_one_count_shifted_fails_the_structural_check(monkeypatch):
    real = verify.census_rows

    def census_rows(*args):
        counts, tails = real(*args)
        counts = counts.copy()
        counts[0, 0] += 1
        return counts, tails

    monkeypatch.setattr(verify, "census_rows", census_rows)
    details = verify.check_structural_invariants(batches=SMALL_STRUCTURE_BATCHES)
    assert not details["passed"]
    assert details["batch_census_mismatches"] >= 1 and details["violations"] == 0


def _doubled_edges(n1, n2, rng):
    """A non-simple graph with the degree profile of (n1, n2), n2 >= 2:
    paths of size 2, double edges, and a loop if n2 is odd."""
    edges = [(v, v + 1) for v in range(0, n1, 2)] + 2 * [(v, v + 1) for v in range(n1, n1 + n2 - 1, 2)]
    if n2 % 2:
        edges.append((n1 + n2 - 1, n1 + n2 - 1))
    return sampler.StubMultigraph(n1, n2, tuple(edges))


def test_non_simple_draws_fail_the_structural_check_by_compensation_factor(monkeypatch):
    monkeypatch.setattr(verify, "sample_simple", _doubled_edges)
    details = verify.check_structural_invariants(batches=SMALL_STRUCTURE_BATCHES)
    assert not details["passed"]
    assert details["violations"] >= 1 and details["batch_census_mismatches"] == 0


def test_check_over_its_runtime_limit_fails(monkeypatch):
    def slow_check():
        time.sleep(0.01)
        return {"passed": True, "runtime_limit_s": 0.001}

    monkeypatch.setattr(verify, "CHECKS", ((3, "saddle-closed-form", slow_check),))
    result = verify.run_check(3)
    assert not result.passed and result.details["runtime_exceeded"] is True


def test_run_check_rejects_an_unknown_number():
    with pytest.raises(ValueError, match="no acceptance check numbered 99"):
        verify.run_check(99)
