"""Acceptance checks: every closed form is replayed against an independent
oracle (brute-force enumeration, finite differences, exact coefficients, or
Monte Carlo at fixed seeds), each with its pinned tolerance.

Monte Carlo checks run with fixed arbitrary seeds so the whole battery is
deterministic.  Checks 8, 9 and 11 share their chunks out over every CPU the
process may run on; run_experiment's counts depend on the seed alone, so the
verdicts do not depend on the machine.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np

from .asymptotics import (
    asymptotic_log_gf,
    central_hessian,
    chi_value,
    contour_extract,
    hessian_H,
    limit_law,
    saddle_data,
)
from .errors import StructuralError
from .exact import (
    GraphClassParams,
    brute_force_multigraph,
    brute_force_simple,
    class_is_empty,
    graph_gf,
    graph_gf_value,
    joint_pmf,
    v_factor,
)
from .sampler import (
    acceptance_limit,
    available_cpus,
    census,
    census_rows,
    compensation_factor,
    run_experiment,
    sample_multigraph,
    sample_simple,
)
from .stats import (
    chi_square_gof,
    gaussian_check,
    moment_report,
    poisson_check,
    psd_check,
    standardize,
)

SEED_GAUSSIAN = 7
SEED_POISSON = 7
SEED_STRUCTURE = 29
SEED_GOF_SIMPLE = 3
SEED_GOF_MULTI = {(2, 4): 13, (4, 3): 17}
# check 10's (model, n1, n2, q, graphs) batches, 1e5 graphs in all
STRUCTURE_BATCHES = (
    ("simple", 8, 6, 4, 25000),
    ("multigraph", 8, 6, 4, 25000),
    ("multigraph", 2, 3, 2, 25000),
    ("simple", 4, 4, 8, 25000),
)


@dataclass
class CheckResult:
    number: int
    name: str
    passed: bool
    seconds: float
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return "%s  %2d  %-28s (%.1fs)" % (status, self.number, self.name, self.seconds)

    def to_json(self) -> dict:
        return {**asdict(self), "seconds": round(self.seconds, 3)}


def _census_matches(model: str, instances, oracle, runtime_limit_s: float) -> dict:
    """graph_gf equals the oracle's polynomial, exactly, at each (n1, n2) of
    instances in turn, with q = max(2, n1 + n2) so that no size is pooled."""
    count = 0
    for n1, n2 in instances:
        p = GraphClassParams(n1, n2, q=max(2, n1 + n2), model=model)
        if graph_gf(p) != oracle(p):
            return {"passed": False, "failed_at": [n1, n2]}
        count += 1
    return {"passed": True, "instances": count, "runtime_limit_s": runtime_limit_s}


def check_exact_vs_bruteforce_simple() -> dict:
    """Census polynomial equals adjacency enumeration, exactly."""
    instances = [(n1, n2) for n1 in range(0, 9, 2) for n2 in range(min(6, 11 - n1))
                 if n1 + n2 >= 2 and not class_is_empty(n1, n2, "simple")]
    return _census_matches("simple", instances, brute_force_simple, 60)


def check_exact_vs_matching_oracle() -> dict:
    """Multigraph census polynomial equals stub-pairing enumeration, exactly."""
    instances = [(n1, n2) for n1 in range(0, 13, 2) for n2 in range(7 - n1 // 2)]
    return _census_matches("multigraph", instances, brute_force_multigraph, 120)


def check_saddle_closed_form() -> dict:
    """At unit weights: zeta = alpha/(1+alpha) and curvature alpha(1+alpha)."""
    worst_zeta = 0.0
    worst_phi2 = 0.0
    for alpha in (0.1, 0.5, 1.0, 2.0, 10.0):
        u = np.ones(4)
        sd = saddle_data(alpha, u)
        worst_zeta = max(worst_zeta, abs(sd.zeta - alpha / (1 + alpha)))
        worst_phi2 = max(worst_phi2, abs(sd.phi2 - alpha * (1 + alpha)))
    return {
        "passed": worst_zeta <= 1e-12 and worst_phi2 <= 1e-10,
        "max_zeta_err": worst_zeta,
        "max_phi2_err": worst_phi2,
    }


def check_hessian_identity() -> dict:
    """Closed-form covariance equals the finite-difference Hessian of the
    cumulant rate, plus exact spot values at alpha = 1."""
    worst_fd = 0.0
    for alpha in (0.5, 1.0, 2.0):
        closed = hessian_H(alpha, 5)
        fd = central_hessian(lambda t: chi_value(t, alpha, 5), np.zeros(4))
        worst_fd = max(worst_fd, float(np.abs(closed - fd).max()))
    h1 = hessian_H(1.0, 3)
    spots = max(
        abs(h1[0, 0] - 0.125), abs(h1[0, 1] + 0.125), abs(h1[1, 1] - 0.1875)
    )
    return {
        "passed": worst_fd <= 1e-5 and spots <= 1e-12,
        "max_fd_dev": worst_fd,
        "max_spot_dev": spots,
    }


def check_psd() -> dict:
    """Limiting covariance is positive semi-definite on an alpha grid."""
    worst = 0.0
    for alpha in (0.1, 0.5, 1.0, 2.0, 10.0):
        verdict = psd_check(hessian_H(alpha, 8))
        worst = min(worst, verdict.details["min_eigenvalue"])
        if not verdict.passed:
            return {"passed": False, "alpha": alpha, **verdict.details}
    return {"passed": True, "min_eigenvalue": worst}


def check_contour_extraction() -> dict:
    """Trapezoid contour coefficients match exact extraction to 1e-8 relative."""
    worst = 0.0
    weights = [
        (None, None),
        ([1.0, 1.1, 0.9], [Fraction(1), Fraction(11, 10), Fraction(9, 10)]),
    ]
    for n1, n2 in ((2, 1), (20, 10)):
        p = GraphClassParams(n1, n2, q=3)
        for u_float, u_exact in weights:
            got = contour_extract(p, u=u_float, points=1024)
            exact = graph_gf_value(p, u_exact) / v_factor(n1, n2)
            worst = max(worst, abs(got / float(exact) - 1.0))
    return {"passed": worst <= 1e-8, "max_rel_err": worst}


def check_laplace_asymptotics() -> dict:
    """|log exact - log estimate| strictly decreases along doubling n1 and the
    final ratio is within 5%."""
    diffs = []
    for n1 in (40, 80, 160, 320):
        p = GraphClassParams(n1, n1 // 2, q=2)
        exact = graph_gf_value(p)
        log_exact = math.log(exact.numerator) - math.log(exact.denominator)
        diffs.append(abs(log_exact - asymptotic_log_gf(p)))
    decreasing = all(a > b for a, b in zip(diffs, diffs[1:]))
    final_ratio_err = abs(math.exp(diffs[-1]) - 1.0)
    return {
        "passed": decreasing and final_ratio_err <= 0.05,
        "log_diffs": diffs,
        "final_ratio_err": final_ratio_err,
    }


def check_gaussian_limit(
    alpha=1.0, n1=2000, q=4, model="simple", n_reps=20000, seed=SEED_GAUSSIAN
) -> dict:
    """Standardized census moments of n_reps sampled graphs with
    n2 = floor(alpha*n1/2) match N(0, H(alpha)), within 4 standard errors
    (means) and 0.06 (covariances).  Also reports the empirical moments and
    the rejection sampler's acceptance against its closed-form limit (not
    part of the verdict), a gap of 0 standard errors when every pairing is
    accepted (the multigraph model)."""
    p = GraphClassParams.from_alpha(alpha, n1, q=q, model=model)
    law = limit_law(alpha, q, model)
    workers = available_cpus()
    result = run_experiment(p, n_reps, seed=seed, workers=workers)
    report = moment_report(standardize(result.counts, law, p.n1), p.n1, p.n2)
    verdict = gaussian_check(report, law, tol_mean_se=4.0, tol_cov_abs=0.06)
    acceptance = result.n_reps / result.pairings_examined
    limit = acceptance_limit(p)
    se = math.sqrt(acceptance * (1 - acceptance) / result.pairings_examined)
    return {
        "passed": verdict.passed,
        "seed": seed,
        "workers": workers,
        "runtime_limit_s": 300,
        **verdict.details,
        "empirical_mean": report.empirical_mean.tolist(),
        "empirical_cov": report.empirical_cov.tolist(),
        "acceptance": acceptance,
        "acceptance_limit": limit,
        "acceptance_gap_se": (acceptance - limit) / se if se else 0.0,
    }


def check_poisson_limit(alpha=1.0, n1=2000, n_reps=20000, seed=SEED_POISSON) -> dict:
    """Loop counts U_1 of n_reps configuration-model multigraphs with
    n2 = floor(alpha*n1/2) match Poisson(alpha/(2(1+alpha)))."""
    p = GraphClassParams.from_alpha(alpha, n1, q=4, model="multigraph")
    lam = limit_law(alpha, 4, "multigraph").poisson_lambda
    workers = available_cpus()
    result = run_experiment(p, n_reps, seed=seed, workers=workers)
    verdict = poisson_check(result.counts[:, 0], lam)
    return {"passed": verdict.passed, "seed": seed, "workers": workers, **verdict.details}


def check_structural_invariants(batches=STRUCTURE_BATCHES) -> dict:
    """Zero violations over the batches' sampled graphs, drawn in turn from
    one generator seeded with SEED_STRUCTURE: sizes sum to n1+n2, path count
    is n1/2, every component is a path or a cycle, rejection output always
    has compensation factor 1, and the batch labeller (census_rows, fed each
    batch's edges as one block) gives census()'s counts row for row.  A
    StructuralError from census() or census_rows() is a violation."""
    rng = np.random.default_rng(SEED_STRUCTURE)
    violations = 0
    mismatches = 0
    checked = 0
    for model, n1, n2, q, reps in batches:
        draw = sample_simple if model == "simple" else sample_multigraph
        graphs = [draw(n1, n2, rng) for _ in range(reps)]
        edges = np.array([g.edges for g in graphs])
        try:
            rows = zip(*(a.tolist() for a in census_rows(n1, n2, q, edges[..., 0], edges[..., 1])))
        except StructuralError:
            violations += 1
            rows = [None] * reps
        for g, row in zip(graphs, rows):
            checked += 1
            try:
                c = census(g, q)
            except StructuralError:
                violations += 1
                continue
            if row is not None and row != (list(c.counts), c.tail_count):
                mismatches += 1
            ok = (
                c.component_sizes_sum == n1 + n2
                and c.path_components == n1 // 2
            )
            if model == "simple" and compensation_factor(g) != 1:
                ok = False
            violations += not ok
    return {
        "passed": violations == 0 and mismatches == 0,
        "violations": violations,
        "batch_census_mismatches": mismatches,
        "samples": checked,
    }


def _sampled_census_counts(p: GraphClassParams, seed: int, workers: int) -> Counter:
    result = run_experiment(p, 100000, seed=seed, workers=workers)
    return Counter(map(tuple, result.counts.tolist()))


def check_small_instance_distributions() -> dict:
    """Sampled censuses of run_experiment match the exact laws: rejection
    sampling at (4,4) against the census PMF, pairings against the matching
    oracle."""
    workers = available_cpus()
    results = {"workers": workers}
    p = GraphClassParams(4, 4, q=8)
    observed = _sampled_census_counts(p, SEED_GOF_SIMPLE, workers)
    verdict = chi_square_gof(observed, joint_pmf(p), 100000, significance=0.001)
    results["simple_4_4_p"] = verdict.details["p_value"]
    passed = verdict.passed
    for (n1, n2), seed in SEED_GOF_MULTI.items():
        p = GraphClassParams(n1, n2, q=n1 + n2, model="multigraph")
        observed = _sampled_census_counts(p, seed, workers)
        verdict = chi_square_gof(observed, brute_force_multigraph(p).pmf(), 100000,
                                 significance=0.001)
        results["multigraph_%d_%d_p" % (n1, n2)] = verdict.details["p_value"]
        passed = passed and verdict.passed
    results["passed"] = passed
    return results


CHECKS = (
    (1, "exact-vs-bruteforce-simple", check_exact_vs_bruteforce_simple),
    (2, "exact-vs-matching-oracle", check_exact_vs_matching_oracle),
    (3, "saddle-closed-form", check_saddle_closed_form),
    (4, "hessian-identity", check_hessian_identity),
    (5, "psd", check_psd),
    (6, "contour-extraction", check_contour_extraction),
    (7, "laplace-asymptotics", check_laplace_asymptotics),
    (8, "gaussian-limit", check_gaussian_limit),
    (9, "poisson-limit", check_poisson_limit),
    (10, "structural-invariants", check_structural_invariants),
    (11, "small-instance-gof", check_small_instance_distributions),
)

QUICK_CHECKS = (3, 4, 5, 6, 7)


def run_check(number: int) -> CheckResult:
    entry = next((c for c in CHECKS if c[0] == number), None)
    if entry is None:
        raise ValueError("no acceptance check numbered %d" % number)
    _, name, fn = entry
    start = time.perf_counter()
    details = fn()
    elapsed = time.perf_counter() - start
    passed = bool(details.pop("passed"))
    limit = details.get("runtime_limit_s")
    if limit is not None and elapsed > limit:
        passed = False
        details["runtime_exceeded"] = True
    return CheckResult(number, name, passed, elapsed, details)

