import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from degseq.asymptotics import limit_law
from degseq.errors import DomainError
from degseq.exact import GraphClassParams, joint_pmf
from degseq.sampler import census, run_experiment, sample_simple
from degseq.stats import (
    chi_square_gof,
    gaussian_check,
    moment_report,
    poisson_check,
    psd_check,
    standardize,
)
from oracles import pmf_moments

LAW1 = limit_law(1.0, 4, "simple")


def unstandardize(v: np.ndarray, law, n1: int) -> np.ndarray:
    """Inverse of :func:`degseq.stats.standardize` (columns = sizes 2..q)."""
    k = n1 / 2.0
    return np.asarray(v) * math.sqrt(k) + law.mean_coeffs * k


def test_standardize_centered_counts_are_zero():
    n1 = 8
    k = n1 / 2
    counts = np.tile(np.array([0.0, *(LAW1.mean_coeffs * k)]), (10, 1))
    v = standardize(counts, LAW1, n1)
    assert np.allclose(v, 0.0)


def test_standardize_single_sample_value():
    # n1=8: k=4, centering 2, scale 2 -> (3 - 2)/2 = 0.5
    counts = np.array([[0, 3, 1, 0]])
    v = standardize(counts, LAW1, 8)
    assert v[0, 0] == pytest.approx(0.5)


def test_standardize_round_trip():
    rng = np.random.default_rng(0)
    counts = rng.integers(0, 6, size=(20, 4)).astype(float)
    v = standardize(counts, LAW1, 8)
    back = unstandardize(v, LAW1, 8)
    assert np.allclose(back, counts[:, 1:])


def test_standardize_guards():
    with pytest.raises(ValueError):
        standardize(np.zeros((5, 3)), LAW1, 8)
    # the parity and sign of n1 are exact.check_counts' rule
    with pytest.raises(DomainError, match="n1 must be even"):
        standardize(np.zeros((5, 4)), LAW1, 7)
    with pytest.raises(DomainError, match="nonnegative"):
        standardize(np.zeros((5, 4)), LAW1, -2)
    with pytest.raises(ValueError, match="n1 >= 2"):
        standardize(np.zeros((5, 4)), LAW1, 0)


def test_gaussian_check_accepts_matching_law():
    rng = np.random.default_rng(42)
    v = rng.multivariate_normal(np.zeros(3), LAW1.hessian, size=100000)
    report = moment_report(v, n1=2000, n2=1000)
    verdict = gaussian_check(report, LAW1, tol_mean_se=4.0, tol_cov_abs=0.05)
    assert verdict.passed, verdict.details


def test_gaussian_check_rejects_scaled_covariance():
    rng = np.random.default_rng(43)
    v = rng.multivariate_normal(np.zeros(3), 2.0 * LAW1.hessian, size=100000)
    report = moment_report(v, n1=2000, n2=1000)
    verdict = gaussian_check(report, LAW1, tol_cov_abs=0.05)
    assert not verdict.passed
    assert verdict.details["max_cov_abs_dev"] > 0.05


def test_gaussian_check_rejects_shifted_mean():
    rng = np.random.default_rng(44)
    v = rng.multivariate_normal(np.zeros(3), LAW1.hessian, size=100000) + 0.05
    report = moment_report(v, n1=2000, n2=1000)
    assert not gaussian_check(report, LAW1).passed


def test_gaussian_check_needs_samples():
    report = moment_report(np.zeros((10, 3)) + np.eye(3)[0], 8, 4)
    with pytest.raises(ValueError):
        gaussian_check(report, LAW1)


def test_gaussian_check_rejects_a_law_of_another_q():
    # a one-column (q = 2) report would broadcast against the 3x3 law
    v = np.random.default_rng(46).standard_normal((1000, 1))
    with pytest.raises(ValueError, match="differ in q"):
        gaussian_check(moment_report(v, n1=2000, n2=1000), LAW1)


def test_gaussian_check_rejects_a_constant_column():
    # a zero standard error would divide 0 by 0 into a NaN deviation
    rng = np.random.default_rng(45)
    v = np.column_stack((rng.standard_normal(1000), np.zeros(1000)))
    report = moment_report(v, n1=2000, n2=1000)
    with pytest.raises(ValueError, match="zero standard error"):
        gaussian_check(report, limit_law(1.0, 3))


def test_poisson_check_accepts_matching_rate():
    rng = np.random.default_rng(7)
    draws = rng.poisson(0.25, size=100000)
    verdict = poisson_check(draws, 0.25)
    assert verdict.passed, verdict.details
    assert verdict.details["p_value"] >= 0.001


def test_poisson_check_rejects_wrong_rate():
    rng = np.random.default_rng(8)
    draws = rng.poisson(0.5, size=100000)
    verdict = poisson_check(draws, 0.25)
    assert not verdict.passed


def test_chi_square_gof_self_consistency():
    rng = np.random.default_rng(9)
    probs = {"a": Fraction(1, 2), "b": Fraction(1, 3), "c": Fraction(1, 6)}
    draws = rng.choice(["a", "b", "c"], p=[0.5, 1 / 3, 1 / 6], size=20000)
    verdict = chi_square_gof(Counter(draws.tolist()), probs, 20000)
    assert verdict.passed
    skewed = Counter({"a": 14000, "b": 4000, "c": 2000})
    assert not chi_square_gof(skewed, probs, 20000).passed


def test_chi_square_gof_flags_unsupported_outcomes():
    probs = {"a": Fraction(1)}
    observed = Counter({"a": 900, "zzz": 100})
    verdict = chi_square_gof(observed, probs, 1000)
    assert not verdict.passed


def test_chi_square_gof_point_mass_passes():
    probs = {(0, 1): Fraction(1)}
    verdict = chi_square_gof(Counter({(0, 1): 500}), probs, 500)
    assert verdict.passed
    # a float mass within the accepted 1e-9 of 1 is still a point mass
    verdict = chi_square_gof(Counter({(0, 1): 1000}), {(0, 1): 1 - 1e-10}, 1000)
    assert verdict.passed and verdict.details["chi2_stat"] == 0.0


def test_chi_square_gof_pools_cells_of_small_expectation():
    from scipy.stats import chisquare

    # expected 98, 1, 1: the last two cells fall below MIN_EXPECTED and are
    # pooled into one cell that observes 3 + 2 and expects 2
    probs = {"a": 0.98, "b": 0.01, "c": 0.01}
    details = chi_square_gof({"a": 95, "b": 3, "c": 2}, probs, 100).details
    ref = chisquare([95, 5], [98, 2])
    assert details["cells"] == 2
    assert details["chi2_stat"] == pytest.approx(ref.statistic, rel=1e-12)
    assert details["p_value"] == pytest.approx(ref.pvalue, rel=1e-9)


def test_chi_square_gof_unsupported_outcome_joins_the_pooled_cell():
    # the 10 draws of "z" join "b" and "c" in the pooled cell, which
    # expects 2 and so observes far too many
    probs = {"a": 0.98, "b": 0.01, "c": 0.01}
    verdict = chi_square_gof({"a": 90, "z": 10}, probs, 100)
    assert verdict.details["cells"] == 2
    assert verdict.details["chi2_stat"] == pytest.approx(8**2 / 98 + 8**2 / 2, rel=1e-12)
    assert not verdict.passed


# chi-square statistics as multiples of dof: 0, 1e-300, the bulk around the
# mean (dof) and the upper tail; the test adds 1e5
CHI2_STAT_GRID = (0.0, 1e-300, 1e-3, 0.1, 0.5, 0.9, 1.0, 1.1, 2.0, 4.0, 10.0)


def test_chi_square_gof_p_value_is_scipy_chi2_sf():
    from scipy.special import chdtrc
    from scipy.stats import chi2

    for dof in range(1, 61):
        cells = dof + 1
        probs = {k: Fraction(1, cells) for k in range(cells)}
        n = cells * 100_000
        for stat in [f * dof for f in CHI2_STAT_GRID] + [1e5]:
            # the identity chi_square_gof relies on, also where its cells
            # cannot produce the statistic (stat below ulp(expected)^2)
            assert chdtrc(dof, stat) == chi2.sf(stat, dof)
            shift = math.sqrt(stat * 100_000 / 2.0)
            observed = {k: 100_000.0 for k in range(cells)}
            observed[0] += shift
            observed[1] -= shift
            details = chi_square_gof(observed, probs, n).details
            assert details["cells"] == cells
            assert details["p_value"] == float(chi2.sf(details["chi2_stat"], dof))


@pytest.mark.parametrize("significance", (math.nan, 0.0, 1.0))
def test_chi_square_gof_rejects_a_significance_outside_0_1(significance):
    with pytest.raises(ValueError, match="significance"):
        chi_square_gof({"a": 10}, {"a": 1.0}, 10, significance)


@pytest.mark.parametrize(
    "observed, probs, n_samples, message",
    [
        ({}, {}, 0, "n_samples >= 1"),
        ({"a": 0}, {"a": 1.0}, 0, "n_samples >= 1"),
        ({"a": 10}, {}, 10, "at least one outcome"),
        ({"a": 10}, {"a": -0.5, "b": 1.5}, 10, "nonnegative"),
        ({"a": 10}, {"a": float("nan")}, 10, "finite"),
        ({"a": 10}, {"a": float("inf"), "b": -float("inf")}, 10, "finite"),
        ({"a": 5, "b": 5}, {"a": 0.9, "b": 0.9}, 10, "sum to 1"),
        ({"a": 5, "b": 5}, {"a": 0.5, "b": 0.5 - 1e-8}, 10, "sum to 1"),
        ({"a": 5, "b": 5}, {"a": 0.5, "b": 0.5}, 100, "sum to n_samples"),
        ({"a": 5.0, "b": float("nan")}, {"a": 0.5, "b": 0.5}, 10, "sum to n_samples"),
    ],
)
def test_chi_square_gof_rejects_inconsistent_input(observed, probs, n_samples, message):
    # each of these used to return an inf or NaN statistic or p-value, or a
    # verdict on counts that do not add up
    with pytest.raises(ValueError, match=message):
        chi_square_gof(observed, probs, n_samples)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_standardize_and_moment_report_reject_non_finite_input(bad):
    counts = np.full((5, 4), 2.0)
    counts[3, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        standardize(counts, LAW1, 8)
    with pytest.raises(ValueError, match="finite"):
        moment_report([[bad, 1.0], [2.0, 3.0]], 4, 2)


@pytest.mark.parametrize("lam", [0.0, -0.25, float("inf"), float("nan")])
def test_poisson_check_rejects_bad_rate(lam):
    with pytest.raises(ValueError, match="lam must be positive and finite"):
        poisson_check([0, 1, 0], lam)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_poisson_check_rejects_non_finite_samples(bad):
    with pytest.raises(ValueError, match="loop counts must be finite"):
        poisson_check([0, 1, bad], 0.25)


@pytest.mark.parametrize("samples", [[], [1]])
def test_poisson_check_rejects_fewer_than_two_samples(samples):
    with pytest.raises(ValueError, match="at least 2 samples"):
        poisson_check(samples, 0.25)


@pytest.mark.parametrize("rows", [0, 1])
def test_moment_report_rejects_fewer_than_two_rows(rows):
    with pytest.raises(ValueError, match="at least 2 samples"):
        moment_report(np.zeros((rows, 3)), 8, 4)


def test_psd_check():
    assert psd_check(np.eye(3)).passed
    assert psd_check(np.eye(3)).details["tol"] == 1e-9
    assert not psd_check(np.diag([1.0, -1.0])).passed
    with pytest.raises(ValueError):
        psd_check(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        psd_check(np.zeros((2, 3)))


def test_exact_moments_match_sample_moments():
    # small instance: sampled mean/variance of U_j within 4 SE of the exact law
    n1, n2, q = 4, 2, 4
    pmf = joint_pmf(GraphClassParams(n1, n2, q=q))
    means, variances = pmf_moments(pmf)
    rng = np.random.default_rng(31)
    n = 100000
    rows = np.empty((n, q), dtype=np.int64)
    for r in range(n):
        rows[r] = census(sample_simple(n1, n2, rng), q).counts
    for j in range(q):
        se = rows[:, j].std(ddof=1) / math.sqrt(n)
        assert abs(rows[:, j].mean() - float(means[j])) <= 4 * se + 1e-12
        # variance SE via the fourth central moment
        centered = rows[:, j] - rows[:, j].mean()
        se_var = math.sqrt(max((centered**4).mean() - centered.var() ** 2, 0) / n)
        assert abs(rows[:, j].var(ddof=1) - float(variances[j])) <= 4 * se_var + 1e-12


def test_exact_mean_trend_toward_limit():
    # (exact E[U_2])/(n1/2) approaches 1/2 monotonically at alpha = 1
    errors = []
    for n1 in (8, 16, 32):
        p = GraphClassParams(n1, n1 // 2, q=2)
        means, _ = pmf_moments(joint_pmf(p))
        errors.append(abs(float(means[1]) / (n1 / 2) - 0.5))
    assert errors[0] > errors[1] > errors[2]


def test_monte_carlo_variance_near_limit_diagonal():
    # scaled-down version of the variance-band invariant (full scale runs in
    # the acceptance battery)
    law = limit_law(1.0, 3, "simple")
    p = GraphClassParams.from_alpha(1.0, 400, q=3)
    r = run_experiment(p, 4000, seed=19)
    k = p.n1 / 2
    for idx, j in enumerate((2, 3)):
        var_scaled = r.counts[:, j - 1].var(ddof=1) / k
        assert abs(var_scaled - law.hessian[idx, idx]) < 0.1
