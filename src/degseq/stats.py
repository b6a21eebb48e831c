"""Verdicts on the limit theorems from Monte Carlo samples: standardized
moment comparison against the Gaussian law, Poisson goodness of fit for the
loop count, and positive semi-definiteness of covariance matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .asymptotics import LimitLaw
from .exact import check_counts

# loop-count cells of poisson_check, before the pooled tail cell
POISSON_BUCKETS = (0, 1, 2)
# chi_square_gof pools cells expected to hold fewer samples than this
MIN_EXPECTED = 5.0
POISSON_SIGNIFICANCE = 0.001  # poisson_check's chi-square level
PSD_TOL = 1e-9  # psd_check's allowance below zero for the least eigenvalue


@dataclass(frozen=True)
class Verdict:
    passed: bool
    details: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class MomentReport:
    """Empirical moments of the standardized census vector V_2..V_q."""

    n1: int
    n2: int
    n_samples: int
    empirical_mean: np.ndarray
    empirical_cov: np.ndarray
    standard_errors: np.ndarray


def standardize(counts: np.ndarray, law: LimitLaw, n1: int) -> np.ndarray:
    """Map raw census rows (columns = sizes 1..q) to the standardized vectors
    V_j = (U_j - c_j n1/2) / sqrt(n1/2) for j = 2..q."""
    counts = np.asarray(counts)
    if counts.ndim != 2 or counts.shape[1] != law.q:
        raise ValueError("counts must be (N, q) with q = %d" % law.q)
    if not np.all(np.isfinite(counts)):
        raise ValueError("counts must be finite")
    check_counts(n1, 0)
    if n1 == 0:
        raise ValueError("standardization needs n1 >= 2")
    k = n1 / 2.0
    return (counts[:, 1:] - law.mean_coeffs * k) / math.sqrt(k)


def moment_report(v: np.ndarray, n1: int, n2: int) -> MomentReport:
    v = np.asarray(v, dtype=float)
    n = len(v)
    if n < 2:
        raise ValueError("need at least 2 samples for the moments")
    if not np.all(np.isfinite(v)):
        raise ValueError("standardized vectors must be finite")
    mean = v.mean(axis=0)
    cov = np.atleast_2d(np.cov(v, rowvar=False, ddof=1))
    se = v.std(axis=0, ddof=1) / math.sqrt(n)
    return MomentReport(
        n1=n1, n2=n2, n_samples=n, empirical_mean=mean, empirical_cov=cov, standard_errors=se
    )


def gaussian_check(
    report: MomentReport,
    law: LimitLaw,
    tol_mean_se: float = 4.0,
    tol_cov_abs: float = 0.06,
) -> Verdict:
    """Pass iff every standardized mean sits within tol_mean_se standard
    errors of 0 and every covariance entry within tol_cov_abs of the limit
    (absolute comparison: the limit covariance passes through 0).  Raises
    ValueError for a report and a law of different q, and for a zero standard
    error (a constant column)."""
    if report.empirical_cov.shape != law.hessian.shape:
        raise ValueError("report and law differ in q")
    if report.n_samples < 1000:
        raise ValueError("need at least 1000 samples for the moment check")
    if not np.all(report.standard_errors > 0):
        raise ValueError("zero standard error: a standardized column is constant")
    mean_dev = np.abs(report.empirical_mean) / report.standard_errors
    cov_dev = np.abs(report.empirical_cov - law.hessian)
    passed = bool(np.all(mean_dev <= tol_mean_se) and np.all(cov_dev <= tol_cov_abs))
    return Verdict(
        passed,
        {
            "max_mean_dev_se": float(mean_dev.max()),
            "max_cov_abs_dev": float(cov_dev.max()),
            "tol_mean_se": tol_mean_se,
            "tol_cov_abs": tol_cov_abs,
            "n_samples": report.n_samples,
        },
    )


def poisson_pmf(k: int, lam: float) -> float:
    return math.exp(-lam + k * math.log(lam) - math.lgamma(k + 1))


def poisson_check(u1_samples, lam: float) -> Verdict:
    """Chi-square goodness of fit (chi_square_gof, at POISSON_SIGNIFICANCE)
    of loop counts against Poisson(lam) over the POISSON_BUCKETS cells and a
    tail cell, plus 4-standard-error checks on mean and variance."""
    if not 0 < lam < math.inf:
        raise ValueError("lam must be positive and finite")
    x = np.asarray(u1_samples, dtype=float)
    n = x.size
    if n < 2:
        raise ValueError("need at least 2 samples for the Poisson check")
    if not np.all(np.isfinite(x)):
        raise ValueError("loop counts must be finite")
    observed = {k: int(np.count_nonzero(x == k)) for k in POISSON_BUCKETS}
    observed["tail"] = n - sum(observed.values())
    probs = {k: poisson_pmf(k, lam) for k in POISSON_BUCKETS}
    probs["tail"] = 1.0 - sum(probs.values())
    fit = chi_square_gof(observed, probs, n, POISSON_SIGNIFICANCE)

    mean = float(x.mean())
    var = float(x.var(ddof=1))
    se_mean = math.sqrt(var / n)
    m4 = float(np.mean((x - mean) ** 4))
    se_var = math.sqrt(max(m4 - var * var, 0.0) / n)
    mean_ok = abs(mean - lam) <= 4.0 * se_mean
    var_ok = abs(var - lam) <= 4.0 * se_var
    passed = bool(fit.passed and mean_ok and var_ok)
    return Verdict(
        passed,
        {
            "lambda": lam,
            "p_value": fit.details["p_value"],
            "chi2_stat": fit.details["chi2_stat"],
            "mean": mean,
            "variance": var,
            "mean_dev_se": abs(mean - lam) / se_mean if se_mean else 0.0,
            "var_dev_se": abs(var - lam) / se_var if se_var else 0.0,
            "n_samples": int(n),
        },
    )


def chi_square_gof(
    observed: dict,
    probs: dict,
    n_samples: int,
    significance: float = 0.001,
) -> Verdict:
    """Generic chi-square goodness of fit of observed outcome counts against
    exact outcome probabilities; cells with small expectation are pooled, and
    observed outcomes outside the support land in the pooled cell.  Raises
    ValueError unless 0 < significance < 1, n_samples >= 1, the
    probabilities are finite, nonnegative and sum to 1, and the observed
    counts sum to n_samples (both within a relative 1e-9)."""
    if not 0 < significance < 1:  # NaN fails too
        raise ValueError("significance must be in (0, 1)")
    if n_samples < 1 or not probs:
        raise ValueError("need n_samples >= 1 and at least one outcome")
    floats = {key: float(p) for key, p in probs.items()}
    if not all(0.0 <= p < math.inf for p in floats.values()):  # NaN fails too
        raise ValueError("probabilities must be finite and nonnegative")
    if not abs(math.fsum(floats.values()) - 1.0) <= 1e-9:
        raise ValueError("probabilities must sum to 1")
    if not math.isclose(math.fsum(map(float, observed.values())), n_samples, rel_tol=1e-9):
        raise ValueError("observed counts must sum to n_samples = %d" % n_samples)
    cells = []
    pooled_exp = 0.0
    pooled_obs = 0.0
    for key, p in floats.items():
        exp = n_samples * p
        obs = float(observed.get(key, 0))
        if exp >= MIN_EXPECTED:
            cells.append((obs, exp))
        else:
            pooled_exp += exp
            pooled_obs += obs
    for key, count in observed.items():
        if key not in floats:
            pooled_obs += count
    if pooled_exp > 0 or pooled_obs > 0:
        cells.append((pooled_obs, max(pooled_exp, 1e-12)))
    if len(cells) < 2:
        # one cell holds all n_samples counts and all the probability (both
        # checked above): there is nothing to test
        stat, p_value = 0.0, 1.0
    else:
        stat = sum((o - e) ** 2 / e for o, e in cells)
        from scipy.special import chdtrc  # scipy.stats.chi2.sf, without loading scipy.stats

        p_value = float(chdtrc(len(cells) - 1, stat))
    return Verdict(
        bool(p_value >= significance),
        {
            "p_value": p_value,
            "chi2_stat": float(stat),
            "cells": len(cells),
            "n_samples": n_samples,
        },
    )


def psd_check(matrix: np.ndarray) -> Verdict:
    """Pass iff the symmetric matrix has minimum eigenvalue >= -PSD_TOL."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if not np.allclose(m, m.T, rtol=0.0, atol=1e-12):
        raise ValueError("matrix must be symmetric")
    min_eig = float(np.linalg.eigvalsh(m).min())
    return Verdict(min_eig >= -PSD_TOL, {"min_eigenvalue": min_eig, "tol": PSD_TOL})
