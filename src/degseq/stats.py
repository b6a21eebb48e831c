"""Verdicts on the limit theorems from Monte Carlo samples: standardized
moment comparison against the Gaussian law, Poisson goodness of fit for the
loop count, and positive semi-definiteness of covariance matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .asymptotics import LimitLaw

# loop-count cells of poisson_check, before the pooled tail cell
POISSON_BUCKETS = (0, 1, 2)
# chi_square_gof pools cells expected to hold fewer samples than this
MIN_EXPECTED = 5.0
POISSON_SIGNIFICANCE = 0.001  # poisson_check's chi-square level
PSD_TOL = 1e-9  # psd_check's allowance below zero for the least eigenvalue


@dataclass(frozen=True)
class Verdict:
    passed: bool
    name: str
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"passed": self.passed, "name": self.name, "details": self.details}


@dataclass(frozen=True, eq=False)
class MomentReport:
    """Empirical moments of the standardized census vector V_2..V_q."""

    n1: int
    n2: int
    n_samples: int
    empirical_mean: np.ndarray
    empirical_cov: np.ndarray
    standard_errors: np.ndarray

    def to_json(self) -> dict:
        return {
            "n1": self.n1,
            "n2": self.n2,
            "n_samples": self.n_samples,
            "empirical_mean": [float(x) for x in self.empirical_mean],
            "empirical_cov": [[float(x) for x in row] for row in self.empirical_cov],
            "standard_errors": [float(x) for x in self.standard_errors],
        }


def standardize(counts: np.ndarray, law: LimitLaw, n1: int) -> np.ndarray:
    """Map raw census rows (columns = sizes 1..q) to the standardized vectors
    V_j = (U_j - c_j n1/2) / sqrt(n1/2) for j = 2..q."""
    counts = np.asarray(counts)
    if counts.ndim != 2 or counts.shape[1] != law.q:
        raise ValueError("counts must be (N, q) with q = %d" % law.q)
    if n1 < 2 or n1 % 2:
        raise ValueError("standardization needs an even n1 >= 2")
    k = n1 / 2.0
    return (counts[:, 1:] - law.mean_coeffs * k) / math.sqrt(k)


def moment_report(v: np.ndarray, n1: int, n2: int) -> MomentReport:
    v = np.asarray(v, dtype=float)
    n = len(v)
    if n < 2:
        raise ValueError("need at least 2 samples for the moments")
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
    (absolute comparison: the limit covariance passes through 0)."""
    if report.n_samples < 1000:
        raise ValueError("need at least 1000 samples for the moment check")
    mean_dev = np.abs(report.empirical_mean) / report.standard_errors
    cov_dev = np.abs(report.empirical_cov - law.hessian)
    passed = bool(np.all(mean_dev <= tol_mean_se) and np.all(cov_dev <= tol_cov_abs))
    return Verdict(
        passed,
        "gaussian-moments",
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
        "poisson-loops",
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
    observed outcomes outside the support land in the pooled cell."""
    cells = []
    pooled_exp = 0.0
    pooled_obs = 0.0
    support = set()
    for key, p in probs.items():
        support.add(key)
        exp = n_samples * float(p)
        obs = float(observed.get(key, 0))
        if exp >= MIN_EXPECTED:
            cells.append((obs, exp))
        else:
            pooled_exp += exp
            pooled_obs += obs
    for key, count in observed.items():
        if key not in support:
            pooled_obs += count
    if pooled_exp > 0 or pooled_obs > 0:
        cells.append((pooled_obs, max(pooled_exp, 1e-12)))
    if len(cells) < 2:
        stat = 0.0 if cells and abs(cells[0][0] - cells[0][1]) < 1e-9 else float("inf")
        p_value = 1.0 if stat == 0.0 else 0.0
    else:
        stat = sum((o - e) ** 2 / e for o, e in cells)
        from scipy.special import chdtrc  # scipy.stats.chi2.sf, without loading scipy.stats

        p_value = float(chdtrc(len(cells) - 1, stat))
    return Verdict(
        bool(p_value >= significance),
        "chi-square-gof",
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
    return Verdict(min_eig >= -PSD_TOL, "psd", {"min_eigenvalue": min_eig, "tol": PSD_TOL})
