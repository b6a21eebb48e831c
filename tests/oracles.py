"""Reference computations used only by the tests."""

import math
from fractions import Fraction

from degseq.series import MPoly, TruncatedSeries


def _mul_into(acc, a, b, factor):
    """acc += factor * a * b on tuple-keyed term dicts: the oracle's own
    product, apart from the package's."""
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            acc[key] = acc.get(key, 0) + factor * c1 * c2


def numerators(poly):
    """(L, {exps: a}) with L the lcm of an MPoly's coefficient denominators
    and a = L * coeff an int for every term."""
    den = math.lcm(*(c.denominator for c in poly.terms.values()))
    return den, {e: c.numerator * (den // c.denominator) for e, c in poly.terms.items()}


def coefficient_sum(poly):
    """Value of an MPoly with every variable set to 1, summed over the common
    denominator: one Fraction, not one per term."""
    den, nums = numerators(poly)
    return Fraction(sum(nums.values()), den)


def evaluate(poly, values):
    """Value of an MPoly at a length-nvars point; exact for Fraction inputs,
    float for float inputs."""
    if len(values) != poly.nvars:
        raise ValueError("expected %d values, got %d" % (poly.nvars, len(values)))
    total = None
    for exps, coeff in poly.terms.items():
        term = coeff
        for value, e in zip(values, exps):
            if e:
                term = term * value**e
        total = term if total is None else total + term
    return Fraction(0) if total is None else total


def series_log(a):
    """log of a series with constant term 1, by the inverse recurrence of
    exp: m c_m = m a_m - sum_{k<m} k c_k a_{m-k}."""
    if a.coeffs[0] != MPoly.one(a.nvars):
        raise ValueError("log requires constant term 1")
    out = [{}]
    for m in range(1, a.order + 1):
        acc = dict(a.coeffs[m].terms)
        for k in range(1, m):
            _mul_into(acc, out[k], a.coeffs[m - k].terms, Fraction(-k, m))
        out.append(acc)
    return TruncatedSeries(a.order, a.nvars, [MPoly(a.nvars, t) for t in out])


def pmf_moments(pmf: dict):
    """Exact mean and variance vectors (index j-1 for size j) of a census PMF."""
    q = len(next(iter(pmf)))
    means = [Fraction(0)] * q
    seconds = [Fraction(0)] * q
    for exps, prob in pmf.items():
        for i, m in enumerate(exps):
            if m:
                means[i] += prob * m
                seconds[i] += prob * m * m
    variances = [s - mu * mu for s, mu in zip(seconds, means)]
    return means, variances
