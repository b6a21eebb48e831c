"""Exact arithmetic: multivariate polynomials in the component-marking
weights u_1..u_q over the rationals (``MPoly``, the census polynomial's type)
and truncated power series in z with MPoly coefficients.  ``exact.graph_gf``
expands the census in closed form; the cycle and path series and the series
operations ``*``, ``**`` and ``exp`` here are the plain reference it is
checked against: tuple-keyed Fraction terms, a schoolbook product, and the
O(order^2) recurrences for ``exp`` and ``**``.  The model table, the q check
and the weight conventions live in ``exact``.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .exact import as_fraction, check_model, check_q

class MPoly:
    """Sparse polynomial in u_1..u_q with Fraction coefficients.

    ``terms`` maps exponent tuples of length ``nvars`` to nonzero Fractions;
    zero-coefficient terms are never stored.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                coeff = as_fraction(coeff)
                if coeff:
                    exps = tuple(exps)
                    if len(exps) != nvars:
                        raise ValueError(
                            "exponent tuple %r does not have %d entries" % (exps, nvars)
                        )
                    clean[exps] = coeff
        self.terms = clean

    @classmethod
    def zero(cls, nvars: int) -> "MPoly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value) -> "MPoly":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def one(cls, nvars: int) -> "MPoly":
        return cls.constant(nvars, 1)

    @classmethod
    def variable(cls, nvars: int, j: int) -> "MPoly":
        """The weight u_j as a polynomial (j is 1-based)."""
        if not 1 <= j <= nvars:
            raise ValueError("variable index %d outside 1..%d" % (j, nvars))
        exps = tuple(1 if i == j - 1 else 0 for i in range(nvars))
        return cls(nvars, {exps: 1})

    def is_zero(self) -> bool:
        return not self.terms

    def _check_compatible(self, other: "MPoly"):
        if self.nvars != other.nvars:
            raise ValueError("variable-count mismatch: %d vs %d" % (self.nvars, other.nvars))

    def __eq__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    @classmethod
    def _of(cls, nvars: int, terms: dict) -> "MPoly":
        """Wrap a term dict of nonzero coefficients keyed by length-nvars
        tuples, without checking or copying it.  Int coefficients are
        allowed; a product with a monomial turns them into Fractions."""
        result = cls.__new__(cls)
        result.nvars = nvars
        result.terms = terms
        return result

    def __mul__(self, other):
        if isinstance(other, MPoly):
            self._check_compatible(other)
            if len(other.terms) == 1:
                # times c u^s: shift each exponent tuple, one gcd a term
                ((s, c),) = other.terms.items()
                n, d = c.numerator, c.denominator
                return MPoly._of(self.nvars, {
                    tuple(map(operator.add, e, s)): Fraction(x.numerator * n, x.denominator * d)
                    for e, x in self.terms.items()
                })
            out = {}
            _add_product(out, self.terms, other.terms)
            return MPoly(self.nvars, out)
        scalar = as_fraction(other)
        if not scalar:
            return MPoly.zero(self.nvars)
        return MPoly._of(self.nvars, {e: c * scalar for e, c in self.terms.items()})

    def __repr__(self):
        return "MPoly(%d, %r)" % (self.nvars, dict(sorted(self.terms.items())))


class TruncatedSeries:
    """Power series in z truncated at a fixed order; coefficient of z^k lives
    at ``coeffs[k]`` as an :class:`MPoly`.

    The package reads only ``coeffs``, ``order`` and ``nvars``; the
    operations (``*``, ``**``, ``exp``) never read or write beyond the
    truncation order, and mixed operands must share both the order and the
    variable count.
    """

    __slots__ = ("order", "nvars", "coeffs")

    def __init__(self, order: int, nvars: int, coeffs):
        if order < 0:
            raise ValueError("order must be >= 0")
        coeffs = list(coeffs)
        if len(coeffs) != order + 1:
            raise ValueError("need %d coefficients, got %d" % (order + 1, len(coeffs)))
        for c in coeffs:
            if c.nvars != nvars:
                raise ValueError("coefficient variable count mismatch")
        self.order = order
        self.nvars = nvars
        self.coeffs = coeffs

    def _check_compatible(self, other: "TruncatedSeries"):
        if self.order != other.order:
            raise ValueError("order mismatch: %d vs %d" % (self.order, other.order))
        if self.nvars != other.nvars:
            raise ValueError("variable-count mismatch: %d vs %d" % (self.nvars, other.nvars))

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.order == other.order
            and self.nvars == other.nvars
            and self.coeffs == other.coeffs
        )

    def __mul__(self, other):
        """Schoolbook product: c_m = sum_i a_i b_{m-i}."""
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        out = [{} for _ in self.coeffs]
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs[: self.order + 1 - i]):
                _add_product(out[i + j], a.terms, b.terms)
        return self._from_terms(out)

    def __pow__(self, exponent: int):
        """Power by J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7):
        m a_0 b_m = sum_{j=1..m} ((exponent + 1) j - m) a_j b_{m-j}, O(order^2)
        products for any exponent.  The constant coefficient a_0 must be a
        single nonzero term, so dividing by it shifts exponents."""
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a natural number")
        if len(self.coeffs[0].terms) != 1:
            raise ValueError("the constant coefficient must be a single nonzero term")
        ((lead, c0),) = self.coeffs[0].terms.items()
        inverse = {tuple(-e for e in lead): 1 / c0}
        b = [{tuple(exponent * e for e in lead): c0**exponent}]
        for m in range(1, self.order + 1):
            acc, bm = {}, {}
            for j in range(1, m + 1):
                _add_product(acc, self.coeffs[j].terms, b[m - j], (exponent + 1) * j - m)
            _add_product(bm, acc, inverse, Fraction(1, m))
            b.append(bm)
        return self._from_terms(b)

    def exp(self) -> "TruncatedSeries":
        """exp of a series with zero constant term: (exp a)' = a' exp a gives
        m b_m = sum_{j=1..m} j a_j b_{m-j}."""
        if not self.coeffs[0].is_zero():
            raise ValueError("exp requires a zero constant term")
        b = [{(0,) * self.nvars: Fraction(1)}]
        for m in range(1, self.order + 1):
            acc = {}
            for j in range(1, m + 1):
                _add_product(acc, self.coeffs[j].terms, b[m - j], Fraction(j, m))
            b.append(acc)
        return self._from_terms(b)

    def _from_terms(self, term_dicts):
        """The series of this order and variable count with these z^m term
        dicts (zero coefficients dropped)."""
        return TruncatedSeries(self.order, self.nvars, [MPoly(self.nvars, t) for t in term_dicts])

    def __repr__(self):
        return "TruncatedSeries(%d, %d, %r)" % (self.order, self.nvars, self.coeffs)


def _add_product(acc, a, b, factor=1):
    """acc += factor * a * b for tuple-keyed term dicts."""
    for e1, c1 in a.items():
        c1 *= factor
        for e2, c2 in b.items():
            key = tuple(map(operator.add, e1, e2))
            acc[key] = acc.get(key, 0) + c1 * c2


def build_path_series(q: int, order: int) -> TruncatedSeries:
    """Series of path components, z marking interior (degree-2) vertices.

    A path with k interior vertices is a component of size k+2, so the z^k
    coefficient is u_{k+2} for k <= q-2 and 1 beyond (unmarked sizes).
    """
    q = check_q(q)
    coeffs = []
    for k in range(order + 1):
        size = k + 2
        coeffs.append(MPoly.variable(q, size) if size <= q else MPoly.one(q))
    return TruncatedSeries(order, q, coeffs)


def build_cycle_series(q: int, order: int, model: str = "simple") -> TruncatedSeries:
    """Series of cycle components, z marking the (degree-2) vertices: the z^j
    coefficient is u_j/(2j) for j <= q and 1/(2j) beyond, from the model's
    smallest cycle size on, and 0 below it.  In the multigraph model loops
    (size 1) and double edges (size 2) carry their pairing masses.
    """
    q = check_q(q)
    first = check_model(model)
    coeffs = [MPoly.zero(q)]
    for j in range(1, order + 1):
        if j < first:
            coeffs.append(MPoly.zero(q))
            continue
        half = Fraction(1, 2 * j)
        if j <= q:
            coeffs.append(MPoly.variable(q, j) * half)
        else:
            coeffs.append(MPoly.constant(q, half))
    return TruncatedSeries(order, q, coeffs)
