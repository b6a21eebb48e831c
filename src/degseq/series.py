"""Exact arithmetic kernel: truncated power series in z whose coefficients are
multivariate polynomials in the component-marking weights u_1..u_q over the
rationals.

Conventions used throughout the package:

* weight vectors have length q and are indexed by component size, so slot
  ``j - 1`` holds the weight u_j on components of size j; u_1 (slot 0) is only
  meaningful for multigraphs and stays unused for simple graphs;
* all coefficients are ``fractions.Fraction`` — nothing ever passes through
  floating point.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, sub

MODELS = ("simple", "multigraph")


def as_fraction(value) -> Fraction:
    """Coerce an exact number to Fraction; floats are rejected to keep the
    kernel exact."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise TypeError("exact kernel does not accept floats: %r" % (value,))
    return Fraction(value)


def check_model(model: str) -> str:
    if model not in MODELS:
        raise ValueError("model must be one of %s, got %r" % (MODELS, model))
    return model


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

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def coefficient_sum(self) -> Fraction:
        """Value of the polynomial with every variable set to 1."""
        return sum(self.terms.values(), Fraction(0))

    def evaluate(self, values):
        """Evaluate at a length-nvars point; exact for Fraction inputs, float
        for float inputs."""
        if len(values) != self.nvars:
            raise ValueError("expected %d values, got %d" % (self.nvars, len(values)))
        total = None
        for exps, coeff in self.terms.items():
            term = coeff
            for value, e in zip(values, exps):
                if e:
                    term = term * value**e
            total = term if total is None else total + term
        return Fraction(0) if total is None else total

    def _check_compatible(self, other: "MPoly"):
        if self.nvars != other.nvars:
            raise ValueError("variable-count mismatch: %d vs %d" % (self.nvars, other.nvars))

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __neg__(self):
        return MPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = out.get(exps)
            if acc is None:
                out[exps] = coeff
            else:
                acc = acc + coeff
                if acc:
                    out[exps] = acc
                else:
                    del out[exps]
        result = MPoly.__new__(MPoly)
        result.nvars = self.nvars
        result.terms = out
        return result

    def __sub__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, MPoly):
            self._check_compatible(other)
            out = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    key = tuple(a + b for a, b in zip(e1, e2))
                    acc = out.get(key)
                    out[key] = c1 * c2 if acc is None else acc + c1 * c2
            return MPoly(self.nvars, out)
        scalar = as_fraction(other)
        if not scalar:
            return MPoly.zero(self.nvars)
        result = MPoly.__new__(MPoly)
        result.nvars = self.nvars
        result.terms = {e: c * scalar for e, c in self.terms.items()}
        return result

    def __rmul__(self, other):
        return self.__mul__(other)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps, coeff in sorted(self.terms.items()):
            factors = []
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append("u%d" % (i + 1))
                elif e > 1:
                    factors.append("u%d^%d" % (i + 1, e))
            if coeff != 1 or not factors:
                factors.insert(0, str(coeff))
            parts.append("*".join(factors))
        return " + ".join(parts)


class TruncatedSeries:
    """Power series in z truncated at a fixed order; coefficient of z^k lives
    at ``coeffs[k]`` as an :class:`MPoly`.

    Arithmetic never reads or writes beyond the truncation order, and mixed
    operands must share both the order and the variable count.
    """

    __slots__ = ("order", "nvars", "coeffs")

    def __init__(self, order: int, nvars: int, coeffs=None):
        if order < 0:
            raise ValueError("order must be >= 0")
        self.order = order
        self.nvars = nvars
        if coeffs is None:
            self.coeffs = [MPoly.zero(nvars) for _ in range(order + 1)]
        else:
            coeffs = list(coeffs)
            if len(coeffs) != order + 1:
                raise ValueError("need %d coefficients, got %d" % (order + 1, len(coeffs)))
            for c in coeffs:
                if c.nvars != nvars:
                    raise ValueError("coefficient variable count mismatch")
            self.coeffs = coeffs

    @classmethod
    def zero(cls, order: int, nvars: int) -> "TruncatedSeries":
        return cls(order, nvars)

    @classmethod
    def one(cls, order: int, nvars: int) -> "TruncatedSeries":
        s = cls(order, nvars)
        s.coeffs[0] = MPoly.one(nvars)
        return s

    def coefficient(self, k: int) -> MPoly:
        return self.coeffs[k]

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

    def __neg__(self):
        return TruncatedSeries(self.order, self.nvars, [-c for c in self.coeffs])

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        return TruncatedSeries(
            self.order, self.nvars, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        return TruncatedSeries(
            self.order, self.nvars, [a - b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        order = self.order
        out = [MPoly.zero(self.nvars) for _ in range(order + 1)]
        for i, ci in enumerate(self.coeffs):
            if ci.is_zero():
                continue
            for j in range(order - i + 1):
                cj = other.coeffs[j]
                if not cj.is_zero():
                    out[i + j] = out[i + j] + ci * cj
        return TruncatedSeries(order, self.nvars, out)

    def __pow__(self, exponent: int):
        """Power by J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7):
        O(order^2) products for any exponent.  The constant coefficient must
        be a single nonzero term."""
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a natural number")
        if len(self.coeffs[0].terms) != 1:
            raise ValueError("the constant coefficient must be a single nonzero term")
        ((lead, c0),) = self.coeffs[0].terms.items()
        b0 = MPoly(self.nvars, {tuple(e * exponent for e in lead): c0**exponent})
        k1 = exponent + 1
        coeffs = _miller(self.coeffs, self.order, b0, lead, c0, lambda j, m: k1 * j - m)
        return TruncatedSeries(self.order, self.nvars, coeffs)

    def exp(self) -> "TruncatedSeries":
        """exp of a series with zero constant term: (exp a)' = a' exp a gives
        m b_m = sum_j j a_j b_{m-j}."""
        if not self.coeffs[0].is_zero():
            raise ValueError("exp requires a zero constant term")
        nvars = self.nvars
        coeffs = _miller(self.coeffs, self.order, MPoly.one(nvars), (0,) * nvars, 1, lambda j, m: j)
        return TruncatedSeries(self.order, nvars, coeffs)

    def __repr__(self):
        return "TruncatedSeries(order=%d, nvars=%d, [%s])" % (
            self.order,
            self.nvars,
            ", ".join(repr(c) for c in self.coeffs),
        )


def _miller(a, order, b0, lead, c0, weight):
    """b_0..b_order of m*a_0*b_m = sum_{j=1..m} weight(j, m)*a_j*b_{m-j}, where
    a_0 = c0*u^lead is one monomial: the term products of each m go into one
    dict, and dividing by a_0 is a coefficient division and an exponent shift."""
    out = [b0]
    for m in range(1, order + 1):
        acc = {}
        for j in range(1, m + 1):
            w = weight(j, m)
            for e1, c1 in a[j].terms.items():
                c1 = c1 * w
                for e2, c2 in out[m - j].terms.items():
                    key = tuple(map(add, e1, e2))
                    acc[key] = acc.get(key, 0) + c1 * c2
        scale = Fraction(1, m) / c0
        terms = {tuple(map(sub, e, lead)): c * scale for e, c in acc.items() if c}
        assert all(min(e, default=0) >= 0 for e in terms), "a_0 does not divide the sum"
        out.append(MPoly(b0.nvars, terms))
    return out


def build_path_series(q: int, order: int) -> TruncatedSeries:
    """Series of path components, z marking interior (degree-2) vertices.

    A path with k interior vertices is a component of size k+2, so the z^k
    coefficient is u_{k+2} for k <= q-2 and 1 beyond (unmarked sizes).
    """
    if q < 2:
        raise ValueError("q must be >= 2")
    coeffs = []
    for k in range(order + 1):
        size = k + 2
        coeffs.append(MPoly.variable(q, size) if size <= q else MPoly.one(q))
    return TruncatedSeries(order, q, coeffs)


def build_cycle_series(q: int, order: int, model: str = "simple") -> TruncatedSeries:
    """Series of cycle components, z marking the (degree-2) vertices.

    Simple graphs have cycles of size >= 3 only: the z^j coefficient is
    u_j/(2j) for 3 <= j <= q and 1/(2j) beyond, with the j=1,2 terms removed.
    Multigraphs additionally admit loops (size 1) and double edges (size 2)
    carrying their pairing masses, so every j >= 1 contributes and marking
    starts at j=1.
    """
    if q < 2:
        raise ValueError("q must be >= 2")
    check_model(model)
    first = 3 if model == "simple" else 1
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
