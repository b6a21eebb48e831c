"""Exact arithmetic kernel: truncated power series in z whose coefficients are
multivariate polynomials in the component-marking weights u_1..u_q over the
rationals.  The package builds the cycle and path series and extracts one
coefficient of exp(Cyc) * Path^k (``product_coefficient``); the series
operations ``*``, ``**`` and ``exp`` are the references it is checked against.

Conventions used throughout the package:

* weight vectors have length q and are indexed by component size, so slot
  ``j - 1`` holds the weight u_j on components of size j; u_1 (slot 0) is only
  meaningful for multigraphs and stays unused for simple graphs;
* all coefficients are exact rationals and nothing ever passes through
  floating point: the recurrences run on Python ``int`` numerators over a
  known common scale (Miller's b_m is b_0 u^shift g_m / (m! D^m) with g_m
  integer), and each output term becomes one ``fractions.Fraction`` at the
  end, in the product with the monomial c u^shift (``MPoly * MPoly`` with a
  one-term right side: exponent tuples shifted, one gcd a term), so the
  recurrences reduce no gcd per product or sum;
* inside products and recurrences a monomial is one ``int`` key, its
  exponents as balanced base-B digits (Kronecker substitution), so
  multiplying monomials adds keys; B = 2 * bound + 1 covers every exponent
  a product can reach, negative ones included, and keys are unpacked only
  into the exponent tuples of the resulting ``MPoly`` terms.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

# The one fact that tells the models apart: simple graphs have cycles of size
# >= 3 only, multigraphs also loops (size 1) and double edges (size 2).
SMALLEST_CYCLE = {"simple": 3, "multigraph": 1}
MODELS = tuple(SMALLEST_CYCLE)


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


def check_model(model: str) -> int:
    """The model's smallest cycle size; ValueError for an unknown model."""
    if model not in MODELS:
        raise ValueError("model must be one of %s, got %r" % (MODELS, model))
    return SMALLEST_CYCLE[model]


def check_q(q) -> int:
    """q as a Python int (TypeError unless an integer); ValueError below 2."""
    q = operator.index(q)
    if q < 2:
        raise ValueError("q must be >= 2")
    return q


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

    def numerators(self):
        """(L, {exps: a}) with L the lcm of the coefficient denominators and
        a = L * coeff an int for every term."""
        den = math.lcm(*(c.denominator for c in self.terms.values()))
        return den, {e: c.numerator * (den // c.denominator) for e, c in self.terms.items()}

    def coefficient_sum(self) -> Fraction:
        """Value of the polynomial with every variable set to 1, summed over
        the common denominator: one Fraction, not one per term."""
        den, nums = self.numerators()
        return Fraction(sum(nums.values()), den)

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
            (out,) = _product([self.terms], [other.terms], self.nvars)
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
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        out = _product([c.terms for c in self.coeffs], [c.terms for c in other.coeffs], self.nvars)
        return TruncatedSeries(self.order, self.nvars, [MPoly(self.nvars, t) for t in out])

    def __pow__(self, exponent: int):
        """Power by J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7):
        O(order^2) products for any exponent.  The constant coefficient must
        be a single nonzero term."""
        base = _miller_base(self)
        scale, b0, shift, g = _power_numerators(self, exponent, base)
        return self._from_numerators(g, scale, b0, shift, base)

    def exp(self) -> "TruncatedSeries":
        """exp of a series with zero constant term: (exp a)' = a' exp a gives
        m b_m = sum_j j a_j b_{m-j}."""
        base = _miller_base(self)
        scale, g = _exp_numerators(self, base)
        return self._from_numerators(g, scale, Fraction(1), (0,) * self.nvars, base)

    def _from_numerators(self, g, scale, b0, shift, base):
        """The series b_m = b0 * u^shift * g_m / (m! * scale^m), g_m keyed in
        base ``base``: one Fraction per term."""
        coeffs = []
        c = b0
        for m, gm in enumerate(g):
            gm = MPoly._of(self.nvars, _unpacked(gm, base, self.nvars))
            coeffs.append(gm * MPoly(self.nvars, {shift: c}))
            c /= (m + 1) * scale
        return TruncatedSeries(self.order, self.nvars, coeffs)

    def __repr__(self):
        return "TruncatedSeries(%d, %d, %r)" % (self.order, self.nvars, self.coeffs)


def _pack(exps, base):
    """The exponent tuple as balanced base-``base`` digits, u_1's lowest: keys
    add as their tuples do while every entry stays within +-(base // 2)."""
    key = 0
    for e in reversed(exps):
        key = key * base + e
    return key


def _columns(keys, base, nvars, variables=None):
    """The exponents of the packed keys, one list per variable index in
    ``variables`` (default all of u_1..u_nvars, 0-based): adding ``half`` to
    every digit leaves plain base-``base`` digits to read off."""
    variables = range(nvars) if variables is None else variables
    if not variables:
        return []
    half = base // 2
    offset = _pack((half,) * nvars, base)
    keys = [key + offset for key in keys]
    return [[key // p % base - half for key in keys] for p in (base**i for i in variables)]


def _unpacked(terms, base, nvars):
    """The term dict with its packed keys turned back into exponent tuples."""
    exps = zip(*_columns(terms, base, nvars)) if nvars else [()] * len(terms)
    return dict(zip(exps, terms.values()))


def _max_exponent(term_dicts):
    """Largest |exponent| in the tuple-keyed term dicts (0 if there is none)."""
    return max((max(map(abs, e), default=0) for terms in term_dicts for e in terms), default=0)


def _product(a, b, nvars):
    """Tuple-keyed term dicts of the truncated product of the series whose
    z^k coefficients are the term dicts a[k] and b[k]."""
    base = 2 * (_max_exponent(a) + _max_exponent(b)) + 1
    a, b = ([{_pack(e, base): c for e, c in t.items()} for t in x] for x in (a, b))
    out = [{} for _ in a]
    for i, ai in enumerate(a):
        for j in range(len(a) - i):
            _mul_into(out[i + j], ai, b[j])
    return [_unpacked(t, base, nvars) for t in out]


def _miller_base(*series):
    """Key base for Miller's recurrence on these series: a term sums <= order
    exponent tuples of a_j (exp) or a_j / a_0 (power), each within 2 max|e|."""
    bound = 2 * series[0].order * _max_exponent(c.terms for s in series for c in s.coeffs)
    return 2 * bound + 1


def _numerators(coeffs, base):
    """(D, A) with A_j = D * coeffs_j integer-valued and D the lcm of every
    denominator; coeffs are dicts {exps: Fraction}, A_j dicts {key: int} in
    base ``base``."""
    scale = math.lcm(*(c.denominator for a in coeffs for c in a.values()))
    return scale, [{_pack(e, base): int(c * scale) for e, c in a.items()} for a in coeffs]


def _mul_into(acc, a, b, factor=1):
    """acc += factor * a * b for term dicts {packed key: coeff}, int or Fraction."""
    for e1, c1 in a.items():
        if factor != 1:
            c1 *= factor
        for key, c in b.items():
            key += e1
            c *= c1
            if key in acc:
                acc[key] += c
            else:
                acc[key] = c


def _miller(a, scale, order, weight, shift, base):
    """g_0..g_order of the fraction-free Miller recurrence

        g_0 = 1,  g_m = sum_{j=1..m} weight(j, m) (m-1)!/(m-j)! D^{j-1} A_j g_{m-j},

    where the integer dicts A_j = a[j] encode alpha_j = A_j / D (D = scale)
    and the solution of m beta_m = sum_j weight(j, m) alpha_j beta_{m-j},
    beta_0 = 1, is beta_m = g_m / (m! D^m), all keyed in base ``base``.
    Exponents may be negative (alpha_j = a_j / a_0 shifts by the lead
    monomial), but u^shift * g_m must be a polynomial: a term left with a
    negative exponent means a_0 did not divide the sum, and raises
    ValueError.  Only the variables some A_j term or the shift makes
    negative are decoded for that check; a g_m key sums A_j keys, so no
    other variable can fire it (the exp recurrence decodes none, the path
    power only u_2)."""
    nvars = len(shift)
    lows = [min(col, default=0) for col in _columns([key for aj in a for key in aj], base, nvars)]
    checked = [i for i in range(nvars) if lows[i] < 0 or shift[i] < 0]
    shifts = [shift[i] for i in checked]
    g = [{0: 1}]
    for m in range(1, order + 1):
        acc = {}
        falling = 1  # (m-1)!/(m-j)! * D^{j-1}
        for j in range(1, m + 1):
            w = weight(j, m) * falling
            if w and a[j]:
                _mul_into(acc, a[j], g[m - j], w)
            falling *= (m - j) * scale
        gm = {e: c for e, c in acc.items() if c}
        for column, s in zip(_columns(gm, base, nvars, checked), shifts):
            if min(column, default=0) + s < 0:
                raise ValueError("a_0 does not divide the sum at z^%d" % m)
        g.append(gm)
    return g


def _exp_numerators(series: TruncatedSeries, base):
    """(D, g) with [z^m] exp(series) = g_m / (m! D^m): Miller's recurrence on
    alpha_j = j a_j with weight 1, D the lcm of their denominators."""
    if not series.coeffs[0].is_zero():
        raise ValueError("exp requires a zero constant term")
    alpha = [{e: j * c for e, c in a.terms.items()} for j, a in enumerate(series.coeffs)]
    scale, ints = _numerators(alpha, base)
    return scale, _miller(ints, scale, series.order, lambda j, m: 1, (0,) * series.nvars, base)


def _power_numerators(series: TruncatedSeries, exponent: int, base):
    """(D, b0, shift, g) with [z^m] series**exponent = b0 u^shift g_m / (m! D^m),
    where a_0 = c0 u^lead, b0 = c0^exponent, shift = exponent * lead: Miller's
    recurrence on alpha_j = a_j / a_0 with weight (exponent + 1) j - m."""
    if not isinstance(exponent, int) or exponent < 0:
        raise ValueError("exponent must be a natural number")
    if len(series.coeffs[0].terms) != 1:
        raise ValueError("the constant coefficient must be a single nonzero term")
    ((lead, c0),) = series.coeffs[0].terms.items()
    alpha = [
        {tuple(map(operator.sub, e, lead)): c / c0 for e, c in a.terms.items()} for a in series.coeffs
    ]
    scale, ints = _numerators(alpha, base)
    shift = tuple(e * exponent for e in lead)
    k1 = exponent + 1
    g = _miller(ints, scale, series.order, lambda j, m: k1 * j - m, shift, base)
    return scale, c0**exponent, shift, g


def product_coefficient(cyc: TruncatedSeries, path: TruncatedSeries, k: int, scale) -> MPoly:
    """scale * [z^n] exp(cyc) * path**k, n the common order, without forming
    either series.  Miller's recurrence gives [z^i] exp(cyc) = gE_i / (i! D_E^i)
    and [z^j] path**k = b0 u^shift gP_j / (j! D_P^j), so the coefficient is

        b0 u^shift sum_i C(n, i) D_E^{n-i} D_P^i gE_i gP_{n-i} / (n! (D_E D_P)^n):

    O(n) integer polynomial products on packed keys.  The integer sum is
    wrapped as an MPoly with int coefficients (zeros dropped) and multiplied
    by the monomial scale b0 u^shift / (n! (D_E D_P)^n), which forms each
    output term's one Fraction with one gcd."""
    cyc._check_compatible(path)
    n = cyc.order
    base = _miller_base(cyc, path)
    de, ge = _exp_numerators(cyc, base)
    dp, b0, shift, gp = _power_numerators(path, k, base)
    acc = {}
    for i in range(n + 1):
        _mul_into(acc, ge[i], gp[n - i], math.comb(n, i) * de ** (n - i) * dp**i)
    c = b0 * as_fraction(scale) / (math.factorial(n) * (de * dp) ** n)
    acc = MPoly._of(cyc.nvars, _unpacked({e: x for e, x in acc.items() if x}, base, cyc.nvars))
    return acc * MPoly(cyc.nvars, {shift: c})


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
