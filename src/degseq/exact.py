"""Exact census of graphs with all degrees 1 or 2.

Every such graph is a disjoint union of paths (two degree-1 endpoints) and
cycles (all degree 2).  The closed-form pipeline multiplies the cycle-set
series with the path series raised to the number of paths and extracts one z
coefficient; the brute-force enumerations below rebuild the same census
polynomials from scratch and serve as independent oracles.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import EmptyClassError
from .series import (
    MPoly,
    as_fraction,
    build_cycle_series,
    build_path_series,
    check_model,
    product_coefficient,
)
from .unionfind import UnionFind

SIMPLE_ENUM_LIMIT = 10  # brute_force_simple bound on n1 + n2
# graph_gf bound on n1 + n2.  Its time grows about as n2^3 and steeply in q:
# on a 2-vCPU host q = 2 takes 7.1 s at (n1, n2) = (4, 796) and 25 s at
# (400, 400), and q = 4 already takes 5.2 s at (4, 200).
EXACT_SIZE_LIMIT = 800
# graph_gf_value bound on n1 + n2.  Its time grows about as n2^2: on a 2-vCPU
# host q = 2 takes 1.3 s at (4, 20000) and 2.6 s at (4, 29996).
VALUE_SIZE_LIMIT = 30000
MATCHING_ENUM_LIMIT = 6  # brute_force_multigraph bound on edge count m


@dataclass(frozen=True)
class GraphClassParams:
    """Instance descriptor: n1 degree-1 vertices, n2 degree-2 vertices,
    components of size up to q are tracked, model selects simple graphs or
    configuration-model multigraphs.

    Odd n1 is representable (the class is then empty and census operations
    return the zero polynomial); sampling and asymptotic routines reject it.
    """

    n1: int
    n2: int
    q: int = 2
    model: str = "simple"

    def __post_init__(self):
        # TypeError unless an integer; numpy integers are stored as Python
        # ints, which the exact kernel's packed keys need (no wraparound)
        for name in ("n1", "n2", "q"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if self.n1 < 0 or self.n2 < 0:
            raise ValueError("vertex counts must be nonnegative")
        if self.q < 2:
            raise ValueError("q must be >= 2")
        check_model(self.model)

    @classmethod
    def from_alpha(cls, alpha: float, n1: int, q: int = 2, model: str = "simple"):
        """Build the instance with n2 = floor(alpha * n1 / 2)."""
        if not 0 < alpha < math.inf:
            raise ValueError("alpha must be positive and finite")
        try:
            n2 = math.floor(alpha * n1 / 2)
        except OverflowError as exc:
            raise ValueError("alpha * n1 / 2 overflows a float") from exc
        return cls(n1=n1, n2=n2, q=q, model=model)

    @property
    def alpha(self) -> float:
        """Effective degree-2 to path ratio 2*n2/n1 of this instance."""
        if self.n1 == 0:
            raise ValueError("alpha is undefined for n1 = 0")
        return 2.0 * self.n2 / self.n1


@dataclass(frozen=True)
class CensusPolynomial:
    """Joint census polynomial: the coefficient of u_1^{m_1}..u_q^{m_q} is the
    number of graphs (simple) or the total pairing mass (multigraph) with m_j
    components of size j."""

    poly: MPoly
    total: Fraction

    @property
    def is_empty(self) -> bool:
        return self.total == 0

    @property
    def q(self) -> int:
        return self.poly.nvars

    def pmf(self) -> dict:
        """Joint law of the census vector, keyed by sorted exponent tuple;
        values sum to 1.  Raises EmptyClassError for the zero polynomial."""
        if self.is_empty:
            raise EmptyClassError("empty class: the census polynomial is zero")
        return {exps: coeff / self.total for exps, coeff in sorted(self.poly.terms.items())}


def v_factor(n1: int, n2: int) -> Fraction:
    """Relabelling prefactor (n1+n2)! / (2^{n1/2} (n1/2)!) turning the
    size-indexed series coefficient into a labelled count."""
    if n1 < 0 or n2 < 0:
        raise ValueError("vertex counts must be nonnegative")
    if n1 % 2:
        raise ValueError("n1 must be even")
    return Fraction(math.factorial(n1 + n2), (1 << (n1 // 2)) * math.factorial(n1 // 2))


def graph_gf(params: GraphClassParams) -> CensusPolynomial:
    """Exact joint census polynomial of the component counts:
    [z^{n2}] exp(Cyc(z)) * Path(z)^{n1/2} times the relabelling prefactor,
    convolved on integer numerators by ``series.product_coefficient``.

    Odd n1 yields the zero polynomial (the class is empty: every path uses two
    degree-1 endpoints).  Raises ValueError, before any series is built,
    when n1 + n2 exceeds EXACT_SIZE_LIMIT.
    """
    if params.n1 + params.n2 > EXACT_SIZE_LIMIT:
        raise ValueError("graph_gf bound n1+n2 <= %d exceeded" % EXACT_SIZE_LIMIT)
    q, n2 = params.q, params.n2
    if params.n1 % 2:
        return CensusPolynomial(MPoly.zero(q), Fraction(0))
    cyc, path = build_cycle_series(q, n2, params.model), build_path_series(q, n2)
    poly = product_coefficient(cyc, path, params.n1 // 2, v_factor(params.n1, n2))
    return CensusPolynomial(poly, poly.coefficient_sum())


def _times_one_minus_z(coeffs):
    """(1 - z) times a series whose coefficients stay at coeffs[-1] beyond the
    list: a polynomial of len(coeffs) terms."""
    return [coeffs[0]] + [b - a for a, b in zip(coeffs, coeffs[1:])]


def graph_gf_value(params: GraphClassParams, u_values=None) -> Fraction:
    """Exact census polynomial evaluated at given rational weights.

    With scalar weights F = exp(Cyc) * Path^k (k = n1/2) is D-finite: both
    N = (1-z) Path and C = 2 (1-z) Cyc' are polynomials, so F solves
    Q F' = R F with Q = 2 (1-z) N and R = N C + 2k ((1-z) N' + N), and its
    coefficients follow a first-order recurrence of about 3q products each
    (Stanley 1980; Flajolet-Sedgewick, Analytic Combinatorics, App. B.4).
    When N = z^v * N~ (u_2 = 0), the recurrence runs on N~ and yields the
    coefficients of F / z^{vk}.  ``u_values`` lists u_1..u_q; the default is
    all ones, i.e. the class size (simple) or total pairing mass (multigraph).

    The recurrence runs on integers: with Q^ = L Q and R^ = L R (L the lcm of
    their denominators), f_m = f_0 g_m / (m! Q^_0^m) where
    g_{m+1} = sum_i R^_i m!/(m-i)! Q^_0^i g_{m-i}
              - sum_{1<=i<=m} Q^_i m!/(m-i)! Q^_0^{i-1} g_{m+1-i},
    and only the coefficient read out becomes a Fraction.  Raises ValueError,
    before any work, when n1 + n2 exceeds VALUE_SIZE_LIMIT.
    """
    if params.n1 + params.n2 > VALUE_SIZE_LIMIT:
        raise ValueError("graph_gf_value bound n1+n2 <= %d exceeded" % VALUE_SIZE_LIMIT)
    if params.n1 % 2:
        return Fraction(0)
    q, k = params.q, params.n1 // 2
    u = [Fraction(1)] * q if u_values is None else [as_fraction(x) for x in u_values]
    if len(u) != q:
        raise ValueError("need %d weights u_1..u_%d, got %d" % (q, q, len(u)))
    w = u + [Fraction(1)]  # w[j - 1] = u_j, and 1 for every size j > q
    n = _times_one_minus_z(w[1:])  # Path_i = u_{i+2}
    v = next(i for i, x in enumerate(n) if x)  # Path is 1 from z^{q-1} on: N != 0
    target = params.n2 - v * k
    if target < 0:
        return Fraction(0)
    n = n[v:] + [Fraction(0)]
    first = 3 if params.model == "simple" else 1
    # [z^i] 2 Cyc' = u_{i+1} for cycle sizes i + 1 >= first
    c = _times_one_minus_z([Fraction(0)] * (first - 1) + w[first - 1 :])
    r = [Fraction(0)] * (len(n) + len(c))
    for i in range(len(n) - 1):  # n[-1] = 0
        r[i] += 2 * k * ((1 - i) * n[i] + (i + 1) * n[i + 1])
        for j, cj in enumerate(c):
            r[i + j] += n[i] * cj
    qs = [2 * x for x in _times_one_minus_z(n)]
    scale = math.lcm(*(x.denominator for x in r + qs))
    r_hat = [int(x * scale) for x in r]
    q_hat = [int(x * scale) for x in qs]
    q0 = q_hat[0]
    # (i, R^_i Q^_0^i) and (i, Q^_i Q^_0^{i-1}): the m-free factors of each sum
    r_terms = [(i, x * q0**i) for i, x in enumerate(r_hat) if x]
    q_terms = [(i, x * q0 ** (i - 1)) for i, x in enumerate(q_hat) if x and i]
    g = [1]
    for m in range(target):
        acc = sum(ri * math.perm(m, i) * g[m - i] for i, ri in r_terms if i <= m)
        acc -= sum(qi * math.perm(m, i) * g[m + 1 - i] for i, qi in q_terms if i <= m)
        g.append(acc)
    f0 = n[0] ** k
    vf = v_factor(params.n1, params.n2)
    num = f0.numerator * vf.numerator * g[target]
    den = f0.denominator * vf.denominator * math.factorial(target) * q0**target
    return Fraction(num, den)


def joint_pmf(params: GraphClassParams) -> dict:
    """Exact joint law of the census vector (m_1..m_q) under the uniform
    (simple) or pairing-mass (multigraph) distribution; values sum to 1."""
    return graph_gf(params).pmf()


def class_is_empty(n1: int, n2: int, model: str) -> bool:
    """Closed-form emptiness test.

    Paths pair up degree-1 vertices, so odd n1 is always empty.  With n1 = 0
    everything must sit in cycles: simple cycles need >= 3 vertices, hence
    (0,1) and (0,2) are empty for simple graphs, while multigraphs cover them
    with a loop / double edge.  Any even n1 >= 2 is realizable by stuffing all
    degree-2 vertices into one path.
    """
    check_model(model)
    if n1 < 0 or n2 < 0:
        raise ValueError("vertex counts must be nonnegative")
    if n1 % 2:
        return True
    if model == "simple" and n1 == 0 and n2 in (1, 2):
        return True
    return False


def census_exponents(sizes, q: int) -> tuple:
    """Exponent tuple (m_1..m_q) of a component-size multiset; sizes above q
    are unmarked and contribute nothing."""
    exps = [0] * q
    for s in sizes:
        if s <= q:
            exps[s - 1] += 1
    return tuple(exps)


def _degree12_graphs(n1: int, n2: int):
    """Yield the edge list of every simple graph on vertices 0..n1+n2-1 whose
    degree multiset has exactly n1 ones and n2 twos.

    Backtracking over vertices in order: when vertex v is reached, its edges
    to earlier vertices are fixed, so choosing its final degree and its
    higher-indexed neighbours enumerates each graph exactly once.
    """
    n = n1 + n2
    deg = [0] * n
    edges = []

    def rec(v, c1, c2):
        if v == n:
            if c1 == n1 and c2 == n2:
                yield list(edges)
            return
        d = deg[v]
        eligible = [w for w in range(v + 1, n) if deg[w] < 2]
        forced_twos = (n - v - 1) - len(eligible)
        for f in (1, 2):
            if f < max(d, 1):
                continue
            nc1 = c1 + (f == 1)
            nc2 = c2 + (f == 2)
            if nc1 > n1 or nc2 > n2:
                continue
            if n2 - nc2 < forced_twos:
                continue
            need = f - d
            if need > len(eligible):
                continue
            for combo in combinations(eligible, need):
                for w in combo:
                    deg[w] += 1
                    edges.append((v, w))
                yield from rec(v + 1, nc1, nc2)
                for w in combo:
                    deg[w] -= 1
                    edges.pop()

    yield from rec(0, 0, 0)


def brute_force_simple(params: GraphClassParams) -> CensusPolynomial:
    """Oracle for the simple-graph census: enumerate every admissible graph by
    direct adjacency search and tally census monomials."""
    n1, n2, q = params.n1, params.n2, params.q
    if n1 + n2 > SIMPLE_ENUM_LIMIT:
        raise ValueError("enumeration bound n1+n2 <= %d exceeded" % SIMPLE_ENUM_LIMIT)
    n = n1 + n2
    counts = {}
    for edges in _degree12_graphs(n1, n2):
        key = census_exponents(UnionFind(n, edges).component_sizes(), q)
        counts[key] = counts.get(key, 0) + 1
    poly = MPoly(q, {k: Fraction(v) for k, v in counts.items()})
    return CensusPolynomial(poly, poly.coefficient_sum())


def _stub_pairings(owners):
    """Yield every perfect matching of the stub list as vertex pairs."""
    k = len(owners)
    used = [False] * k
    pairs = []

    def rec(count):
        if count == k:
            yield list(pairs)
            return
        i = 0
        while used[i]:
            i += 1
        used[i] = True
        for j in range(i + 1, k):
            if used[j]:
                continue
            used[j] = True
            pairs.append((owners[i], owners[j]))
            yield from rec(count + 2)
            pairs.pop()
            used[j] = False
        used[i] = False

    if k % 2 == 0:
        yield from rec(0)


def brute_force_multigraph(params: GraphClassParams) -> CensusPolynomial:
    """Oracle for the multigraph census: enumerate every pairing of the stub
    multiset and weight each census monomial by C(n1+n2, n1) * 2^{-n2}.

    Under uniform pairings a multigraph occurs with multiplicity proportional
    to its compensation factor; each degree-2 vertex owns two interchangeable
    stubs, so per pairing the compensation-weighted mass is 2^{-n2}.  The
    enumeration fixes which vertices carry one stub, while the census
    polynomial sums over all placements of the degree-1 labels; relabelling
    preserves the census, so every placement contributes the same mass and a
    single binomial factor accounts for them.
    """
    n1, n2, q = params.n1, params.n2, params.q
    m = n1 // 2 + n2
    if m > MATCHING_ENUM_LIMIT:
        raise ValueError("enumeration bound m <= %d exceeded" % MATCHING_ENUM_LIMIT)
    n = n1 + n2
    owners = list(range(n1)) + [v for v in range(n1, n1 + n2) for _ in range(2)]
    weight = Fraction(math.comb(n, n1), 1 << n2)
    masses = {}
    for pairs in _stub_pairings(owners):
        key = census_exponents(UnionFind(n, pairs).component_sizes(), q)
        masses[key] = masses.get(key, 0) + 1
    poly = MPoly(q, {k: weight * v for k, v in masses.items()})
    return CensusPolynomial(poly, poly.coefficient_sum())


def census_to_json(census: CensusPolynomial) -> dict:
    """Canonical JSON form: terms sorted lexicographically by exponent tuple,
    each as {exponents, num, den}."""
    terms = [
        {"exponents": list(exps), "num": coeff.numerator, "den": coeff.denominator}
        for exps, coeff in sorted(census.poly.terms.items())
    ]
    return {
        "q": census.q,
        "total": {"num": census.total.numerator, "den": census.total.denominator},
        "polynomial": terms,
    }


# One {exponents|counts, num, den} term as json.dumps(indent=2) lays it out in a top-level list.
_TERM = '    {\n      "%s": [\n        %s\n      ],\n      "num": %s,\n      "den": %s\n    }'


def census_json_text(params: GraphClassParams, census: CensusPolynomial) -> str:
    """The ``degseq exact`` output: ``json.dumps(payload, indent=2) + "\\n"``
    of {params, q, total, polynomial (as in census_to_json), pmf (the
    {counts, num, den} rows of census.pmf())}, at a fraction of the cost: the
    indented encoder is pure Python, so the terms are laid out from a
    template.  Raises EmptyClassError for an empty class."""
    pmf = census.pmf()  # sorted by exponent tuple
    head = {
        "params": {"n1": params.n1, "n2": params.n2, "q": params.q, "model": params.model},
        "q": census.q,
        "total": {"num": census.total.numerator, "den": census.total.denominator},
    }
    polynomial = ((e, census.poly.terms[e]) for e in pmf)
    lists = []
    for name, terms in (("exponents", polynomial), ("counts", pmf.items())):
        rows = (_TERM % (name, ",\n        ".join(map(str, e)), c.numerator, c.denominator)
                for e, c in terms)
        lists.append(",\n".join(rows))
    return '%s,\n  "polynomial": [\n%s\n  ],\n  "pmf": [\n%s\n  ]\n}\n' % (
        json.dumps(head, indent=2)[:-2], *lists)  # head without its closing "\n}"

