"""Exact census of graphs with all degrees 1 or 2.

Every such graph is a disjoint union of paths (two degree-1 endpoints) and
cycles (all degree 2).  The closed-form pipeline multiplies the cycle-set
series with the path series raised to the number of paths and extracts one z
coefficient; the brute-force enumerations below rebuild the same census
polynomials from scratch and serve as independent oracles.
"""

from __future__ import annotations

import math
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
)
from .unionfind import UnionFind

SIMPLE_ENUM_LIMIT = 10  # brute_force_simple bound on n1 + n2
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
        if self.n1 < 0 or self.n2 < 0:
            raise ValueError("vertex counts must be nonnegative")
        if self.q < 2:
            raise ValueError("q must be >= 2")
        check_model(self.model)

    @classmethod
    def from_alpha(cls, alpha: float, n1: int, q: int = 2, model: str = "simple"):
        """Build the instance with n2 = floor(alpha * n1 / 2)."""
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        return cls(n1=n1, n2=int(math.floor(alpha * n1 / 2)), q=q, model=model)

    @property
    def alpha(self) -> float:
        """Effective degree-2 to path ratio 2*n2/n1 of this instance."""
        if self.n1 == 0:
            raise ValueError("alpha is undefined for n1 = 0")
        return 2.0 * self.n2 / self.n1

    @property
    def n_vertices(self) -> int:
        return self.n1 + self.n2

    @property
    def n_edges(self) -> int:
        return self.n1 // 2 + self.n2


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

    def evaluate(self, u_values) -> Fraction:
        return self.poly.evaluate([as_fraction(v) for v in u_values])

    def pmf(self) -> dict:
        """Joint law of the census vector, keyed by sorted exponent tuple;
        values sum to 1.  Raises EmptyClassError for the zero polynomial."""
        if self.is_empty:
            raise EmptyClassError("the census polynomial is zero: the class is empty")
        return {exps: coeff / self.total for exps, coeff in sorted(self.poly.terms.items())}


def v_factor(n1: int, n2: int) -> Fraction:
    """Relabelling prefactor (n1+n2)! / (2^{n1/2} (n1/2)!) turning the
    size-indexed series coefficient into a labelled count."""
    if n1 % 2:
        raise ValueError("n1 must be even")
    return Fraction(math.factorial(n1 + n2), (1 << (n1 // 2)) * math.factorial(n1 // 2))


def _census_coefficient(params: GraphClassParams, u_values=None) -> MPoly:
    """[z^{n2}] exp(Cyc(z)) * Path(z)^{n1/2} times the relabelling prefactor,
    summed as E_i * P_{n2-i} over i: O(n2) products instead of the full
    series product."""
    order = params.n2
    path = build_path_series(params.q, order, u_values)
    cyc = build_cycle_series(params.q, order, params.model, u_values)
    e, p = cyc.exp().coeffs, (path ** (params.n1 // 2)).coeffs
    total = sum((e[i] * p[order - i] for i in range(order + 1)), MPoly.zero(path.nvars))
    return total * v_factor(params.n1, params.n2)


def graph_gf(params: GraphClassParams) -> CensusPolynomial:
    """Exact joint census polynomial of the component counts.

    Odd n1 yields the zero polynomial (the class is empty: every path uses two
    degree-1 endpoints).
    """
    if params.n1 % 2:
        return CensusPolynomial(MPoly.zero(params.q), Fraction(0))
    poly = _census_coefficient(params)
    return CensusPolynomial(poly, poly.coefficient_sum())


def graph_gf_value(params: GraphClassParams, u_values=None) -> Fraction:
    """Exact census polynomial evaluated at given rational weights.

    Substitutes the weights before any series arithmetic, so large instances
    stay cheap (scalar coefficients instead of multivariate polynomials).
    ``u_values`` lists u_1..u_q; the default is all ones, i.e. the class size
    (simple) or total pairing mass (multigraph).
    """
    if params.n1 % 2:
        return Fraction(0)
    u = [1] * params.q if u_values is None else u_values
    return _census_coefficient(params, u).constant_term()


def joint_pmf(params: GraphClassParams) -> dict:
    """Exact joint law of the census vector (m_1..m_q) under the uniform
    (simple) or pairing-mass (multigraph) distribution; values sum to 1."""
    gf = graph_gf(params)
    if gf.is_empty:
        raise EmptyClassError(
            "no graphs with n1=%d, n2=%d in %s model" % (params.n1, params.n2, params.model)
        )
    return gf.pmf()


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


def class_is_empty(n1: int, n2: int, model: str) -> bool:
    """Closed-form emptiness test.

    Paths pair up degree-1 vertices, so odd n1 is always empty.  With n1 = 0
    everything must sit in cycles: simple cycles need >= 3 vertices, hence
    (0,1) and (0,2) are empty for simple graphs, while multigraphs cover them
    with a loop / double edge.  Any even n1 >= 2 is realizable by stuffing all
    degree-2 vertices into one path.
    """
    check_model(model)
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


def census_from_json(obj: dict) -> CensusPolynomial:
    q = obj["q"]
    terms = {
        tuple(t["exponents"]): Fraction(t["num"], t["den"]) for t in obj["polynomial"]
    }
    poly = MPoly(q, terms)
    total = Fraction(obj["total"]["num"], obj["total"]["den"])
    if total != poly.coefficient_sum():
        raise ValueError("total does not match polynomial mass")
    return CensusPolynomial(poly, total)
