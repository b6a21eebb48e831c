"""Exact census of graphs with all degrees 1 or 2.

Every such graph is a disjoint union of paths (two degree-1 endpoints) and
cycles (all degree 2).  The census is one z coefficient of the cycle-set
series times the path series raised to the number of paths: ``graph_gf``
expands it in closed form term by term, ``graph_gf_value`` evaluates it at
rational weights by a D-finite recurrence, and the brute-force enumerations
below rebuild the same census polynomials graph by graph as independent
oracles.

Conventions used throughout the package:

* weight vectors have length q and are indexed by component size, so slot
  ``j - 1`` holds the weight u_j on components of size j; u_1 (slot 0) is only
  meaningful for multigraphs and stays unused for simple graphs;
* all coefficients are exact rationals and nothing ever passes through
  floating point.
"""

from __future__ import annotations

import json
import math
import operator
from collections import Counter
from functools import cached_property, lru_cache
from fractions import Fraction
from itertools import combinations

from .errors import DomainError, EmptyClassError

SIMPLE_ENUM_LIMIT = 10  # brute_force_simple bound on n1 + n2
# graph_gf bound on n1 + n2.  Its time follows the number of census terms,
# which grows steeply with q, and more in the multigraph model: on a 2-vCPU
# host at n1 + n2 = 800, q = 2 takes 0.09 s at (400, 400) simple and 21 s
# multigraph, q = 3 takes 4.4 s at (400, 400) and q = 4 7.7 s at (4, 796).
EXACT_SIZE_LIMIT = 800
# graph_gf_value bound on n1 + n2.  Its time grows about as n2^2: on a 2-vCPU
# host q = 2 takes 0.87 s at (4, 20000) and 2.1 s at (4, 29996).
VALUE_SIZE_LIMIT = 30000
MATCHING_ENUM_LIMIT = 6  # brute_force_multigraph bound on edge count m

# The one fact that tells the models apart: simple graphs have cycles of size
# >= 3 only, multigraphs also loops (size 1) and double edges (size 2).
SMALLEST_CYCLE = {"simple": 3, "multigraph": 1}
MODELS = tuple(SMALLEST_CYCLE)


def as_fraction(value) -> Fraction:
    """Coerce an exact number to Fraction; floats are rejected to keep the
    kernel exact."""
    if isinstance(value, Fraction):
        return value
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


class _Record:
    """Immutable record of the fields named in ``__match_args__``, set once by
    ``__init__``, with a frozen dataclass's ==, hash and repr."""

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):  # TypeError for a record with a dict field
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join("%s=%r" % pair for pair in zip(self.__match_args__, self._values()))
        return "%s(%s)" % (type(self).__qualname__, fields)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)


class GraphClassParams(_Record):
    """Instance descriptor: n1 degree-1 vertices, n2 degree-2 vertices,
    components of size up to q are tracked, model selects simple graphs or
    configuration-model multigraphs.  DomainError for an odd n1 (each path
    has two ends); the empty classes of even n1, (0,1) and (0,2) in the
    simple model, have the zero census."""

    __match_args__ = ("n1", "n2", "q", "model")

    def __init__(self, n1: int, n2: int, q: int = 2, model: str = "simple") -> None:
        # TypeError unless an integer; numpy integers are stored as Python
        # ints, since the exact kernels' integer arithmetic must not wrap around
        vars(self).update(n1=operator.index(n1), n2=operator.index(n2), q=operator.index(q),
                          model=model)
        check_counts(self.n1, self.n2)
        check_q(self.q)
        check_model(self.model)

    @classmethod
    def from_alpha(cls, alpha: float, n1: int, q: int = 2, model: str = "simple"):
        """Build the instance with n2 = floor(alpha * n1 / 2), after check_alpha(alpha)."""
        check_alpha(alpha)
        try:
            n2 = math.floor(alpha * n1 / 2)
        except OverflowError as exc:
            raise ValueError("alpha * n1 / 2 overflows a float") from exc
        return cls(n1=n1, n2=n2, q=q, model=model)

    @property
    def alpha(self) -> float:
        """Effective degree-2 to path ratio 2*n2/n1 of this instance."""
        if self.n1 == 0:
            raise DomainError("alpha is undefined for n1 = 0")
        return 2.0 * self.n2 / self.n1


def params_dict(params: GraphClassParams) -> dict:
    """{n1, n2, q, model}: the "params" entry of the JSON outputs."""
    return dict(zip(params.__match_args__, params._values()))


class CensusPolynomial(_Record):
    """Joint census polynomial in integer form: the coefficient of u^e is
    scale * counts[e], the number of graphs (simple) or the total pairing
    mass (multigraph) with e_j components of size j.  The constructor divides
    the gcd of the positive int counts into scale, so == compares polynomials;
    the zero polynomial has no counts and scale 0.  ``poly`` (an MPoly) and
    ``total`` (the coefficient sum) are built on first use."""

    __match_args__ = ("q", "counts", "scale")

    def __init__(self, q: int, counts: dict, scale: Fraction) -> None:
        content = math.gcd(*counts.values())  # 0 for the zero polynomial
        vars(self).update(q=q, counts={e: a // content for e, a in counts.items()},
                          scale=scale * content)

    @property
    def is_empty(self) -> bool:
        return not self.counts

    def nonzero(self):
        """This polynomial; EmptyClassError for the zero polynomial."""
        if self.is_empty:
            raise EmptyClassError("empty class: the census polynomial is zero")
        return self

    def _times(self, c):
        from .series import MPoly  # the coefficient type; degseq exact never loads it

        return MPoly._of(self.q, self.counts) * MPoly.constant(self.q, c)

    @cached_property
    def poly(self):
        return self._times(self.scale)

    @cached_property
    def total(self) -> Fraction:
        return self.scale * sum(self.counts.values())

    def pmf(self) -> dict:
        """Joint law of the census vector, keyed by sorted exponent tuple:
        each count over their sum.  EmptyClassError for the zero polynomial."""
        total = sum(self.nonzero().counts.values())
        return dict(sorted(self._times(Fraction(1, total)).terms.items()))


def check_counts(n1: int, n2: int) -> None:
    """DomainError unless n1, n2 >= 0 and n1 is even (each path has two ends)."""
    if n1 < 0 or n2 < 0:
        raise DomainError("vertex counts must be nonnegative")
    if n1 % 2:
        raise DomainError("n1 must be even")


def check_alpha(alpha: float) -> None:
    """DomainError unless the degree-2 to path ratio alpha is positive and finite."""
    if not 0 < alpha < math.inf:
        raise DomainError("alpha must be positive and finite")


def v_factor(n1: int, n2: int) -> Fraction:
    """Relabelling prefactor (n1+n2)! / (2^{n1/2} (n1/2)!) turning the
    size-indexed series coefficient into a labelled count."""
    check_counts(n1, n2)
    return Fraction(math.factorial(n1 + n2), (1 << (n1 // 2)) * math.factorial(n1 // 2))


def _unmarked_rows(n2: int, k: int, q: int, s: int):
    """(D, R) with D = n2! 2^{n2} and R[t][i] = k!/t! * D * [z^i] E(z)/(1-z)^t,
    E = exp(sum_{j>=s} z^j/(2j)): the mass of t unmarked paths and the
    unmarked cycles together on i spare degree-2 vertices.  All integers:
    i E_i = 1/2 sum_{j>=s} E_{i-j} gives row 0, and row t is the prefix sum of
    row t-1 over t.  Row t stops at i = n2 - (q-1) t, the largest index a
    census term reads."""
    scale = math.factorial(n2) << n2
    row = [scale * math.factorial(k)]
    acc = 0
    for i in range(1, n2 + 1):
        if i >= s:
            acc += row[i - s]
        row.append(acc // (2 * i))
    rows = [row]
    for t in range(1, min(k, n2 // (q - 1)) + 1):
        run, row = 0, []
        for x in rows[-1][: n2 - (q - 1) * t + 1]:
            run += x
            row.append(run // t)
        rows.append(row)
    return scale, rows


def graph_gf(params: GraphClassParams) -> CensusPolynomial:
    """Exact joint census polynomial of the component counts:
    [z^{n2}] exp(Cyc(z)) * Path(z)^{n1/2} times the relabelling prefactor,
    expanded in closed form one census term at a time.

    Path is sum_{j<=q} u_j z^{j-2} + z^{q-1}/(1-z), so with k = n1/2 paths the
    multinomial theorem expands Path^k; the exponential formula expands
    exp(Cyc) into one factor per marked cycle size and E(z) for the rest
    (Flajolet-Sedgewick, Analytic Combinatorics, Ch. II).  Collecting both
    sides of each size, the coefficient of u^e, W = sum_j j e_j, is

        v_factor / (D prod_j (2j)^{e_j} e_j!)
          * sum_t k!/t! T_t(n - W - (q+1) t) [x^{k-t}] prod_j B_j(x)^{e_j},

    n = n1 + n2, t the unmarked paths (q+1 vertices or more each) and
    k!/t! D T_t = R[t] of ``_unmarked_rows``; x counts marked paths, B_j = 2j x + 1
    for a size that may be a path or a cycle, 2j x for a path only (size 2,
    simple) and 1 for loops.  The terms are found depth first over e_q, e_{q-1},
    ..., cutting each branch that no completion makes feasible (W + (q+1) t
    <= n); over L, the lcm of the term denominators, each term's integer sum
    is its count and v_factor / (D L) the scale, with no Fraction per term.

    An empty class yields the zero polynomial.  Raises ValueError, before any
    work, when n1 + n2 exceeds EXACT_SIZE_LIMIT.
    """
    if params.n1 + params.n2 > EXACT_SIZE_LIMIT:
        raise ValueError("graph_gf bound n1+n2 <= %d exceeded" % EXACT_SIZE_LIMIT)
    q, n2 = params.q, params.n2
    k, n = params.n1 // 2, params.n1 + n2
    first = check_model(params.model)
    scale, rows = _unmarked_rows(n2, k, q, max(q + 1, first))
    long = q + 1  # fewest vertices of an unmarked path
    low = max(first, 2)  # sizes low..q may be a path or a cycle
    found = {}  # exponent tuple -> (integer sum, prod_j (2j)^{e_j} e_j!)
    e = [0] * q

    # the last size adds no x + 1/(2j) factor: y size-2 paths in the simple
    # model (B_2^y / 4^y = x^y moves the x index by y, the denominator gains
    # y!) or y loops in the multigraph (B_1 = 1, the denominator gains 2^y y!)
    size, paths, unit = (2, 1, 1) if low > 2 else (1, 0, 2)

    def last(w, c, poly, den):
        # after c components of sizes >= low that may be paths, W = w and
        # prod_j B_j = poly; the feasible counts y are the run lo..hi where
        # the t >= d - paths * y unmarked paths still fit
        d = k - c
        if paths:  # w + 2y + long * max(0, d - y) <= n and y <= k
            lo, hi = max(0, -((n - w - long * d) // (long - 2))), min(k, (n - w) // 2)
        else:  # w + y + long * max(0, d) <= n
            lo, hi = 0, n - w - long * max(0, d)
        den *= unit**lo * math.factorial(lo)
        for y in range(lo, hi + 1):
            spare = n - w - size * y
            top = k - paths * y  # the x index is top - t
            t0, t1 = d - paths * y, spare // long  # conditionals, not max and min calls
            total = 0
            for t in range(t0 if t0 > 0 else 0, (top if top < t1 else t1) + 1):
                total += rows[t][spare - long * t] * poly[top - t]
            if total:
                e[size - 1] = y
                found[tuple(e)] = (total, den)
            den *= unit * (y + 1)
        e[size - 1] = 0

    def walk(j, w, c, poly, den):
        # e_j components of size j, each a path or a cycle, after the larger
        # sizes; a branch lives while its cheapest completion fits in n
        # vertices: each of the k - c - x paths still missing has size 2 if a
        # smaller size may still hold paths, else it is unmarked (q + 1)
        fill = 2 if j > 2 else long
        seen = False
        for x in range((n - w) // j + 1):
            d = k - c - x
            if w + j * x + (fill * d if d > 0 else 0) > n:
                if seen:
                    break
            else:
                seen = True
                e[j - 1] = x
                if j > low:
                    walk(j - 1, w + j * x, c + x, poly, den)
                else:
                    last(w + j * x, c + x, poly, den)
            den *= 2 * j * (x + 1)
            poly = [a + 2 * j * b for a, b in zip(poly + [0], [0] + poly)][: k + 1]
        e[j - 1] = 0

    if min(q, n) >= low:
        walk(min(q, n), 0, 0, [1], 1)
    else:
        last(0, 0, [1], 1)
    den = math.lcm(*(d for _, d in found.values()))
    nums = {exps: total * (den // d) for exps, (total, d) in found.items()}
    return CensusPolynomial(q, nums, v_factor(params.n1, n2) / (scale * den))


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
    first = check_model(params.model)
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
    g, perm = [1], math.perm
    for m in range(target):  # plain loops: both term lists run in increasing i
        acc = 0
        for i, ri in r_terms:
            if i > m:
                break
            acc += ri * perm(m, i) * g[m - i]
        for i, qi in q_terms:
            if i > m:
                break
            acc -= qi * perm(m, i) * g[m + 1 - i]
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
    """Closed-form emptiness test; DomainError for a negative count or odd n1.

    With n1 = 0 everything must sit in cycles, so 0 < n2 below the model's
    smallest cycle size is empty: (0,1) and (0,2) for simple graphs, none for
    multigraphs.  Any even n1 >= 2 is realizable by stuffing all degree-2
    vertices into one path.
    """
    first = check_model(model)
    check_counts(n1, n2)
    return n1 == 0 and 0 < n2 < first


def census_exponents(sizes, q: int) -> tuple:
    """Exponent tuple (m_1..m_q) of a component-size multiset; sizes above q
    are unmarked and contribute nothing."""
    exps = [0] * q
    for s in sizes:
        if s <= q:
            exps[s - 1] += 1
    return tuple(exps)


def _degree12_graphs(n1: int, n2: int):
    """Yield the edge list of every simple graph on vertices 0..n1+n2-1 in
    which vertices 0..n1-1 have degree 1 and the others degree 2.

    Backtracking over vertices in order, with need[w] the edges vertex w
    still lacks: when vertex v is reached, its edges to earlier vertices are
    fixed, so choosing its need[v] neighbours among the later vertices that
    still lack an edge enumerates each graph exactly once.
    """
    n = n1 + n2
    need = [1] * n1 + [2] * n2
    edges = []

    def rec(v):
        if v == n:
            yield list(edges)
            return
        for combo in combinations([w for w in range(v + 1, n) if need[w]], need[v]):
            for w in combo:
                need[w] -= 1
                edges.append((v, w))
            yield from rec(v + 1)
            for w in combo:
                need[w] += 1
                edges.pop()

    yield from rec(0)


def brute_force_simple(params: GraphClassParams) -> CensusPolynomial:
    """Oracle for the simple-graph census: enumerate every admissible graph by
    direct adjacency search and tally census monomials."""
    n1, n2, q = params.n1, params.n2, params.q
    if n1 + n2 > SIMPLE_ENUM_LIMIT:
        raise ValueError("enumeration bound n1+n2 <= %d exceeded" % SIMPLE_ENUM_LIMIT)
    return _tally(_degree12_graphs(n1, n2), n1, n2, q, Fraction(1))


def _tally(edge_lists, n1: int, n2: int, q: int, weight: Fraction) -> CensusPolynomial:
    """Census polynomial of the graphs on vertices 0..n1+n2-1, given by their
    edge lists, each contributing ``weight`` to its census monomial.

    The enumerations fix the degree-1 vertices as 0..n1-1, while the census
    polynomial sums over all C(n1+n2, n1) placements of the degree-1 labels.
    Relabelling preserves the census, so every placement contributes the same
    polynomial and one binomial factor accounts for them."""
    from .unionfind import UnionFind  # only the brute-force oracles label graphs

    counts = Counter(census_exponents(UnionFind(n1 + n2, edges).component_sizes(), q)
                     for edges in edge_lists)
    return CensusPolynomial(q, counts, weight * math.comb(n1 + n2, n1))


@lru_cache(maxsize=16, typed=True)
def stub_owners(n1: int, n2: int) -> tuple:
    """Vertex of each stub, one on each of the first n1 vertices and two on
    each of the rest, in vertex order: the stub list a pairing matches, and
    the sorted endpoint list of every graph with this degree profile."""
    check_counts(n1, n2)
    return tuple(range(n1)) + tuple(v for v in range(n1, n1 + n2) for _ in (0, 1))


def _stub_pairings(owners):
    """Yield every perfect matching of the stub list as vertex pairs: the
    first stub pairs with each later stub in turn, then the rest are matched."""
    if not owners:
        yield []
    for i in range(1, len(owners)):
        for pairs in _stub_pairings(owners[1:i] + owners[i + 1 :]):
            yield [(owners[0], owners[i])] + pairs


def brute_force_multigraph(params: GraphClassParams) -> CensusPolynomial:
    """Oracle for the multigraph census: enumerate every pairing of the stub
    multiset and weight each census monomial by 2^{-n2}.

    Under uniform pairings a multigraph occurs with multiplicity proportional
    to its compensation factor; each degree-2 vertex owns two interchangeable
    stubs, so per pairing the compensation-weighted mass is 2^{-n2}.
    """
    n1, n2, q = params.n1, params.n2, params.q
    m = n1 // 2 + n2
    if m > MATCHING_ENUM_LIMIT:
        raise ValueError("enumeration bound m <= %d exceeded" % MATCHING_ENUM_LIMIT)
    return _tally(_stub_pairings(stub_owners(n1, n2)), n1, n2, q, Fraction(1, 1 << n2))


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


# Rows joined and written at a time by write_census_json: few writes, and a
# bounded slice of the output in memory.
CHUNK_ROWS = 1024


def write_census_json(params: GraphClassParams, census: CensusPolynomial, fh) -> None:
    """Write the ``degseq exact`` output to the text file ``fh``:
    ``json.dumps(payload, indent=2) + "\\n"`` of {params, q, total, polynomial
    (as in census_to_json), pmf (the {counts, num, den} rows of census.pmf())},
    at a fraction of the cost: the rows (count * scale, and count / sum of the
    counts) come from the sorted counts with no Fraction, are laid out from a
    template, as the indented encoder is pure Python, and are written
    CHUNK_ROWS at a time, so the text is never held whole.  Raises
    EmptyClassError for an empty class before writing anything."""
    counts = census.nonzero().counts
    head = {
        "params": params_dict(params),
        "q": census.q,
        "total": {"num": census.total.numerator, "den": census.total.denominator},
    }
    exps = sorted(counts)
    fh.write(json.dumps(head, indent=2)[:-2])  # without its closing "\n}"
    for name, field, (n, d) in (("polynomial", "exponents", census.scale.as_integer_ratio()),
                                ("pmf", "counts", (1, sum(counts.values())))):
        # one {field, num, den} row as json.dumps(indent=2) lays it out in a
        # top-level list, with a %d per exponent
        row = ('    {\n      "%s": [\n        %s\n      ],\n      "num": %%d,\n'
               '      "den": %%s\n    }' % (field, ",\n        ".join(["%d"] * census.q)))
        whole = str(d)  # the den of every row whose count is coprime to d
        fh.write(',\n  "%s": [\n' % name)
        for start in range(0, len(exps), CHUNK_ROWS):
            rows = []
            for e in exps[start : start + CHUNK_ROWS]:
                # a * n / d in lowest terms by one gcd, as gcd(n, d) = 1
                a = counts[e]
                g = math.gcd(a, d)
                rows.append(row % (*e, a // g * n, whole if g == 1 else d // g))
            fh.write((",\n" if start else "") + ",\n".join(rows))
        fh.write("\n  ]")
    fh.write("\n}\n")
