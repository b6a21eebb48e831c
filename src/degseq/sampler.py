"""Configuration-model sampling of degree-{1,2} multigraphs: uniform stub
matching, rejection to simple graphs, component census, and a seeded,
optionally parallel experiment harness.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import SamplingError, StructuralError
from .exact import GraphClassParams

_MASK64 = (1 << 64) - 1


def substream_seed(seed: int, worker: int) -> int:
    """Per-worker stream seed: the splitmix64 output sequence of the master
    seed, so distinct workers get decorrelated, reproducible streams."""
    state = seed & _MASK64
    out = 0
    for _ in range(worker + 1):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        out = z ^ (z >> 31)
    return out


def _ensure_rng(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    if rng is None:
        return np.random.default_rng()
    return np.random.Generator(np.random.PCG64(rng))


@dataclass(frozen=True)
class StubMultigraph:
    """Multigraph on vertices 0..n1+n2-1; the first n1 vertices carry one
    stub, the rest two.  Edges are canonical (min, max) pairs; loops are
    (v, v)."""

    n1: int
    n2: int
    edges: tuple
    loop_count: int
    double_edge_count: int

    @property
    def n_vertices(self) -> int:
        return self.n1 + self.n2

    @property
    def is_simple(self) -> bool:
        return self.loop_count == 0 and self.double_edge_count == 0


def _multigraph_from_endpoints(n1, n2, lo, hi) -> StubMultigraph:
    loops = int(np.count_nonzero(lo == hi))
    n = n1 + n2
    keys = lo.astype(np.int64) * n + hi
    _, counts = np.unique(keys, return_counts=True)
    # degrees <= 2 cap edge multiplicity at 2 and forbid repeated loops, so
    # every multiplicity-2 key is a double edge
    doubles = int(np.count_nonzero(counts >= 2))
    edges = tuple(zip(lo.tolist(), hi.tolist()))
    return StubMultigraph(n1, n2, edges, loops, doubles)


def sample_multigraph(n1: int, n2: int, rng=None) -> StubMultigraph:
    """One uniform pairing of the stub multiset (Fisher-Yates shuffle, then
    consecutive pairs); deterministic given the generator state."""
    if n1 % 2:
        raise ValueError("n1 must be even (stub count must be even)")
    rng = _ensure_rng(rng)
    owners = np.empty(n1 + 2 * n2, dtype=np.int64)
    owners[:n1] = np.arange(n1)
    owners[n1::2] = np.arange(n1, n1 + n2)
    owners[n1 + 1 :: 2] = np.arange(n1, n1 + n2)
    perm = rng.permutation(owners)
    a = perm[0::2]
    b = perm[1::2]
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    return _multigraph_from_endpoints(n1, n2, lo, hi)


def sample_simple(n1: int, n2: int, rng=None, max_attempts: int = 10**6) -> StubMultigraph:
    """Rejection-sample a uniform simple graph: resample pairings until there
    is no loop and no double edge."""
    rng = _ensure_rng(rng)
    for attempt in range(1, max_attempts + 1):
        g = sample_multigraph(n1, n2, rng)
        if g.is_simple:
            return g
    raise SamplingError(
        "no simple graph accepted for n1=%d, n2=%d after %d attempts "
        "(acceptance estimate 0/%d); the simple class may be empty"
        % (n1, n2, max_attempts, max_attempts)
    )


@dataclass(frozen=True)
class ComponentCensus:
    """Component counts of one graph: counts[j-1] components of size j for
    j = 1..q, larger ones pooled in tail_count.  Every component of a
    degree-{1,2} graph is a path (exactly two degree-1 vertices) or a cycle
    (none), and the path count is always n1/2."""

    counts: tuple
    tail_count: int
    component_sizes_sum: int
    path_components: int
    cycle_components: int

    @property
    def total_components(self) -> int:
        return self.path_components + self.cycle_components


def _forest(g: StubMultigraph):
    """The one component labeller of the sampled graphs: a single pass over
    the edges that counts endpoint degrees and unions the two ends in a
    disjoint-set forest (union by size, path halving), kept inline because
    it is the Monte Carlo hot loop.  Returns (parent, size).

    Raises StructuralError if the edge multiset does not realize the declared
    degree profile (degree 1 on the first n1 vertices, 2 elsewhere).
    """
    n1 = g.n1
    n = g.n1 + g.n2
    occ = [0] * n
    parent = list(range(n))
    size = [1] * n
    for a, b in g.edges:
        occ[a] += 1
        occ[b] += 1
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a != b:
            if size[a] < size[b]:
                a, b = b, a
            parent[b] = a
            size[a] += size[b]
    if occ[:n1] != [1] * n1 or occ[n1:] != [2] * (n - n1):
        raise StructuralError("edge endpoints do not match the degree profile")
    return parent, size


def _root(parent, v: int) -> int:
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def census(g: StubMultigraph, q: int) -> ComponentCensus:
    """Component census via the disjoint-set forest over the edges.

    Raises StructuralError if the edge multiset does not realize the declared
    degree profile (degree 1 on the first n1 vertices, 2 elsewhere).
    """
    if q < 2:
        raise ValueError("q must be >= 2")
    n1 = g.n1
    n = g.n1 + g.n2
    parent, size = _forest(g)
    counts = [0] * q
    tail = 0
    sizes_sum = 0
    total_components = 0
    for v in range(n):
        if parent[v] == v:
            s = size[v]
            sizes_sum += s
            total_components += 1
            if s <= q:
                counts[s - 1] += 1
            else:
                tail += 1
    path_roots = set()
    for v in range(n1):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        path_roots.add(v)
    n_paths = len(path_roots)
    return ComponentCensus(
        counts=tuple(counts),
        tail_count=tail,
        component_sizes_sum=sizes_sum,
        path_components=n_paths,
        cycle_components=total_components - n_paths,
    )


def validate_structure(g: StubMultigraph) -> None:
    """Thorough per-component shape check: each component must be a path
    (exactly two degree-1 vertices, edges = vertices - 1) or a cycle (no
    degree-1 vertex, edges = vertices).  Raises StructuralError otherwise."""
    parent, size = _forest(g)
    edge_count = Counter(_root(parent, a) for a, _ in g.edges)
    deg1_count = Counter(_root(parent, v) for v in range(g.n1))
    for root in range(g.n_vertices):
        if parent[root] != root:
            continue
        vertices = size[root]
        edges_in = edge_count.get(root, 0)
        ones = deg1_count.get(root, 0)
        if ones == 2 and edges_in == vertices - 1:
            continue  # path
        if ones == 0 and edges_in == vertices:
            continue  # cycle (size 1 = loop, size 2 = double edge)
        raise StructuralError(
            "component at root %d is neither a path nor a cycle" % root
        )


def compensation_factor(g: StubMultigraph) -> Fraction:
    """Pairing-mass weight 1/(2^{#loops} * prod_e mult(e)!); equals 1 exactly
    for simple graphs."""
    denom = 1 << g.loop_count
    for mult in Counter(g.edges).values():
        if mult > 1:
            denom *= math.factorial(mult)
    return Fraction(1, denom)


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    """Census matrix of one experiment: row r holds the census of replication
    r as counts U_1..U_q plus the tail bucket."""

    params: GraphClassParams
    seed: int
    workers: int
    counts: np.ndarray
    tail_counts: np.ndarray

    @property
    def n_reps(self) -> int:
        return self.counts.shape[0]


def _sample_block(params: GraphClassParams, seed: int, worker: int, n_reps: int):
    rng = np.random.Generator(np.random.PCG64(substream_seed(seed, worker)))
    q = params.q
    counts = np.empty((n_reps, q), dtype=np.int64)
    tails = np.empty(n_reps, dtype=np.int64)
    simple = params.model == "simple"
    for r in range(n_reps):
        if simple:
            g = sample_simple(params.n1, params.n2, rng)
        else:
            g = sample_multigraph(params.n1, params.n2, rng)
        c = census(g, q)
        counts[r] = c.counts
        tails[r] = c.tail_count
    return counts, tails


def run_experiment(
    params: GraphClassParams, n_reps: int, seed: int, workers: int = 1
) -> ExperimentResult:
    """N independent censuses, reproducible from (seed, workers): worker w
    owns the splitmix-derived substream w and a contiguous block of
    replications, so the result is independent of scheduling order."""
    if n_reps < 1:
        raise ValueError("need at least one replication")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if params.n1 % 2:
        raise ValueError("n1 must be even")
    workers = min(workers, n_reps)
    base, extra = divmod(n_reps, workers)
    blocks = [base + (1 if w < extra else 0) for w in range(workers)]
    if workers == 1:
        parts = [_sample_block(params, seed, 0, n_reps)]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_sample_block, params, seed, w, blocks[w])
                for w in range(workers)
            ]
            parts = [f.result() for f in futures]
    counts = np.concatenate([p[0] for p in parts])
    tails = np.concatenate([p[1] for p in parts])
    return ExperimentResult(
        params=params, seed=seed, workers=workers, counts=counts, tail_counts=tails
    )


def write_samples_csv(result: ExperimentResult, path: str) -> None:
    """CSV stream of the census matrix: rep_id, U_1..U_q, tail_count."""
    q = result.params.q
    header = "rep_id," + ",".join("U_%d" % j for j in range(1, q + 1)) + ",tail_count"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for r in range(result.n_reps):
            row = result.counts[r]
            fh.write(
                "%d,%s,%d\n" % (r, ",".join(str(int(x)) for x in row), result.tail_counts[r])
            )


def sidecar_metadata(result: ExperimentResult) -> dict:
    p = result.params
    return {
        "seed": result.seed,
        "workers": result.workers,
        "n_reps": result.n_reps,
        "params": {"n1": p.n1, "n2": p.n2, "q": p.q, "model": p.model},
        "columns": ["rep_id"] + ["U_%d" % j for j in range(1, p.q + 1)] + ["tail_count"],
    }
