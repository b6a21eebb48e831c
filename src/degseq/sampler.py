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
from .exact import GraphClassParams, census_exponents
from .unionfind import UnionFind

# replications per seeded chunk of run_experiment
CHUNK_REPS = 100


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
    rng = np.random.default_rng(rng)
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
    rng = np.random.default_rng(rng)
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


def _labelled(g: StubMultigraph) -> UnionFind:
    """Component labelling of g.  Raises StructuralError if the edge multiset
    does not realize the declared degree profile (degree 1 on the first n1
    vertices, 2 elsewhere)."""
    n1, n = g.n1, g.n1 + g.n2
    uf = UnionFind(n, g.edges)
    if uf.degree[:n1] != [1] * n1 or uf.degree[n1:] != [2] * (n - n1):
        raise StructuralError("edge endpoints do not match the degree profile")
    return uf


def census(g: StubMultigraph, q: int) -> ComponentCensus:
    """Component census of g.  Raises StructuralError if the edge multiset
    does not realize the declared degree profile; once it does, every
    component is a path or a cycle and each path holds two of the n1
    degree-1 vertices, so there are n1/2 paths."""
    if q < 2:
        raise ValueError("q must be >= 2")
    sizes = _labelled(g).component_sizes()
    counts = census_exponents(sizes, q)
    n_paths = g.n1 // 2
    return ComponentCensus(
        counts=counts,
        tail_count=len(sizes) - sum(counts),
        component_sizes_sum=sum(sizes),
        path_components=n_paths,
        cycle_components=len(sizes) - n_paths,
    )


def validate_structure(g: StubMultigraph) -> None:
    """Thorough per-component shape check: each component must be a path
    (exactly two degree-1 vertices, edges = vertices - 1) or a cycle (no
    degree-1 vertex, edges = vertices).  Raises StructuralError otherwise."""
    uf = _labelled(g)
    edge_count = Counter(uf.find(a) for a, _ in g.edges)
    deg1_count = Counter(uf.find(v) for v in range(g.n1))
    for root in range(g.n_vertices):
        if uf.parent[root] != root:
            continue
        vertices = uf.size[root]
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


def _sample_chunk(params: GraphClassParams, seed_seq: np.random.SeedSequence, n_reps: int):
    rng = np.random.default_rng(seed_seq)
    draw = sample_simple if params.model == "simple" else sample_multigraph
    counts = np.empty((n_reps, params.q), dtype=np.int64)
    tails = np.empty(n_reps, dtype=np.int64)
    for r in range(n_reps):
        c = census(draw(params.n1, params.n2, rng), params.q)
        counts[r] = c.counts
        tails[r] = c.tail_count
    return counts, tails


def run_experiment(
    params: GraphClassParams, n_reps: int, seed: int, workers: int = 1
) -> ExperimentResult:
    """N independent censuses, fixed by the seed alone: chunk c holds
    replications [CHUNK_REPS*c, CHUNK_REPS*(c+1)) and draws from child c of
    SeedSequence(seed), so workers only share out chunks, and a run of N
    replications is the first N rows of any longer run with the same seed."""
    if n_reps < 1:
        raise ValueError("need at least one replication")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if params.n1 % 2:
        raise ValueError("n1 must be even")
    n_chunks = -(-n_reps // CHUNK_REPS)
    seeds = np.random.SeedSequence(seed).spawn(n_chunks)
    sizes = [min(CHUNK_REPS, n_reps - CHUNK_REPS * c) for c in range(n_chunks)]
    workers = min(workers, n_chunks)
    if workers == 1:
        parts = list(map(_sample_chunk, [params] * n_chunks, seeds, sizes))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_sample_chunk, [params] * n_chunks, seeds, sizes))
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
        "chunk_reps": CHUNK_REPS,
        "params": {"n1": p.n1, "n2": p.n2, "q": p.q, "model": p.model},
        "columns": ["rep_id"] + ["U_%d" % j for j in range(1, p.q + 1)] + ["tail_count"],
    }
