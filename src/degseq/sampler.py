"""Configuration-model sampling of degree-{1,2} multigraphs: uniform stub
matching, rejection to simple graphs, component census, and a seeded,
optionally parallel experiment harness that draws, rejects, labels and
tallies a block of pairings per numpy call.

The single-graph API is plain Python: sample_multigraph shuffles a Python
list of stub owners with Generator.shuffle, which makes the same draws as
Generator.permutation of the owner array, so it returns the graphs the
block engine's rows hold, seed for seed.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import SamplingError, StructuralError
from .exact import GraphClassParams, census_exponents, class_is_empty
from .unionfind import UnionFind

# replications per seeded chunk of run_experiment
CHUNK_REPS = 100
# vertices per block of pairings drawn at once (max(1, _BLOCK_VERTICES // n)
# rows); bounds the block's memory, and affects speed only
_BLOCK_VERTICES = 2**15


@dataclass(frozen=True)
class StubMultigraph:
    """Multigraph on vertices 0..n1+n2-1; the first n1 vertices carry one
    stub, the rest two.  Edges are canonical (min, max) pairs; loops are
    (v, v).  The loop and double-edge counts are derived from the edges."""

    n1: int
    n2: int
    edges: tuple

    @property
    def loop_count(self) -> int:
        return sum(a == b for a, b in self.edges)

    @property
    def double_edge_count(self) -> int:
        """Edges beyond the first copy of their pair; degrees <= 2 cap the
        multiplicity at 2, so this is the number of double edges."""
        return len(self.edges) - len(set(self.edges))

    @property
    def is_simple(self) -> bool:
        return self.loop_count == 0 and self.double_edge_count == 0


def _stub_owners(n1: int, n2: int) -> np.ndarray:
    """Vertex of each stub: one stub on each of the first n1 vertices, two on
    each of the rest."""
    owners = np.empty(n1 + 2 * n2, dtype=np.int32)
    owners[:n1] = np.arange(n1)
    owners[n1::2] = np.arange(n1, n1 + n2)
    owners[n1 + 1 :: 2] = np.arange(n1, n1 + n2)
    return owners


def _endpoints(pairing: np.ndarray):
    """(lo, hi) ends of the edges formed by consecutive stubs along the last
    axis of a shuffled owner array."""
    a = pairing[..., 0::2]
    b = pairing[..., 1::2]
    return np.minimum(a, b), np.maximum(a, b)


def _check_counts(n1: int, n2: int) -> None:
    if n1 < 0 or n2 < 0:
        raise ValueError("vertex counts must be nonnegative")
    if n1 % 2:
        raise ValueError("n1 must be even (stub count must be even)")


def sample_multigraph(n1: int, n2: int, rng=None) -> StubMultigraph:
    """One uniform pairing of the stub multiset (Fisher-Yates shuffle of the
    stub owners, then consecutive pairs); deterministic given the generator
    state.  Shuffling the owner list makes the draws of
    rng.permutation(_stub_owners(n1, n2)) and leaves rng in the same state."""
    _check_counts(n1, n2)
    rng = np.random.default_rng(rng)
    # j >> 1 over 2*n1 .. 2*(n1+n2)-1 lists each degree-2 vertex twice, as _stub_owners does
    owners = list(range(n1)) + [j >> 1 for j in range(2 * n1, 2 * (n1 + n2))]
    rng.shuffle(owners)
    ends = iter(owners)
    return StubMultigraph(n1, n2, tuple((a, b) if a <= b else (b, a) for a, b in zip(ends, ends)))


def sample_simple(n1: int, n2: int, rng=None) -> StubMultigraph:
    """Rejection-sample a uniform simple graph: redraw pairings until there
    is no loop and no double edge.  Raises SamplingError, before drawing,
    if no simple graph has this degree profile."""
    _check_counts(n1, n2)
    if class_is_empty(n1, n2, "simple"):
        raise SamplingError("no simple graph has n1=%d, n2=%d" % (n1, n2))
    rng = np.random.default_rng(rng)
    while True:
        g = sample_multigraph(n1, n2, rng)
        if g.is_simple:
            return g


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


def _labelled(g: StubMultigraph) -> UnionFind:
    """Component labelling of g.  Raises StructuralError if an endpoint lies
    outside 0..n1+n2-1 or the edge multiset does not realize the declared
    degree profile (degree 1 on the first n1 vertices, 2 elsewhere)."""
    n1, n = g.n1, g.n1 + g.n2
    for a, b in g.edges:
        if not (0 <= a < n and 0 <= b < n):
            raise StructuralError("edge endpoint outside the vertex range")
    uf = UnionFind(n, g.edges)
    if uf.degree[:n1] != [1] * n1 or uf.degree[n1:] != [2] * (n - n1):
        raise StructuralError("edge endpoints do not match the degree profile")
    return uf


def census(g: StubMultigraph, q: int) -> ComponentCensus:
    """Component census of g.  Raises StructuralError if the edge multiset
    does not realize the declared degree profile; once it does, every
    component is a path or a cycle and each path holds two of the n1
    degree-1 vertices, so there are n1/2 paths."""
    if operator.index(q) < 2:
        raise ValueError("q must be >= 2")
    sizes = _labelled(g).component_sizes()
    counts = census_exponents(sizes, q)
    return ComponentCensus(
        counts=counts,
        tail_count=len(sizes) - sum(counts),
        component_sizes_sum=sum(sizes),
        path_components=g.n1 // 2,
    )


def validate_structure(g: StubMultigraph) -> None:
    """Raises StructuralError unless every component of g is a path or a
    cycle, which holds exactly when g realizes its degree profile (degree 1
    on the first n1 vertices, 2 elsewhere).  Proof: a connected component
    with v vertices, t of degree 1 and the rest of degree 2, has v - t/2
    edges; being connected it has at least v - 1, so t is 0 or 2.  With
    t = 2 it has v - 1 edges and is a path; with t = 0 it has v edges and is
    a cycle (a loop or a double edge counts as a cycle)."""
    _labelled(g)


def compensation_factor(g: StubMultigraph) -> Fraction:
    """Pairing-mass weight 1/(2^{#loops} * prod_e mult(e)!); equals 1 exactly
    for simple graphs."""
    denom = 1 << g.loop_count
    if g.double_edge_count:
        for mult in Counter(g.edges).values():
            denom *= math.factorial(mult)
    return Fraction(1, denom)


def census_rows(n1: int, n2: int, q: int, lo: np.ndarray, hi: np.ndarray):
    """Census of a block of graphs on vertices 0..n1+n2-1, where row r of the
    (rows, edges) arrays lo and hi holds the edge ends of graph r.  Returns
    the (rows, q) matrix of U_1..U_q and the tail counts, equal row for row
    to census() of each graph.  The block-diagonal union of all rows is
    labelled in one connected_components call.  Raises StructuralError if a
    row does not realize the degree profile (degree 1 on the first n1
    vertices, 2 elsewhere)."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    if q < 2:
        raise ValueError("q must be >= 2")
    n = n1 + n2
    rows = lo.shape[0]
    if lo.size and (min(lo.min(), hi.min()) < 0 or max(lo.max(), hi.max()) >= n):
        raise StructuralError("edge endpoint outside the vertex range")
    offset = (np.arange(rows, dtype=np.int64) * n)[:, None]
    lo = (lo + offset).ravel()
    hi = (hi + offset).ravel()
    degree = np.bincount(np.concatenate((lo, hi)), minlength=rows * n).reshape(rows, n)
    if (degree[:, :n1] != 1).any() or (degree[:, n1:] != 2).any():
        raise StructuralError("edge endpoints do not match the degree profile")
    graph = coo_matrix((np.ones(lo.size, dtype=np.int8), (lo, hi)), shape=(rows * n, rows * n))
    n_comps, labels = connected_components(graph, directed=False)
    sizes = np.bincount(labels, minlength=n_comps)
    comp_row = np.empty(n_comps, dtype=np.int64)
    comp_row[labels] = np.repeat(np.arange(rows), n)
    bucket = comp_row * (q + 1) + np.minimum(sizes, q + 1) - 1
    tally = np.bincount(bucket, minlength=rows * (q + 1)).reshape(rows, q + 1)
    return tally[:, :q], tally[:, q]


def acceptance_limit(params: GraphClassParams) -> float:
    """Large-n share of pairings that are simple graphs, exp(-nu/2 - nu^2/4)
    with nu = 2*n2/(n1 + 2*n2) the share of stubs on degree-2 vertices
    (Bollobas 1980; Janson 2009); 1 in the multigraph model."""
    stubs = params.n1 + 2 * params.n2
    if params.model != "simple" or not stubs:
        return 1.0
    nu = 2 * params.n2 / stubs
    return math.exp(-nu / 2 - nu * nu / 4)


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    """Census matrix of one experiment: row r holds the census of replication
    r as counts U_1..U_q plus the tail bucket.  pairings_examined counts, per
    chunk, the pairings drawn up to its last accepted one."""

    params: GraphClassParams
    seed: int
    workers: int
    counts: np.ndarray
    tail_counts: np.ndarray
    pairings_examined: int

    @property
    def n_reps(self) -> int:
        return self.counts.shape[0]


def _sample_chunk(params: GraphClassParams, seed_seq: np.random.SeedSequence, n_reps: int):
    """Censuses of the first n_reps accepted pairings of the chunk's row
    stream, and the number of pairings examined up to the last of them.

    Generator.permuted shuffles row after row with the draws of one
    Generator.permutation each, so the rows are the pairings that successive
    sample_multigraph calls would draw, and the output does not depend on
    how the stream is cut into blocks."""
    rng = np.random.default_rng(seed_seq)
    n1, n2, q = params.n1, params.n2, params.q
    n = n1 + n2
    owners = _stub_owners(n1, n2)
    simple = params.model == "simple"
    accept = acceptance_limit(params)
    max_rows = max(1, _BLOCK_VERTICES // max(n, 1))
    counts, tails = [], []
    need = n_reps
    examined = 0
    while need:
        rows = min(max_rows, math.ceil(need / accept))
        lo, hi = _endpoints(rng.permuted(np.broadcast_to(owners, (rows, owners.size)), axis=1))
        if simple:
            keys = np.sort(lo.astype(np.int64) * n + hi, axis=1)
            bad = (lo == hi).any(axis=1) | (keys[:, 1:] == keys[:, :-1]).any(axis=1)
            kept = np.flatnonzero(~bad)[:need]
            if kept.size == need:
                rows = int(kept[-1]) + 1
            lo, hi = lo[kept], hi[kept]
        block_counts, block_tails = census_rows(n1, n2, q, lo, hi)
        counts.append(block_counts)
        tails.append(block_tails)
        need -= lo.shape[0]
        examined += rows
    return np.concatenate(counts), np.concatenate(tails), examined


def run_experiment(
    params: GraphClassParams, n_reps: int, seed: int, workers: int = 1
) -> ExperimentResult:
    """N independent censuses, fixed by the seed alone: chunk c holds
    replications [CHUNK_REPS*c, CHUNK_REPS*(c+1)), the first accepted
    pairings of the row stream of child c of SeedSequence(seed), so workers
    only share out chunks, and a run of N replications is the first N rows of
    any longer run with the same seed.  Raises SamplingError for an empty
    class."""
    if n_reps < 1:
        raise ValueError("need at least one replication")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if class_is_empty(params.n1, params.n2, params.model):  # odd n1 included
        raise SamplingError(
            "empty class: no %s graph has n1=%d, n2=%d" % (params.model, params.n1, params.n2)
        )
    n_chunks = -(-n_reps // CHUNK_REPS)
    seeds = np.random.SeedSequence(seed).spawn(n_chunks)
    sizes = [min(CHUNK_REPS, n_reps - CHUNK_REPS * c) for c in range(n_chunks)]
    workers = min(workers, n_chunks)
    if workers == 1:
        parts = list(map(_sample_chunk, [params] * n_chunks, seeds, sizes))
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_sample_chunk, [params] * n_chunks, seeds, sizes))
    return ExperimentResult(
        params=params,
        seed=seed,
        workers=workers,
        counts=np.concatenate([p[0] for p in parts]),
        tail_counts=np.concatenate([p[1] for p in parts]),
        pairings_examined=sum(p[2] for p in parts),
    )


def _csv_columns(q: int) -> list:
    return ["rep_id"] + ["U_%d" % j for j in range(1, q + 1)] + ["tail_count"]


def write_samples_csv(result: ExperimentResult, path: str) -> None:
    """CSV stream of the census matrix: rep_id, U_1..U_q, tail_count."""
    header = ",".join(_csv_columns(result.params.q))
    rows = np.column_stack((np.arange(result.n_reps), result.counts, result.tail_counts))
    np.savetxt(path, rows, fmt="%d", delimiter=",", header=header, comments="")


def sidecar_metadata(result: ExperimentResult) -> dict:
    p = result.params
    return {
        "seed": result.seed,
        "workers": result.workers,
        "n_reps": result.n_reps,
        "chunk_reps": CHUNK_REPS,
        "pairings_examined": result.pairings_examined,
        "params": {"n1": p.n1, "n2": p.n2, "q": p.q, "model": p.model},
        "columns": _csv_columns(p.q),
    }
