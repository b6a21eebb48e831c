"""Configuration-model sampling of degree-{1,2} multigraphs: uniform stub
matching, rejection to simple graphs, component census, and a seeded,
optionally parallel experiment harness that draws and rejects a block of
pairings per numpy call, and labels the degree-2 vertices of the accepted
rows a budget's worth at a time, across chunk boundaries.  The labeller is
numpy alone: it walks each path in from both ends and doubles pointers only
over the darts of the few cycles, so sampling loads no scipy.

The single-graph API is plain Python.  sample_multigraph shuffles a list of
exact.stub_owners with Generator.shuffle, making the draws of
Generator.permutation of the owner array, so it returns the graphs the
block engine's rows hold, seed for seed.  validate_structure compares a
graph's sorted edge endpoints with those owners, and census then labels the
components with UnionFind.
"""

from __future__ import annotations

import math
import operator
import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

import numpy as np

from .errors import EmptyClassError, StructuralError
from .exact import (
    GraphClassParams, census_exponents, check_counts, check_q, class_is_empty,
    params_dict, stub_owners,
)
from .unionfind import UnionFind

# replications per seeded chunk of run_experiment
CHUNK_REPS = 100
# vertices per block of pairings drawn at once (max(1, _BLOCK_VERTICES // n)
# rows), and the degree-2 vertices (rows*n2) that close a labelled batch, which
# may span chunks; bounds memory and affects speed only
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
        return len([1 for a, b in self.edges if a == b])

    @property
    def double_edge_count(self) -> int:
        """Edges beyond the first copy of their pair; degrees <= 2 cap the
        multiplicity at 2, so this is the number of double edges."""
        return len(self.edges) - len(set(self.edges))

    @property
    def is_simple(self) -> bool:
        return self.loop_count == 0 and self.double_edge_count == 0


def _stub_owners(n1: int, n2: int) -> np.ndarray:
    """exact.stub_owners(n1, n2) as an int64 array, for the block engine."""
    return np.fromiter(stub_owners(n1, n2), np.int64, n1 + 2 * n2)


def _endpoints(pairing: np.ndarray):
    """(lo, hi) ends of the edges formed by consecutive stubs along the last
    axis of a shuffled owner array."""
    a = pairing[..., 0::2]
    b = pairing[..., 1::2]
    return np.minimum(a, b), np.maximum(a, b)


def sample_multigraph(n1: int, n2: int, rng=None) -> StubMultigraph:
    """One uniform pairing of the stub multiset (Fisher-Yates shuffle of the
    stub owners, then consecutive pairs); deterministic given the generator
    state.  Shuffling the owner list makes the draws of
    rng.permutation(_stub_owners(n1, n2)) and leaves rng in the same state."""
    owners = list(stub_owners(n1, n2))  # checks the counts before the generator
    rng = np.random.default_rng(rng)
    rng.shuffle(owners)
    ends = iter(owners)
    return StubMultigraph(n1, n2, tuple([(a, b) if a <= b else (b, a) for a, b in zip(ends, ends)]))


def _check_nonempty(n1: int, n2: int, model: str) -> None:
    """EmptyClassError, before any draw, if the class is empty."""
    if class_is_empty(n1, n2, model):
        raise EmptyClassError("empty class: no %s graph has n1=%d, n2=%d" % (model, n1, n2))


def sample_simple(n1: int, n2: int, rng=None) -> StubMultigraph:
    """Rejection-sample a uniform simple graph: redraw pairings until there
    is no loop and no double edge.  Raises EmptyClassError, before drawing,
    if no simple graph has this degree profile."""
    _check_nonempty(n1, n2, "simple")
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


def census(g: StubMultigraph, q: int) -> ComponentCensus:
    """Component census of g.  Raises StructuralError if the edge multiset
    does not realize the declared degree profile; once it does, every
    component is a path or a cycle and each path holds two of the n1
    degree-1 vertices, so there are n1/2 paths."""
    q = check_q(q)
    validate_structure(g)
    sizes = UnionFind(g.n1 + g.n2, g.edges).component_sizes()
    counts = census_exponents(sizes, q)
    return ComponentCensus(
        counts=counts,
        tail_count=len(sizes) - sum(counts),
        component_sizes_sum=sum(sizes),
        path_components=g.n1 // 2,
    )


def validate_structure(g: StubMultigraph) -> None:
    """Raises StructuralError unless every component of g is a path or a
    cycle, which holds exactly when its sorted edge endpoints are
    exact.stub_owners(n1, n2), so no component is labelled (counts that
    check_counts rejects raise its DomainError there).  Proof: a
    connected component with v vertices, t of degree 1 and the rest of
    degree 2, has v - t/2 edges; being connected it has at least v - 1, so
    t is 0 or 2.  With t = 2 it has v - 1 edges and is a path; with t = 0 it
    has v edges and is a cycle (a loop or a double edge counts as a cycle)."""
    ends = tuple(sorted(chain.from_iterable(g.edges)))
    if ends != stub_owners(g.n1, g.n2):
        if ends and (ends[0] < 0 or ends[-1] >= g.n1 + g.n2):
            raise StructuralError("edge endpoint outside the vertex range")
        raise StructuralError("edge endpoints do not match the degree profile")


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
    (rows, edges) arrays lo and hi holds the edge ends of graph r, in either
    order; they are put into (min, max) order once, for _contract.  Returns
    the (rows, q) matrix of U_1..U_q and the tail counts, equal row for row to
    census() of each graph.  Raises DomainError for a negative count or an
    odd n1 (check_counts), ValueError unless lo and hi are 2-D arrays of one
    shape, and StructuralError if a row does not realize the degree profile
    (degree 1 on the first n1 vertices, 2 elsewhere).

    Once the profile holds, an edge joining two degree-1 vertices is a path
    of size 2, and every other degree-1 vertex hangs off the one degree-2
    vertex it is joined to.  So only the rows*n2 degree-2 vertices and the
    edges among them are labelled (_contract, then _tally, over the
    block-diagonal union of the rows); a component's size is its degree-2
    vertices plus the degree-1 vertices that hang off them."""
    check_counts(n1, n2)
    q = check_q(q)
    if np.ndim(lo) != 2 or np.shape(lo) != np.shape(hi):
        raise ValueError("lo and hi must be 2-D arrays of one shape")
    return _tally(n2, q, *_contract(n1, n2, np.minimum(lo, hi), np.maximum(lo, hi)))


def _contract(n1: int, n2: int, lo: np.ndarray, hi: np.ndarray):
    """census_rows' checks, then the degree-2 part of its rows, given each
    edge's ends in (min, max) order as _endpoints and census_rows give them:
    the two ends of each edge joining two degree-2 vertices, as vertex
    r*n2 + v - n1 of the union for vertex v of row r, and each row's count of
    edges joining two degree-1 vertices.  All vertex numbers are int64,
    whatever rows*(n1+n2)."""
    n = n1 + n2
    rows = lo.shape[0]
    if lo.size and (lo.min() < 0 or hi.max() >= n):
        raise StructuralError("edge endpoint outside the vertex range")
    offset = (np.arange(rows, dtype=np.int64) * n)[:, None]
    ends = np.concatenate(((lo + offset).ravel(), (hi + offset).ravel()))
    degree = np.bincount(ends, minlength=rows * n).reshape(rows, n)
    if (degree[:, :n1] != 1).any() or (degree[:, n1:] != 2).any():
        raise StructuralError("edge endpoints do not match the degree profile")
    inner = np.flatnonzero(lo >= n1)
    shift = inner // lo.shape[1] * n2 - n1
    return lo.ravel()[inner] + shift, hi.ravel()[inner] + shift, np.count_nonzero(hi < n1, axis=1)


def _tally(n2: int, q: int, first: np.ndarray, second: np.ndarray, pairs: np.ndarray):
    """census_rows' counts and tails from _contract's output for len(pairs)
    rows, in numpy alone.  Degree-2 vertex v has two ports, darts 2v and
    2v + 1.  Leaving v by dart d, a walk crosses d's edge and leaves the
    vertex at its far end by the other port: step[d], or -1 where a degree-1
    vertex hangs at d.  Each component is found twice, and halved: a path by
    a walker from each end, a cycle as one orbit of step per orientation."""
    rows, edges = pairs.size, first.size
    ends = np.concatenate((first, second))
    # of a vertex's two ends, port 0 is the one whose index the write kept,
    # so a vertex with one end leaves its port 1 hanging
    order = np.arange(2 * edges)
    slot = np.empty(rows * n2, dtype=np.int64)
    slot[ends] = order
    darts = 2 * ends + (slot[ends] != order)
    step = np.full(2 * rows * n2, -1, dtype=np.int64)
    step[darts] = np.concatenate((darts[edges:], darts[:edges])) ^ 1
    seen = step[1::2] < 0  # a port hangs: the vertex is on a path
    bare = step[0::2] < 0  # both hang: a path of size 3
    # a walker leaves each chain end by port 0 and stops at the vertex whose
    # other port hangs: the path holds its V degree-2 vertices and two more
    cur = step[2 * np.flatnonzero(seen & ~bare)]
    stops, sizes = [2 * np.flatnonzero(bare)] * 2, [3, 3]
    while cur.size:
        seen[cur >> 1] = True
        nxt = step[cur]
        end = nxt < 0
        stops.append(cur[end])
        sizes.append(sizes[-1] + 1)
        cur = nxt[~end]
    vertex = np.concatenate(stops) >> 1
    size = np.repeat(sizes, [v.size for v in stops])
    # no walker reaches a cycle: min-label pointer doubling over the darts of
    # the unseen vertices alone labels each orbit, of at most half of them,
    # by its least dart
    cycle_darts = (2 * np.flatnonzero(~seen)[:, None] + (0, 1)).ravel()
    ptr = np.searchsorted(cycle_darts, step[cycle_darts])
    label = np.arange(cycle_darts.size)
    for _ in range((cycle_darts.size // 2 - 1).bit_length()):
        label = np.minimum(label, label[ptr])
        ptr = ptr[ptr]
    root = np.flatnonzero(label == np.arange(label.size))
    vertex = np.concatenate((vertex, cycle_darts[root] >> 1))
    size = np.concatenate((size, np.bincount(label)[root]))
    bucket = vertex // n2 * (q + 1) + np.minimum(size, q + 1) - 1
    tally = np.bincount(bucket, minlength=rows * (q + 1)).reshape(rows, q + 1) // 2
    tally[:, 1] += pairs  # the paths of size 2
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


def _simple_rows(lo: np.ndarray, hi: np.ndarray, n1: int, n: int) -> np.ndarray:
    """Mask of the simple rows of a block of pairings on n vertices, ends in
    (min, max) order.  A degree-1 vertex has one stub, so a loop or a double
    edge joins two degree-2 vertices: only their edges are tested, in one sort
    of the keys row*n^2 + lo*n + hi, where one edge in two rows is two keys."""
    simple = np.ones(lo.shape[0], dtype=bool)
    inner = np.flatnonzero(lo >= n1)
    row, lo, hi = inner // lo.shape[1], lo.ravel()[inner], hi.ravel()[inner]
    keys = np.sort((row * n + lo) * n + hi)
    simple[row[lo == hi]] = False
    simple[keys[1:][keys[1:] == keys[:-1]] // (n * n)] = False
    return simple


def _sample_chunks(params: GraphClassParams, seeds, sizes):
    """Censuses of the first sizes[i] accepted pairings of the row stream of
    default_rng(seeds[i]) for each chunk i in turn, and the pairings examined
    up to the last of them, summed over the chunks.

    Generator.permuted shuffles row after row with the draws of one
    Generator.permutation each, so the rows are the pairings that successive
    sample_multigraph calls would draw, and the output does not depend on
    how the stream is cut into blocks.  Each block of at most max_rows
    pairings is drawn, rejected and contracted to its degree-2 part at once
    (_contract).  Labelling draws no random numbers, so the contracted rows
    wait, across chunks, until they hold _BLOCK_VERTICES degree-2 vertices
    or the last chunk ends, and are then labelled in one _tally call."""
    n1, n2, q = params.n1, params.n2, params.q
    n = n1 + n2
    owners = _stub_owners(n1, n2)
    simple = params.model == "simple"
    accept = acceptance_limit(params)
    max_rows = max(1, _BLOCK_VERTICES // max(n, 1))
    labelled, batch, pending, examined = [], [], 0, 0
    for seed_seq, need, later in zip(seeds, sizes, range(len(sizes) - 1, -1, -1)):
        rng = np.random.default_rng(seed_seq)
        while need:
            rows = min(max_rows, math.ceil(need / accept))
            lo, hi = _endpoints(rng.permuted(np.broadcast_to(owners, (rows, owners.size)), axis=1))
            if simple:
                kept = np.flatnonzero(_simple_rows(lo, hi, n1, n))[:need]
                if kept.size == need:
                    rows = int(kept[-1]) + 1
                lo, hi = lo[kept], hi[kept]
            first, second, row_pairs = _contract(n1, n2, lo, hi)
            batch.append((first + pending * n2, second + pending * n2, row_pairs))
            pending += lo.shape[0]
            need -= lo.shape[0]
            examined += rows
            if pending * max(n2, 1) >= _BLOCK_VERTICES or not (need or later):
                labelled.append(_tally(n2, q, *map(np.concatenate, zip(*batch))))
                batch, pending = [], 0
    counts, tails = zip(*labelled)
    return np.concatenate(counts), np.concatenate(tails), examined


def available_cpus() -> int:
    """CPUs this process may run on (all CPUs where the platform has no
    affinity call): the default worker count of ``degseq sample`` and of the
    Monte Carlo checks."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_experiment(
    params: GraphClassParams, n_reps: int, seed: int, workers: int = 1
) -> ExperimentResult:
    """N independent censuses, fixed by the seed alone: chunk c holds
    replications [CHUNK_REPS*c, CHUNK_REPS*(c+1)), the first accepted
    pairings of the row stream of child c of SeedSequence(seed), so workers
    only share out chunks, and a run of N replications is the first N rows of
    any longer run with the same seed.  Raises EmptyClassError for an empty
    class, and TypeError unless n_reps, workers and seed are integers."""
    n_reps, workers, seed = operator.index(n_reps), operator.index(workers), operator.index(seed)
    if n_reps < 1:
        raise ValueError("need at least one replication")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    _check_nonempty(params.n1, params.n2, params.model)
    n_chunks = -(-n_reps // CHUNK_REPS)
    seeds = np.random.SeedSequence(seed).spawn(n_chunks)
    sizes = [min(CHUNK_REPS, n_reps - CHUNK_REPS * c) for c in range(n_chunks)]
    workers = min(workers, n_chunks)
    # a few tasks of contiguous chunks per worker; a task labels its chunks together
    step = -(-n_chunks // (4 * workers)) if workers > 1 else n_chunks
    tasks = zip(*[(params, seeds[i : i + step], sizes[i : i + step]) for i in range(0, n_chunks, step)])
    if workers == 1:
        parts = list(map(_sample_chunks, *tasks))
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_sample_chunks, *tasks))
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
    rows = np.column_stack((np.arange(result.n_reps), result.counts, result.tail_counts)).tolist()
    with open(path, "w") as fh:
        fh.writelines(",".join(map(str, row)) + "\n" for row in [_csv_columns(result.params.q)] + rows)


def sidecar_metadata(result: ExperimentResult) -> dict:
    p = result.params
    return {
        "seed": result.seed,
        "workers": result.workers,
        "n_reps": result.n_reps,
        "chunk_reps": CHUNK_REPS,
        "pairings_examined": result.pairings_examined,
        "params": params_dict(p),
        "columns": _csv_columns(p.q),
    }
