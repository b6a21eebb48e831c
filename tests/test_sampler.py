import hashlib
import json
import math
import pickle
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from degseq.errors import DomainError, EmptyClassError, StructuralError
from degseq.exact import GraphClassParams, brute_force_multigraph
from degseq.series import build_cycle_series
from degseq import sampler
from degseq.sampler import (
    CHUNK_REPS,
    StubMultigraph,
    acceptance_limit,
    available_cpus,
    census,
    census_rows,
    compensation_factor,
    run_experiment,
    sample_multigraph,
    sample_simple,
    sidecar_metadata,
    validate_structure,
    write_samples_csv,
)
from degseq.unionfind import UnionFind

F = Fraction


def test_single_edge_class_is_deterministic():
    for seed in range(5):
        g = sample_multigraph(2, 0, seed)
        assert g.edges == ((0, 1),)
        c = census(g, 2)
        assert c.counts == (0, 1)
        assert c.path_components == 1 and sum(c.counts) + c.tail_count - c.path_components == 0


def test_single_loop_class():
    g = sample_multigraph(0, 1, 3)
    assert g.edges == ((0, 0),)
    assert g.loop_count == 1
    c = census(g, 2)
    assert c.counts == (1, 0)
    assert sum(c.counts) + c.tail_count - c.path_components == 1  # one cycle
    assert compensation_factor(g) == F(1, 2)


def test_odd_n1_rejected():
    with pytest.raises(ValueError):
        sample_multigraph(3, 1)


def test_two_degree_two_vertices_distribution():
    # 3 pairings of 4 stubs: 2 give a double edge, 1 gives two loops
    rng = np.random.default_rng(11)
    hits = Counter()
    n = 100000
    for _ in range(n):
        hits[census(sample_multigraph(0, 2, rng), 2).counts] += 1
    p_double = hits[(0, 1)] / n
    se = math.sqrt((2 / 3) * (1 / 3) / n)
    assert abs(p_double - 2 / 3) <= 4 * se
    assert hits[(0, 1)] + hits[(2, 0)] == n


def test_census_handcrafted_path_plus_triangle():
    # path 0-2-3-1 (size 4) and triangle 4-5-6; vertices 0,1 have degree 1
    g = StubMultigraph(
        n1=2,
        n2=5,
        edges=((0, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)),
    )
    c = census(g, 4)
    assert c.counts == (0, 0, 1, 1)
    assert c.path_components == 1 and sum(c.counts) + c.tail_count - c.path_components == 1
    assert c.component_sizes_sum == 7
    validate_structure(g)


def test_census_tail_bucket():
    g = sample_simple(2, 4, 5)  # one path of size 6 possible plus smaller splits
    c = census(g, 3)
    assert c.component_sizes_sum == 6
    assert sum((j + 1) * c.counts[j] for j in range(3)) + c.tail_count * 0 <= 6
    if c.tail_count:
        assert sum(c.counts) + c.tail_count - c.path_components >= 0  # cycles


@pytest.mark.parametrize("edges", [((0, -1), (1, 2)), ((0, 2), (1, 3)), ((-3, 0), (1, 2))])
def test_census_rejects_endpoints_outside_the_vertex_range(edges):
    # (0, -1) must not be read as (0, 2) through negative indexing
    g = StubMultigraph(n1=2, n2=1, edges=edges)
    with pytest.raises(StructuralError, match="outside the vertex range"):
        census(g, 3)
    with pytest.raises(StructuralError, match="outside the vertex range"):
        validate_structure(g)


def test_census_rejects_non_integer_q():
    g = StubMultigraph(n1=2, n2=0, edges=((0, 1),))
    with pytest.raises(TypeError):
        census(g, 2.5)
    assert census(g, np.int64(2)) == census(g, 2)


@pytest.mark.parametrize(
    "call",
    (
        lambda: census_rows(2, 0, 2.5, np.array([[0]]), np.array([[1]])),
        lambda: build_cycle_series(2.5, 3),
        lambda: census(StubMultigraph(n1=2, n2=0, edges=((0, 1),)), 2.5),
    ),
    ids=("census_rows", "build_cycle_series", "census"),
)
def test_float_q_raises_type_error(call):
    # exact.check_q reads q through operator.index in every pipeline
    with pytest.raises(TypeError, match="integer"):
        call()


def test_census_rejects_bad_degrees():
    g = StubMultigraph(n1=2, n2=1, edges=((0, 1), (1, 2)))
    with pytest.raises(StructuralError):
        census(g, 2)
    with pytest.raises(StructuralError):
        validate_structure(g)


def test_validate_structure_rejects_forged_component():
    # only vertex 0 is looped, vertex 1 is left with degree 0
    g = StubMultigraph(n1=0, n2=2, edges=((0, 0),))
    with pytest.raises(StructuralError):
        validate_structure(g)
    with pytest.raises(StructuralError):
        census(g, 2)


def test_validate_structure_labels_no_component(monkeypatch):
    # the check compares sorted endpoints with the stub owners; a labeller
    # that raises is never reached, for a sampled graph or a forged one
    def no_labelling(*args):
        raise AssertionError("validate_structure labelled components")

    monkeypatch.setattr(sampler, "UnionFind", no_labelling)
    g = sample_multigraph(8, 6, 5)
    validate_structure(g)
    (a, _), *rest = g.edges
    with pytest.raises(StructuralError, match="edge endpoints do not match the degree profile"):
        validate_structure(StubMultigraph(8, 6, ((a, a), *rest)))
    with pytest.raises(StructuralError, match="edge endpoint outside the vertex range"):
        validate_structure(StubMultigraph(8, 6, ((a, 14), *rest)))


@pytest.mark.parametrize(
    "g", (StubMultigraph(-2, 1, ((-2, -2),)), StubMultigraph(0, -1, ())), ids=("n1", "n2")
)
def test_forged_graph_with_a_negative_count_raises_domain_error(g):
    # each graph's sorted endpoints equal stub_owners' list for its negative
    # count, so only the count check can reject it
    with pytest.raises(DomainError, match="vertex counts must be nonnegative"):
        validate_structure(g)
    with pytest.raises(DomainError, match="vertex counts must be nonnegative"):
        census(g, 2)


def test_float_vertex_counts_raise_after_the_int_profile_is_cached():
    # stub_owners caches by argument type, so 8.0 never reads the entry of 8
    g = sample_multigraph(8, 6, 1)
    with pytest.raises(TypeError):
        sample_multigraph(8.0, 6, 1)
    with pytest.raises(TypeError):
        validate_structure(StubMultigraph(8.0, 6, g.edges))


def test_compensation_factor_matches_counter_formula():
    def by_counter(g):
        denom = 1 << g.loop_count
        for mult in Counter(g.edges).values():
            denom *= math.factorial(mult)
        return F(1, denom)

    rng = np.random.default_rng(3)
    graphs = [sample_multigraph(n1, n2, rng) for n1, n2 in [(0, 2), (2, 3), (0, 5), (8, 6)] * 50]
    assert any(g.loop_count for g in graphs) and any(g.double_edge_count for g in graphs)
    assert any(g.loop_count and g.double_edge_count for g in graphs)
    triple = StubMultigraph(0, 3, ((0, 1), (0, 1), (0, 1), (2, 2)))
    for g in graphs + [triple]:
        assert compensation_factor(g) == by_counter(g)
    assert compensation_factor(triple) == F(1, 12)


def test_compensation_factor_values():
    simple = sample_simple(4, 2, 7)
    assert compensation_factor(simple) == 1
    loop = StubMultigraph(0, 1, ((0, 0),))
    assert compensation_factor(loop) == F(1, 2)
    double = StubMultigraph(0, 2, ((0, 1), (0, 1)))
    assert compensation_factor(double) == F(1, 2)
    two_loops = StubMultigraph(0, 2, ((0, 0), (1, 1)))
    assert compensation_factor(two_loops) == F(1, 4)
    assert (loop.loop_count, double.double_edge_count, two_loops.loop_count) == (1, 1, 2)
    assert not (loop.is_simple or double.is_simple) and simple.is_simple


def test_sample_simple_triangle_only_outcome():
    for seed in range(3):
        g = sample_simple(0, 3, seed)
        assert census(g, 3).counts == (0, 0, 1)
        assert compensation_factor(g) == 1


def test_sample_simple_empty_class_raises():
    # the closed-form emptiness test answers before any draw, with one
    # message for the single-graph sampler and the experiment
    for n2 in (1, 2):
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        with pytest.raises(EmptyClassError, match="empty class"):
            sample_simple(0, n2, rng)
        assert rng.bit_generator.state == state
        with pytest.raises(EmptyClassError, match="empty class"):
            run_experiment(GraphClassParams(0, n2), 5, seed=1)
    with pytest.raises(ValueError):
        sample_simple(3, 1, 1)


@pytest.mark.parametrize("n1, n2", [(-2, 3), (0, -1), (-2, -2)])
def test_samplers_reject_negative_vertex_counts(n1, n2):
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    for draw in (sample_multigraph, sample_simple):
        with pytest.raises(ValueError, match="vertex counts must be nonnegative"):
            draw(n1, n2, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("n1, n2", [(0, 0), (2, 0), (0, 7), (4, 4), (8, 6), (2000, 1000)])
def test_sample_multigraph_draws_the_permutation_stream(n1, n2):
    """The list shuffle makes the draws of Generator.permutation of the stub
    owner array, pairing for pairing, and leaves the generator in the same
    state."""
    for seed in range(4):
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            lo, hi = sampler._endpoints(twin.permutation(sampler._stub_owners(n1, n2)))
            assert sample_multigraph(n1, n2, rng).edges == tuple(zip(lo.tolist(), hi.tolist()))
            assert rng.bit_generator.state == twin.bit_generator.state


def test_sample_simple_stream_is_pinned():
    # sha256 of 2000 successive sample_simple(8, 6) edge tuples from seed 7,
    # recorded with the numpy permutation draw the list shuffle replaced
    rng = np.random.default_rng(7)
    digest = hashlib.sha256()
    for _ in range(2000):
        digest.update(repr(sample_simple(8, 6, rng).edges).encode())
    assert digest.hexdigest() == "2fca9da8a964507abca1befbf7abf6f67b8425093c35c27ee77aa559757f3f3c"


def test_sample_simple_immediate_for_trivial_class():
    # the single edge 0-1 is simple, so one permutation is drawn
    rng, twin = np.random.default_rng(9), np.random.default_rng(9)
    g = sample_simple(2, 0, rng)
    assert g.edges == ((0, 1),)
    twin.permutation(2)
    assert rng.bit_generator.state == twin.bit_generator.state


def test_run_experiment_deterministic():
    p = GraphClassParams(8, 6, q=4, model="multigraph")
    a = run_experiment(p, 50, seed=3)
    b = run_experiment(p, 50, seed=3)
    assert np.array_equal(a.counts, b.counts)
    assert np.array_equal(a.tail_counts, b.tail_counts)
    c = run_experiment(p, 50, seed=4)
    assert not np.array_equal(a.counts, c.counts)


def test_run_experiment_single_rep():
    p = GraphClassParams(2, 0, q=2)
    r = run_experiment(p, 1, seed=0)
    assert r.counts.shape == (1, 2)
    assert r.counts[0, 1] == 1


def test_available_cpus_without_an_affinity_call_counts_every_cpu(monkeypatch):
    monkeypatch.delattr(sampler.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(sampler.os, "cpu_count", lambda: 3)
    assert available_cpus() == 3
    monkeypatch.setattr(sampler.os, "cpu_count", lambda: None)
    assert available_cpus() == 1


def test_run_experiment_parallel_workers_deterministic():
    p = GraphClassParams(6, 4, q=3, model="multigraph")
    a = run_experiment(p, 40, seed=5, workers=2)
    b = run_experiment(p, 40, seed=5, workers=2)
    assert np.array_equal(a.counts, b.counts)
    # chunk prefix property: a run of N reps is the first N rows of any
    # longer run with the same seed
    solo = run_experiment(p, 20, seed=5, workers=1)
    assert np.array_equal(a.counts[:20], solo.counts)


@pytest.mark.parametrize("model", ["simple", "multigraph"])
def test_run_experiment_output_independent_of_workers(model):
    # 250 reps: two full chunks and a partial one
    # the worker processes receive the params pickled, and a record rebuilt by
    # pickle samples as the original does in-process
    p = GraphClassParams.from_alpha(1.0, 40, q=3, model=model)
    solo = run_experiment(p, 250, seed=7, workers=1)
    pair = run_experiment(pickle.loads(pickle.dumps(p)), 250, seed=7, workers=2)
    assert pair.params == p and pair.workers == 2
    assert solo.counts.shape == (250, 3)
    assert np.array_equal(solo.counts, pair.counts)
    assert np.array_equal(solo.tail_counts, pair.tail_counts)
    head = run_experiment(p, 130, seed=7, workers=2)
    assert np.array_equal(head.counts, solo.counts[:130])


@pytest.mark.parametrize("workers", (0, -1))
def test_run_experiment_rejects_fewer_than_one_worker(workers):
    with pytest.raises(ValueError, match="workers must be >= 1"):
        run_experiment(GraphClassParams(4, 2, q=3), 5, seed=0, workers=workers)


@pytest.mark.parametrize(
    "n_reps, workers",
    [(5, 1.5), (5, 2.0), (250, 1.5), (5.0, 1), (0.5, 1)],
    ids=["workers-1.5-one-chunk", "workers-2.0-one-chunk", "workers-1.5-three-chunks",
         "n_reps-5.0", "n_reps-0.5"],
)
def test_run_experiment_checks_integer_arguments_on_entry(n_reps, workers):
    # the empty class (one vertex of degree 2 has only a loop) is reported
    # after the argument types, so each float is caught before anything else
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        run_experiment(GraphClassParams(0, 1, q=3), n_reps, seed=0, workers=workers)


def test_run_experiment_stores_integer_workers():
    p = GraphClassParams(4, 2, q=3)
    flagged = run_experiment(p, 5, seed=0, workers=True)
    assert type(flagged.workers) is int and json.dumps(sidecar_metadata(flagged)["workers"]) == "1"
    wide = run_experiment(p, np.int64(5), seed=0, workers=np.int64(1))
    assert type(wide.workers) is int and json.loads(json.dumps(sidecar_metadata(wide)))["workers"] == 1
    assert np.array_equal(wide.counts, flagged.counts)


def test_run_experiment_stores_an_integer_seed():
    p = GraphClassParams(4, 2, q=3)
    flagged = run_experiment(p, 5, seed=True)
    assert type(flagged.seed) is int and json.dumps(sidecar_metadata(flagged)["seed"]) == "1"
    wide = run_experiment(p, 5, seed=np.int64(7))
    assert type(wide.seed) is int and json.loads(json.dumps(sidecar_metadata(wide)))["seed"] == 7
    assert np.array_equal(wide.counts, run_experiment(p, 5, seed=7).counts)


def test_run_experiment_rejects_a_negative_seed_before_any_draw(monkeypatch):
    def no_draw(*args):
        raise AssertionError("a chunk was drawn before the seed was checked")

    monkeypatch.setattr(sampler, "_sample_chunks", no_draw)
    with pytest.raises(ValueError, match="^seed must be nonnegative$"):
        run_experiment(GraphClassParams(4, 2, q=3), 5, seed=-1)


def test_run_experiment_checks_an_integer_seed_on_entry():
    # before the empty-class check, as n_reps and workers are
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        run_experiment(GraphClassParams(0, 1, q=3), 5, seed=7.0)


def _single_graph_rows(p, n_reps, seed):
    """Census rows and pairings drawn when chunk c runs the single-graph
    sampler (sample_simple's loop written out) on child c of
    SeedSequence(seed)."""
    rows, drawn = [], 0
    children = np.random.SeedSequence(seed).spawn(-(-n_reps // CHUNK_REPS))
    for c, child in enumerate(children):
        rng = np.random.default_rng(child)
        for _ in range(min(CHUNK_REPS, n_reps - CHUNK_REPS * c)):
            while True:
                g = sample_multigraph(p.n1, p.n2, rng)
                drawn += 1
                if p.model == "multigraph" or g.is_simple:
                    break
            cen = census(g, p.q)
            rows.append(list(cen.counts) + [cen.tail_count])
    return rows, drawn


@pytest.mark.parametrize("model", ["simple", "multigraph"])
@pytest.mark.parametrize("n1,n_reps", [(40, 250), (2000, 120)])
def test_run_experiment_matches_single_graph_sampler(model, n1, n_reps):
    # the batch engine keeps the first accepted pairings of each chunk's row
    # stream, which are the graphs the single-graph sampler returns from the
    # same generator; at n1=2000 a chunk spans several blocks
    p = GraphClassParams.from_alpha(1.0, n1, q=3, model=model)
    r = run_experiment(p, n_reps, seed=11)
    rows, drawn = _single_graph_rows(p, n_reps, 11)
    assert np.column_stack((r.counts, r.tail_counts)).tolist() == rows
    assert r.pairings_examined == drawn


@pytest.mark.parametrize("model", ["simple", "multigraph"])
def test_run_experiment_independent_of_block_size(model, monkeypatch):
    # n = 60: one block per chunk by default, 34-row blocks at 2**11 vertices
    p = GraphClassParams.from_alpha(1.0, 40, q=3, model=model)
    wide = run_experiment(p, 250, seed=7)
    monkeypatch.setattr(sampler, "_BLOCK_VERTICES", 2**11)
    narrow = run_experiment(p, 250, seed=7)
    assert np.array_equal(wide.counts, narrow.counts)
    assert np.array_equal(wide.tail_counts, narrow.tail_counts)
    assert wide.pairings_examined == narrow.pairings_examined


def test_acceptance_matches_closed_form():
    # exp(-nu/2 - nu^2/4) with nu = 1/2 at alpha = 1 (Bollobas 1980; Janson 2009)
    p = GraphClassParams.from_alpha(1.0, 2000, q=4)
    assert acceptance_limit(p) == pytest.approx(0.7316156, abs=1e-7)
    assert acceptance_limit(GraphClassParams(2000, 1000, q=4, model="multigraph")) == 1.0
    r = run_experiment(p, 5000, seed=23)
    rate = r.n_reps / r.pairings_examined
    se = math.sqrt(rate * (1 - rate) / r.pairings_examined)
    assert abs(rate - acceptance_limit(p)) <= 4 * se


def test_census_rows_rejects_forged_degree_profile():
    # n1 = 2, n2 = 1: the path 0-2-1 passes; next to it, a row with the edge
    # 0-2 and a loop at 2 (degrees 1, 0, 3) fails, and so does a row naming
    # vertex 3, in hi or in lo, or vertex -1 in hi: ends come in either order
    good = (np.array([[0, 1]]), np.array([[2, 2]]))
    assert [a.tolist() for a in census_rows(2, 1, 2, *good)] == [[[0, 0]], [1]]
    forged = (
        ([[0, 1], [0, 2]], [[2, 2], [2, 2]]),
        ([[0, 1]], [[2, 3]]),
        ([[0, 3]], [[2, 2]]),
        ([[0, 1]], [[2, -1]]),
    )
    for lo, hi in forged:
        with pytest.raises(StructuralError):
            census_rows(2, 1, 2, np.array(lo), np.array(hi))


def _either_order(edges, rng):
    """(lo, hi) arrays of a (rows, edges, 2) block with each edge's ends
    swapped at random."""
    swap = rng.random(edges.shape[:2]) < 0.5
    return np.where(swap, edges[..., 1], edges[..., 0]), np.where(swap, edges[..., 0], edges[..., 1])


@pytest.mark.parametrize("model", ("simple", "multigraph"))
def test_census_rows_matches_census_on_random_blocks(model):
    # seeded blocks of 0 to 5 graphs, ends in either order; the empty graph,
    # n1 = 0 (cycles only), n2 = 0 (size-2 paths only), and a q above every
    # component
    rng = np.random.default_rng(53 if model == "simple" else 59)
    draw = sample_simple if model == "simple" else sample_multigraph
    cases = [(0, 0), (0, 3), (0, 9), (2, 0), (10, 0), (2, 1), (8, 6), (30, 12), (6, 40)]
    tails = 0
    for n1, n2 in cases:
        for rows in (0, int(rng.integers(1, 6))):
            graphs = [draw(n1, n2, rng) for _ in range(rows)]
            edges = np.array([g.edges for g in graphs], dtype=np.int64).reshape(rows, n1 // 2 + n2, 2)
            lo, hi = _either_order(edges, rng)
            for q in (2, 3, n1 + n2 + 2):
                counts, tail_counts = census_rows(n1, n2, q, lo, hi)
                assert counts.shape == (rows, q) and tail_counts.shape == (rows,)
                for g, row, tail in zip(graphs, counts.tolist(), tail_counts.tolist()):
                    c = census(g, q)
                    assert (list(c.counts), c.tail_count) == (row, tail)
                if q > n1 + n2:
                    assert not tail_counts.any()
                tails += int(tail_counts.sum())
    assert tails > 0


def test_census_rows_rejects_a_forged_row_after_good_ones():
    # one edge (x, y), x != y, of a later row becomes the loop (x, x): y
    # loses a degree and x gains one, so only that row breaks the profile
    rng = np.random.default_rng(61)
    n1, n2 = 6, 5
    edges = np.array([sample_multigraph(n1, n2, rng).edges for _ in range(4)])
    lo, hi = _either_order(edges, rng)
    census_rows(n1, n2, 3, lo, hi)
    for r in (1, 3):
        k = int(np.flatnonzero(lo[r] != hi[r])[0])
        forged = lo.copy(), hi.copy()
        forged[1][r, k] = forged[0][r, k]
        with pytest.raises(StructuralError, match="degree profile"):
            census_rows(n1, n2, 3, *forged)


@pytest.mark.parametrize("model", ["simple", "multigraph"])
def test_run_experiment_independent_of_labelling_batches(model, monkeypatch):
    # n = 60, n2 = 20: by default the three chunks share one labelling call;
    # at _BLOCK_VERTICES = 200 a block has 3 rows and a batch closes once its
    # rows hold 200 degree-2 vertices, so it holds under 200 + 3*20 of them,
    # and the 250 rows are labelled in over 20 calls
    p = GraphClassParams.from_alpha(1.0, 40, q=3, model=model)
    batches = []
    tally = sampler._tally
    monkeypatch.setattr(sampler, "_tally", lambda *args: batches.append(len(args[4])) or tally(*args))
    wide = run_experiment(p, 250, seed=19)
    assert batches == [250]
    batches.clear()
    monkeypatch.setattr(sampler, "_BLOCK_VERTICES", 200)
    narrow = run_experiment(p, 250, seed=19)
    assert sum(batches) == 250 and len(batches) >= 250 // 12
    assert max(batches) * p.n2 < 200 + 3 * p.n2
    assert np.array_equal(wide.counts, narrow.counts)
    assert np.array_equal(wide.tail_counts, narrow.tail_counts)
    assert wide.pairings_examined == narrow.pairings_examined


def test_simple_rows_tests_each_row_on_its_own():
    # n1 = 2, n2 = 4: a path 0-2-3-4-5-1, a double edge {4,5}, a loop at 2,
    # and a 4-cycle that shares the edges {2,3}, {3,4}, {4,5} with the path
    block = [
        [(0, 2), (2, 3), (3, 4), (4, 5), (1, 5)],
        [(0, 2), (2, 3), (1, 3), (4, 5), (4, 5)],
        [(0, 1), (2, 2), (3, 4), (4, 5), (3, 5)],
        [(0, 1), (2, 3), (3, 4), (4, 5), (2, 5)],
    ]
    expected = [True, False, False, True]
    assert [StubMultigraph(2, 4, tuple(map(tuple, row))).is_simple for row in block] == expected
    edges = np.array(block, dtype=np.int64)
    lo, hi = edges[..., 0], edges[..., 1]
    assert sampler._simple_rows(lo, hi, 2, 6).tolist() == expected
    for r in range(4):
        assert sampler._simple_rows(lo[r : r + 1], hi[r : r + 1], 2, 6).tolist() == [expected[r]]


def test_run_experiment_mean_component_count():
    # E[U_2] ~ n1/4 at alpha = 1
    p = GraphClassParams.from_alpha(1.0, 200, q=3)
    r = run_experiment(p, 2000, seed=13)
    u2 = r.counts[:, 1]
    se = u2.std(ddof=1) / math.sqrt(len(u2))
    assert abs(u2.mean() - 50.0) <= 4 * se + 0.5


def test_empirical_matches_matching_oracle_small():
    n1, n2, q = 2, 2, 4
    oracle = brute_force_multigraph(GraphClassParams(n1, n2, q=q, model="multigraph"))
    probs = {k: v / oracle.total for k, v in oracle.poly.terms.items()}
    rng = np.random.default_rng(17)
    hits = Counter()
    n = 40000
    for _ in range(n):
        hits[census(sample_multigraph(n1, n2, rng), q).counts] += 1
    for key, p in probs.items():
        se = math.sqrt(float(p) * (1 - float(p)) / n)
        assert abs(hits[key] / n - float(p)) <= 5 * se + 1e-9


def test_structural_invariants_on_samples():
    rng = np.random.default_rng(23)
    for _ in range(2000):
        g = sample_multigraph(6, 5, rng)
        c = census(g, 4)
        assert c.component_sizes_sum == 11
        assert c.path_components == 3
        validate_structure(g)


def _root(uf, v):
    while uf.parent[v] != v:
        v = uf.parent[v]
    return v


def _two_pass_structure_ok(g):
    """The per-component rule validate_structure used to apply after the
    degree check: every component is a path (two degree-1 vertices,
    edges = vertices - 1) or a cycle (none, edges = vertices)."""
    degree = [0] * (g.n1 + g.n2)
    for a, b in g.edges:
        degree[a] += 1
        degree[b] += 1
    if degree != [1] * g.n1 + [2] * g.n2:
        return False
    uf = UnionFind(g.n1 + g.n2, g.edges)
    edge_count = Counter(_root(uf, a) for a, _ in g.edges)
    deg1_count = Counter(_root(uf, v) for v in range(g.n1))
    for root, p in enumerate(uf.parent):
        if p != root:
            continue
        vertices, edges_in, ones = uf.size[root], edge_count[root], deg1_count[root]
        if not ((ones == 2 and edges_in == vertices - 1) or (ones == 0 and edges_in == vertices)):
            return False
    return True


def test_validate_structure_is_the_degree_check_exhaustively():
    # every edge multiset on n <= 6 vertices with n1/2 + n2 edges (n1 even):
    # the degree-profile check alone raises exactly when the two-pass rule
    # rejects
    checked = accepted = 0
    for n in range(1, 7):
        pairs = list(combinations_with_replacement(range(n), 2))
        for n1 in range(0, n + 1, 2):
            for edges in combinations_with_replacement(pairs, n1 // 2 + n - n1):
                g = StubMultigraph(n1, n - n1, edges)
                try:
                    validate_structure(g)
                    ok = True
                except StructuralError:
                    ok = False
                assert ok == _two_pass_structure_ok(g), edges
                checked += 1
                accepted += ok
    assert (checked, accepted) == (312202, 690)


@pytest.mark.parametrize("model", ("simple", "multigraph"))
def test_defect_counts_match_engine_rule(model):
    # blocks of pairings drawn as the engine draws them (rng.permuted over
    # rows of the stub-owner array); per row, StubMultigraph's derived counts
    # agree with the lo == hi and repeated-sorted-key rule, and the engine's
    # _simple_rows keeps exactly the simple rows
    rng = np.random.default_rng(43 if model == "simple" else 47)
    q = 3
    logs = rng.uniform(math.log(3), math.log(3000), 58)
    n_values = [3, 3000] + np.rint(np.exp(logs)).astype(int).tolist()
    defective = 0
    for n in n_values:
        n1 = 2 * int(rng.integers(0, n // 2 + 1))
        owners = sampler._stub_owners(n1, n - n1)
        block = rng.permuted(np.broadcast_to(owners, (8, owners.size)), axis=1)
        lo, hi = sampler._endpoints(block)
        keys = np.sort(lo.astype(np.int64) * n + hi, axis=1)
        loops = (lo == hi).sum(axis=1).tolist()
        repeats = (keys[:, 1:] == keys[:, :-1]).sum(axis=1).tolist()
        graphs = [StubMultigraph(n1, n - n1, tuple(zip(a, b))) for a, b in zip(lo.tolist(), hi.tolist())]
        for g, row_loops, row_repeats in zip(graphs, loops, repeats):
            assert (g.loop_count, g.double_edge_count) == (row_loops, row_repeats)
            assert g.is_simple == (row_loops == row_repeats == 0)
            defective += not g.is_simple
        assert sampler._simple_rows(lo, hi, n1, n).tolist() == [g.is_simple for g in graphs]
        if model == "multigraph":
            # a loop is a component of size 1
            counts, _ = census_rows(n1, n - n1, q, lo, hi)
            assert counts[:, 0].tolist() == loops
        else:
            # the rows the engine keeps are the simple ones, census for census
            kept = [r for r, g in enumerate(graphs) if g.is_simple]
            counts, tails = census_rows(n1, n - n1, q, lo[kept], hi[kept])
            for r, row, tail in zip(kept, counts.tolist(), tails.tolist()):
                c = census(graphs[r], q)
                assert (c.counts, c.tail_count) == (tuple(row), tail)
    assert defective > 0


def _reference_census(g, q):
    """Census from scipy's connected_components, independent of UnionFind."""
    n = g.n1 + g.n2
    lo, hi = np.array(g.edges).T
    adjacency = coo_matrix((np.ones(lo.size), (lo, hi)), shape=(n, n))
    _, labels = connected_components(adjacency, directed=False)
    sizes = np.bincount(labels)
    counts = tuple(int(np.count_nonzero(sizes == j)) for j in range(1, q + 1))
    n_paths = len(set(labels[: g.n1].tolist()))
    return counts, int(np.count_nonzero(sizes > q)), int(sizes.sum()), n_paths, sizes.size - n_paths


@pytest.mark.parametrize("model", ("simple", "multigraph"))
def test_census_matches_connected_components(model):
    # 100 blocks of three pairings per model, n1 + n2 from 3 to 3000
    # (log-uniform); q = 3 so the tail bucket fills.  census_rows labels each
    # block at once and must give census()'s counts row for row.
    rng = np.random.default_rng(41)
    draw = sample_simple if model == "simple" else sample_multigraph
    q = 3
    logs = rng.uniform(math.log(3), math.log(3000), 98)
    n_values = [3, 3000] + np.rint(np.exp(logs)).astype(int).tolist()
    tails = 0
    for n in n_values:
        n1 = 2 * int(rng.integers(0, n // 2 + 1))
        graphs = [draw(n1, n - n1, rng) for _ in range(3)]
        edges = np.array([g.edges for g in graphs])
        block_counts, block_tails = census_rows(n1, n - n1, q, edges[..., 0], edges[..., 1])
        for g, counts, tail in zip(graphs, block_counts.tolist(), block_tails.tolist()):
            c = census(g, q)
            cycles = sum(c.counts) + c.tail_count - c.path_components
            got = (c.counts, c.tail_count, c.component_sizes_sum, c.path_components, cycles)
            assert got == _reference_census(g, q)
            assert (c.counts, c.tail_count) == (tuple(counts), tail)
            tails += c.tail_count
    assert tails > 0


def test_csv_and_sidecar(tmp_path):
    p = GraphClassParams(4, 2, q=3)
    r = run_experiment(p, 5, seed=1)
    out = tmp_path / "samples.csv"
    write_samples_csv(r, str(out))
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "rep_id,U_1,U_2,U_3,tail_count"
    assert len(lines) == 6
    first = [int(x) for x in lines[1].split(",")]
    assert first[0] == 0 and len(first) == 5
    meta = sidecar_metadata(r)
    blob = json.loads(json.dumps(meta))
    assert blob["seed"] == 1 and blob["params"]["n1"] == 4
    assert blob["chunk_reps"] == CHUNK_REPS
    assert blob["pairings_examined"] == r.pairings_examined >= 5
    assert blob["columns"][0] == "rep_id"


@pytest.mark.parametrize("q", [2, 4, 8])
@pytest.mark.parametrize("n_reps", [1, 250])
def test_csv_bytes_equal_savetxt(q, n_reps, tmp_path):
    rng = np.random.default_rng(q * 1000 + n_reps)
    counts = rng.integers(0, 10**6, size=(n_reps, q))
    tails = rng.integers(1, 50, size=n_reps)
    r = sampler.ExperimentResult(GraphClassParams(40, 20, q=q), 0, 1, counts, tails, n_reps)
    write_samples_csv(r, str(tmp_path / "written.csv"))
    rows = np.column_stack((np.arange(n_reps), counts, tails))
    header = ",".join(["rep_id"] + ["U_%d" % j for j in range(1, q + 1)] + ["tail_count"])
    np.savetxt(tmp_path / "oracle.csv", rows, fmt="%d", delimiter=",", header=header, comments="")
    assert (tmp_path / "written.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
