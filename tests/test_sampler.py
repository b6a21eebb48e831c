import json
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from degseq.errors import SamplingError, StructuralError
from degseq.exact import GraphClassParams, brute_force_multigraph
from degseq.sampler import (
    CHUNK_REPS,
    StubMultigraph,
    census,
    compensation_factor,
    run_experiment,
    sample_multigraph,
    sample_simple,
    sidecar_metadata,
    validate_structure,
    write_samples_csv,
)

F = Fraction


def test_single_edge_class_is_deterministic():
    for seed in range(5):
        g = sample_multigraph(2, 0, seed)
        assert g.edges == ((0, 1),)
        c = census(g, 2)
        assert c.counts == (0, 1)
        assert c.path_components == 1 and c.cycle_components == 0


def test_single_loop_class():
    g = sample_multigraph(0, 1, 3)
    assert g.edges == ((0, 0),)
    assert g.loop_count == 1
    c = census(g, 2)
    assert c.counts == (1, 0)
    assert c.cycle_components == 1
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
        loop_count=0,
        double_edge_count=0,
    )
    c = census(g, 4)
    assert c.counts == (0, 0, 1, 1)
    assert c.path_components == 1 and c.cycle_components == 1
    assert c.component_sizes_sum == 7
    validate_structure(g)


def test_census_tail_bucket():
    g = sample_simple(2, 4, 5)  # one path of size 6 possible plus smaller splits
    c = census(g, 3)
    assert c.component_sizes_sum == 6
    assert sum((j + 1) * c.counts[j] for j in range(3)) + c.tail_count * 0 <= 6
    if c.tail_count:
        assert c.total_components == sum(c.counts) + c.tail_count


def test_census_rejects_bad_degrees():
    g = StubMultigraph(n1=2, n2=1, edges=((0, 1), (1, 2)), loop_count=0, double_edge_count=0)
    with pytest.raises(StructuralError):
        census(g, 2)
    with pytest.raises(StructuralError):
        validate_structure(g)


def test_validate_structure_rejects_forged_component():
    # only vertex 0 is looped, vertex 1 is left with degree 0
    g = StubMultigraph(n1=0, n2=2, edges=((0, 0),), loop_count=1, double_edge_count=0)
    with pytest.raises(StructuralError):
        validate_structure(g)
    with pytest.raises(StructuralError):
        census(g, 2)


def test_compensation_factor_values():
    simple = sample_simple(4, 2, 7)
    assert compensation_factor(simple) == 1
    loop = StubMultigraph(0, 1, ((0, 0),), 1, 0)
    assert compensation_factor(loop) == F(1, 2)
    double = StubMultigraph(0, 2, ((0, 1), (0, 1)), 0, 1)
    assert compensation_factor(double) == F(1, 2)
    two_loops = StubMultigraph(0, 2, ((0, 0), (1, 1)), 2, 0)
    assert compensation_factor(two_loops) == F(1, 4)


def test_sample_simple_triangle_only_outcome():
    for seed in range(3):
        g = sample_simple(0, 3, seed)
        assert census(g, 3).counts == (0, 0, 1)
        assert compensation_factor(g) == 1


def test_sample_simple_empty_class_raises():
    with pytest.raises(SamplingError) as err:
        sample_simple(0, 2, 1, max_attempts=500)
    assert "500" in str(err.value)


def test_sample_simple_immediate_for_trivial_class():
    g = sample_simple(2, 0, 9, max_attempts=1)
    assert g.edges == ((0, 1),)


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
    p = GraphClassParams.from_alpha(1.0, 40, q=3, model=model)
    solo = run_experiment(p, 250, seed=7, workers=1)
    pair = run_experiment(p, 250, seed=7, workers=2)
    assert solo.counts.shape == (250, 3)
    assert np.array_equal(solo.counts, pair.counts)
    assert np.array_equal(solo.tail_counts, pair.tail_counts)
    head = run_experiment(p, 130, seed=7, workers=2)
    assert np.array_equal(head.counts, solo.counts[:130])


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


def _reference_census(g, q):
    """Census from scipy's connected_components, independent of UnionFind."""
    n = g.n_vertices
    lo, hi = np.array(g.edges).T
    adjacency = coo_matrix((np.ones(lo.size), (lo, hi)), shape=(n, n))
    _, labels = connected_components(adjacency, directed=False)
    sizes = np.bincount(labels)
    counts = tuple(int(np.count_nonzero(sizes == j)) for j in range(1, q + 1))
    n_paths = len(set(labels[: g.n1].tolist()))
    return counts, int(np.count_nonzero(sizes > q)), int(sizes.sum()), n_paths, sizes.size - n_paths


@pytest.mark.parametrize("model", ("simple", "multigraph"))
def test_census_matches_connected_components(model):
    # 100 pairings per model, n1 + n2 from 3 to 3000 (log-uniform); q = 3 so
    # the tail bucket fills
    rng = np.random.default_rng(41)
    draw = sample_simple if model == "simple" else sample_multigraph
    q = 3
    logs = rng.uniform(math.log(3), math.log(3000), 98)
    n_values = [3, 3000] + np.rint(np.exp(logs)).astype(int).tolist()
    tails = 0
    for n in n_values:
        n1 = 2 * int(rng.integers(0, n // 2 + 1))
        g = draw(n1, n - n1, rng)
        c = census(g, q)
        got = (c.counts, c.tail_count, c.component_sizes_sum, c.path_components, c.cycle_components)
        assert got == _reference_census(g, q)
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
    assert blob["columns"][0] == "rep_id"
