import copy
import hashlib
import io
import json
import math
import pickle
import time
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degseq.asymptotics import log_v_factor
from degseq.errors import DomainError, EmptyClassError
from degseq.exact import (
    EXACT_SIZE_LIMIT,
    VALUE_SIZE_LIMIT,
    CensusPolynomial,
    GraphClassParams,
    as_fraction,
    brute_force_multigraph,
    brute_force_simple,
    census_to_json,
    class_is_empty,
    graph_gf,
    graph_gf_value,
    joint_pmf,
    v_factor,
    write_census_json,
)
from degseq.sampler import sample_multigraph, sample_simple
from degseq.series import MPoly, build_cycle_series, build_path_series
from degseq.unionfind import UnionFind
from oracles import coefficient_sum, evaluate, pmf_moments

F = Fraction


def mono(q, **sizes):
    """Monomial builder: mono(3, u3=1) -> u_3."""
    exps = [0] * q
    for name, power in sizes.items():
        exps[int(name[1:]) - 1] = power
    return tuple(exps)


def test_v_factor_values():
    assert v_factor(2, 0) == 1
    assert v_factor(0, 3) == 6
    assert v_factor(4, 0) == 3


def test_v_factor_rejects_odd():
    with pytest.raises(ValueError):
        v_factor(3, 1)


@pytest.mark.parametrize("n1, n2", [(-2, 3), (2, -3)])
def test_v_factor_rejects_negative_counts(n1, n2):
    with pytest.raises(ValueError, match="vertex counts must be nonnegative"):
        v_factor(n1, n2)


@pytest.mark.parametrize("model", ["simple", "multigraph"])
@pytest.mark.parametrize("n1, n2", [(-2, 3), (2, -3)])
def test_class_is_empty_rejects_negative_counts(n1, n2, model):
    with pytest.raises(ValueError, match="vertex counts must be nonnegative"):
        class_is_empty(n1, n2, model)


@pytest.mark.parametrize("n1, n2", [(-2, 3), (2, -3), (-1, 3)])
def test_negative_counts_raise_one_domain_error(n1, n2):
    # one definition (check_counts) for the instance, the emptiness test and
    # the relabelling prefactor, odd n1 or not
    calls = (GraphClassParams, lambda a, b: class_is_empty(a, b, "multigraph"), v_factor)
    for call in calls:
        with pytest.raises(DomainError, match="^vertex counts must be nonnegative$"):
            call(n1, n2)


def test_odd_n1_is_one_domain_error_from_the_instance_on():
    # one parity rule (check_counts): an odd n1 is no instance at all, so the
    # census side has no odd-n1 answer of its own
    calls = (
        lambda: GraphClassParams(3, 1),
        lambda: GraphClassParams.from_alpha(1.0, 3),
        lambda: class_is_empty(3, 1, "simple"),
        lambda: class_is_empty(3, 1, "multigraph"),
        lambda: v_factor(3, 1),
        lambda: log_v_factor(3, 1),
        lambda: sample_multigraph(3, 1, 0),
        lambda: sample_simple(3, 1, 0),
    )
    for call in calls:
        with pytest.raises(DomainError, match="^n1 must be even$") as info:
            call()
        assert isinstance(info.value, ValueError)


def test_alpha_is_undefined_without_paths():
    with pytest.raises(DomainError, match="alpha is undefined for n1 = 0"):
        GraphClassParams(0, 3).alpha


@pytest.mark.parametrize(
    "n1,n2,q,expected",
    [
        (2, 0, 2, {(0, 1): 1}),
        (2, 1, 3, {(0, 0, 1): 3}),
        (0, 3, 3, {(0, 0, 1): 1}),
        (4, 0, 2, {(0, 2): 3}),
        (2, 2, 4, {(0, 0, 0, 1): 12}),
    ],
)
def test_graph_gf_hand_cases(n1, n2, q, expected):
    gf = graph_gf(GraphClassParams(n1, n2, q=q))
    assert gf.poly == MPoly(q, expected)


@pytest.mark.parametrize(
    "n1,n2,q,expected",
    [
        (2, 0, 2, {(0, 1): 1}),
        (0, 3, 3, {(0, 0, 1): 1}),
        (0, 4, 4, {(0, 0, 0, 1): 3}),
    ],
)
def test_brute_force_simple_hand_cases(n1, n2, q, expected):
    bf = brute_force_simple(GraphClassParams(n1, n2, q=q))
    assert bf.poly == MPoly(q, expected)


def test_brute_force_simple_equals_degree_filtered_subsets_of_the_complete_graph():
    # every (n1/2 + n2)-edge subset of K_n whose degree multiset is
    # {1^n1, 2^n2}, with the degree-1 vertices anywhere: this count places the
    # degree-1 labels itself, where the oracle fixes them and multiplies by
    # C(n, n1)
    for n in range(7):
        q = max(2, n)
        pairs = list(combinations(range(n), 2))
        for n1 in range(0, n + 1, 2):
            counts = Counter()
            for edges in combinations(pairs, n1 // 2 + n - n1):
                degrees = Counter(v for edge in edges for v in edge)
                if sorted(degrees[v] for v in range(n)) == [1] * n1 + [2] * (n - n1):
                    sizes = UnionFind(n, edges).component_sizes()
                    counts[tuple(sizes.count(j) for j in range(1, q + 1))] += 1
            oracle = brute_force_simple(GraphClassParams(n1, n - n1, q=q))
            assert CensusPolynomial(q, counts, F(1)) == oracle, (n1, n)


# larger instances are covered by the acceptance battery
@pytest.mark.parametrize(
    "n2, n1", [(n2, n1) for n2 in range(5) for n1 in (0, 2, 4, 6) if n1 + n2 <= 7]
)
def test_gf_equals_brute_force_simple(n1, n2):
    for q in (2, max(2, n1 + n2)):
        p = GraphClassParams(n1, n2, q=q)
        assert graph_gf(p).poly == brute_force_simple(p).poly


def test_multigraph_hand_cases():
    gf = graph_gf(GraphClassParams(2, 0, q=2, model="multigraph"))
    assert gf.poly == MPoly(2, {(0, 1): 1})
    assert gf.total == 1

    gf = graph_gf(GraphClassParams(0, 1, q=2, model="multigraph"))
    assert gf.poly == MPoly(2, {(1, 0): F(1, 2)})

    gf = graph_gf(GraphClassParams(0, 2, q=2, model="multigraph"))
    assert gf.poly == MPoly(2, {(2, 0): F(1, 4), (0, 1): F(1, 2)})


def test_multigraph_loop_plus_double_edge_masses():
    gf = graph_gf(GraphClassParams(0, 3, q=3, model="multigraph"))
    expected = MPoly(
        3, {mono(3, u3=1): 1, (1, 1, 0): F(3, 4), (3, 0, 0): F(1, 8)}
    )
    assert gf.poly == expected
    assert brute_force_multigraph(GraphClassParams(0, 3, q=3, model="multigraph")).poly == expected


# larger instances are covered by the acceptance battery
@pytest.mark.parametrize(
    "n2, n1", [(n2, n1) for n2 in range(4) for n1 in (0, 2, 4, 6, 8) if n1 // 2 + n2 <= 4]
)
def test_gf_equals_matching_oracle(n1, n2):
    p = GraphClassParams(n1, n2, q=max(2, n1 + n2), model="multigraph")
    assert graph_gf(p).poly == brute_force_multigraph(p).poly


@pytest.mark.parametrize("n1, n2, q", [(2, 2, 4), (4, 2, 3), (0, 4, 4), (4, 4, 8), (2, 3, 2), (0, 2, 2)])
def test_census_equals_both_oracles_in_canonical_form(n1, n2, q):
    # whole CensusPolynomials: == holds only when both sides divide the gcd of
    # their counts into the scale, as graph_gf's counts over a common
    # denominator and the oracles' graph counts carry different contents
    for model, oracle in (("simple", brute_force_simple), ("multigraph", brute_force_multigraph)):
        p = GraphClassParams(n1, n2, q=q, model=model)
        census = graph_gf(p)
        assert census == oracle(p)
        assert math.gcd(*census.counts.values()) == (0 if census.is_empty else 1)


def test_census_constructor_divides_out_the_content():
    census = CensusPolynomial(2, {(0, 1): 6, (2, 0): 4}, F(1, 3))
    assert census.counts == {(0, 1): 3, (2, 0): 2} and census.scale == F(2, 3)
    assert census == CensusPolynomial(2, {(0, 1): 3, (2, 0): 2}, F(2, 3))
    assert census.poly == MPoly(2, {(0, 1): 2, (2, 0): F(4, 3)})
    assert census.total == F(10, 3)
    assert CensusPolynomial(2, {}, F(5)) == CensusPolynomial(2, {}, F(0))


RECORDS = [
    # (record, an equal one built positionally, an unequal one, its field
    # values, its repr)
    (GraphClassParams(n1=4, n2=3, q=3, model="multigraph"), GraphClassParams(4, 3, 3, "multigraph"),
     GraphClassParams(4, 3, q=3), (4, 3, 3, "multigraph"),
     "GraphClassParams(n1=4, n2=3, q=3, model='multigraph')"),
    (CensusPolynomial(q=2, counts={(0, 1): 6, (2, 0): 4}, scale=F(1, 3)),
     CensusPolynomial(2, {(0, 1): 3, (2, 0): 2}, F(2, 3)),
     CensusPolynomial(2, {(0, 1): 3, (2, 0): 2}, F(1, 3)), (2, {(0, 1): 3, (2, 0): 2}, F(2, 3)),
     "CensusPolynomial(q=2, counts={(0, 1): 3, (2, 0): 2}, scale=Fraction(2, 3))"),
]


@pytest.mark.parametrize("record, same, other, values, text", RECORDS,
                         ids=("GraphClassParams", "CensusPolynomial"))
def test_records_compare_print_copy_and_refuse_changes_as_frozen_records(record, same, other,
                                                                          values, text):
    names = record.__match_args__
    assert tuple(getattr(record, name) for name in names) == values
    assert record == same and not record != same
    assert record != other and not record == other
    # == holds only between instances of one class
    assert record != values and not record == values
    assert record != SimpleNamespace(**dict(zip(names, values)))
    assert record != type("Sub", (type(record),), {})(*values)
    assert repr(record) == text
    if isinstance(record, GraphClassParams):
        assert hash(record) == hash(same) == hash(values)
        assert {record: 1}[same] == 1
    else:
        with pytest.raises(TypeError):  # a dict field: unhashable
            hash(record)
        assert record.total == F(10, 3)  # a cached property travels with the copies
    for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert type(clone) is type(record) and clone == record and repr(clone) == text
        assert vars(clone) == vars(record)
    with pytest.raises(AttributeError, match="cannot assign to field 'q'"):
        record.q = 5
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        record.extra = 1
    with pytest.raises(AttributeError, match="cannot delete field 'q'"):
        del record.q
    assert tuple(getattr(record, name) for name in names) == values


def test_poly_and_total_are_built_once():
    census = graph_gf(GraphClassParams(4, 4, q=3))
    assert census.poly is census.poly
    assert census.total is census.total


def test_multigraph_total_is_pairing_mass():
    # sum of pairing masses: C(n, n1) * (2m-1)!! / 2^{n2}
    for n1, n2 in ((0, 3), (2, 2), (4, 1)):
        m = n1 // 2 + n2
        p = GraphClassParams(n1, n2, q=2, model="multigraph")
        double_fact = math.prod(range(2 * m - 1, 0, -2))
        expected = F(math.comb(n1 + n2, n1) * double_fact, 2**n2)
        assert graph_gf(p).total == expected


@pytest.mark.parametrize("k", range(7))
def test_labelled_path_counts(k):
    # the one-component census (a single path of size k+2) carries exactly the
    # labelled-path count (k+2)!/2
    q = k + 2 if k else 2
    gf = graph_gf(GraphClassParams(2, k, q=q))
    single_path = mono(q, **{"u%d" % (k + 2): 1})
    assert gf.poly.terms[single_path] == F(math.factorial(k + 2), 2)
    if k <= 2:
        # no room for extra cycles (they need >= 3 degree-2 vertices), so the
        # whole class is paths
        assert gf.total == F(math.factorial(k + 2), 2)


def test_graph_gf_value_matches_poly_evaluation():
    p = GraphClassParams(4, 3, q=4)
    u = [F(1), F(11, 10), F(9, 10), F(2)]
    assert graph_gf_value(p, u) == evaluate(graph_gf(p).poly, u)


def test_graph_gf_value_with_zero_u2_matches_poly_evaluation():
    # u_2 = 0 makes N = (1-z) Path start at z^1, so the recurrence cannot
    # divide by N_0 and runs on N / z instead
    p = GraphClassParams(6, 4, q=3)
    assert graph_gf_value(p, [1, 0, 1]) == evaluate(graph_gf(p).poly, [1, 0, 1])


TILTED = (1, F(11, 10), F(9, 10), F(21, 20))


@pytest.mark.parametrize(
    "n1,n2,q,model,u,digest",
    [
        (320, 160, 2, "simple", None,
         "137e65cf0967f9e9bd46b25b285f49b05dd889d7467bac454ff0d2c132283f30"),
        (640, 320, 2, "simple", None,
         "2d1d642fcb0c418e7f4dcc7dd3d8e5d7b7ba47348b732ae9184a7670f371c4fa"),
        (640, 320, 2, "multigraph", None,
         "9d44d681dcd356ed9ecfe17acd34b33ee9809491e7eea43aa764259f175ebdaa"),
        (320, 160, 4, "simple", TILTED,
         "22ef0f89ed01b235896254db9b67686b13bfca36ffe3fa20ee3a97014e110e35"),
        (320, 160, 4, "multigraph", TILTED,
         "0e61d9d03828d9b14c2460c1c21dfbc4358d54768948e880770526c7998215ca"),
        (320, 160, 3, "simple", (1, 0, 1),
         "93cd0ac47ee2aaeaafa41db88608e72e5a5d58d015ccee23be942bdea22465ab"),
    ],
)
def test_graph_gf_value_pinned_digests(n1, n2, q, model, u, digest):
    # SHA-256 of "num/den", computed with exp and the path power on Miller's
    # recurrence before graph_gf_value moved to the D-finite recurrence
    value = graph_gf_value(GraphClassParams(n1, n2, q=q, model=model), u)
    text = "%d/%d" % (value.numerator, value.denominator)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_graph_gf_value_pinned_digest_at_n1_2000():
    # SHA-256 of "num/den" in hex (the decimal numerator exceeds Python's
    # 4300-digit string limit), computed on the all-Fraction recurrence
    # before it moved to integer numerators
    p = GraphClassParams(2000, 1000, q=4, model="multigraph")
    value = graph_gf_value(p, TILTED)
    text = "%x/%x" % (value.numerator, value.denominator)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "8b5d6d286ed6c99636df548f206d1da069785484e716aa8a03e97fd61dde2c9e"
    )


weight_st = st.fractions(min_value=-3, max_value=4, max_denominator=3)


@st.composite
def weighted_instance_st(draw):
    q = draw(st.integers(2, 5))
    p = GraphClassParams(
        2 * draw(st.integers(0, 6)),
        draw(st.integers(0, 10)),
        q=q,
        model=draw(st.sampled_from(("simple", "multigraph"))),
    )
    u = draw(st.none() | st.lists(weight_st, min_size=q, max_size=q))
    if u is not None and draw(st.booleans()):
        u[1] = F(0)
    return p, u


@given(weighted_instance_st())
@settings(max_examples=80, deadline=None)
def test_graph_gf_value_matches_multivariate_census(instance):
    # the multivariate census is the closed form, which shares no
    # recurrence with the D-finite one
    p, u = instance
    expected = evaluate(graph_gf(p).poly, [1] * p.q if u is None else u)
    assert graph_gf_value(p, u) == expected


@given(
    st.integers(0, 6).map(lambda h: 2 * h),
    st.integers(0, 12),
    st.integers(2, 8),
    st.sampled_from(("simple", "multigraph")),
)
@example(0, 9, 3, "simple")  # cycles only: only t = 0
@example(0, 7, 4, "multigraph")
@example(0, 2, 2, "simple")  # empty class
@example(8, 0, 3, "simple")  # paths of two vertices only
@example(6, 0, 2, "multigraph")
@example(4, 3, 9, "simple")  # q > n1 + n2
@example(6, 3, 9, "multigraph")  # loops and q > n1 + n2
@example(4, 6, 3, "multigraph")  # loops, double edges and longer cycles
@settings(max_examples=80, deadline=None, derandomize=True)
def test_graph_gf_matches_series_api(n1, n2, q, model):
    # the closed form term for term against an independent reference, the
    # series algebra (the exp recurrence, Miller's power, the schoolbook
    # product)
    census = graph_gf(GraphClassParams(n1, n2, q=q, model=model))
    series = build_cycle_series(q, n2, model).exp() * build_path_series(q, n2) ** (n1 // 2)
    assert census.poly == series.coeffs[n2] * v_factor(n1, n2)
    assert census.total == coefficient_sum(census.poly)


def test_graph_gf_value_rejects_bad_weights():
    p = GraphClassParams(4, 3, q=3)
    with pytest.raises(TypeError):
        graph_gf_value(p, [1, 0.5, 1])
    with pytest.raises(ValueError):
        graph_gf_value(p, [1, 1])


def test_as_fraction_reads_exact_strings_and_decimals():
    assert as_fraction("3/4") == F(3, 4)
    assert as_fraction(Decimal("0.125")) == F(1, 8)


def test_joint_pmf_sums_to_one_exactly():
    pmf = joint_pmf(GraphClassParams(4, 4, q=8))
    assert sum(pmf.values()) == 1
    pmf = joint_pmf(GraphClassParams(2, 3, q=5, model="multigraph"))
    assert sum(pmf.values()) == 1


def test_joint_pmf_point_masses():
    assert joint_pmf(GraphClassParams(2, 0, q=2)) == {(0, 1): F(1)}
    assert joint_pmf(GraphClassParams(4, 0, q=2)) == {(0, 2): F(1)}
    assert joint_pmf(GraphClassParams(2, 2, q=4)) == {(0, 0, 0, 1): F(1)}


def test_joint_pmf_matches_brute_force_ratio():
    p = GraphClassParams(2, 2, q=4)
    bf = brute_force_simple(p)
    pmf = joint_pmf(p)
    assert pmf == {k: c / bf.total for k, c in bf.poly.terms.items()}


@pytest.mark.parametrize("model", ["simple", "multigraph"])
@pytest.mark.parametrize("n1, n2, q", [(4, 4, 8), (20, 20, 4), (8, 6, 4), (2, 0, 2), (0, 0, 3)])
def test_pmf_is_each_coefficient_over_the_total(n1, n2, q, model):
    # the common-denominator rows against the Fraction division they replace,
    # in the same sorted order
    census = graph_gf(GraphClassParams(n1, n2, q=q, model=model))
    expected = {e: c / census.total for e, c in sorted(census.poly.terms.items())}
    assert list(census.pmf().items()) == list(expected.items())


@pytest.mark.parametrize("n1, n2", [(0, 1), (0, 2)])
def test_write_census_json_raises_for_an_empty_class(n1, n2):
    p = GraphClassParams(n1, n2, q=3)
    fh = io.StringIO()
    with pytest.raises(EmptyClassError):
        write_census_json(p, graph_gf(p), fh)
    assert fh.getvalue() == ""


def test_joint_pmf_empty_class_raises():
    with pytest.raises(EmptyClassError):
        joint_pmf(GraphClassParams(0, 2, q=2))
    with pytest.raises(DomainError, match="^n1 must be even$"):  # no instance, so no law
        joint_pmf(GraphClassParams(3, 1, q=2))


def test_class_is_empty_matches_brute_force():
    for n1 in range(0, 7, 2):
        for n2 in range(0, 7 - n1):
            assert class_is_empty(n1, n2, "simple") == (
                brute_force_simple(GraphClassParams(n1, n2)).total == 0
            )
    for n1 in range(1, 6, 2):  # an odd n1 is no class, empty or not
        for model in ("simple", "multigraph"):
            with pytest.raises(DomainError, match="^n1 must be even$"):
                class_is_empty(n1, 1, model)
    assert not class_is_empty(0, 1, "multigraph")
    assert not class_is_empty(0, 2, "multigraph")


def test_pmf_moments_point_mass():
    means, variances = pmf_moments(joint_pmf(GraphClassParams(2, 2, q=4)))
    assert means[3] == 1 and variances[3] == 0
    assert means[1] == 0


def test_pmf_moments_mixture():
    # single path of size 2 next to loops/doubles: check against direct sums
    pmf = joint_pmf(GraphClassParams(0, 3, q=3, model="multigraph"))
    means, variances = pmf_moments(pmf)
    e_u1 = sum(p * k[0] for k, p in pmf.items())
    assert means[0] == e_u1
    var_u1 = sum(p * k[0] ** 2 for k, p in pmf.items()) - e_u1**2
    assert variances[0] == var_u1


def test_census_json_round_trip():
    gf = graph_gf(GraphClassParams(0, 3, q=3, model="multigraph"))
    blob = census_to_json(gf)
    exps = [tuple(t["exponents"]) for t in blob["polynomial"]]
    assert exps == sorted(exps)
    assert all(isinstance(t["num"], int) and isinstance(t["den"], int) for t in blob["polynomial"])
    restored = json.loads(json.dumps(blob))
    terms = {tuple(t["exponents"]): F(t["num"], t["den"]) for t in restored["polynomial"]}
    assert terms == gf.poly.terms
    assert restored["q"] == gf.q
    assert F(restored["total"]["num"], restored["total"]["den"]) == gf.total


@pytest.mark.parametrize("n1, n2", [(4, EXACT_SIZE_LIMIT - 3), (10**20, 0), (2, 10**20)])
def test_graph_gf_rejects_instances_beyond_size_bound(n1, n2):
    with pytest.raises(ValueError, match="bound"):
        graph_gf(GraphClassParams(n1, n2, q=3))


@pytest.mark.parametrize("n1, n2", [(4, 10**20), (10**20, 0), (2, VALUE_SIZE_LIMIT - 1)])
def test_graph_gf_value_rejects_instances_beyond_size_bound(n1, n2):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="bound"):
        graph_gf_value(GraphClassParams(n1, n2, q=3))
    assert time.perf_counter() - start < 1.0


def test_params_validation():
    with pytest.raises(ValueError):
        GraphClassParams(-2, 0)
    with pytest.raises(ValueError):
        GraphClassParams(2, 0, q=1)
    with pytest.raises(ValueError):
        GraphClassParams(2, 0, model="other")
    with pytest.raises(ValueError):
        GraphClassParams.from_alpha(0.0, 10)


@pytest.mark.parametrize(
    "args, kwargs",
    [((2, 1), {"q": 2.5}), ((2.0, 1), {}), ((2, 1.5), {}), ((2, 1), {"q": "3"}), ((2, None), {})],
)
def test_params_reject_non_integers(args, kwargs):
    with pytest.raises(TypeError):
        GraphClassParams(*args, **kwargs)


def test_params_accept_numpy_integers():
    import numpy as np

    p = GraphClassParams(np.int64(4), np.int32(4), q=np.int16(3))
    assert p == GraphClassParams(4, 4, q=3)
    assert all(type(v) is int for v in (p.n1, p.n2, p.q))
    assert graph_gf(p).poly == graph_gf(GraphClassParams(4, 4, q=3)).poly


@pytest.mark.parametrize("alpha", (float("inf"), float("nan"), -float("inf")))
def test_params_from_alpha_rejects_non_finite(alpha):
    with pytest.raises(ValueError):
        GraphClassParams.from_alpha(alpha, 10)


@pytest.mark.parametrize("alpha", (0.0, -1.0, float("nan"), float("inf")))
def test_params_from_alpha_raises_the_limit_law_domain_error(alpha):
    # one alpha check for the instance builder and the numeric pipeline
    from degseq.asymptotics import limit_law

    with pytest.raises(DomainError) as law:
        limit_law(alpha, 2)
    with pytest.raises(DomainError) as params:
        GraphClassParams.from_alpha(alpha, 10)
    assert str(params.value) == str(law.value)


@pytest.mark.parametrize("alpha, n1", ((1e308, 4), (1.0, 10**400)))
def test_params_from_alpha_rejects_overflowing_n2(alpha, n1):
    with pytest.raises(ValueError, match="overflows"):
        GraphClassParams.from_alpha(alpha, n1)


def test_params_from_alpha_floors():
    p = GraphClassParams.from_alpha(1.0, 10, q=3)
    assert p.n2 == 5
    p = GraphClassParams.from_alpha(0.7, 10, q=3)
    assert p.n2 == 3  # floor(3.5)
    assert GraphClassParams(10, 3).alpha == pytest.approx(0.6)


def test_enumeration_bounds_guarded():
    with pytest.raises(ValueError):
        brute_force_simple(GraphClassParams(6, 6))
    with pytest.raises(ValueError):
        brute_force_multigraph(GraphClassParams(2, 7, model="multigraph"))
