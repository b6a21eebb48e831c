from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degseq.series import (
    MPoly,
    TruncatedSeries,
    _add_product,
    build_cycle_series,
    build_path_series,
)
from oracles import coefficient_sum, evaluate, series_log

F = Fraction


def geometric(order, nvars=0):
    return TruncatedSeries(order, nvars, [MPoly.one(nvars)] * (order + 1))


def one_minus_z(order, nvars=0):
    coeffs = [MPoly.one(nvars), MPoly.constant(nvars, -1)]
    coeffs += [MPoly.zero(nvars)] * (order - 1)
    return TruncatedSeries(order, nvars, coeffs)


def from_scalars(values, nvars=0):
    """Series with constant (variable-free) coefficients."""
    coeffs = [MPoly.constant(nvars, v) for v in values]
    return TruncatedSeries(len(coeffs) - 1, nvars, coeffs)


def zero(order, nvars=0):
    return from_scalars([0] * (order + 1), nvars)


def one(order, nvars=0):
    return from_scalars([1] + [0] * order, nvars)


def repeated_product(a, k):
    """a**k as k-fold repeated multiplication: the reference for __pow__."""
    out = one(a.order, a.nvars)
    for _ in range(k):
        out = out * a
    return out


def test_path_at_unit_weights_is_geometric():
    path = build_path_series(3, 6)
    assert [evaluate(c, [1, 1, 1]) for c in path.coeffs] == [1] * 7


def test_mul_identity():
    a = from_scalars([F(2), F(0), F(7, 2), F(-1)])
    assert a * one(3, 0) == a


def test_geometric_times_one_minus_z():
    assert geometric(5) * one_minus_z(5) == one(5, 0)


def test_path_square_constant_term_is_u2_squared():
    sq = build_path_series(2, 3) ** 2
    u2 = MPoly.variable(2, 2)
    assert sq.coeffs[0] == u2 * u2


def test_exp_of_zero():
    assert zero(4, 0).exp() == one(4, 0)


def test_exp_cycle_unit_weights_counts_two_regular_graphs():
    # coefficient of z^n times n! counts labelled graphs with all degrees 2:
    # none on 0..2 vertices, 1 triangle, 3 four-cycles
    series = build_cycle_series(2, 4).exp()
    got = [coefficient_sum(series.coeffs[k]) for k in range(5)]
    assert got == [F(1), F(0), F(0), F(1, 6), F(1, 8)]


def test_exp_of_log_geometric_round_trip():
    geo = geometric(7)
    assert series_log(geo).exp() == geo


def test_pow_edge_cases():
    a = from_scalars([F(1), F(1), F(0)])
    assert a**0 == one(2, 0)
    assert a**1 == a
    assert a**2 == from_scalars([1, 2, 1])
    b = from_scalars([F(3), F(-1), 0, 0, 0, 0, 0])
    assert b**2 == from_scalars([9, -6, 1, 0, 0, 0, 0])
    assert b**0 == one(6, 0)
    for exponent in (0, 2):
        with pytest.raises(ValueError):
            from_scalars([0, 0, F(3), F(-1), 0, 0, 0]) ** exponent
        with pytest.raises(ValueError):
            zero(6, 0) ** exponent


def test_pow_rejects_lowest_coefficient_with_several_terms():
    lead = MPoly(2, {(1, 0): 1, (0, 1): 1})
    a = TruncatedSeries(3, 2, [lead, MPoly.one(2), MPoly.zero(2), MPoly.zero(2)])
    with pytest.raises(ValueError):
        a**2


def test_build_path_patterns():
    p2 = build_path_series(2, 4)
    assert p2.coeffs[0] == MPoly.variable(2, 2)
    for k in range(1, 5):
        assert p2.coeffs[k] == MPoly.one(2)
    p3 = build_path_series(3, 4)
    assert p3.coeffs[0] == MPoly.variable(3, 2)
    assert p3.coeffs[1] == MPoly.variable(3, 3)
    assert p3.coeffs[2] == MPoly.one(3)


def test_build_cycle_simple_unit_weights():
    c = build_cycle_series(2, 5)
    got = [coefficient_sum(c.coeffs[k]) for k in range(6)]
    assert got == [0, 0, 0, F(1, 6), F(1, 8), F(1, 10)]


def test_build_cycle_multigraph_unit_weights():
    c = build_cycle_series(2, 3, "multigraph")
    got = [coefficient_sum(c.coeffs[k]) for k in range(4)]
    assert got == [0, F(1, 2), F(1, 4), F(1, 6)]


def test_build_cycle_simple_marks_u3():
    c = build_cycle_series(3, 3)
    assert c.coeffs[3] == MPoly.variable(3, 3) * F(1, 6)
    assert c.coeffs[1].is_zero() and c.coeffs[2].is_zero()


def test_build_cycle_multigraph_marks_loops_and_doubles():
    c = build_cycle_series(3, 3, "multigraph")
    assert c.coeffs[1] == MPoly.variable(3, 1) * F(1, 2)
    assert c.coeffs[2] == MPoly.variable(3, 2) * F(1, 4)
    assert c.coeffs[3] == MPoly.variable(3, 3) * F(1, 6)


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        zero(3) * zero(4)


def test_exp_rejects_nonzero_constant():
    with pytest.raises(ValueError):
        one(3, 0).exp()


def test_log_rejects_non_unit_constant():
    with pytest.raises(ValueError):
        series_log(zero(3, 0))


def test_builders_reject_small_q():
    with pytest.raises(ValueError):
        build_path_series(1, 3)
    with pytest.raises(ValueError):
        build_cycle_series(1, 3)


def test_floats_rejected():
    with pytest.raises(TypeError):
        MPoly.constant(0, 0.5)


def test_coefficients_stay_exact():
    series = build_cycle_series(4, 6, "multigraph").exp() * build_path_series(4, 6)
    for coeff in series.coeffs:
        for value in coeff.terms.values():
            assert isinstance(value, Fraction)


fractions_st = st.fractions(min_value=-4, max_value=4, max_denominator=6)
exponents_st = st.tuples(st.integers(0, 2), st.integers(0, 2))
mpoly_st = st.dictionaries(exponents_st, fractions_st, max_size=3).map(
    lambda terms: MPoly(2, terms)
)


def series_from(coeffs):
    return TruncatedSeries(len(coeffs) - 1, 2, list(coeffs))


small_series_st = st.lists(mpoly_st, min_size=5, max_size=5).map(series_from)


@given(small_series_st)
@settings(max_examples=40, deadline=None)
def test_exp_log_round_trip(series):
    shifted = TruncatedSeries(series.order, 2, [MPoly.zero(2)] + series.coeffs[1:])
    assert series_log(shifted.exp()) == shifted


monomial_st = st.builds(
    lambda exps, coeff: MPoly(2, {exps: coeff}),
    exponents_st,
    fractions_st.filter(bool),
)


# the one-term path also takes negative exponents (a Laurent monomial)
signed_monomial_st = st.builds(
    lambda exps, coeff: MPoly(2, {exps: coeff}),
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
    fractions_st.filter(bool),
)
constant_st = fractions_st.map(lambda c: MPoly.constant(0, c))


@given(st.one_of(
    st.tuples(mpoly_st, signed_monomial_st),
    st.tuples(constant_st, constant_st.filter(lambda m: not m.is_zero())),
))
def test_monomial_product_matches_the_schoolbook_product(pair):
    # MPoly * (one-term MPoly) shifts exponents instead of running the
    # general product
    a, m = pair
    got = a * m
    schoolbook = {}
    _add_product(schoolbook, a.terms, m.terms)
    assert got == MPoly(a.nvars, schoolbook)
    assert all(type(c) is Fraction and c for c in got.terms.values())


@st.composite
def monomial_led_series_st(draw):
    """Series whose lowest nonzero coefficient is one monomial, after 0-2
    leading zero coefficients (which __pow__ rejects)."""
    zeros = draw(st.integers(0, 2))
    tail = draw(st.lists(mpoly_st, min_size=5 - zeros - 1, max_size=5 - zeros - 1))
    return series_from([MPoly.zero(2)] * zeros + [draw(monomial_st)] + tail)


@given(monomial_led_series_st(), st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_pow_matches_repeated_product(a, k):
    if a.coeffs[0].is_zero():
        with pytest.raises(ValueError):
            a**k
    else:
        assert a**k == repeated_product(a, k)


def stores_no_zero_coefficient(series):
    return all(all(c.terms.values()) for c in series.coeffs)


def test_cancelling_product_stores_no_zero_coefficient():
    # (1 + z)(1 - z): the z^1 products cancel in the accumulator
    product = from_scalars([1, 1, 0]) * from_scalars([1, -1, 0])
    assert product == from_scalars([1, 0, -1])
    assert product.coeffs[1].terms == {}


@given(small_series_st, small_series_st, monomial_led_series_st(), st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_operations_store_no_zero_coefficient(a, b, led, k):
    shifted = series_from([MPoly.zero(2)] + a.coeffs[1:])
    assert stores_no_zero_coefficient(a * b)
    assert stores_no_zero_coefficient(shifted.exp())
    if not led.coeffs[0].is_zero():
        assert stores_no_zero_coefficient(led**k)


@given(mpoly_st)
def test_coefficient_sum_is_the_fraction_sum(poly):
    assert coefficient_sum(poly) == sum(poly.terms.values(), F(0))


@given(small_series_st, small_series_st)
@settings(max_examples=40, deadline=None)
def test_mul_commutative(a, b):
    assert a * b == b * a


@given(small_series_st, small_series_st, small_series_st)
@settings(max_examples=25, deadline=None)
def test_mul_associative(a, b, c):
    assert (a * b) * c == a * (b * c)
