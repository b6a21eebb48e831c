import cmath
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degseq.asymptotics import (
    FD_STEP,
    _brentq,
    _contour_log_coefficient,
    _cycle_factor,
    asymptotic_log_gf,
    central_hessian,
    check_path_positive,
    chi_value,
    contour_extract,
    gradient_chi,
    hessian_H,
    limit_law,
    log_v_factor,
    path_value,
    saddle_data,
    solve_zeta,
)
from degseq.errors import ConvergenceError, DomainError
from degseq.exact import GraphClassParams, graph_gf_value, v_factor
from oracles import evaluate


def phi_value(theta: float, zeta: float, u, alpha: float) -> complex:
    """Contour phase log Path(zeta,u) - log Path(zeta e^{i theta},u) + i alpha theta;
    zero at theta = 0, positive real part elsewhere on [-pi, pi]."""
    u = np.asarray(u, dtype=float)
    w = zeta * cmath.exp(1j * theta)
    return cmath.log(complex(path_value(zeta, u))) - cmath.log(path_value(w, u)) + 1j * alpha * theta


def saddle_equation(z: float, u) -> float:
    """z * d/dz log Path(z,u), the left side of solve_zeta's equation."""
    return z * path_value(z, u, 1) / path_value(z, u)


def b_value(t, alpha: float, q: int, model: str = "simple") -> float:
    """Quasi-power prefactor B(t) = A(0,e^t)/A(0,1) *
    sqrt(phi''(0,1)/phi''(0,e^t)); B(0) = 1."""
    t = np.asarray(t, dtype=float)
    if t.shape != (q - 1,):
        raise ValueError("t must have length q-1 (components 2..q)")
    u = np.ones(q)
    u[1:] = np.exp(t)
    sd_u = saddle_data(alpha, u, model)
    sd_1 = saddle_data(alpha, np.ones(q), model)
    return (sd_u.a0 / sd_1.a0) * math.sqrt(sd_1.phi2 / sd_u.phi2)


def central_gradient(f, x, h: float = FD_STEP) -> np.ndarray:
    """Central finite-difference gradient, the independent oracle for the
    closed-form mean coefficients."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        out[i] = (f(xp) - f(xm)) / (2.0 * h)
    return out


ALPHAS = (0.1, 0.5, 1.0, 2.0, 10.0)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_solve_zeta_unit_weights_closed_form(alpha):
    zeta = solve_zeta(alpha, np.ones(4))
    assert abs(zeta - alpha / (1 + alpha)) <= 1e-12


@pytest.mark.parametrize("alpha", (300.0, 1e3, 1e4))
def test_solve_zeta_large_alpha(alpha):
    # the slope of z P'/P is ~alpha(1+alpha)/zeta here, so one ulp of zeta
    # moves the residual by more than any fixed absolute residual bound
    sd = saddle_data(alpha, np.ones(4))
    assert abs(sd.zeta / (alpha / (1 + alpha)) - 1) <= 1e-12
    assert abs(sd.phi2 / (alpha * (1 + alpha)) - 1) <= 1e-10


def test_path_value_derivatives():
    z = 0.4
    ones = np.ones(4)
    assert path_value(z, ones, 1) == pytest.approx(1 / (1 - z) ** 2, rel=1e-15)
    assert path_value(z, ones, 2) == pytest.approx(2 / (1 - z) ** 3, rel=1e-15)
    u = np.array([1.0, 1.2, 0.8, 1.05])
    h = 1e-5
    for k in (1, 2):
        fd = (path_value(z + h, u, k - 1) - path_value(z - h, u, k - 1)) / (2 * h)
        assert path_value(z, u, k) == pytest.approx(fd, rel=1e-9)


def test_solve_zeta_residual_off_unit_weights():
    u = np.array([1.0, 1.1, 0.9])
    zeta = solve_zeta(1.0, u)
    assert 0 < zeta < 1
    assert abs(saddle_equation(zeta, u) - 1.0) <= 1e-12


def test_solve_zeta_monotone_bracket():
    u = np.array([1.0, 1.2, 0.8, 1.05])
    grid = np.linspace(0.05, 0.95, 19)
    values = [saddle_equation(z, u) for z in grid]
    assert all(a < b for a, b in zip(values, values[1:]))


def _saddle_oracle_cases():
    """(alpha, u) pairs for the bit-identity check: a seeded random set over
    alpha in [1e-6, 1e5], q in 2..10 and weights in e^[-3, 3]; the six saddles
    of the benchmark's asymptote sweep (alpha in {0.5, 1, 2}, unit and tilted
    q = 4 weights; the model does not enter the solve); the extreme alphas; and
    three far-out cases that exercise the port's division-by-zero branch."""
    rng = np.random.default_rng(20141015)
    cases = []
    for _ in range(2000):
        q = int(rng.integers(2, 11))
        cases.append((float(10.0 ** rng.uniform(-6.0, 5.0)), np.exp(rng.uniform(-3.0, 3.0, q)).tolist()))
    for alpha in (0.5, 1.0, 2.0):
        cases += [(alpha, [1.0] * 4), (alpha, [1.0, 1.1, 0.9, 1.05])]
    for alpha in (1e-6, 1e5):
        cases += [(alpha, [1.0] * 3), (alpha, [1.0, 1.1, 0.9, 1.05])]
    # extreme weights whose secant and extrapolation steps divide by zero
    cases += [
        (3.2022275100773157e-174, [8.645641342723449e150, 3.9235741059489045e206, 3.6454012940350845e-245,
                                   4.464794696595408e56]),
        (3.27329381729125e-154, [2.5622594042816536e-48, 8.268527110785773e164]),
        (8.41583208431369e-219, [3.1271374239397427e297, 1.4381361604717245e210]),
    ]
    return cases


def test_solve_zeta_is_bit_identical_to_scipy_brentq():
    from scipy.optimize import brentq  # test-only oracle: the package never loads scipy.optimize

    mismatches = []
    for alpha, u in _saddle_oracle_cases():
        expected = brentq(lambda z: saddle_equation(z, u) - alpha, 1e-13, 1 - 1e-13, xtol=1e-30)
        zeta = solve_zeta(alpha, u)
        if zeta != expected:
            mismatches.append((alpha, u, zeta, expected))
    assert mismatches == []


def test_brentq_port_raises_package_errors():
    # a fifth-order root: scipy's brentq also stops after 100 steps here
    with pytest.raises(ConvergenceError, match="100 iterations"):
        _brentq(lambda x: (x - 0.3) ** 5, -2.0, 2.0)
    assert abs(_brentq(lambda x: math.atan(50.0 * (x - 0.3)), -2.0, 2.0) - 0.3) <= 1e-15

    def nan_inside(x):
        return x - 0.5 if x in (0.0, 1.0) else math.nan

    # a NaN stops the solve instead of steering it; endpoints are checked too
    with pytest.raises(DomainError, match="NaN"):
        _brentq(nan_inside, 0.0, 1.0)
    with pytest.raises(DomainError, match="NaN"):
        _brentq(lambda x: math.nan if x == 1.0 else -1.0, 0.0, 1.0)
    with pytest.raises(DomainError, match="no sign change"):
        _brentq(lambda x: x + 2.0, 0.0, 1.0)


@pytest.mark.parametrize("alpha", [1e-14, 1e14])
def test_solve_zeta_beyond_the_bracket_names_alpha(alpha):
    # at unit weights z Path'/Path = z/(1-z) spans about 1e-13..1e13 on the bracket
    with pytest.raises(DomainError, match="no sign change; alpha or weights out of range"):
        solve_zeta(alpha, [1.0, 1.0])


@pytest.mark.parametrize("alpha", [2e-13, 9e12])
def test_solve_zeta_inside_the_bracket_solves(alpha):
    assert solve_zeta(alpha, [1.0, 1.0]) == pytest.approx(alpha / (1.0 + alpha), rel=1e-3)


def test_brentq_returns_an_end_of_the_bracket_that_is_an_exact_root():
    assert _brentq(lambda x: x - 0.5, 0.5, 1.0) == 0.5
    assert _brentq(lambda x: x - 1.0, 0.5, 1.0) == 1.0


def test_path_positivity_guard():
    with pytest.raises(DomainError):
        check_path_positive([1.0, -0.5, 1.0])
    with pytest.raises(DomainError):
        solve_zeta(1.0, [1.0, -2.0])


MULTI_20_10 = GraphClassParams(20, 10, q=3, model="multigraph")
# phi_second and a_zero name saddle_data's phi2 and a0 as degseq asymptote prints them
WEIGHT_CALLS = {
    "solve_zeta": lambda u: solve_zeta(1.0, u),
    "saddle_data": lambda u: saddle_data(1.0, u, "multigraph"),
    "phi_second": lambda u: saddle_data(1.0, u).phi2,
    "a_zero": lambda u: saddle_data(1.0, u, "multigraph").a0,
    "asymptotic_log_gf": lambda u: asymptotic_log_gf(MULTI_20_10, u),
    "contour_extract": lambda u: contour_extract(MULTI_20_10, u),
}


@pytest.mark.parametrize("slot", (0, 1, 2))
@pytest.mark.parametrize("bad", (math.inf, math.nan))
@pytest.mark.parametrize("fn", WEIGHT_CALLS)
def test_non_finite_weight_in_any_slot_raises(fn, bad, slot):
    u = [1.0, 1.1, 0.9]
    u[slot] = bad
    with pytest.raises(DomainError, match="positive and finite"):
        WEIGHT_CALLS[fn](u)


@pytest.mark.parametrize("fn", ("a_zero", "saddle_data", "asymptotic_log_gf", "contour_extract"))
def test_overflowing_cycle_factor_raises(fn):
    # exp(Cycle) overflows a float at a multigraph loop weight of 1e308
    with pytest.raises(DomainError, match="overflows"):
        WEIGHT_CALLS[fn]([1e308, 1.0, 1.0])


def test_phi_second_rejects_overflowing_curvature():
    # Path' holds 38 (u_40 - 1) z^37, finite at u_40 = 1e306, so the saddle
    # solves near z = 8e-9; Path'' holds 38 * 37 (u_40 - 1) z^36, which is not
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DomainError, match="phase curvature is not positive and finite"):
            saddle_data(1.0, [1.0] * 39 + [1e306])
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("fn", WEIGHT_CALLS)
def test_weights_must_be_one_dimensional(fn):
    with pytest.raises(ValueError, match="1-d"):
        WEIGHT_CALLS[fn](np.ones((3, 3)))


@pytest.mark.parametrize("t", ([0.0], [0.0, 0.0, 0.0], [[0.0, 0.0]]))
def test_chi_value_rejects_t_of_wrong_length(t):
    with pytest.raises(ValueError, match="t must have length q-1"):
        chi_value(t, 1.0, 3)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_phi_second_unit_weights(alpha):
    assert abs(saddle_data(alpha, np.ones(3)).phi2 - alpha * (1 + alpha)) <= 1e-10


def test_phi_second_matches_finite_difference():
    u = np.array([1.0, 1.05, 1.05])
    alpha = 1.0
    sd = saddle_data(alpha, u)
    zeta, closed = sd.zeta, sd.phi2
    h = 1e-4
    re_phi = lambda t: phi_value(t, zeta, u, alpha).real
    fd = (re_phi(h) - 2.0 * re_phi(0.0) + re_phi(-h)) / (h * h)
    assert abs(closed - fd) <= 1e-6


def test_a_zero_values():
    assert saddle_data(1.0, np.ones(3), "simple").a0 == pytest.approx(
        math.exp(0.5 * math.log(2) - 0.25 - 0.0625), abs=1e-14
    )
    assert saddle_data(1.0, np.ones(3), "multigraph").a0 == pytest.approx(
        math.sqrt(2), abs=1e-14
    )
    # alpha -> 0 pushes zeta -> 0 where the cycle series vanishes
    assert saddle_data(1e-6, np.ones(3), "simple").a0 == pytest.approx(1.0, abs=1e-5)


def test_phi_zero_at_origin_and_positive_real_part():
    alpha = 1.0
    for u2 in (0.9, 1.0, 1.1):
        for u3 in (0.9, 1.0, 1.1):
            u = np.array([1.0, u2, u3])
            zeta = solve_zeta(alpha, u)
            assert abs(phi_value(0.0, zeta, u, alpha)) <= 1e-14
            thetas = np.linspace(-math.pi, math.pi, 181)
            for theta in thetas:
                if theta == 0.0:
                    continue
                assert phi_value(theta, zeta, u, alpha).real > 1e-12


def test_contour_integrand_at_zero_is_a_zero():
    u = np.array([1.0, 1.1, 0.9])
    alpha = 1.0
    sd = saddle_data(alpha, u, "simple")
    integrand = math.exp(-phi_value(0.0, sd.zeta, u, alpha).real) * sd.a0
    assert integrand == pytest.approx(sd.a0, rel=1e-15)


def test_contour_extract_small_case():
    p = GraphClassParams(2, 1, q=3)
    assert contour_extract(p) == pytest.approx(1.0, rel=1e-10)


def test_contour_extract_matches_exact():
    p = GraphClassParams(20, 10, q=3)
    exact = float(graph_gf_value(p) / v_factor(20, 10))
    for points in (1024, 1025, 64):  # the half circle holds for odd counts too
        assert contour_extract(p, points=points) == pytest.approx(exact, rel=1e-8)
    u_exact = [Fraction(1), Fraction(11, 10), Fraction(9, 10)]
    exact_u = float(graph_gf_value(p, u_exact) / v_factor(20, 10))
    assert contour_extract(p, u=[1.0, 1.1, 0.9]) == pytest.approx(exact_u, rel=1e-8)


@pytest.mark.parametrize("model", ("simple", "multigraph"))
def test_contour_extract_needs_no_phase_curvature(model):
    # the phase curvature is 0 here, so the Laplace estimate has nothing to
    # divide by; the contour never reads it and still matches the exact value
    p = GraphClassParams(20, 10, q=3, model=model)
    u = [1.0, 1e-300, 1e20]
    for estimate in (lambda: saddle_data(p.alpha, u, model), lambda: asymptotic_log_gf(p, u)):
        with pytest.raises(DomainError, match="phase curvature"):
            estimate()
    exact = float(graph_gf_value(p, [Fraction(x) for x in u]) / v_factor(20, 10))
    assert contour_extract(p, u) == pytest.approx(exact, rel=1e-12)


def test_contour_extract_checks_points_before_the_saddle_solve(monkeypatch):
    from degseq import asymptotics

    p = GraphClassParams(20, 10, q=3)
    expected = contour_extract(p, points=1024)
    assert contour_extract(p, points=np.int64(1024)) == expected

    def no_solve(*args):
        raise AssertionError("the saddle was solved before points was checked")

    monkeypatch.setattr(asymptotics, "solve_zeta", no_solve)
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        contour_extract(p, points=1024.0)


def test_contour_extract_multigraph_matches_exact():
    p = GraphClassParams(20, 10, q=3, model="multigraph")
    exact = float(graph_gf_value(p) / v_factor(20, 10))
    assert contour_extract(p) == pytest.approx(exact, rel=1e-8)


def test_contour_extract_default_points_converge_near_unit_zeta():
    # zeta = 300/301: 1024 points are off by 7e-2 here
    p = GraphClassParams(2, 300, q=2)
    exact = float(graph_gf_value(p) / v_factor(2, 300))
    assert contour_extract(p) == pytest.approx(exact, rel=1e-8)


def test_contour_extract_guards():
    p = GraphClassParams(2, 1, q=3)
    with pytest.raises(ValueError):
        contour_extract(p, points=32)
    # refused before any array is built: the default rule asks 2^25 points at
    # alpha = 600000
    with pytest.raises(DomainError, match="quadrature points exceed"):
        contour_extract(GraphClassParams(2, 600000, q=2))
    with pytest.raises(DomainError, match="quadrature points exceed"):
        contour_extract(p, points=2**25)


@pytest.mark.parametrize("model", ["simple", "multigraph"])
def test_contour_extract_outside_the_saddle_domain_raises_before_quadrature(model, monkeypatch):
    # n1 = 0 has no alpha and n2 = 0 has alpha = 0: both are refused by the
    # checks the saddle solve already makes, before any quadrature
    from degseq import asymptotics

    def no_quadrature(points):
        raise AssertionError("the quadrature ran outside the saddle domain")

    monkeypatch.setattr(asymptotics, "_roots_of_unity", no_quadrature)
    with pytest.raises(DomainError, match="^alpha is undefined for n1 = 0$"):
        contour_extract(GraphClassParams(0, 60, q=3, model=model))
    with pytest.raises(DomainError, match="^alpha must be positive and finite$"):
        contour_extract(GraphClassParams(6, 0, q=3, model=model), [1.0, 1.5, 1.0])


@pytest.mark.parametrize("model", ["simple", "multigraph"])
@pytest.mark.parametrize("n1", [2000, 4000])
def test_contour_log_coefficient_matches_exact_at_large_n1(n1, model):
    # the normalised integrand keeps the log finite where exp of it overflows
    p = GraphClassParams.from_alpha(1.0, n1, q=3, model=model)
    exact = graph_gf_value(p, [Fraction(1), Fraction(11, 10), Fraction(9, 10)]) / v_factor(p.n1, p.n2)
    log_exact = math.log(exact.numerator) - math.log(exact.denominator)
    assert abs(_contour_log_coefficient(p, [1.0, 1.1, 0.9], None) - log_exact) <= 1e-9
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert contour_extract(p, [1.0, 1.1, 0.9]) == math.inf  # log_exact > 709.8


def test_contour_log_coefficient_approaches_laplace():
    # the Laplace estimate's relative error is O(1/n1); the contour is exact
    # to rounding, so the gap between the two logs shrinks as n1 grows
    u = [1.0, 1.1, 0.9, 1.05]
    gaps = []
    for n1 in (1280, 2000, 4000):
        p = GraphClassParams.from_alpha(0.5, n1, q=4)
        contour = _contour_log_coefficient(p, u, None) + log_v_factor(p.n1, p.n2)
        gaps.append(abs(contour - asymptotic_log_gf(p, u)))
    assert gaps[0] > gaps[1] > gaps[2]


def test_gradient_closed_form():
    g = gradient_chi(1.0, 4)
    assert np.allclose(g, [0.5, 0.25, 0.125], atol=1e-15)


@pytest.mark.parametrize("alpha", (0.5, 1.0, 2.0))
def test_gradient_matches_finite_difference(alpha):
    q = 5
    fd = central_gradient(lambda t: chi_value(t, alpha, q), np.zeros(q - 1))
    assert np.abs(fd - gradient_chi(alpha, q)).max() <= 1e-7


def test_hessian_spot_values():
    h = hessian_H(1.0, 3)
    assert abs(h[0, 0] - 0.125) <= 1e-12
    assert abs(h[0, 1] + 0.125) <= 1e-12
    assert abs(h[1, 1] - 0.1875) <= 1e-12


@pytest.mark.parametrize("alpha", ALPHAS)
def test_hessian_22_simplification(alpha):
    # the (2,2) entry collapses to alpha^2/(1+alpha)^3
    h = hessian_H(alpha, 2)
    assert h.shape == (1, 1)
    assert h[0, 0] == pytest.approx(alpha**2 / (1 + alpha) ** 3, rel=1e-14)


@pytest.mark.parametrize("alpha", (0.5, 1.0, 2.0))
def test_hessian_matches_finite_difference(alpha):
    q = 5
    fd = central_hessian(lambda t: chi_value(t, alpha, q), np.zeros(q - 1))
    assert np.abs(fd - hessian_H(alpha, q)).max() <= 1e-5


def exact_limit_law(alpha: float, q: int):
    """The mean coefficients and covariance at the float alpha in exact
    rational arithmetic, from the closed forms as first written:
    c_j = alpha^{j-2}/(1+alpha)^{j-1} and
    H_ij = [i = j] c_i - c_i c_j (1 + (i-2-alpha)(j-2-alpha)/(alpha(1+alpha)))."""
    a = Fraction(alpha)
    c = [a ** (j - 2) / (1 + a) ** (j - 1) for j in range(2, q + 1)]
    h = [
        [
            (c[i - 2] if i == j else 0)
            - c[i - 2] * c[j - 2] * (1 + (i - 2 - a) * (j - 2 - a) / (a * (1 + a)))
            for j in range(2, q + 1)
        ]
        for i in range(2, q + 1)
    ]
    return c, h


@given(st.floats(-3.0, 3.0), st.integers(2, 8))
@settings(max_examples=150, deadline=None)
def test_limit_law_matches_exact_closed_form(log10_alpha, q):
    alpha = 10.0**log10_alpha
    c, h = exact_limit_law(alpha, q)
    scale = max(abs(x) for row in h for x in row)
    got = hessian_H(alpha, q)
    assert all(
        abs(Fraction(float(got[i, j])) - h[i][j]) <= Fraction(1e-12) * scale
        for i in range(q - 1)
        for j in range(q - 1)
    )
    assert all(
        abs(Fraction(float(x)) - e) <= Fraction(1e-14) * e for x, e in zip(gradient_chi(alpha, q), c)
    )


@given(st.floats(-300.0, 300.0), st.integers(2, 8), st.sampled_from(("simple", "multigraph")))
@settings(max_examples=150, deadline=None)
def test_limit_law_finite_for_every_alpha(log10_alpha, q, model):
    alpha = 10.0**log10_alpha
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        law = limit_law(alpha, q, model)
    assert np.isfinite(law.mean_coeffs).all()
    assert np.isfinite(law.hessian).all()
    assert np.array_equal(law.hessian, law.hessian.T)
    assert ((law.mean_coeffs >= 0) & (law.mean_coeffs <= 1)).all()


@pytest.mark.parametrize("alpha", (float("inf"), float("nan"), 0.0, -1.0))
@pytest.mark.parametrize(
    "fn",
    (
        gradient_chi,
        hessian_H,
        limit_law,
        pytest.param(lambda alpha, q: limit_law(alpha, q, model="multigraph"), id="limit_law-multigraph"),
    ),
)
def test_limit_law_rejects_non_finite_or_non_positive_alpha(fn, alpha):
    with pytest.raises(DomainError):
        fn(alpha, 4)


@pytest.mark.parametrize("q", (3.0, 2.5))
@pytest.mark.parametrize("fn", (gradient_chi, hessian_H, limit_law))
def test_limit_law_rejects_non_integer_q(fn, q):
    with pytest.raises(TypeError):
        fn(1.0, q)


@pytest.mark.parametrize("fn", (gradient_chi, hessian_H))
def test_limit_law_accepts_numpy_integer_q(fn):
    assert np.array_equal(fn(1.0, np.int64(4)), fn(1.0, 4))


def test_limit_law_stores_q_as_python_int():
    law = limit_law(1.0, np.int64(3))
    assert type(law.q) is int
    assert json.loads(json.dumps(law.to_json()))["q"] == 3
    with pytest.raises(DomainError):  # a bad alpha is still reported first
        limit_law(-1.0, 2.5)


@pytest.mark.parametrize("n1, n2", ((-2, 3), (2, -3)))
def test_log_v_factor_rejects_negative_counts(n1, n2):
    with pytest.raises(ValueError, match="vertex counts must be nonnegative"):
        log_v_factor(n1, n2)


@pytest.mark.parametrize(
    "call",
    (
        lambda: contour_extract(GraphClassParams(3, 4, q=3)),
        lambda: asymptotic_log_gf(GraphClassParams(3, 4, q=3)),
        lambda: log_v_factor(3, 4),
    ),
    ids=("contour_extract", "asymptotic_log_gf", "log_v_factor"),
)
def test_odd_n1_is_one_domain_error(call):
    # one check (exact.check_counts) with one type, which is also a ValueError
    with pytest.raises(DomainError, match="n1 must be even") as info:
        call()
    assert isinstance(info.value, ValueError)


def test_chi_value_reads_q_first():
    with pytest.raises(TypeError):
        chi_value([0.0], 1.0, 2.5)
    with pytest.raises(ValueError, match="q must be >= 2"):
        chi_value([], 1.0, 1)


@pytest.mark.parametrize("alpha", (float("inf"), float("nan")))
def test_solve_zeta_rejects_non_finite_alpha(alpha):
    with pytest.raises(DomainError):
        solve_zeta(alpha, np.ones(3))


def test_hessian_symmetric_and_psd():
    for alpha in ALPHAS:
        h = hessian_H(alpha, 8)
        assert np.allclose(h, h.T, atol=0)
        assert np.linalg.eigvalsh(h).min() >= -1e-9


def test_log_path_partials_match_finite_differences():
    # the five local derivatives of f(z, u) = log Path at (zeta_1, 1) that feed
    # the covariance closed form, checked against central differences
    alpha = 1.3
    q = 5
    zeta1 = alpha / (1 + alpha)
    h = 1e-5

    def f(z, u):
        return math.log(path_value(z, u))

    ones = np.ones(q)
    fd_z = (f(zeta1 + h, ones) - f(zeta1 - h, ones)) / (2 * h)
    assert abs(fd_z - (1 + alpha)) <= 1e-6
    fd_zz = (f(zeta1 + h, ones) - 2 * f(zeta1, ones) + f(zeta1 - h, ones)) / (h * h)
    assert abs(fd_zz - (1 + alpha) ** 2) <= 1e-4
    for i in range(2, q + 1):
        up = ones.copy()
        dn = ones.copy()
        up[i - 1] += h
        dn[i - 1] -= h
        fd_u = (f(zeta1, up) - f(zeta1, dn)) / (2 * h)
        assert abs(fd_u - alpha ** (i - 2) / (1 + alpha) ** (i - 1)) <= 1e-6
        fd_uz = (
            f(zeta1 + h, up) - f(zeta1 + h, dn) - f(zeta1 - h, up) + f(zeta1 - h, dn)
        ) / (4 * h * h)
        expected = alpha ** (i - 3) / (1 + alpha) ** (i - 2) * (i - 2 - alpha)
        assert abs(fd_uz - expected) <= 1e-4
        for j in range(2, q + 1):
            upj = ones.copy()
            dnj = ones.copy()
            upj[i - 1] += h
            upj[j - 1] += h
            dnj[i - 1] -= h
            dnj[j - 1] -= h
            mixed_a = ones.copy()
            mixed_b = ones.copy()
            mixed_a[i - 1] += h
            mixed_a[j - 1] -= h
            mixed_b[i - 1] -= h
            mixed_b[j - 1] += h
            fd_uu = (
                f(zeta1, upj) - f(zeta1, mixed_a) - f(zeta1, mixed_b) + f(zeta1, dnj)
            ) / (4 * h * h)
            expected = -(alpha ** (i + j - 4)) / (1 + alpha) ** (i + j - 2)
            assert abs(fd_uu - expected) <= 1e-4


def test_chi_and_prefactor_at_origin():
    for alpha in (0.5, 1.0, 2.0):
        assert abs(chi_value(np.zeros(3), alpha, 4)) <= 1e-14
        for model in ("simple", "multigraph"):
            assert abs(b_value(np.zeros(3), alpha, 4, model) - 1.0) <= 1e-12


def test_asymptotic_log_gf_converges_to_exact():
    diffs = []
    for n1 in (20, 40, 80):
        p = GraphClassParams(n1, n1 // 2, q=2)
        exact = graph_gf_value(p)
        log_exact = math.log(exact.numerator) - math.log(exact.denominator)
        diffs.append(abs(log_exact - asymptotic_log_gf(p)))
    assert diffs[0] > diffs[1] > diffs[2]
    assert diffs[-1] < 0.05


@pytest.mark.parametrize("model", ["simple", "multigraph"])
def test_asymptotic_log_gf_error_halves_per_doubling(model):
    # the Laplace estimate drops an O(1/n1) term of the log, so its error
    # against the exact value halves each time n1 doubles
    diffs = []
    for n1 in (320, 640, 1280, 2560):
        p = GraphClassParams.from_alpha(1.0, n1, q=2, model=model)
        exact = graph_gf_value(p)
        log_exact = math.log(exact.numerator) - math.log(exact.denominator)
        diffs.append(abs(log_exact - asymptotic_log_gf(p)))
    for coarse, fine in zip(diffs, diffs[1:]):
        assert 1.9 <= coarse / fine <= 2.1


def test_asymptotic_log_gf_small_instance_close():
    p = GraphClassParams(20, 10, q=2)
    exact = graph_gf_value(p)
    log_exact = math.log(exact.numerator) - math.log(exact.denominator)
    assert abs(log_exact - asymptotic_log_gf(p)) < 0.05


def test_asymptotic_log_gf_multigraph_close():
    p = GraphClassParams(20, 10, q=2, model="multigraph")
    exact = graph_gf_value(p)
    log_exact = math.log(exact.numerator) - math.log(exact.denominator)
    assert abs(log_exact - asymptotic_log_gf(p)) < 0.05


def test_asymptotic_log_gf_guards():
    with pytest.raises(DomainError):
        asymptotic_log_gf(GraphClassParams(0, 4, q=2))


def test_saddle_data_invariants():
    sd = saddle_data(1.0, np.ones(4), "simple")
    assert 0 < sd.zeta < 1 and sd.phi2 > 0 and sd.a0 > 0
    assert sd.path_at_zeta == pytest.approx(2.0, abs=1e-12)


def test_limit_law_assembly():
    law = limit_law(1.0, 4, "multigraph")
    assert law.poisson_lambda == pytest.approx(0.25, abs=1e-15)
    assert np.allclose(law.mean_coeffs, [0.5, 0.25, 0.125])
    assert law.hessian.shape == (3, 3)
    assert limit_law(1.0, 4, "simple").poisson_lambda is None


def test_limit_law_json_shape():
    blob = limit_law(2.0, 3, "multigraph").to_json()
    assert set(blob) == {"alpha", "q", "model", "mean_coeffs", "hessian", "poisson_lambda"}
    assert blob["poisson_lambda"] == pytest.approx(2.0 / 6.0)
    assert len(blob["hessian"]) == 2 and len(blob["hessian"][0]) == 2


def test_cycle_value_matches_series_expansion():
    # log of the cycle factor vs exact truncated cycle series at a small radius
    from degseq.series import build_cycle_series

    u = [Fraction(1), Fraction(11, 10), Fraction(9, 10)]
    z = 0.01
    for model in ("simple", "multigraph"):
        series = build_cycle_series(3, 30, model)
        truncated = sum(
            float(evaluate(series.coeffs[k], u)) * z**k for k in range(31)
        )
        closed = math.log(_cycle_factor(z, [1.0, 1.1, 0.9], model))
        assert closed == pytest.approx(truncated, abs=1e-15)
