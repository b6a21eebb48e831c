"""Numeric pipeline: saddle point of the path series, Laplace-method estimate
of the census generating function, trapezoid contour extraction of its
coefficients, and the closed-form Gaussian/Poisson limit law.

saddle_data is the one evaluator of the Laplace quantities: it checks the
weights once, solves the saddle through solve_zeta, and evaluates Path,
Path' and Path'' at zeta once for the phase curvature and the cycle factor.
check_path_positive is the one weight check: solve_zeta, saddle_data,
asymptotic_log_gf and the contour all read their weights through it.

Weight vectors ``u`` follow the package convention: length q, slot j-1 holds
the weight on components of size j, slot 0 (loops) is only meaningful for
multigraphs.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .exact import check_alpha, check_counts, check_model, check_q

FD_STEP = 1e-5
LOG_FLOAT_MAX = math.log(np.finfo(float).max)  # largest x whose exp(x) is finite
# saddle solve: absolute and relative bracket tolerances and step limit; the
# relative tolerance and step limit are scipy.optimize.brentq's defaults
BRENT_XTOL = 1e-30
BRENT_RTOL = 4 * float(np.finfo(float).eps)
BRENT_MAXITER = 100
# radii the saddle solve searches; at unit weights it covers about 1e-13 < alpha < 1e13
SADDLE_BRACKET = (1e-13, 1.0 - 1e-13)
MAX_POINTS = 1 << 24  # contour points; peak memory ~48 B/point (measured at 2^20-2^22), ~0.8 GB


def check_path_positive(u, q=None) -> list:
    """The weights as Python floats, checked positive and finite, so that each
    z^i coefficient of the path series (u_{i+2} or 1), hence Path on (0,1), is
    positive; the scalar evaluators run ~2x faster on Python floats, and they
    overflow to inf without numpy's warnings."""
    w = np.asarray(u, dtype=float)
    if w.ndim != 1 or w.size < 2:
        raise ValueError("weight vector must be 1-d with length >= 2")
    if q is not None and w.size != q:
        raise ValueError("expected %d weights, got %d" % (q, w.size))
    if not np.all((w > 0) & (w < math.inf)):
        raise DomainError("weights must be positive and finite")
    return w.tolist()


def path_value(z, u, k: int = 0):
    """k-th z-derivative of the path-component series
    1/(1-z) + sum_{j=2}^q (u_j - 1) z^{j-2}; accepts real, complex, or
    numpy-array z."""
    acc = math.factorial(k) / (1.0 - z) ** (k + 1)
    for j in range(k + 2, len(u) + 1):
        w = u[j - 1] - 1.0
        if w:
            acc = acc + w * math.perm(j - 2, k) * z ** (j - 2 - k)
    return acc


def _cycle_polynomial(z, u, model: str, acc=0.0):
    """acc plus the cycle-component series less its log(1/(1-z))/2, in
    _cycle_factor's order: the sizes below the model's smallest cycle are
    taken out of the log."""
    first = check_model(model)
    for j in range(1, first):
        acc = acc - z**j / (2.0 * j)
    for j in range(first, len(u) + 1):
        w = u[j - 1] - 1.0
        if w:
            acc = acc + w * z**j / (2.0 * j)
    return acc


def solve_zeta(alpha: float, u) -> float:
    """Radius in (0,1) where z * d/dz log Path(z,u) = alpha, by Brent's
    method on SADDLE_BRACKET; for u = 1 the root is alpha/(1+alpha).  The
    left side rises strictly from 0 to infinity on (0,1) for positive weights.

    Convergence is judged by the bracket width alone (BRENT_RTOL, 4 ulp
    relative, plus BRENT_XTOL absolute): a residual bound cannot be met where
    the slope ~alpha(1+alpha)/zeta makes one ulp of zeta move the residual
    past it.
    """
    check_alpha(alpha)
    w = check_path_positive(u)
    return _brentq(lambda z: z * path_value(z, w, 1) / path_value(z, w) - alpha, *SADDLE_BRACKET)


def _brentq(f, xpre: float, xcur: float) -> float:
    """Root of f between xpre and xcur by Brent's method (Brent 1973, ch. 4),
    ported operation for operation from scipy's brentq.c so that the iterates,
    and the root, are the same floats as scipy.optimize.brentq's.  A NaN value
    or ends of one sign raise DomainError; BRENT_MAXITER steps without
    convergence raise ConvergenceError."""

    def value(x):
        fx = f(x)
        if fx != fx:
            raise DomainError("saddle equation is NaN at z=%r; weights out of range" % x)
        return fx

    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise DomainError("saddle bracket has no sign change; alpha or weights out of range")
    xblk = fblk = spre = scur = 0.0
    for _ in range(BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (BRENT_XTOL + BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C's step is then inf or NaN, which fails the test below
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise ConvergenceError("saddle solve failed: no convergence in %d iterations" % BRENT_MAXITER)


def _cycle_factor(zeta: float, u: list, model: str) -> float:
    """Cycle-set factor exp(Cycle(zeta, u)) at the contour center, for checked
    weights u and zeta in (0,1).  Raises DomainError when it overflows a
    float."""
    log_a0 = _cycle_polynomial(zeta, u, model, 0.5 * math.log(1.0 / (1.0 - zeta)))
    if not log_a0 <= LOG_FLOAT_MAX:
        raise DomainError("cycle factor exp(Cycle(zeta)) overflows; weights out of range")
    return math.exp(log_a0)


@dataclass(frozen=True, eq=False)
class SaddleData:
    """Everything the Laplace estimate needs at a given weight vector: the
    saddle zeta, the phase curvature phi2 = z g'(z) + z^2 g''(z) at zeta with
    g = log Path (alpha(1+alpha) at u = 1), the cycle factor a0 and Path(zeta)."""

    zeta: float
    phi2: float
    a0: float
    path_at_zeta: float


def saddle_data(alpha: float, u, model: str = "simple") -> SaddleData:
    """The saddle quantities of the Laplace estimate, each evaluated once.
    DomainError when the curvature is not positive and finite or the cycle
    factor overflows."""
    u = check_path_positive(u)
    zeta = solve_zeta(alpha, u)
    p = path_value(zeta, u)
    g1 = path_value(zeta, u, 1) / p
    g2 = path_value(zeta, u, 2) / p - g1 * g1
    phi2 = zeta * g1 + zeta * zeta * g2
    if not 0 < phi2 < math.inf:
        raise DomainError("phase curvature is not positive and finite; weights out of range")
    return SaddleData(zeta=zeta, phi2=phi2, a0=_cycle_factor(zeta, u, model), path_at_zeta=p)


def log_v_factor(n1: int, n2: int) -> float:
    """log of (n1+n2)!/(2^{n1/2} (n1/2)!) via log-gamma (overflow-safe)."""
    check_counts(n1, n2)
    k = n1 // 2
    return math.lgamma(n1 + n2 + 1) - k * math.log(2.0) - math.lgamma(k + 1)


def asymptotic_log_gf(params, u=None) -> float:
    """Laplace-method estimate of the log census generating-function value.

    Saddle is centered with the instance's effective ratio 2 n2/n1, which
    kills the linear phase exactly even when n2 came from flooring.
    """
    if params.n1 < 2:
        raise DomainError("the Laplace estimate needs n1 >= 2")
    if params.n2 == 0:
        raise DomainError("n2 = 0 gives alpha = 0: there is no saddle point")
    u = [1.0] * params.q if u is None else check_path_positive(u, params.q)
    sd = saddle_data(params.alpha, u, params.model)
    k = params.n1 // 2
    return (
        log_v_factor(params.n1, params.n2)
        + math.log(sd.a0)
        - 0.5 * math.log(2.0 * math.pi * sd.phi2 * k)
        + k * math.log(sd.path_at_zeta)
        - params.n2 * math.log(sd.zeta)
    )


def contour_extract(params, u=None, points: int | None = None) -> float:
    """Coefficient of z^{n2} in the cycle-set/path-power product by trapezoid
    quadrature of the Cauchy integral on the saddle circle of the path power.
    The domain is asymptotic_log_gf's, n1 >= 2 and n2 >= 1: outside it
    params.alpha or check_alpha raises DomainError before any quadrature.

    The integrand is 2-pi-periodic and analytic, so the uniform trapezoid rule
    converges spectrally; multiplying by the relabelling prefactor recovers
    the full census generating-function value.  The default point count is
    the smallest power of two >= max(1024, 32 / (1 - zeta)), as the integrand
    sharpens when zeta nears 1; more than MAX_POINTS points raise DomainError,
    and so does a cycle factor that overflows; a points that is not an integer
    raises TypeError before any solve.  A coefficient beyond the largest
    float gives inf, without warnings."""
    if points is not None:
        points = operator.index(points)
    log_coefficient = _contour_log_coefficient(params, u, points)
    return math.exp(log_coefficient) if log_coefficient <= LOG_FLOAT_MAX else math.inf


@functools.lru_cache(maxsize=4)
def _roots_of_unity(points: int) -> np.ndarray:
    roots = np.exp(2j * math.pi * np.arange(points) / points)
    roots.flags.writeable = False  # every caller shares the cached array
    return roots


def _contour_log_coefficient(params, u, points) -> float:
    """log of contour_extract's value from the normalised integrand
    exp(Cyc(w) - Cyc(zeta)) (Path(w)/Path(zeta))^k e^{-i n2 theta}, k = n1/2, of modulus
    <= 1 (nonnegative series coefficients), on theta <= pi (real coefficients),
    where zeta = solve_zeta(alpha, u) is the saddle of the path power."""
    u = [1.0] * params.q if u is None else check_path_positive(u, params.q)
    zeta = solve_zeta(params.alpha, u)
    log_cycle = math.log(_cycle_factor(zeta, u, params.model))  # raises on overflow
    if points is None:
        points = 1 << max(10, math.ceil(math.log2(32.0 / (1.0 - zeta))))
    if points < 64:
        raise ValueError("need at least 64 quadrature points")
    if points > MAX_POINTS:
        raise DomainError("%d quadrature points exceed the limit of %d" % (points, MAX_POINTS))
    path_zeta = path_value(zeta, u)
    # cache only tables of <= 64 KB: a large count is rare and would pin its memory
    roots = (_roots_of_unity if points <= 4096 else _roots_of_unity.__wrapped__)(points)
    w = zeta * roots[: points // 2 + 1]
    integrand = np.exp(_cycle_polynomial(w, u, params.model) - log_cycle) / np.sqrt(1.0 - w)
    integrand *= roots[np.arange(w.size) * (-params.n2 % points) % points]  # e^{-i n2 theta}
    ratio = path_value(w, u) / path_zeta
    for bit in reversed(bin(params.n1 // 2)[2:]):  # integrand *= ratio**(n1/2) by repeated squaring
        if bit == "1":
            integrand *= ratio
        ratio = ratio * ratio
    integrand[1 : (points + 1) // 2] *= 2.0  # each also stands in for its mirror image
    mean = integrand.real.sum() / points
    return log_cycle + params.n1 // 2 * math.log(path_zeta) - params.n2 * math.log(zeta) + math.log(mean)


def _ratios(alpha: float, q: int):
    """r = alpha/(1+alpha) and s = 1/(1+alpha), both in [0, 1], so powers of
    them neither overflow nor turn into inf/inf for any finite alpha > 0."""
    check_alpha(alpha)
    check_q(q)
    return alpha / (1.0 + alpha), 1.0 / (1.0 + alpha)


def gradient_chi(alpha: float, q: int) -> np.ndarray:
    """Per-path mean coefficients c_j = alpha^{j-2}/(1+alpha)^{j-1}
    = r^{j-2} s, j = 2..q."""
    r, s = _ratios(alpha, q)
    return r ** np.arange(q - 1, dtype=float) * s


def hessian_H(alpha: float, q: int) -> np.ndarray:
    """Closed-form limiting covariance of the standardized counts of
    components of sizes 2..q: with a = i-2, b = j-2,

        H_ij = [i = j] c_i - c_i c_j (1 + (a - alpha)(b - alpha)/(alpha(1+alpha))),

    written in r and s, where (a - alpha)(b - alpha)/(alpha(1+alpha))
    = (a s - r)(b s - r)/r and 1 = r + s:

        H_ij = [i = j] r^a s - s^2 (r^{a+b} (2r + (1-a-b) s) + ab s^2 r^{a+b-1}).

    No power of r is negative, so every entry is finite.  H_22 cancels to
    s r^2 = alpha^2/(1+alpha)^3, which is set directly."""
    r, s = _ratios(alpha, q)
    k = np.arange(q - 1, dtype=float)
    a = k[:, None]
    b = k[None, :]
    h = -s * s * (
        r ** (a + b) * (2.0 * r + (1.0 - a - b) * s)
        + a * b * s * s * r ** np.maximum(a + b - 1.0, 0.0)
    )
    h[np.arange(q - 1), np.arange(q - 1)] += r**k * s
    h[0, 0] = s * r * r
    return h


def chi_value(t, alpha: float, q: int) -> float:
    """Scaled cumulant rate chi(t) = log(Path(zeta_u,u)/Path(zeta_1,1))
    - alpha log(zeta_u/zeta_1) with u_j = e^{t_j}; chi(0) = 0."""
    q = check_q(q)
    t = np.asarray(t, dtype=float)
    if t.shape != (q - 1,):
        raise ValueError("t must have length q-1 (components 2..q)")
    u = np.ones(q)
    with np.errstate(over="ignore"):  # an inf weight is check_path_positive's DomainError
        u[1:] = np.exp(t)
    zeta_u = solve_zeta(alpha, u)
    zeta_1 = alpha / (1.0 + alpha)
    return float(
        math.log(path_value(zeta_u, u) / (1.0 + alpha))
        - alpha * math.log(zeta_u / zeta_1)
    )


@dataclass(frozen=True, eq=False)
class LimitLaw:
    """Limit distribution of the census vector: Gaussian mean coefficients and
    covariance for sizes 2..q plus the loop-count Poisson rate (multigraph)."""

    alpha: float
    q: int
    model: str
    mean_coeffs: np.ndarray
    hessian: np.ndarray
    poisson_lambda: float | None

    def to_json(self) -> dict:
        return {**vars(self), "mean_coeffs": self.mean_coeffs.tolist(), "hessian": self.hessian.tolist()}


def limit_law(alpha: float, q: int, model: str = "simple") -> LimitLaw:
    check_model(model)
    mean_coeffs = gradient_chi(alpha, q)  # raises for a bad alpha or q before lam uses alpha
    lam = alpha / (2.0 * (1.0 + alpha)) if model == "multigraph" else None
    return LimitLaw(
        alpha=float(alpha),
        q=check_q(q),
        model=model,
        mean_coeffs=mean_coeffs,
        hessian=hessian_H(alpha, q),
        poisson_lambda=lam,
    )


def central_hessian(f, x) -> np.ndarray:
    """Central finite-difference Hessian with step FD_STEP, the independent
    oracle for the closed-form covariance; each row of np.eye(n) * FD_STEP
    steps one coordinate, adding exact zeros to the rest."""
    h = FD_STEP
    x = np.asarray(x, dtype=float)
    steps = np.eye(x.size) * h
    out = np.empty((x.size, x.size))
    f0 = f(x)
    for i, a in enumerate(steps):
        out[i, i] = (f(x + a) - 2.0 * f0 + f(x - a)) / (h * h)
        for j, b in enumerate(steps[i + 1 :], i + 1):
            value = f(x + a + b) - f(x + a - b) - f(x - a + b) + f(x - a - b)
            out[i, j] = out[j, i] = value / (4.0 * h * h)
    return out
