"""Numeric pipeline: saddle point of the path series, Laplace-method estimate
of the census generating function, trapezoid contour extraction of its
coefficients, and the closed-form Gaussian/Poisson limit law.

Weight vectors ``u`` follow the package convention: length q, slot j-1 holds
the weight on components of size j, slot 0 (loops) is only meaningful for
multigraphs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .series import check_model

FD_STEP = 1e-5
LOG_FLOAT_MAX = math.log(np.finfo(float).max)  # largest x whose exp(x) is finite


def _as_weights(u, q=None):
    w = np.asarray(u, dtype=float)
    if w.ndim != 1 or w.size < 2:
        raise ValueError("weight vector must be 1-d with length >= 2")
    if q is not None and w.size != q:
        raise ValueError("expected %d weights, got %d" % (q, w.size))
    if not np.all((w > 0) & (w < math.inf)):
        raise DomainError("weights must be positive and finite")
    return w


def _check_alpha(alpha: float) -> None:
    if not 0 < alpha < math.inf:
        raise DomainError("alpha must be positive and finite")


def ones_weights(q: int) -> np.ndarray:
    return np.ones(q)


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


def cycle_value(z, u, model: str = "simple"):
    """Cycle-component series at z; loops (size 1) and double edges (size 2)
    appear only in the multigraph model."""
    check_model(model)
    q = len(u)
    log = np.log if isinstance(z, np.ndarray) else cmath.log if isinstance(z, complex) else math.log
    acc = 0.5 * log(1.0 / (1.0 - z))
    first = 1 if model == "multigraph" else 3
    if model == "simple":
        acc = acc - z / 2.0 - z**2 / 4.0
    for j in range(first, q + 1):
        w = u[j - 1] - 1.0
        if w:
            acc = acc + w * z**j / (2.0 * j)
    return acc


def check_path_positive(u):
    """DomainError unless every weight is positive and finite: then so is each
    z^i coefficient of the path series (u_{i+2} or 1), hence Path on (0,1)."""
    _as_weights(u)


def z_log_deriv_path(z: float, u) -> float:
    """z * d/dz log(Path(z,u)); strictly increasing from 0 to infinity on
    (0,1) for positive weights."""
    return z * path_value(z, u, 1) / path_value(z, u)


def solve_zeta(alpha: float, u) -> float:
    """Radius in (0,1) where z * d/dz log Path(z,u) = alpha, by Brent's
    method on the bracket [1e-13, 1 - 1e-13]; for u = 1 the root is
    alpha/(1+alpha).

    Convergence is judged by the bracket width alone (brentq's relative
    tolerance, 4 ulp): a residual bound cannot be met where the slope
    ~alpha(1+alpha)/zeta makes one ulp of zeta move the residual past it.
    """
    from scipy.optimize import brentq

    _check_alpha(alpha)
    w = _as_weights(u).tolist()  # Python floats: the scalar evaluator runs ~2x faster on them
    lo, hi = 1e-13, 1.0 - 1e-13
    if not (z_log_deriv_path(lo, w) < alpha < z_log_deriv_path(hi, w)):
        raise DomainError("saddle bracket has no sign change; weights out of range")
    try:
        return brentq(lambda z: z_log_deriv_path(z, w) - alpha, lo, hi, xtol=1e-30)
    except RuntimeError as exc:
        raise ConvergenceError("saddle solve failed: %s" % exc) from exc


def phi_second(zeta: float, u) -> float:
    """Second theta-derivative at 0 of the phase on the contour of radius
    zeta: z g'(z) + z^2 g''(z) with g = log Path; equals alpha(1+alpha) at
    u = 1."""
    u = _as_weights(u)
    p = path_value(zeta, u)
    g1 = path_value(zeta, u, 1) / p
    g2 = path_value(zeta, u, 2) / p - g1 * g1
    value = zeta * g1 + zeta * zeta * g2
    if not 0 < value < math.inf:
        raise DomainError("phase curvature is not positive and finite; weights out of range")
    return value


def a_zero(zeta: float, u, model: str = "simple") -> float:
    """Cycle-set factor exp(Cycle(zeta, u)) at the contour center.  Raises
    DomainError when it overflows a float."""
    if not 0 < zeta < 1:
        raise DomainError("zeta must lie in (0,1)")
    log_a0 = cycle_value(float(zeta), _as_weights(u), model)
    if not log_a0 <= LOG_FLOAT_MAX:
        raise DomainError("cycle factor exp(Cycle(zeta)) overflows; weights out of range")
    return math.exp(log_a0)


@dataclass(frozen=True, eq=False)
class SaddleData:
    """Everything the Laplace estimate needs at a given weight vector."""

    zeta: float
    phi2: float
    a0: float
    path_at_zeta: float
    u: np.ndarray


def saddle_data(alpha: float, u, model: str = "simple") -> SaddleData:
    u = _as_weights(u)
    zeta = solve_zeta(alpha, u)
    return SaddleData(
        zeta=zeta,
        phi2=phi_second(zeta, u),
        a0=a_zero(zeta, u, model),
        path_at_zeta=float(path_value(zeta, u)),
        u=u,
    )


def log_v_factor(n1: int, n2: int) -> float:
    """log of (n1+n2)!/(2^{n1/2} (n1/2)!) via log-gamma (overflow-safe)."""
    if n1 % 2:
        raise ValueError("n1 must be even")
    k = n1 // 2
    return math.lgamma(n1 + n2 + 1) - k * math.log(2.0) - math.lgamma(k + 1)


def asymptotic_log_gf(params, u=None) -> float:
    """Laplace-method estimate of the log census generating-function value.

    Saddle is centered with the instance's effective ratio 2 n2/n1, which
    kills the linear phase exactly even when n2 came from flooring.
    """
    if params.n1 % 2:
        raise DomainError("n1 must be even")
    if params.n1 < 2:
        raise DomainError("the Laplace estimate needs n1 >= 2")
    q = params.q
    u = ones_weights(q) if u is None else _as_weights(u, q)
    alpha = params.alpha
    sd = saddle_data(alpha, u, params.model)
    k = params.n1 // 2
    return (
        log_v_factor(params.n1, params.n2)
        + math.log(sd.a0)
        - 0.5 * math.log(2.0 * math.pi * sd.phi2 * k)
        + k * math.log(sd.path_at_zeta)
        - params.n2 * math.log(sd.zeta)
    )


def contour_extract(params, u=None, zeta: float | None = None, points: int | None = None) -> float:
    """Coefficient of z^{n2} in the cycle-set/path-power product by trapezoid
    quadrature of the Cauchy integral on the circle of radius zeta (default:
    the saddle).

    The integrand is 2-pi-periodic and analytic, so the uniform trapezoid rule
    converges spectrally; multiplying by the relabelling prefactor recovers
    the full census generating-function value.  The default point count is
    the smallest power of two >= max(1024, 32 / (1 - zeta)), as the integrand
    sharpens when zeta nears 1.  An overflow of the path power gives NaN,
    without warnings; a cycle factor that overflows raises DomainError.
    """
    if params.n1 % 2:
        raise DomainError("n1 must be even")
    q = params.q
    u = ones_weights(q) if u is None else _as_weights(u, q)
    if zeta is None:
        zeta = 0.5 if params.n1 == 0 else solve_zeta(params.alpha, u)
    a_zero(zeta, u, params.model)  # |exp(Cycle)| peaks at w = zeta; raises on overflow
    if points is None:
        points = 1 << max(10, math.ceil(math.log2(32.0 / (1.0 - zeta))))
    if points < 64:
        raise ValueError("need at least 64 quadrature points")
    theta = 2.0 * math.pi * np.arange(points) / points
    w = zeta * np.exp(1j * theta)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        integrand = np.exp(cycle_value(w, u, params.model))
        integrand = integrand * path_value(w, u) ** (params.n1 // 2)
        integrand = integrand / w**params.n2
        return float(np.mean(integrand).real)


def _ratios(alpha: float, q: int):
    """r = alpha/(1+alpha) and s = 1/(1+alpha), both in [0, 1], so powers of
    them neither overflow nor turn into inf/inf for any finite alpha > 0."""
    _check_alpha(alpha)
    if q < 2:
        raise ValueError("q must be >= 2")
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
    t = np.asarray(t, dtype=float)
    if t.shape != (q - 1,):
        raise ValueError("t must have length q-1 (components 2..q)")
    u = np.ones(q)
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
        return {
            "alpha": self.alpha,
            "q": self.q,
            "model": self.model,
            "mean_coeffs": [float(x) for x in self.mean_coeffs],
            "hessian": [[float(x) for x in row] for row in self.hessian],
            "poisson_lambda": self.poisson_lambda,
        }


def limit_law(alpha: float, q: int, model: str = "simple") -> LimitLaw:
    check_model(model)
    mean_coeffs = gradient_chi(alpha, q)  # raises for a bad alpha or q before lam uses alpha
    lam = alpha / (2.0 * (1.0 + alpha)) if model == "multigraph" else None
    return LimitLaw(
        alpha=float(alpha),
        q=q,
        model=model,
        mean_coeffs=mean_coeffs,
        hessian=hessian_H(alpha, q),
        poisson_lambda=lam,
    )


def central_hessian(f, x, h: float = FD_STEP) -> np.ndarray:
    """Central finite-difference Hessian, the independent oracle for the
    closed-form covariance."""
    x = np.asarray(x, dtype=float)
    n = x.size
    out = np.empty((n, n))
    f0 = f(x)
    for i in range(n):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        out[i, i] = (f(xp) - 2.0 * f0 + f(xm)) / (h * h)
        for j in range(i + 1, n):
            xpp = x.copy()
            xpm = x.copy()
            xmp = x.copy()
            xmm = x.copy()
            xpp[[i, j]] += h
            xmm[[i, j]] -= h
            xpm[i] += h
            xpm[j] -= h
            xmp[i] -= h
            xmp[j] += h
            out[i, j] = out[j, i] = (f(xpp) - f(xpm) - f(xmp) + f(xmm)) / (4.0 * h * h)
    return out
