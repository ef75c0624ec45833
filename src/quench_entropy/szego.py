"""Thermodynamic-limit machinery built on Fourier coefficients of the evolved spectrum.

Everything here works with the evolved width spectrum Lambda(theta, t) sampled on
uniform grids (the trapezoid rule is spectrally accurate for smooth periodic
integrands, and every grid is doubled until the coefficients stop moving):

* coefficients c_k of ln Lambda^{-1} and the entropy lower bound sum k c_k^2,
* an independent double-integral identity for the same sum (Parseval route),
* coefficients b_k of Lambda^{-1} itself, split into a static part and a
  traveling part whose support measures the correlation light cone,
* the momentum-coefficient bound sum k b_k^2 / M^2,
* least-squares growth fits (linear window and short-time quadratic).
"""

from __future__ import annotations

import dataclasses

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import CriticalSymbolError, QuadratureError, TailCriterionError
from .evolution import lambda_of_t
from .spectral import TrigPolynomial, evaluate, group_velocity_bound, is_critical

_QUAD_START = 8192
_QUAD_CAP = 2 ** 23
_COEFF_STABLE_TOL = 1e-9
_TAIL_REL = 1e-12
_TAIL_ABS = 1e-24
_CONE_THRESHOLD = 1e-6


@dataclasses.dataclass(frozen=True)
class FourierSeries:
    """Coefficient bundle at one time: c_k (log spectrum), b_k (inverse spectrum),
    its static/traveling split, and the spectrum maximum M."""

    c: np.ndarray
    b: np.ndarray
    sigma: np.ndarray | None
    mu: np.ndarray | None
    M: float
    t: float
    k_max: int


@dataclasses.dataclass(frozen=True)
class GrowthFit:
    slope: float
    intercept: float
    r_squared: float
    window: tuple
    kappa1: float | None = None
    kappa2: float | None = None


@dataclasses.dataclass(frozen=True)
class ShortTimeFit:
    kappa1: float
    kappa2: float
    exponent: float


@dataclasses.dataclass(frozen=True)
class LightConeProfile:
    t_list: np.ndarray
    mu_table: np.ndarray
    edges: np.ndarray
    velocity_bound: float


def _pow2_at_least(n: int) -> int:
    g = 1
    while g < n:
        g *= 2
    return g


def _cosine_coeffs_once(sample_fn, k_max: int, grid: int) -> np.ndarray:
    """One quadrature pass: k_max+1 real Fourier coefficients (1/2pi convention)."""
    theta = 2.0 * np.pi * np.arange(grid) / grid
    vals = np.asarray(sample_fn(theta), dtype=float)
    if np.ptp(vals) == 0.0:
        out = np.zeros(k_max + 1)
        out[0] = vals[0]
        return out
    # exact even symmetrization kills the odd rounding dust before the FFT
    vals = 0.5 * (vals + np.roll(vals[::-1], 1))
    return (np.fft.rfft(vals)[: k_max + 1] / grid).real


def _stabilized_cosine_coeffs(sample_fn, k_max: int, quad_points: int | None = None) -> np.ndarray:
    """Fourier coefficients with automatic grid doubling until they stabilize."""
    if k_max < 0:
        raise ValueError("k_max must be non-negative")
    if quad_points is not None and quad_points < 8 * k_max:
        raise ValueError(f"quad_points={quad_points} below the minimum 8*k_max={8 * k_max}")
    start = quad_points if quad_points is not None else max(_QUAD_START, 8 * (k_max + 1))
    grid = _pow2_at_least(max(start, 2 * (k_max + 1)))
    prev = _cosine_coeffs_once(sample_fn, k_max, grid)
    while grid <= _QUAD_CAP:
        grid *= 2
        cur = _cosine_coeffs_once(sample_fn, k_max, grid)
        if np.abs(cur - prev).max() <= _COEFF_STABLE_TOL:
            return cur
        prev = cur
    raise QuadratureError(
        f"coefficients did not stabilize to {_COEFF_STABLE_TOL:g} below grid {_QUAD_CAP}")


def default_k_max(lam: TrigPolynomial, t: float) -> int:
    """Cone-covering truncation for gapped couplings: ceil(4 v_g t) + 64."""
    v_g = group_velocity_bound(lam)
    return int(np.ceil(4.0 * v_g * abs(t))) + 64


def log_symbol_coeffs(lam: TrigPolynomial, beta: TrigPolynomial, t: float,
                      k_max: int, quad_points: int | None = None) -> np.ndarray:
    """Coefficients c_k of ln Lambda^{-1}(theta, t), k = 0..k_max."""
    return _stabilized_cosine_coeffs(
        lambda th: -np.log(lambda_of_t(lam, beta, th, t)), k_max, quad_points)


def szego_sum(c: np.ndarray, enforce_tail: bool = True) -> float:
    """Entropy lower bound sum_{k>=1} k c_k^2 with a tail-negligibility check."""
    c = np.asarray(c, dtype=float)
    k = np.arange(c.size, dtype=float)
    total = float(np.sum(k[1:] * c[1:] ** 2))
    if c.size > 1 and enforce_tail:
        tail = (c.size - 1) * c[-1] ** 2
        if tail > max(_TAIL_REL * total, _TAIL_ABS):
            raise TailCriterionError(
                f"truncation tail k_max c_kmax^2 = {tail:.3g} not negligible "
                f"against the partial sum {total:.6g}; increase k_max",
                suggested_k_max=2 * (c.size - 1))
    return total


def szego_sum_for(lam: TrigPolynomial, beta: TrigPolynomial, t: float,
                  k_max: int | None = None) -> float:
    """Szego-bound value with truncation resolved automatically.

    Gapped couplings take the cone-covering default; critical ones grow k_max
    until the tail criterion is satisfied.
    """
    if k_max is not None:
        return szego_sum(log_symbol_coeffs(lam, beta, t, k_max))
    if not is_critical(lam):
        return szego_sum(log_symbol_coeffs(lam, beta, t, default_k_max(lam, t)))
    k = 256
    while True:
        try:
            return szego_sum(log_symbol_coeffs(lam, beta, t, k))
        except TailCriterionError as exc:
            if 2 * k > _QUAD_CAP // 8:
                raise QuadratureError(
                    f"tail criterion still unmet at k_max={k}") from exc
            k *= 2


def parseval_check(lam: TrigPolynomial, beta: TrigPolynomial, t: float,
                   grid: int = 8192) -> float:
    """The same entropy bound as a double integral, no Fourier coefficients.

    sum_{k>=1} k c_k^2 = (1/16 pi^2) int_{-pi}^{pi} d eta1 int_0^pi d eta2
                         ln^2[ Lambda(eta1 - eta2) / Lambda(eta1 + eta2) ] / sin^2(eta2)

    evaluated on a midpoint-offset lattice so eta1 +- eta2 land on one shared
    sample table and the removable endpoint singularities are never touched.
    """
    if grid % 2:
        raise ValueError("grid must be even")
    h = 2.0 * np.pi / grid
    theta = (np.arange(grid) + 0.5) * h
    log_spec = np.log(lambda_of_t(lam, beta, theta, t))
    if np.ptp(log_spec) == 0.0:
        return 0.0
    idx = np.arange(grid)
    total = 0.0
    for j in range(grid // 2):
        eta2 = (j + 0.5) * h
        m1 = (idx - j - 1) % grid
        m2 = (idx + j) % grid
        diff = log_spec[m1] - log_spec[m2]
        total += float(np.sum(diff * diff)) / np.sin(eta2) ** 2
    return total * h * h / (16.0 * np.pi ** 2)


def bk_coeffs(lam: TrigPolynomial, beta: TrigPolynomial, t: float,
              k_max: int, quad_points: int | None = None) -> np.ndarray:
    """Coefficients b_k of the inverse evolved spectrum Lambda^{-1}(theta, t)."""
    return _stabilized_cosine_coeffs(
        lambda th: 1.0 / lambda_of_t(lam, beta, th, t), k_max, quad_points)


def _require_gapped(lam: TrigPolynomial, what: str) -> None:
    if is_critical(lam):
        raise CriticalSymbolError(
            f"{what} requires a gapped coupling; this spectral function touches zero")


def mu_sigma(lam: TrigPolynomial, beta: TrigPolynomial, t: float,
             k_max: int, quad_points: int | None = None):
    """Static/traveling split of the inverse-spectrum coefficients.

    sigma_k = (1/4pi) int (lam + beta^2) / (beta lam) cos(k theta) d theta
    mu_k(t) = (1/4pi) int (lam - beta^2) cos(2 t sqrt(lam)) / (beta lam) cos(k theta) d theta

    and b_k = sigma_k + mu_k exactly. Only defined for gapped couplings: the
    integrands carry 1/lam.
    """
    _require_gapped(lam, "the static/traveling coefficient split")

    def sample_sigma(th):
        lv = np.asarray(evaluate(lam, th), dtype=float)
        bv = np.asarray(evaluate(beta, th), dtype=float)
        return (lv + bv * bv) / (bv * lv)

    def sample_mu(th):
        lv = np.asarray(evaluate(lam, th), dtype=float)
        bv = np.asarray(evaluate(beta, th), dtype=float)
        return (lv - bv * bv) * np.cos(2.0 * t * np.sqrt(lv)) / (bv * lv)

    sigma = 0.5 * _stabilized_cosine_coeffs(sample_sigma, k_max, quad_points)
    mu = 0.5 * _stabilized_cosine_coeffs(sample_mu, k_max, quad_points)
    return sigma, mu


def spectrum_maximum(lam: TrigPolynomial, beta: TrigPolynomial, t: float,
                     grid: int = 16384) -> float:
    """max_theta Lambda(theta, t): dense scan plus bounded local refinement."""
    theta = 2.0 * np.pi * np.arange(grid) / grid
    vals = lambda_of_t(lam, beta, theta, t)
    i = int(np.argmax(vals))
    h = 2.0 * np.pi / grid
    res = minimize_scalar(lambda x: -lambda_of_t(lam, beta, float(x), t),
                          bounds=(theta[i] - h, theta[i] + h),
                          method="bounded", options={"xatol": 1e-12})
    return max(float(vals[i]), float(-res.fun))


def bk_bound(lam: TrigPolynomial, beta: TrigPolynomial, t: float,
             k_max: int | None = None) -> float:
    """Momentum-coefficient entropy bound (1/M^2) sum_{k>=1} k b_k^2.

    The inequality against the Szego sum is only guaranteed for gapped
    couplings; the chain check therefore lives with the callers that know the
    coupling is gapped.
    """
    if k_max is None:
        if is_critical(lam):
            k = 256
            while True:
                try:
                    b = bk_coeffs(lam, beta, t, k)
                    partial = szego_sum(b)
                    break
                except TailCriterionError:
                    if 2 * k > _QUAD_CAP // 8:
                        raise QuadratureError(f"b_k tail still unmet at k_max={k}")
                    k *= 2
        else:
            b = bk_coeffs(lam, beta, t, default_k_max(lam, t))
            partial = szego_sum(b)
    else:
        b = bk_coeffs(lam, beta, t, k_max)
        partial = szego_sum(b)
    M = spectrum_maximum(lam, beta, t)
    return partial / (M * M)


def compute_fourier_series(lam: TrigPolynomial, beta: TrigPolynomial, t: float,
                           k_max: int | None = None) -> FourierSeries:
    """Assemble the full coefficient bundle at one time point."""
    gapped = not is_critical(lam)
    if k_max is None:
        k_max = default_k_max(lam, t) if gapped else 256
    c = log_symbol_coeffs(lam, beta, t, k_max)
    b = bk_coeffs(lam, beta, t, k_max)
    sigma = mu = None
    if gapped:
        sigma, mu = mu_sigma(lam, beta, t, k_max)
    return FourierSeries(c=c, b=b, sigma=sigma, mu=mu,
                         M=spectrum_maximum(lam, beta, t), t=float(t), k_max=int(k_max))


def _cone_edge(profile: np.ndarray) -> int:
    """Smallest k past which every coefficient stays below the cone threshold."""
    mx = np.abs(profile).max()
    if mx == 0.0:
        return 0
    above = np.nonzero(np.abs(profile) >= _CONE_THRESHOLD * mx)[0]
    return int(above.max()) + 1


def light_cone_profile(lam: TrigPolynomial, beta: TrigPolynomial,
                       t_list, k_max: int | None = None) -> LightConeProfile:
    """|mu_k(t)| table plus the measured cone edge for each time.

    The traveling coefficients live inside |k| <~ (cone speed) t; the edge is
    where the profile has permanently dropped below 1e-6 of its maximum, to be
    compared against the Bernstein propagation bound v_g t.
    """
    _require_gapped(lam, "the light-cone profile")
    v_g = group_velocity_bound(lam)
    t_arr = np.asarray(list(t_list), dtype=float)
    if k_max is None:
        k_max = int(np.ceil(2.0 * v_g * np.abs(t_arr).max())) + 64
    rows = []
    edges = []
    for t in t_arr:
        _, mu = mu_sigma(lam, beta, float(t), k_max)
        rows.append(np.abs(mu))
        edges.append(_cone_edge(mu))
    return LightConeProfile(t_list=t_arr, mu_table=np.array(rows),
                            edges=np.array(edges, dtype=int), velocity_bound=v_g)


def fit_linear(t, values, window) -> GrowthFit:
    """Least-squares line on the points inside [window[0], window[1]]."""
    t = np.asarray(t, dtype=float)
    values = np.asarray(values, dtype=float)
    lo, hi = float(window[0]), float(window[1])
    mask = (t >= lo) & (t <= hi)
    if int(mask.sum()) < 10:
        raise ValueError(f"degenerate window: {int(mask.sum())} points in [{lo}, {hi}], need >= 10")
    tw, vw = t[mask], values[mask]
    slope, intercept = np.polyfit(tw, vw, 1)
    pred = slope * tw + intercept
    ss_res = float(np.sum((vw - pred) ** 2))
    ss_tot = float(np.sum((vw - vw.mean()) ** 2))
    if ss_tot == 0.0:
        # a flat series is fit perfectly; accept rounding-scale residuals
        tol = vw.size * (1e-12 * max(1.0, float(np.abs(vw).max()))) ** 2
        r2 = 1.0 if ss_res <= tol else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return GrowthFit(slope=float(slope), intercept=float(intercept),
                     r_squared=float(r2), window=(lo, hi))


def fit_quadratic_short_time(t, values, t_max: float) -> ShortTimeFit:
    """Fit a + b t^2 to the points with t <= t_max and measure the actual exponent.

    The exponent is the log-log slope of |value - value at t = 0| against t over
    the strictly positive times of the window, so an onset that dips is
    measured like one that rises. It is measured against the t = 0 sample, not
    against the fitted a, because that intercept absorbs part of any departure
    from t^2 and would bias the slope. The exponent is nan when the window
    holds no t = 0 sample, or when the growth over the t = 0 value does not
    keep one strict sign at every positive time (a flat series included).
    """
    t = np.asarray(t, dtype=float)
    values = np.asarray(values, dtype=float)
    mask = t <= float(t_max)
    tw, vw = t[mask], values[mask]
    if tw.size < 3:
        raise ValueError(f"degenerate fit: {tw.size} points with t <= {t_max}, need >= 3")
    design = np.column_stack([np.ones_like(tw), tw * tw])
    (a, b), *_ = np.linalg.lstsq(design, vw, rcond=None)
    pos = tw > 0.0
    origin = vw[tw == 0.0]
    resid = vw[pos] - origin[0] if origin.size else np.zeros(0)
    if resid.size == 0 or not (np.all(resid > 0.0) or np.all(resid < 0.0)):
        exponent = float("nan")
    else:
        exponent = float(np.polyfit(np.log(tw[pos]), np.log(np.abs(resid)), 1)[0])
    return ShortTimeFit(kappa1=float(a), kappa2=float(b), exponent=exponent)
