"""Thermodynamic-limit machinery built on Fourier coefficients of the evolved spectrum.

Everything here works with the evolved width spectrum Lambda(theta, t) sampled on the half
period of uniform grids (every integrand is even; the trapezoid rule is spectrally accurate for
smooth periodic integrands, and a grid doubles until its aliased coefficients are negligible):

* coefficients c_k of ln Lambda^{-1} and the entropy lower bound sum k c_k^2,
* an independent double-integral identity for the same sum (Parseval route),
* coefficients b_k of Lambda^{-1} itself, split into a static part and a
  traveling part whose support measures the correlation light cone,
* the momentum-coefficient bound sum k b_k^2 / M^2,
* least-squares growth fits (linear window and short-time quadratic).

The coefficients and the spectrum maximum at one time read Lambda from a
one-entry cache (`_evolved_samples`), so each grid is sampled once for them all.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import CriticalSymbolError, QuadratureError, TailCriterionError
from .evolution import _symbol_samples, lambda_of_t
from .spectral import TrigPolynomial, _refine_minimum, group_velocity_bound, is_critical

_QUAD_START = 8192
_QUAD_CAP = 2 ** 23
_COEFF_STABLE_TOL = 1e-9
_TAIL_REL = 1e-12
_TAIL_ABS = 1e-24
_CONE_THRESHOLD = 1e-6
# a gapped row's bk_bound may exceed its szego_sum by at most this much
_BK_CHAIN_TOL = 1e-9
# the spectrum maximum scans the half period of the first quadrature pass
_MAXIMUM_GRID = 2 * _QUAD_START
# rows of the Parseval double sum reduced at once
_PARSEVAL_BLOCK = 8


@dataclasses.dataclass(frozen=True)
class GrowthFit:
    slope: float
    intercept: float
    r_squared: float
    window: tuple


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


def _cosine_coeffs_once(samples, k_max: int, grid: int):
    """One quadrature pass over an even function sampled at 2 pi j / grid, j = 0..grid/2:
    its k_max+1 real Fourier coefficients (1/2pi convention), and the largest aliased one
    |c_{grid/2 - k}|, k <= k_max, which by c^G_k = c^2G_k + c^2G_{G-k} is how far they
    move from the grid half as fine. On a power-of-two grid constant samples
    transform to c_0 and exact zeros."""
    vals = np.asarray(samples, dtype=float)
    spec = np.fft.rfft(np.concatenate((vals, vals[-2:0:-1])))
    alias = float(np.abs(spec[grid // 2 - k_max:].real).max()) / grid
    return (spec[: k_max + 1] / grid).real, alias


def _half_period(grid: int) -> np.ndarray:
    """The angles 2 pi j / grid, j = 0..grid/2."""
    return 2.0 * np.pi * np.arange(grid // 2 + 1) / grid


_evolved: tuple | None = None  # ((lambda bytes, beta bytes, t, grid), Lambda samples)


def _evolved_samples(lam: TrigPolynomial, beta: TrigPolynomial, t: float,
                     grid: int) -> np.ndarray:
    """Lambda(theta, t) from `lambda_of_t` on the `grid`-point half period.

    The cache holds the last sampling, so c_k, b_k and the `spectrum_maximum`
    scan at one time share one sampling of each grid.
    """
    global _evolved
    key = (lam.coeffs.tobytes(), beta.coeffs.tobytes(), t, grid)
    if _evolved is None or _evolved[0] != key:
        _evolved = None  # free the old samples first: one array at a time
        _evolved = (key, lambda_of_t(lam, beta, _half_period(grid), t))
    return _evolved[1]


def _stabilized_cosine_coeffs(samples_at, k_max: int | None) -> np.ndarray:
    """Fourier coefficients with automatic grid doubling until they stabilize.

    `samples_at(grid)` gives the samples on a uniform half period. G starts at
    _QUAD_START and doubles; a grid with G/2 < k_max is skipped unsampled. One
    pass on the grid 2G tests its aliased bins G/2 .. G, so every grid is
    sampled and transformed once, and the pass that settles gives the
    coefficients 0..G/2: all of them when k_max is None, else the first
    k_max + 1. An explicit truncation is thus a prefix of the default pass
    whenever that pass holds k_max + 1 coefficients. Samples that are not
    finite, or a grid that does not stabilize below _QUAD_CAP, raise
    QuadratureError.
    """
    if k_max is not None and not 0 <= k_max <= _QUAD_CAP // 2:
        raise ValueError(f"k_max={k_max} must lie in 0..{_QUAD_CAP // 2}")
    grid = _QUAD_START
    while k_max is not None and grid // 2 < k_max:
        grid *= 2
    while grid <= _QUAD_CAP:
        samples = samples_at(2 * grid)
        if not np.isfinite(samples).all():
            raise QuadratureError(f"quadrature samples on grid {2 * grid} are not finite")
        coeffs, alias = _cosine_coeffs_once(samples, grid // 2, 2 * grid)
        if alias <= _COEFF_STABLE_TOL:
            return coeffs if k_max is None else coeffs[: k_max + 1]
        grid *= 2
    raise QuadratureError(
        f"coefficients did not stabilize to {_COEFF_STABLE_TOL:g} below grid {_QUAD_CAP}")


def _evolved_coeffs(lam: TrigPolynomial, beta: TrigPolynomial, t: float, k_max: int | None,
                    transform) -> np.ndarray:
    """Stabilized coefficients of transform(Lambda(theta, t))."""
    return _stabilized_cosine_coeffs(
        lambda grid: transform(_evolved_samples(lam, beta, t, grid)), k_max)


def log_symbol_coeffs(lam: TrigPolynomial, beta: TrigPolynomial, t: float,
                      k_max: int | None) -> np.ndarray:
    """Coefficients c_k of ln Lambda^{-1}(theta, t): every one the stabilised
    grid resolves when k_max is None, else the first k_max + 1 of them."""
    return _evolved_coeffs(lam, beta, t, k_max, lambda vals: -np.log(vals))


def szego_sum(c: np.ndarray) -> float:
    """Entropy lower bound sum_{k>=1} k c_k^2 with a tail-negligibility check."""
    c = np.asarray(c, dtype=float)
    k = np.arange(c.size, dtype=float)
    total = float(np.sum(k[1:] * c[1:] ** 2))
    if c.size > 1:
        tail = (c.size - 1) * c[-1] ** 2
        if tail > max(_TAIL_REL * total, _TAIL_ABS):
            raise TailCriterionError(
                f"truncation tail k_max c_kmax^2 = {tail:.3g} not negligible "
                f"against the partial sum {total:.6g}; increase k_max")
    return total


def _resolved_sum(coeffs: np.ndarray, lam: TrigPolynomial, k_max: int | None) -> float:
    """The tail-checked `szego_sum` of `coeffs` at the resolved truncation.

    With k_max given, `coeffs` are the first k_max + 1 and are summed as
    they are. Without it they are every coefficient the stabilised grid
    resolves: a gapped coupling sums them all, and a critical one sums its
    first k + 1, k doubling from 256 while the tail criterion fails and
    while they last. When none meets it, it raises QuadratureError.
    """
    if k_max is not None or not is_critical(lam):
        return szego_sum(coeffs)
    k = 256
    while True:
        try:
            return szego_sum(coeffs[: k + 1])
        except TailCriterionError as exc:
            if 2 * k >= coeffs.size:
                raise QuadratureError(
                    f"tail criterion still unmet at k_max={k}") from exc
            k *= 2


def szego_sum_for(lam: TrigPolynomial, beta: TrigPolynomial, t: float,
                  k_max: int | None = None) -> float:
    """Szego-bound value with truncation resolved automatically.

    An explicit k_max sums the first k_max + 1 coefficients of the stabilised
    quadrature. Without it, gapped couplings sum every coefficient the grid
    resolves; critical ones sum the shortest doubling of 256 of them that
    meets the tail criterion.
    """
    return _resolved_sum(log_symbol_coeffs(lam, beta, t, k_max), lam, k_max)


def parseval_check(lam: TrigPolynomial, beta: TrigPolynomial, t: float,
                   grid: int = 8192) -> float:
    """The same entropy bound as a double integral, no Fourier coefficients.

    sum_{k>=1} k c_k^2 = (1/16 pi^2) int_{-pi}^{pi} d eta1 int_0^pi d eta2
                         ln^2[ Lambda(eta1 - eta2) / Lambda(eta1 + eta2) ] / sin^2(eta2)

    evaluated on a midpoint-offset lattice so eta1 +- eta2 land on one shared
    sample table and the removable endpoint singularities are never touched. The
    integrand is even in eta1 and 0 at eta1 = 0, pi: a row counts 0 < eta1 < pi twice.
    """
    if not isinstance(grid, (int, np.integer)) or grid <= 0 or grid % 2:
        raise ValueError(f"grid must be even and a positive integer, got {grid!r}")
    h = 2.0 * np.pi / grid
    half = grid // 2
    log_half = np.log(lambda_of_t(lam, beta, (np.arange(half) + 0.5) * h, t))
    # two periods of the mirrored half, so every wrapped sample run is one window;
    # row j of the double sum pairs window grid - j with window grid + j + 1
    log_spec = np.tile(np.concatenate((log_half, log_half[::-1])), 2)
    windows = np.lib.stride_tricks.sliding_window_view(log_spec, half - 1)
    sq = np.empty((_PARSEVAL_BLOCK, half - 1))
    row_sums = np.empty(half)
    for j0 in range(0, half, _PARSEVAL_BLOCK):
        rows = min(_PARSEVAL_BLOCK, half - j0)
        block = sq[:rows]
        np.subtract(windows[grid - j0: grid - j0 - rows: -1],
                    windows[grid + j0 + 1: grid + j0 + 1 + rows], out=block)
        np.multiply(block, block, out=block)
        block.sum(axis=1, out=row_sums[j0: j0 + rows])
    # the rows are added one by one in eta2 order (a cumulative sum), as in a per-row loop
    total = np.cumsum(row_sums / np.sin((np.arange(half) + 0.5) * h) ** 2)[-1]
    return float(total) * h * h / (8.0 * np.pi ** 2)


def bk_coeffs(lam: TrigPolynomial, beta: TrigPolynomial, t: float,
              k_max: int | None) -> np.ndarray:
    """Coefficients b_k of the inverse evolved spectrum Lambda^{-1}(theta, t): every
    one the stabilised grid resolves when k_max is None, else the first k_max + 1."""
    return _evolved_coeffs(lam, beta, t, k_max, lambda vals: 1.0 / vals)


def _require_gapped(lam: TrigPolynomial, what: str) -> None:
    if is_critical(lam):
        raise CriticalSymbolError(
            f"{what} requires a gapped coupling; this spectral function touches zero")


def mu_sigma(lam: TrigPolynomial, beta: TrigPolynomial, t: float, k_max: int):
    """Static/traveling split of the inverse-spectrum coefficients.

    sigma_k = (1/4pi) int (lam + beta^2) / (beta lam) cos(k theta) d theta
    mu_k(t) = (1/4pi) int (lam - beta^2) cos(2 t sqrt(lam)) / (beta lam) cos(k theta) d theta

    and b_k = sigma_k + mu_k exactly. Only defined for gapped couplings: the
    integrands carry 1/lam.
    """
    _require_gapped(lam, "the static/traveling coefficient split")

    def sample_sigma(grid):
        lv, bv = _symbol_samples(lam, beta, _half_period(grid))
        return (lv + bv * bv) / (bv * lv)

    sigma = 0.5 * _stabilized_cosine_coeffs(sample_sigma, k_max)
    return sigma, _mu_coeffs(lam, beta, t, k_max)


def _mu_coeffs(lam: TrigPolynomial, beta: TrigPolynomial, t: float, k_max: int) -> np.ndarray:
    """The traveling coefficients mu_k(t) of `mu_sigma`, for a gapped coupling."""

    def sample_mu(grid):
        lv, bv = _symbol_samples(lam, beta, _half_period(grid))
        return (lv - bv * bv) * np.cos(2.0 * t * np.sqrt(lv)) / (bv * lv)

    return 0.5 * _stabilized_cosine_coeffs(sample_mu, k_max)


def spectrum_maximum(lam: TrigPolynomial, beta: TrigPolynomial, t: float) -> float:
    """max_theta Lambda(theta, t): half-period scan plus bounded local refinement."""
    vals = _evolved_samples(lam, beta, t, _MAXIMUM_GRID)
    i = int(np.argmax(vals))
    theta_i = 2.0 * np.pi * i / _MAXIMUM_GRID
    h = 2.0 * np.pi / _MAXIMUM_GRID
    _, neg_max = _refine_minimum(lambda x: -lambda_of_t(lam, beta, x, t),
                                 theta_i - h, theta_i + h)
    return max(float(vals[i]), float(-neg_max))


def bk_bound(lam: TrigPolynomial, beta: TrigPolynomial, t: float,
             k_max: int | None = None) -> float:
    """Momentum-coefficient entropy bound (1/M^2) sum_{k>=1} k b_k^2.

    The inequality against the Szego sum, to _BK_CHAIN_TOL, is only
    guaranteed for gapped couplings; the chain check therefore lives with the
    callers that know the coupling is gapped.
    """
    partial = _resolved_sum(bk_coeffs(lam, beta, t, k_max), lam, k_max)
    M = spectrum_maximum(lam, beta, t)
    return partial / (M * M)


def _cone_edge(profile: np.ndarray) -> int:
    """Smallest k past which every coefficient stays below the cone threshold."""
    mx = np.abs(profile).max()
    if mx == 0.0:
        return 0
    above = np.nonzero(np.abs(profile) >= _CONE_THRESHOLD * mx)[0]
    return int(above.max()) + 1


def light_cone_profile(lam: TrigPolynomial, beta: TrigPolynomial,
                       t_list) -> LightConeProfile:
    """|mu_k(t)| table plus the measured cone edge for each time.

    The traveling coefficients live inside |k| <~ (cone speed) t; the edge is
    where the profile has permanently dropped below 1e-6 of its maximum, to be
    compared against the Bernstein propagation bound v_g t.
    """
    _require_gapped(lam, "the light-cone profile")
    v_g = group_velocity_bound(lam)
    t_arr = np.asarray(list(t_list), dtype=float)
    if t_arr.size == 0:
        raise ValueError("t_list must hold at least one time")
    k_max = int(np.ceil(2.0 * v_g * np.abs(t_arr).max())) + 64
    rows = []
    edges = []
    for t in t_arr:
        mu = _mu_coeffs(lam, beta, float(t), k_max)
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
