"""Fourier-coefficient bounds: quadrature oracles, Parseval route, cone, fits.

The sharpest checks are against closed forms: a width spectrum 2 - cos(theta)
factorizes through a Poisson kernel with ratio r = 2 - sqrt(3), which gives
every coefficient of both the inverse spectrum and its logarithm analytically.
The quadrature has no business missing those by more than rounding.
"""

import numpy as np
import pytest

from quench_entropy import szego
from quench_entropy import (CriticalSymbolError, QuadratureError, TailCriterionError,
                            TrigPolynomial, bk_bound, bk_coeffs,
                            compute_fourier_series, fit_linear,
                            fit_quadratic_short_time, gap_family,
                            light_cone_profile, log_symbol_coeffs, mu_sigma,
                            parseval_check, szego_sum, szego_sum_for)
from quench_entropy.szego import default_k_max, spectrum_maximum

LAM15 = gap_family(1.5)
FLAT = TrigPolynomial([1.0])
POISSON_BETA = TrigPolynomial([2.0, -1.0])
R_POISSON = 2.0 - np.sqrt(3.0)


def test_log_coeffs_uncoupled_theta_independent():
    lam = TrigPolynomial([2.25])
    c = log_symbol_coeffs(lam, FLAT, 1.7, 12)
    assert np.abs(c[1:]).max() == 0.0
    # c_0 is -ln of the (flat) evolved width
    lam_val, t = 2.25, 1.7
    w = np.sqrt(lam_val)
    flat_width = lam_val / (lam_val * np.cos(t * w) ** 2 + np.sin(t * w) ** 2)
    assert abs(c[0] + np.log(flat_width)) < 1e-14


def test_poisson_kernel_inverse_coefficients():
    k = 24
    b = bk_coeffs(LAM15, POISSON_BETA, 0.0, k)
    ref = R_POISSON ** np.arange(k + 1) / np.sqrt(3.0)
    assert np.abs(b - ref).max() < 1e-12


def test_poisson_kernel_log_coefficients():
    k = 24
    c = log_symbol_coeffs(LAM15, POISSON_BETA, 0.0, k)
    ref = np.empty(k + 1)
    ref[0] = np.log(4.0 - 2.0 * np.sqrt(3.0))
    ref[1:] = R_POISSON ** np.arange(1, k + 1) / np.arange(1, k + 1)
    assert np.abs(c - ref).max() < 1e-12
    # sum k c_k^2 telescopes to -ln(1 - r^2)
    s_ref = -np.log(1.0 - R_POISSON ** 2)
    assert abs(szego_sum(c) - s_ref) < 1e-12


def test_szego_sum_manual_series():
    padded = np.zeros(40)
    padded[:3] = [1.0, 0.5, 0.3]
    assert abs(szego_sum(padded) - 0.43) < 1e-15


def test_szego_sum_tail_criterion():
    with pytest.raises(TailCriterionError) as exc_info:
        szego_sum(np.array([1.0, 0.5, 0.3]))
    assert exc_info.value.suggested_k_max == 4
    assert abs(szego_sum(np.array([1.0, 0.5, 0.3]), enforce_tail=False) - 0.43) < 1e-15


def test_szego_sum_frozen_values():
    for t, ref in ((1.0, 0.2138324247324744),
                   (3.0, 0.49659631039127716),
                   (5.0, 0.5279372942146434)):
        assert abs(szego_sum_for(LAM15, FLAT, t) - ref) < 1e-12


def test_truncation_failure_raises():
    with pytest.raises(TailCriterionError):
        szego_sum_for(LAM15, FLAT, 3.0, k_max=8)


def test_stationary_bound_constant_and_positive():
    beta = TrigPolynomial([1.5, -1.0])
    vals = [szego_sum_for(LAM15, beta, t) for t in (0.0, 2.0, 6.5)]
    assert vals[0] > 0.1  # static width modulation carries a real bound
    assert max(vals) - min(vals) < 1e-13


def test_parseval_matches_coefficient_sum():
    for t in (1.0, 3.0):
        s = szego_sum_for(LAM15, FLAT, t)
        p = parseval_check(LAM15, FLAT, t, grid=4096)
        assert abs(p - s) / s < 1e-4, (t, s, p)


def test_parseval_frozen_values():
    # recorded from the modulo-indexed loop the slice table replaced
    lam = gap_family(1.5)
    assert parseval_check(lam, FLAT, 1.0) == 0.2138324247324734
    assert parseval_check(lam, FLAT, 3.0) == 0.49659631039127633
    assert parseval_check(lam, FLAT, 5.0) == 0.527937294214642


def test_parseval_rejects_odd_grid():
    with pytest.raises(ValueError):
        parseval_check(LAM15, FLAT, 1.0, grid=999)


def test_bk_recombines_from_split():
    rng = np.random.default_rng(41)
    for _ in range(4):
        c = float(rng.uniform(1.2, 2.5))
        lam = gap_family(c)
        beta = TrigPolynomial([float(rng.uniform(0.7, 1.5))])
        t = float(rng.uniform(0.0, 4.0))
        k = default_k_max(lam, t)
        b = bk_coeffs(lam, beta, t, k)
        sigma, mu = mu_sigma(lam, beta, t, k)
        assert np.abs(b - sigma - mu).max() < 1e-10


def test_mu_vanishes_when_stationary():
    beta = TrigPolynomial([1.5, -1.0])
    _, mu = mu_sigma(LAM15, beta, 3.0, 32)
    assert np.abs(mu).max() < 1e-15


def test_mu_sigma_rejects_critical():
    with pytest.raises(CriticalSymbolError):
        mu_sigma(gap_family(1.0), FLAT, 1.0, 32)


def test_spectrum_maximum_examples():
    # at t = 0 the evolved spectrum is beta itself
    assert abs(spectrum_maximum(LAM15, FLAT, 0.0) - 1.0) < 1e-12
    beta = TrigPolynomial([1.5, -1.0])
    assert abs(spectrum_maximum(LAM15, beta, 4.0) - 2.5) < 1e-10


def test_spectrum_maximum_agrees_with_minimize_scalar():
    # the refinement minimize_scalar ran before on the same grid cells. It
    # stops once its bracket is within ~1.5e-8 |x| (its sqrt-eps term), so its
    # maximum may trail the golden-section one by ~1e-13 at large t; the
    # golden-section maximum never trails it beyond rounding.
    optimize = pytest.importorskip("scipy.optimize")
    from quench_entropy.evolution import lambda_of_t
    rng = np.random.default_rng(44)
    grid = 16384
    theta = 2.0 * np.pi * np.arange(grid) / grid
    h = 2.0 * np.pi / grid
    for _ in range(40):
        deg = int(rng.integers(1, 6))
        lam = TrigPolynomial(np.r_[3.0 + abs(rng.normal()), 0.5 * rng.normal(size=deg)])
        beta = TrigPolynomial(np.r_[2.0, 0.3 * rng.normal(size=deg)])
        t = float(rng.uniform(0.0, 20.0))
        vals = lambda_of_t(lam, beta, theta, t)
        i = int(np.argmax(vals))
        res = optimize.minimize_scalar(
            lambda x: -lambda_of_t(lam, beta, float(x), t),
            bounds=(theta[i] - h, theta[i] + h), method="bounded", options={"xatol": 1e-12})
        ref = max(float(vals[i]), -float(res.fun))
        got = spectrum_maximum(lam, beta, t)
        assert got >= ref * (1.0 - 1e-14), (t, got, ref)
        assert got <= ref * (1.0 + 1e-12), (t, got, ref)


def test_bk_bound_zero_at_time_zero():
    assert bk_bound(LAM15, FLAT, 0.0) == 0.0


def test_bk_below_szego_sampled():
    for t in (0.5, 2.0, 5.0, 10.0):
        s = szego_sum_for(LAM15, FLAT, t)
        b = bk_bound(LAM15, FLAT, t)
        assert s - b >= -1e-9, (t, s, b)


def test_default_k_max_grows_linearly():
    k1 = default_k_max(LAM15, 1.0)
    k2 = default_k_max(LAM15, 2.0)
    assert 164 <= k1 <= 166
    assert 99 <= k2 - k1 <= 102


def test_light_cone_edges_within_bound():
    prof = light_cone_profile(LAM15, FLAT, (1.0, 2.0, 4.0))
    assert abs(prof.velocity_bound - 25.0) < 1e-9
    assert prof.mu_table.shape[0] == 3
    for edge, t in zip(prof.edges, prof.t_list):
        assert 0 < edge <= prof.velocity_bound * t


def test_light_cone_doubling():
    # once the ballistic part dominates the static floor, doubling the time
    # doubles the support
    prof = light_cone_profile(LAM15, FLAT, (8.0, 16.0))
    ratio = prof.edges[1] / prof.edges[0]
    assert 1.6 <= ratio <= 2.4, prof.edges


def test_light_cone_rejects_critical():
    with pytest.raises(CriticalSymbolError):
        light_cone_profile(gap_family(0.5), FLAT, (1.0,))


def test_fourier_series_bundle():
    fs = compute_fourier_series(LAM15, FLAT, 2.0)
    assert fs.c.size == fs.k_max + 1 == fs.b.size
    assert fs.sigma is not None and fs.mu is not None
    assert np.abs(fs.b - fs.sigma - fs.mu).max() < 1e-10
    assert fs.M > 0 and fs.t == 2.0


def test_fourier_series_critical_skips_split():
    fs = compute_fourier_series(gap_family(1.0), FLAT, 0.5)
    assert fs.sigma is None and fs.mu is None
    assert fs.k_max == 256


def test_fourier_series_critical_truncation_is_tail_checked():
    # 256 leaves a non-negligible tail here; the bundle grows k_max like
    # szego_sum_for does
    lam = gap_family(0.5)
    fs = compute_fourier_series(lam, FLAT, 20.0)
    assert fs.k_max == 2048
    assert fs.c.size == fs.b.size == 2049
    assert szego_sum(fs.c) == szego_sum_for(lam, FLAT, 20.0)


def test_critical_retry_frozen_values():
    lam = gap_family(0.5)
    for fn, ref in ((szego_sum_for, 9.336997995572034),
                    (bk_bound, 5333.699643653452)):
        assert abs(fn(lam, FLAT, 20.0) - ref) <= 1e-12 * ref, fn.__name__


def test_bk_bound_critical_retry_cap(monkeypatch):
    # coefficients whose tail never becomes negligible exhaust the doubling
    monkeypatch.setattr(szego, "bk_coeffs", lambda lam, beta, t, k: np.ones(k + 1))
    with pytest.raises(QuadratureError, match="still unmet at k_max=1048576") as exc_info:
        bk_bound(gap_family(0.5), FLAT, 1.0)
    assert isinstance(exc_info.value.__cause__, TailCriterionError)


def test_fit_linear_exact_line():
    t = np.linspace(0, 20, 41)
    fit = fit_linear(t, 3.0 * t - 1.0, (5.0, 20.0))
    assert abs(fit.slope - 3.0) < 1e-12
    assert abs(fit.intercept + 1.0) < 1e-10
    assert fit.r_squared == 1.0
    assert fit.window == (5.0, 20.0)


def test_fit_linear_constant_series():
    t = np.linspace(0, 10, 21)
    fit = fit_linear(t, np.full(21, 4.0), (0.0, 10.0))
    assert abs(fit.slope) < 1e-14
    assert fit.r_squared == 1.0


def test_fit_linear_needs_ten_points():
    t = np.linspace(0, 10, 21)
    with pytest.raises(ValueError):
        fit_linear(t, 3.0 * t, (9.0, 10.0))


def test_fit_quadratic_recovers_coefficients():
    t = np.linspace(0.0, 0.1, 11)
    fit = fit_quadratic_short_time(t, 1.0 + 2.0 * t * t, 0.1)
    assert abs(fit.kappa1 - 1.0) < 1e-12
    assert abs(fit.kappa2 - 2.0) < 1e-9
    assert abs(fit.exponent - 2.0) < 0.05


def test_fit_quadratic_exponent_against_t0_sample():
    # the intercept of the a + b t^2 fit absorbs part of any departure from
    # t^2, so the exponent is measured against the t = 0 sample instead
    t = np.linspace(0.0, 0.1, 11)
    quartic = fit_quadratic_short_time(t, 0.7 + 2.375 * t ** 4, 0.1)
    assert abs(quartic.exponent - 4.0) < 0.05
    # q4 t_max^2 / q2 = 0.07: the quadratic term dominates the window
    mixed = fit_quadratic_short_time(t, 0.7 + 0.258 * t ** 2 + 1.8 * t ** 4, 0.1)
    assert abs(mixed.exponent - 2.0) < 0.05
    # an onset that dips (q2 < 0) is measured on |growth| like one that rises
    dip = fit_quadratic_short_time(t, 0.7 - 0.258 * t ** 2 - 1.8 * t ** 4, 0.1)
    assert abs(dip.exponent - 2.0) < 0.05
    no_origin = fit_quadratic_short_time(t[1:], 1.0 + 2.0 * t[1:] ** 2, 0.1)
    assert np.isnan(no_origin.exponent)
    assert abs(no_origin.kappa2 - 2.0) < 1e-9


def test_fit_quadratic_degenerate_cases():
    t = np.linspace(0.0, 0.1, 11)
    with pytest.raises(ValueError):
        fit_quadratic_short_time(t, t * t, 0.001)  # one point survives the cut
    flat = fit_quadratic_short_time(t, np.full(11, 2.0), 0.1)
    assert np.isnan(flat.exponent)
    # growth that changes sign inside the window has no single onset law
    crossing = fit_quadratic_short_time(t, 0.7 + 0.258 * t ** 2 - 40.0 * t ** 4, 0.1)
    assert np.isnan(crossing.exponent)
    assert abs(flat.kappa1 - 2.0) < 1e-12
