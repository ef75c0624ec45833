"""Fourier-coefficient bounds: quadrature oracles, Parseval route, cone, fits.

The sharpest checks are against closed forms: a width spectrum 2 - cos(theta)
factorizes through a Poisson kernel with ratio r = 2 - sqrt(3), which gives
every coefficient of both the inverse spectrum and its logarithm analytically.
The quadrature has no business missing those by more than rounding.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quench_entropy import szego
from quench_entropy import (CriticalSymbolError, QuadratureError, TailCriterionError,
                            TrigPolynomial, bk_bound, bk_coeffs, fit_linear,
                            fit_quadratic_short_time, gap_family,
                            light_cone_profile, log_symbol_coeffs, mu_sigma,
                            parseval_check, szego_sum, szego_sum_for)
from quench_entropy.evolution import lambda_of_t
from quench_entropy.pipeline import compute_row
from quench_entropy.spectral import _refine_minimum, group_velocity_bound
from quench_entropy.szego import spectrum_maximum

LAM15 = gap_family(1.5)
FLAT = TrigPolynomial([1.0])
POISSON_BETA = TrigPolynomial([2.0, -1.0])
R_POISSON = 2.0 - np.sqrt(3.0)


def _cone_k_max(lam, t):
    """A truncation covering the light cone of a gapped coupling: ceil(4 v_g t) + 64."""
    return int(np.ceil(4.0 * group_velocity_bound(lam) * t)) + 64


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
    with pytest.raises(TailCriterionError):
        szego_sum(np.array([1.0, 0.5, 0.3]))


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
    # recorded from the half-period route; the full-period route it replaced
    # gave these same bits for this flat width
    lam = gap_family(1.5)
    for t, ref in ((1.0, 0.2138324247324734),
                   (3.0, 0.49659631039127633),
                   (5.0, 0.527937294214642)):
        got = parseval_check(lam, FLAT, t)
        assert got == ref, t
        assert abs(got - _parseval_full_period(lam, FLAT, t, 8192)) <= 1e-13 * ref, t


@pytest.mark.parametrize("grid", [4096, 8192])
def test_parseval_uncoupled_is_exactly_zero(grid):
    # equal samples subtract to exact zeros in every row of the double sum
    assert parseval_check(TrigPolynomial([2.25]), FLAT, 1.0, grid=grid) == 0.0


@pytest.mark.parametrize("value", [1.0, 1.0 / 3.0, 2.25, 123.456])
def test_constant_samples_give_exact_coefficients(value):
    # every quadrature grid is a power of two, where the mirrored constant
    # samples transform to c_0 and exact zeros, with nothing aliased
    for grid in (2 ** j for j in range(14, 21)):
        coeffs, alias = szego._cosine_coeffs_once(np.full(grid // 2 + 1, value), grid // 4, grid)
        assert coeffs[0] == value, grid
        assert not coeffs[1:].any(), grid
        assert alias == 0.0, grid


def test_parseval_rejects_odd_grid():
    with pytest.raises(ValueError, match="grid must be even"):
        parseval_check(LAM15, FLAT, 1.0, grid=999)


@pytest.mark.parametrize("grid", [0, -4, -3, 8192.0, "8192", None])
def test_parseval_rejects_grid_that_is_not_a_positive_integer(grid):
    with pytest.raises(ValueError, match="grid must be even and a positive integer"):
        parseval_check(LAM15, FLAT, 1.0, grid=grid)


def test_parseval_accepts_numpy_integer_grid():
    assert parseval_check(LAM15, FLAT, 1.0, np.int64(64)) == parseval_check(LAM15, FLAT, 1.0, 64)


def _parseval_per_row(lam, beta, t, grid):
    """The double sum of `parseval_check`, one row of eta2 at a time, over the
    mirrored half-period lattice."""
    h = 2.0 * np.pi / grid
    half = grid // 2
    log_half = np.log(lambda_of_t(lam, beta, (np.arange(half) + 0.5) * h, t))
    table = np.tile(np.concatenate((log_half, log_half[::-1])), 2)
    total = 0.0
    for j in range(half):
        diff = table[grid - j: grid - j + half - 1] - table[grid + j + 1: grid + j + half]
        total += float(np.sum(diff * diff)) / np.sin((j + 0.5) * h) ** 2
    return total * h * h / (8.0 * np.pi ** 2)


def _parseval_full_period(lam, beta, t, grid):
    """The double sum over the whole midpoint lattice, one row at a time: the
    full-period route the half-period one replaced."""
    h = 2.0 * np.pi / grid
    log_spec = np.log(lambda_of_t(lam, beta, (np.arange(grid) + 0.5) * h, t))
    table = np.tile(log_spec, 3)
    total = 0.0
    for j in range(grid // 2):
        diff = table[grid - j - 1: 2 * grid - j - 1] - table[grid + j: 2 * grid + j]
        total += float(np.sum(diff * diff)) / np.sin((j + 0.5) * h) ** 2
    return total * h * h / (16.0 * np.pi ** 2)


def test_parseval_blocked_rows_match_per_row_loop():
    # grid / 2 = 3, 5 and 515 leave a partial block of rows
    rng = np.random.default_rng(61)
    for grid in (6, 10, 1030, 2048, 8192):
        for _ in range(2):
            lam, beta = _random_gapped_pair(rng)
            t = float(rng.uniform(0.0, 8.0))
            got = parseval_check(lam, beta, t, grid)
            assert got == _parseval_per_row(lam, beta, t, grid)
            full = _parseval_full_period(lam, beta, t, grid)
            assert abs(got - full) <= 1e-13 * full, (grid, got, full)


def test_bk_recombines_from_split():
    rng = np.random.default_rng(41)
    for _ in range(4):
        c = float(rng.uniform(1.2, 2.5))
        lam = gap_family(c)
        beta = TrigPolynomial([float(rng.uniform(0.7, 1.5))])
        t = float(rng.uniform(0.0, 4.0))
        k = _cone_k_max(lam, t)
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


@st.composite
def _gapped_symbol(draw, lo, hi):
    """Degree <= 3 cosine polynomial with a0 in [lo, hi] and min >= a0 / 10."""
    a0 = draw(st.floats(lo, hi))
    deg = draw(st.integers(0, 3))
    rest = [0.9 * a0 * draw(st.floats(-1.0, 1.0)) / max(deg, 1) for _ in range(deg)]
    return TrigPolynomial([a0, *rest])


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(lam=st.one_of(_gapped_symbol(0.5, 3.0), st.floats(1.05, 3.0).map(gap_family)),
       beta=_gapped_symbol(0.5, 2.0), t=st.floats(0.0, 50.0))
def test_resolved_sums_match_cone_covering_truncation(lam, beta, t):
    # the sums over every coefficient the stabilised grid resolves are those
    # at the cone-covering truncation ceil(4 v_g t) + 64, on its own grid,
    # plus the terms past it. On squeezed widths the coefficients outlast that
    # truncation: it drops 4.8e-10 of the sum at gap c = 2.68, beta =
    # 0.5 - 0.45 cos, t = 22.5, or fails its own tail criterion.
    k = _cone_k_max(lam, t)
    for fn, coeffs_at in ((szego_sum_for, log_symbol_coeffs), (bk_bound, bk_coeffs)):
        auto = fn(lam, beta, t)
        try:
            cone = fn(lam, beta, t, k)
        except TailCriterionError:
            continue
        c = coeffs_at(lam, beta, t, None)
        dropped = np.sum(np.arange(k + 1, c.size) * c[k + 1:] ** 2)
        # bk_bound divides its partial sum by max Lambda^2
        scale = 1.0 if fn is szego_sum_for else spectrum_maximum(lam, beta, t) ** -2
        assert (abs(auto - scale * dropped - cone)
                <= 1e-13 * cone + scale * szego._TAIL_ABS), (fn.__name__, auto, cone)


def test_resolved_sum_outlasts_cone_covering_truncation():
    # the squeezed width beta = 0.5 + 0.45 cos keeps coefficients past
    # ceil(4 v_g t) + 64 = 352 that fail that truncation's tail criterion;
    # the resolved sum is that of a truncation at 1024, to rounding
    lam, beta = gap_family(2.0), TrigPolynomial([0.5, 0.45])
    with pytest.raises(TailCriterionError):
        szego_sum_for(lam, beta, 4.0, _cone_k_max(lam, 4.0))
    ref = szego_sum_for(lam, beta, 4.0, 1024)
    assert abs(szego_sum_for(lam, beta, 4.0) - ref) <= 1e-14 * ref


@pytest.mark.parametrize("c", [1.001, 1.01])
def test_near_gap_sum_resolves(c):
    # a cone-covering truncation ceil(4 v_g t) + 64 puts the first grid of
    # gap c = 1.001 at t = 50 above the quadrature cap; 16384 points resolve it
    value = szego_sum_for(gap_family(c), FLAT, 50.0)
    assert np.isfinite(value) and value > 0.0


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(lam=st.booleans().flatmap(
           lambda critical: st.floats(-1.0, 1.0).map(gap_family) if critical
           else st.one_of(_gapped_symbol(0.5, 3.0), st.floats(1.05, 3.0).map(gap_family))),
       beta=_gapped_symbol(0.5, 2.0), t=st.floats(0.0, 50.0),
       k=st.one_of(st.integers(0, 1023), st.integers(1024, 4096)))
def test_explicit_truncation_is_a_prefix_of_the_resolved_pass(lam, beta, t, k):
    # an explicit k_max runs the pass the default does and keeps its first
    # k_max + 1 coefficients, bit for bit, on gapped and critical couplings
    for coeffs_at in (log_symbol_coeffs, bk_coeffs):
        prefix = coeffs_at(lam, beta, t, None)[: k + 1]
        assert coeffs_at(lam, beta, t, k).tobytes() == prefix.tobytes(), coeffs_at.__name__
    prefix = log_symbol_coeffs(lam, beta, t, None)[: k + 1]
    try:
        ref = szego_sum(prefix)
    except TailCriterionError:
        with pytest.raises(TailCriterionError):
            szego_sum_for(lam, beta, t, k)
    else:
        assert szego_sum_for(lam, beta, t, k) == ref


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


def test_light_cone_profile_runs_one_quadrature_per_time(monkeypatch):
    calls = []
    real = szego._stabilized_cosine_coeffs

    def counting(samples_at, k_max):
        calls.append(k_max)
        return real(samples_at, k_max)

    monkeypatch.setattr(szego, "_stabilized_cosine_coeffs", counting)
    beta = TrigPolynomial([1.05, 0.05])
    times = (1.0, 2.0, 4.0)
    prof = light_cone_profile(LAM15, beta, times)
    assert len(calls) == len(times)  # mu_k only; sigma_k is never computed
    for t, row, edge in zip(times, prof.mu_table, prof.edges):
        _, mu = mu_sigma(LAM15, beta, t, calls[0])
        assert np.array_equal(row, np.abs(mu))
        assert edge == szego._cone_edge(mu)


def test_light_cone_rejects_empty_time_list():
    with pytest.raises(ValueError, match="t_list"):
        light_cone_profile(LAM15, FLAT, [])


def test_light_cone_rejects_critical():
    with pytest.raises(CriticalSymbolError):
        light_cone_profile(gap_family(0.5), FLAT, (1.0,))


def _critical_k_max_trail(monkeypatch, lam, t, beta=FLAT):
    """The truncations k szego_sum_for tries for a critical coupling, after
    checking that it ran one quadrature, for every resolved coefficient, and
    that its sum is that of the first k + 1 of them at the last k."""
    quadratures, trail = [], []
    real_quadrature = szego._stabilized_cosine_coeffs

    def quadrature(samples_at, k_max):
        quadratures.append(k_max)
        return real_quadrature(samples_at, k_max)

    def recording_sum(c):
        trail.append(len(c) - 1)
        return szego_sum(c)

    monkeypatch.setattr(szego, "_stabilized_cosine_coeffs", quadrature)
    monkeypatch.setattr(szego, "szego_sum", recording_sum)
    value = szego_sum_for(lam, beta, t)
    assert quadratures == [None]
    assert value == szego_sum(log_symbol_coeffs(lam, beta, t, None)[: trail[-1] + 1])
    return trail


def test_fourier_series_critical_skips_split(monkeypatch):
    # a critical coupling starts at k_max = 256 and has no static/traveling split
    lam = gap_family(1.0)
    assert _critical_k_max_trail(monkeypatch, lam, 0.5) == [256]
    with pytest.raises(CriticalSymbolError):
        mu_sigma(lam, FLAT, 0.5, 256)


def test_fourier_series_critical_truncation_is_tail_checked(monkeypatch):
    # 256 leaves a non-negligible tail here; k_max doubles until the tail
    # criterion holds
    assert (_critical_k_max_trail(monkeypatch, gap_family(0.5), 20.0)
            == [256, 512, 1024, 2048])


@pytest.mark.parametrize("lam, beta, t, k", [
    (gap_family(0.5), FLAT, 20.0, 2048),
    (gap_family(0.5), FLAT, 50.0, 8192),
    # stops where c_2048 = 7e-8 although |c_k| reaches 4.6e-4 past it: the
    # tail criterion reads the last kept term only (ROADMAP item 3)
    (gap_family(1.0), TrigPolynomial([1.0, 0.1]), 150.0, 2048)],
    ids=["c0.5-t20", "c0.5-t50", "c1.0-t150"])
def test_critical_sum_slices_one_quadrature(monkeypatch, lam, beta, t, k):
    # the doubling slices the coefficients of one stabilised quadrature
    trail = _critical_k_max_trail(monkeypatch, lam, t, beta)
    assert trail[-1] == k and trail == [256 * 2 ** i for i in range(len(trail))]


def test_critical_retry_frozen_values():
    lam = gap_family(0.5)
    for fn, ref in ((szego_sum_for, 9.336997995572034),
                    (bk_bound, 5333.699643653452)):
        assert abs(fn(lam, FLAT, 20.0) - ref) <= 1e-12 * ref, fn.__name__


def test_bk_bound_critical_retry_cap(monkeypatch):
    # coefficients whose tail never becomes negligible exhaust the doubling
    # at the last one resolved
    monkeypatch.setattr(szego, "bk_coeffs", lambda lam, beta, t, k: np.ones(4097))
    szego_sum_for(LAM15, FLAT, 1.0)
    with pytest.raises(QuadratureError, match="still unmet at k_max=4096") as exc_info:
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


# ---------------------------------------------------------------------------
# the cached samples: same bits as fresh grids, whatever the call history
# ---------------------------------------------------------------------------

ORACLE_PASS = szego._cosine_coeffs_once
# rounding of the two transforms, in units of the largest coefficient
FULL_PERIOD_ULPS = 4 * np.finfo(float).eps


def _half_period(grid):
    """The angles 2 pi j / grid, j = 0..grid/2."""
    return 2.0 * np.pi * np.arange(grid // 2 + 1) / grid


def _oracle_pass(fn, k_max, grid):
    """One quadrature pass over fn sampled afresh on the half period of the
    `grid`-point grid."""
    return ORACLE_PASS(fn(_half_period(grid)), k_max, grid)


def _full_period_pass(samples, k_max, grid):
    """The full-period pass the half-period one replaced: all `grid` samples,
    symmetrized exactly, then one rfft."""
    vals = np.asarray(samples, dtype=float)
    if np.ptp(vals) == 0.0:
        out = np.zeros(k_max + 1)
        out[0] = vals[0]
        return out
    vals = 0.5 * (vals + np.roll(vals[::-1], 1))
    return (np.fft.rfft(vals)[: k_max + 1] / grid).real


def _assert_matches_full_period(fn, k_max, grid, coeffs):
    """The half-period pass `coeffs` against the full-period pass of fresh
    samples: they differ by at most half the mirror mismatch of the
    full-period samples, which that pass averaged away, plus a few ulps of
    max |c|. (The angle 2 pi (grid - j) / grid is not the exact mirror of
    2 pi j / grid, and at large t Lambda turns that into more than rounding.)"""
    full = fn(2.0 * np.pi * np.arange(grid) / grid)
    ref = _full_period_pass(full, k_max, grid)
    mismatch = 0.5 * np.abs(full - np.roll(full[::-1], 1)).max()
    err = np.abs(coeffs - ref).max()
    assert err <= mismatch + FULL_PERIOD_ULPS * np.abs(ref).max(), (k_max, grid, err, mismatch)


def test_aliased_maximum_is_the_move_from_the_grid_half_as_fine():
    # c^G_k - c^2G_k = c^2G_{G-k}: the aliased maximum of one pass on 2G is
    # the largest move of the first k_max + 1 coefficients from the pass on
    # G, down to the Nyquist bin, which carries the move of c_0 (all of it
    # for cos(G theta), which the grid G sees as the constant 1)
    grid, k_max = 64, 8
    for fn in (lambda th: 1.0 / (1.02 - np.cos(th)),
               lambda th: 1.0 / (1.1 - np.cos(2.0 * th)),
               lambda th: np.cos(grid * th)):
        coeffs, alias = ORACLE_PASS(fn(_half_period(2 * grid)), k_max, 2 * grid)
        coarse, _ = ORACLE_PASS(fn(_half_period(grid)), k_max, grid)
        move = np.abs(coarse - coeffs).max()
        assert move > 1e-6
        assert abs(alias - move) <= 1e-13 * move, (alias, move)


def _random_gapped_pair(rng):
    lam = TrigPolynomial(np.r_[3.0 + abs(rng.normal()), 0.5 * rng.normal(size=2)])
    beta = TrigPolynomial(np.r_[1.5, 0.2 * rng.normal(size=2)])
    return lam, beta


def _recorded_passes(monkeypatch):
    """(k_max, grid, (coefficients, aliased maximum)) of every quadrature pass
    the library runs."""
    passes = []

    def recording(samples, k_max, grid):
        out = ORACLE_PASS(samples, k_max, grid)
        passes.append((k_max, grid, out))
        return out
    monkeypatch.setattr(szego, "_cosine_coeffs_once", recording)
    return passes


def _same_pass(got, ref):
    return got[0].tobytes() == ref[0].tobytes() and got[1] == ref[1]


def _fresh_spectrum_maximum(lam, beta, t, period=0.5):
    """The spectrum maximum from its own scan of `period` of the 16384-point
    grid, plus refinement."""
    grid = 16384
    theta = 2.0 * np.pi * np.arange(int(period * grid) + 1) / grid
    vals = lambda_of_t(lam, beta, theta, t)
    i = int(np.argmax(vals))
    h = 2.0 * np.pi / grid
    _, neg_max = _refine_minimum(lambda x: -lambda_of_t(lam, beta, x, t),
                                 theta[i] - h, theta[i] + h)
    return max(float(vals[i]), float(-neg_max))


def test_sample_table_matches_fresh_grids(monkeypatch):
    # every coefficient pass equals a pass over lambda_of_t on a fresh
    # half-period grid bit for bit, and the full-period pass it replaced to a
    # few ulps. An infinite stabilization tolerance stops each call after its
    # one pass on 2G, which keeps the critical couplings at t = 1000 to small
    # grids; k_max alternates between two grids, 5000 skipping the first.
    rng = np.random.default_rng(2027)
    pairs = [_random_gapped_pair(rng) for _ in range(3)]
    pairs += [(gap_family(1.0), TrigPolynomial([1.0, 0.1])),
              (gap_family(0.5), TrigPolynomial([1.2, -0.15, 0.05])),
              # zero on a grid angle, where the coupling samples to -1.1e-16
              (gap_family(np.cos(2.0 * np.pi * 4 / 8192)), FLAT)]
    monkeypatch.setattr(szego, "_COEFF_STABLE_TOL", np.inf)
    passes = _recorded_passes(monkeypatch)
    for lam, beta in pairs:
        gapped = not szego.is_critical(lam)
        for t in (0.0, 0.37, 10.0, 50.0, 1000.0):
            for k in (300, 5000):
                oracles = {
                    "c": lambda th: -np.log(lambda_of_t(lam, beta, th, t)),
                    "b": lambda th: 1.0 / lambda_of_t(lam, beta, th, t),
                    "sigma": lambda th: (lam(th) + beta(th) ** 2) / (beta(th) * lam(th)),
                    "mu": lambda th: ((lam(th) - beta(th) ** 2)
                                      * np.cos(2.0 * t * np.sqrt(lam(th)))
                                      / (beta(th) * lam(th))),
                }
                passes.clear()
                results = {"c": log_symbol_coeffs(lam, beta, t, k),
                           "b": bk_coeffs(lam, beta, t, k)}
                if gapped:
                    results["sigma"], results["mu"] = mu_sigma(lam, beta, t, k)
                assert len(passes) == len(results)
                grid = 16384 if k == 300 else 32768
                for (name, got), (k_max, g, out) in zip(results.items(), passes):
                    # each pass gives the coefficients 0..G/2 of G = g/2
                    assert (k_max, g) == (grid // 4, grid)
                    assert _same_pass(out, _oracle_pass(oracles[name], k_max, g)), (name, t, k)
                    _assert_matches_full_period(oracles[name], k_max, g, out[0])
                    scale = 0.5 if name in ("sigma", "mu") else 1.0
                    assert got.tobytes() == (scale * out[0][: k + 1]).tobytes()
                got = spectrum_maximum(lam, beta, t)
                assert got == _fresh_spectrum_maximum(lam, beta, t)
                full = _fresh_spectrum_maximum(lam, beta, t, period=1.0)
                assert abs(got - full) <= 1e-14 * full, (t, got, full)
        szego._evolved = None
        assert spectrum_maximum(lam, beta, 3.0) == _fresh_spectrum_maximum(lam, beta, 3.0)


DEEP_CASES = ((LAM15, TrigPolynomial([1.0, 0.1]), 1000.0, 300),
              (gap_family(0.5), FLAT, 50.0, 300))


def test_sample_table_deep_stabilization_matches_fresh_grids(monkeypatch):
    # unpatched stabilization reaching 4G and 8G: one pass per grid, each the
    # pass of a fresh half-period grid
    passes = _recorded_passes(monkeypatch)
    for lam, beta, t, k in DEEP_CASES:
        log_symbol_coeffs(lam, beta, t, k)
        grids = [g for _, g, _ in passes]
        assert grids[-1] >= 4 * 8192
        assert grids == [grids[0] * 2 ** i for i in range(len(grids))]

        def fn(th):
            return -np.log(lambda_of_t(lam, beta, th, t))
        for k_max, g, out in passes:
            assert _same_pass(out, _oracle_pass(fn, k_max, g)), (t, g)
            _assert_matches_full_period(fn, k_max, g, out[0])
        passes.clear()


def _two_pass_grid(fn, k_max):
    """The final grid of the full-period stabilization the alias test
    replaced: from G = 8192 on, skipping any G with G/2 < k_max, each grid 2G
    is compared against its even-index half G on the coefficients 0..G/2."""
    grid = 8192
    while grid // 2 < k_max:
        grid *= 2
    while grid <= szego._QUAD_CAP:
        fine = fn(2.0 * np.pi * np.arange(2 * grid) / (2 * grid))
        coarse = _full_period_pass(fine[::2], grid // 2, grid)
        cur = _full_period_pass(fine, grid // 2, 2 * grid)
        if np.abs(cur - coarse).max() <= szego._COEFF_STABLE_TOL:
            return 2 * grid
        grid *= 2
    raise AssertionError("the two-pass stabilization did not settle")


def test_alias_stop_picks_the_two_pass_grid(monkeypatch):
    # the aliased bins of one pass on 2G stop at the grid where the coarse
    # and fine passes used to agree: the deep-stabilization cases, every
    # k_max of a critical doubling trail, and one that skips the first grid
    passes = _recorded_passes(monkeypatch)
    cases = list(DEEP_CASES)
    cases += [(gap_family(0.5), FLAT, 20.0, k) for k in (256, 512, 1024, 2048, 5000)]
    for lam, beta, t, k in cases:
        def fn(th):
            return -np.log(lambda_of_t(lam, beta, th, t))
        passes.clear()
        got = log_symbol_coeffs(lam, beta, t, k)
        assert passes[-1][1] == _two_pass_grid(fn, k), (t, k, [g for _, g, _ in passes])
        _assert_matches_full_period(fn, k, passes[-1][1], got)


def test_under_resolved_grid_raises(monkeypatch):
    # gap c = 0.5 at t = 50 needs more than 16384 points; a cap that allows
    # only that grid leaves it unresolved
    monkeypatch.setattr(szego, "_QUAD_CAP", 8192)
    with pytest.raises(QuadratureError, match="did not stabilize"):
        log_symbol_coeffs(gap_family(0.5), FLAT, 50.0, 300)


def _coefficient_bundle(lam, beta, t):
    """c_k, b_k, the static/traveling split (gapped couplings only) and the
    spectrum maximum at one time: the cone-covering k_max, or 2048 for a
    critical coupling."""
    if szego.is_critical(lam):
        k = 2048
        split = ()
    else:
        k = _cone_k_max(lam, t)
        split = mu_sigma(lam, beta, t, k)
    return (log_symbol_coeffs(lam, beta, t, k), bk_coeffs(lam, beta, t, k), *split,
            spectrum_maximum(lam, beta, t))


def _bits(value):
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return np.asarray(value).tobytes()


def test_sample_table_results_independent_of_call_history():
    rng = np.random.default_rng(2028)
    cases = [(fn, lam, beta, t)
             for fn in (szego_sum_for, bk_bound, _coefficient_bundle)
             for lam, beta, times in ((LAM15, TrigPolynomial([1.05, 0.05]),
                                       (0.0, 0.37, 3.0, 10.0, 25.0)),
                                      (gap_family(0.5), FLAT, (0.37, 5.0, 20.0)))
             for t in times]
    fresh = []
    for fn, lam, beta, t in cases:
        szego._evolved = None
        fresh.append(_bits(fn(lam, beta, t)))
    other = _random_gapped_pair(rng)
    orders = [list(range(len(cases))), list(range(len(cases)))[::-1],
              list(rng.permutation(len(cases)))]
    for interleave in (False, True):
        for order in orders:
            got = {}
            for i in order:
                if interleave:
                    szego_sum_for(*other, 7.0)
                fn, lam, beta, t = cases[i]
                got[i] = _bits(fn(lam, beta, t))
            assert [got[i] for i in range(len(cases))] == fresh
    for _ in range(20):
        szego_sum_for(*_random_gapped_pair(rng), float(rng.uniform(0.0, 10.0)))
    # one cache entry: the samples of the last grid
    assert szego._evolved[1].shape == (8193,)


def _count_sampling(monkeypatch):
    """Sizes of the half-period Lambda(theta, t) samplings, from an empty
    cache; the spectrum maximum's refinement, at 65 angles or fewer, is left
    out."""
    evolved = []

    def recording(lam, beta, theta, t):
        if np.size(theta) > 65:
            evolved.append(np.size(theta))
        return real(lam, beta, theta, t)
    real = szego.lambda_of_t
    monkeypatch.setattr(szego, "lambda_of_t", recording)
    monkeypatch.setattr(szego, "_evolved", None)
    return evolved


def test_compute_row_samples_each_grid_once(monkeypatch):
    evolved = _count_sampling(monkeypatch)
    passes = _recorded_passes(monkeypatch)
    lam = gap_family(1.5)
    # c_k, b_k and the spectrum maximum share one Lambda sampling of the
    # half period; c_k and b_k take one quadrature pass each
    compute_row(lam, TrigPolynomial([1.05, 0.05]), 32, 16, 3.0, _cone_k_max(lam, 3.0))
    grid = 2 * szego._QUAD_START
    assert grid == szego._MAXIMUM_GRID
    assert evolved == [grid // 2 + 1]
    assert [(k, g) for k, g, _ in passes] == [(grid // 4, grid)] * 2
    # a later time point samples Lambda once more
    compute_row(lam, TrigPolynomial([1.05, 0.05]), 32, 16, 2.0, _cone_k_max(lam, 2.0))
    assert evolved == [grid // 2 + 1, grid // 2 + 1]
    assert [g for _, g, _ in passes] == [grid] * 4


def test_resolved_row_samples_one_grid(monkeypatch):
    # the resolved sums at t = 50 take one pass each on one 16384-point
    # sampling, where the cone-covering k = 5064 would start on 131072 points
    evolved = _count_sampling(monkeypatch)
    passes = _recorded_passes(monkeypatch)
    compute_row(LAM15, TrigPolynomial([1.05, 0.05]), 32, 16, 50.0, None)
    assert evolved == [8193]
    assert [(k, g) for k, g, _ in passes] == [(4096, 16384)] * 2


def test_under_resolved_grid_raises_without_k_max(monkeypatch):
    # gap c = 1.5 at t = 1000 needs 131072 points; a cap that allows only the
    # first grid leaves the resolved sum unresolved
    evolved = _count_sampling(monkeypatch)
    monkeypatch.setattr(szego, "_QUAD_CAP", 8192)
    with pytest.raises(QuadratureError, match="did not stabilize"):
        szego_sum_for(LAM15, FLAT, 1000.0)
    assert evolved == [8193]


@pytest.mark.parametrize("lam, t", [(gap_family(0.5), float("nan")),
                                    # (beta t)^2 overflows at the zero theta = 0
                                    (gap_family(1.0), 1e200)], ids=["nan-t", "overflow"])
def test_non_finite_samples_stop_on_the_first_pass(monkeypatch, lam, t):
    evolved = _count_sampling(monkeypatch)
    passes = _recorded_passes(monkeypatch)
    with np.errstate(over="ignore", divide="ignore"):
        with pytest.raises(QuadratureError, match="not finite"):
            szego_sum_for(lam, FLAT, t)
    assert evolved == [8193] and passes == []


def test_k_max_beyond_the_cap_is_rejected_unsampled(monkeypatch):
    # the last grid under the cap resolves k_max = cap / 2; one more, or a
    # negative k_max, raises before any sampling
    evolved = _count_sampling(monkeypatch)
    monkeypatch.setattr(szego, "_QUAD_CAP", 2 ** 14)
    monkeypatch.setattr(szego, "_COEFF_STABLE_TOL", np.inf)
    for k in (-1, 2 ** 13 + 1):
        with pytest.raises(ValueError, match="k_max"):
            log_symbol_coeffs(LAM15, FLAT, 3.0, k)
    assert evolved == []
    assert log_symbol_coeffs(LAM15, FLAT, 3.0, 2 ** 13).size == 2 ** 13 + 1
    assert evolved == [2 ** 14 + 1]


def test_quadrature_failure_releases_sample_table(monkeypatch):
    # a quadrature that gives up has sampled each grid up to the cap once
    evolved = _count_sampling(monkeypatch)
    monkeypatch.setattr(szego, "_QUAD_CAP", 2 ** 14)
    monkeypatch.setattr(szego, "_COEFF_STABLE_TOL", 0.0)
    with pytest.raises(QuadratureError):
        log_symbol_coeffs(LAM15, FLAT, 3.0, 300)
    assert evolved == [2 ** 13 + 1, 2 ** 14 + 1]


def test_critical_retries_add_no_sample_pass(monkeypatch):
    # the k = 256 .. 8192 retries slice the coefficients of one quadrature,
    # which samples and transforms each grid once, doubling until its
    # aliased half settles
    evolved = _count_sampling(monkeypatch)
    passes = _recorded_passes(monkeypatch)
    szego_sum_for(gap_family(0.5), FLAT, 50.0)
    assert [(k, g) for k, g, _ in passes] == [(4096, 16384), (8192, 32768), (16384, 65536)]
    assert evolved == [8193, 16385, 32769]
