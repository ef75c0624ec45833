"""Mode evolution: closed form, evolved width spectrum, and the ODE cross-check."""

import numpy as np
import pytest

from quench_entropy import (DivergenceError, EvolutionSetup, GaussianPureState,
                            TrigPolynomial, evolve, extrema, gap_family, lambda_of_t,
                            mode_symbol, riccati_oracle, short_time_lambda)

LAM15 = gap_family(1.5)
FLAT = TrigPolynomial([1.0])


def test_initial_condition_returns_beta():
    assert abs(mode_symbol(2.25, 0.7, 0.0) - 0.7) < 1e-15
    setup = EvolutionSetup(LAM15, TrigPolynomial([2.0, -1.0]), 16)
    state = evolve(setup, 0.0)
    beta_samples = setup.beta_poly(setup.mode_angles())
    assert np.abs(state.mode_symbols - beta_samples).max() < 1e-15
    assert state.time == 0.0


def test_mode_symbol_frozen_value():
    a = mode_symbol(2.25, 1.0, 1.0)
    assert abs(a - (2.2360144237828377 + 0.13147765562758887j)) < 1e-13


def test_zero_coupling_limit():
    # lam = 0 reduces to free spreading of the mode width
    for t in (0.0, 0.3, 2.0):
        a = mode_symbol(0.0, 0.8, t)
        assert abs(a - 0.8 / (1.0 + 1j * t * 0.8)) < 1e-15


def test_real_part_is_evolved_spectrum():
    rng = np.random.default_rng(21)
    for _ in range(40):
        lam = float(rng.uniform(0.0, 5.0))
        beta = float(rng.uniform(0.2, 3.0))
        t = float(rng.uniform(0.0, 10.0))
        a = mode_symbol(lam, beta, t)
        lam_poly = TrigPolynomial([lam])
        beta_poly = TrigPolynomial([beta])
        assert abs(a.real - lambda_of_t(lam_poly, beta_poly, 0.0, t)) < 1e-12


def test_lambda_of_t_matches_direct_formula():
    rng = np.random.default_rng(22)
    beta = TrigPolynomial([1.3, 0.2])
    for _ in range(30):
        th = float(rng.uniform(0, 2 * np.pi))
        t = float(rng.uniform(0, 8))
        lv = LAM15(th)
        bv = beta(th)
        w = np.sqrt(lv)
        direct = bv * lv / (lv * np.cos(t * w) ** 2 + bv * bv * np.sin(t * w) ** 2)
        assert abs(lambda_of_t(LAM15, beta, th, t) - direct) < 1e-12


def test_stationary_width_spectrum():
    # beta = sqrt(lambda) pointwise: the state is an eigenstate, nothing moves
    beta = TrigPolynomial([1.5, -1.0])
    theta = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    ref = beta(theta)
    for t in (0.5, 2.0, 7.5):
        assert np.abs(lambda_of_t(LAM15, beta, theta, t) - ref).max() < 1e-12


def test_time_periodicity():
    # each mode is pi / sqrt(lambda) periodic in the width
    rng = np.random.default_rng(23)
    beta = TrigPolynomial([0.9, 0.1])
    for _ in range(20):
        th = float(rng.uniform(0, 2 * np.pi))
        t = float(rng.uniform(0, 5))
        period = np.pi / np.sqrt(LAM15(th))
        d = abs(lambda_of_t(LAM15, beta, th, t + period) - lambda_of_t(LAM15, beta, th, t))
        assert d < 1e-10


def test_short_time_error_scales_quartically():
    """Halving t divides the quadratic-approximant error by ~16 (Richardson)."""
    th = np.pi / 2
    ratios = []
    for t in (0.02, 0.01, 0.005):
        e1 = abs(lambda_of_t(LAM15, FLAT, th, t) - short_time_lambda(LAM15, FLAT, th, t))
        e2 = abs(lambda_of_t(LAM15, FLAT, th, 2 * t) - short_time_lambda(LAM15, FLAT, th, 2 * t))
        ratios.append(e2 / e1)
    assert all(13.0 <= r <= 19.0 for r in ratios), ratios


def test_evolve_mode_symmetry():
    setup = EvolutionSetup(LAM15, TrigPolynomial([2.0, -1.0]), 15)
    state = evolve(setup, 1.7)
    syms = state.mode_symbols
    assert np.array_equal(syms[1:], syms[1:][::-1])
    assert state.size == 15


def test_state_arrays_read_only():
    state = evolve(EvolutionSetup(LAM15, FLAT, 8), 1.0)
    with pytest.raises(ValueError):
        state.mode_symbols[0] = 0.0


def test_json_roundtrip():
    state = evolve(EvolutionSetup(LAM15, FLAT, 12), 2.5)
    d = state.to_json_dict()
    assert set(d) == {"N", "t", "re", "im"}
    assert d["N"] == 12 and d["t"] == 2.5
    assert len(d["re"]) == 12 and len(d["im"]) == 12
    back = GaussianPureState.from_json_dict(d)
    assert np.array_equal(back.mode_symbols, state.mode_symbols)


def test_ode_oracle_matches_closed_form():
    setup = EvolutionSetup(LAM15, FLAT, 16)
    for t_end in (0.5, 2.0, 5.0):
        ode = riccati_oracle(setup, t_end)
        closed = evolve(setup, t_end)
        assert np.abs(ode.mode_symbols - closed.mode_symbols).max() < 1e-6


def test_ode_oracle_zero_time():
    setup = EvolutionSetup(LAM15, TrigPolynomial([2.0, -1.0]), 8)
    state = riccati_oracle(setup, 0.0)
    assert np.abs(state.mode_symbols - setup.beta_poly(setup.mode_angles())).max() == 0.0


def test_ode_oracle_stationary():
    setup = EvolutionSetup(LAM15, TrigPolynomial([1.5, -1.0]), 8)
    ref = setup.beta_poly(setup.mode_angles())
    state = riccati_oracle(setup, 3.0)
    assert np.abs(state.mode_symbols - ref).max() < 1e-8


def test_ode_oracle_detects_divergence():
    setup = EvolutionSetup(LAM15, FLAT, 8)
    with pytest.raises(DivergenceError):
        riccati_oracle(setup, 50.0, dt=1.0)


def _rk4_one_end(setup, t_end):
    """The RK4 loop for one end time, written out as the reference for the batch."""
    th = setup.mode_angles()
    lv = np.maximum(setup.lambda_poly(th), 0.0)
    a = np.asarray(setup.beta_poly(th), dtype=complex)
    dt = 0.01 / np.sqrt(extrema(setup.lambda_poly).maximum)
    n_steps = max(1, int(np.ceil(abs(t_end) / dt)))
    h = t_end / n_steps

    def rhs(y):
        return -1j * (y * y - lv)

    for _ in range(n_steps):
        k1 = rhs(a)
        k2 = rhs(a + 0.5 * h * k1)
        k3 = rhs(a + 0.5 * h * k2)
        k4 = rhs(a + h * k3)
        a = a + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return a


def test_ode_oracle_batch_matches_single_end_times():
    setup = EvolutionSetup(LAM15, TrigPolynomial([1.0, 0.1]), 32)
    ends = np.linspace(0.5, 10.0, 10)
    batch = riccati_oracle(setup, ends)
    assert [s.time for s in batch] == ends.tolist()
    for t_end, state in zip(ends, batch):
        single = riccati_oracle(setup, float(t_end))
        assert state.mode_symbols.tobytes() == single.mode_symbols.tobytes()
        assert state.mode_symbols.tobytes() == _rk4_one_end(setup, float(t_end)).tobytes()
    # unsorted end times, repeats and t = 0 keep their order and their bits
    mixed = [3.0, 0.0, 1.25, 3.0]
    for t_end, state in zip(mixed, riccati_oracle(setup, mixed)):
        single = riccati_oracle(setup, t_end)
        assert state.mode_symbols.tobytes() == single.mode_symbols.tobytes()
        assert state.time == single.time == t_end


def test_ode_oracle_batch_detects_divergence():
    setup = EvolutionSetup(LAM15, FLAT, 8)
    message = "mode amplitude exceeded 1e+08; step dt=1 too large for this coupling"
    for t_end in (50.0, [0.5, 50.0, 2.0]):
        with pytest.raises(DivergenceError) as exc_info:
            riccati_oracle(setup, t_end, dt=1.0)
        assert str(exc_info.value) == message
