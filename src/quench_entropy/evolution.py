"""Exact Gaussian time evolution of the oscillator chain, one Fourier mode at a time.

After the quench the wavefunction keeps the form exp(-x^T A(t) x / 2) with A(t)
circulant, so everything happens mode by mode: each mode amplitude obeys the
scalar Riccati equation i da/dt = a^2 - lambda with a(0) = beta and has the
closed-form solution implemented in `mode_symbol`. Its real part is the evolved
width spectrum `lambda_of_t`, the central object of every bound downstream.

`riccati_oracle` integrates the same scalar equations with a classical
fourth-order Runge-Kutta scheme and exists purely as an independent check on the
closed form.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import DivergenceError
from .spectral import TrigPolynomial, evaluate, extrema

_DIVERGENCE_LIMIT = 1e8


@dataclasses.dataclass(frozen=True)
class EvolutionSetup:
    """Coupling spectrum lambda, initial width spectrum beta, chain size N."""

    lambda_poly: TrigPolynomial
    beta_poly: TrigPolynomial
    size: int

    def mode_angles(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.size) / self.size


@dataclasses.dataclass(frozen=True)
class GaussianPureState:
    """Evolved Gaussian state: complex mode amplitudes a(theta_j, t)."""

    mode_symbols: np.ndarray
    size: int
    time: float

    def __post_init__(self):
        arr = np.array(self.mode_symbols, dtype=complex)
        object.__setattr__(self, "mode_symbols", arr)
        arr.setflags(write=False)

    def to_json_dict(self) -> dict:
        return {
            "N": self.size,
            "t": self.time,
            "re": self.mode_symbols.real.tolist(),
            "im": self.mode_symbols.imag.tolist(),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "GaussianPureState":
        syms = np.asarray(d["re"], dtype=float) + 1j * np.asarray(d["im"], dtype=float)
        return cls(mode_symbols=syms, size=int(d["N"]), time=float(d["t"]))


def mode_symbol(lam_val, beta_val, t):
    """Closed-form mode amplitude at time t; vectorized over the inputs.

    a(t) = (beta c + i lam tS) / (c + i beta tS),  c = cos(t sqrt(lam)),
    tS = sin(t sqrt(lam)) / sqrt(lam) = t sinc(t sqrt(lam) / pi),

    which is a = beta / (1 + i t beta) at lam = 0 and exactly beta at t = 0,
    with no branch on either.
    """
    lam = np.asarray(lam_val, dtype=float)
    beta = np.asarray(beta_val, dtype=float)
    c, ts = _phase(lam, t)
    out = (beta * c + 1j * lam * ts) / (c + 1j * beta * ts)
    return complex(out) if out.ndim == 0 else out


def _phase(lam, t):
    """c = cos(t sqrt(lam)) and tS = t sinc(t sqrt(lam) / pi) of the closed form."""
    root = np.sqrt(lam)
    return np.cos(t * root), t * np.sinc(t * root / np.pi)


def _symbol_samples(lam: TrigPolynomial, beta: TrigPolynomial, theta):
    """(lambda, beta) at the angles theta, as float arrays.

    lambda is clamped at 0: the symbols are certified non-negative upstream,
    so the clamp only removes rounding dust at a touch point.
    """
    lv = np.asarray(evaluate(lam, theta), dtype=float)
    return np.maximum(lv, 0.0, out=lv), np.asarray(evaluate(beta, theta), dtype=float)


def lambda_of_t(lam: TrigPolynomial, beta: TrigPolynomial, theta, t):
    """Evolved width spectrum beta / (c^2 + (beta tS)^2), c and tS as in `mode_symbol`,
    from the symbols sampled at theta with lambda clamped at 0.

    Strictly positive whenever beta > 0, including at critical points of the
    coupling, where it degrades to beta / (1 + (t beta)^2).
    """
    lv, bv = _symbol_samples(lam, beta, theta)
    c, ts = _phase(lv, t)
    out = bv / (c * c + (bv * ts) ** 2)
    return float(out) if out.ndim == 0 else out


def short_time_lambda(lam: TrigPolynomial, beta: TrigPolynomial, theta, t):
    """Quadratic short-time approximant beta [1 - (beta^2 - lam) t^2].

    Reads the same samples as `lambda_of_t`, lambda clamped at 0, so the two
    differ only by the approximation. Good to O(t^4); the caller keeps |t|
    small, there is no hard cutoff.
    """
    lv, bv = _symbol_samples(lam, beta, theta)
    out = bv * (1.0 - (bv * bv - lv) * t * t)
    return float(out) if out.ndim == 0 else out


def evolve(setup: EvolutionSetup, t: float) -> GaussianPureState:
    """Evolved state at time t via the closed form, exact per mode."""
    lv, bv = _symbol_samples(setup.lambda_poly, setup.beta_poly, setup.mode_angles())
    syms = np.asarray(mode_symbol(lv, bv, t), dtype=complex)
    # enforce the exact j <-> N-j symmetry the real circulant structure implies
    syms[1:] = 0.5 * (syms[1:] + syms[1:][::-1])
    return GaussianPureState(mode_symbols=syms, size=setup.size, time=float(t))


def riccati_oracle(setup: EvolutionSetup, t_end, dt: float | None = None
                   ) -> GaussianPureState | list[GaussianPureState]:
    """Integrate i da/dt = a^2 - lambda from a(0) = beta with classical RK4.

    Independent of the closed form by construction. Default step is
    0.01 / sqrt(max lambda), shortened so that ceil(|t_end| / dt) equal steps
    end exactly at t_end. Aborts with DivergenceError once any |a| exceeds
    1e8, which signals an unstable step size (the true solution is bounded).

    t_end may also be a sequence of end times, which returns a list of states
    in the same order. Each end time is one row of a single array, with its
    own step and its own step count, and gets the same bits as on its own.
    """
    single = np.ndim(t_end) == 0
    ends = np.atleast_1d(np.asarray(t_end, dtype=float))
    lv, bv = _symbol_samples(setup.lambda_poly, setup.beta_poly, setup.mode_angles())
    if dt is None and ends.any():
        scale = extrema(setup.lambda_poly).maximum
        dt = 0.01 / np.sqrt(scale) if scale > 0 else 0.01
    n_steps = np.array([max(1, int(np.ceil(abs(t) / dt))) if t != 0.0 else 0 for t in ends])
    # most steps first, so the rows still running are always a leading slice
    order = np.argsort(-n_steps, kind="stable")
    counts = n_steps[order]
    h = np.array([t / n if n else 0.0 for t, n in zip(ends[order], counts)])[:, None]
    a = np.tile(bv.astype(complex), (ends.size, 1))

    def rhs(y):
        return -1j * (y * y - lv)

    live = ends.size
    for step in range(int(n_steps.max(initial=0))):
        while counts[live - 1] <= step:
            live -= 1
        y, hy = a[:live], h[:live]
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * hy * k1)
        k3 = rhs(y + 0.5 * hy * k2)
        k4 = rhs(y + hy * k3)
        y += (hy / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if np.abs(y).max() > _DIVERGENCE_LIMIT:
            raise DivergenceError(
                f"mode amplitude exceeded {_DIVERGENCE_LIMIT:g}; "
                f"step dt={dt:g} too large for this coupling")
    states = [None] * ends.size
    for row, i in enumerate(order):
        states[i] = GaussianPureState(mode_symbols=a[row], size=setup.size,
                                      time=float(ends[i]))
    return states[0] if single else states
