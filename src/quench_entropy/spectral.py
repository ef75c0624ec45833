"""Even real trigonometric polynomials and the circulant matrices they generate.

A spectral function here is a finite cosine series

    f(theta) = a_0 + sum_{m=1..K} a_m cos(m theta),

which is automatically real and even. Such a function generates a real symmetric
circulant matrix whose eigenvalues are the symbol samples f(2 pi j / N). Both the
coupling spectrum of the oscillator chain and the width spectrum of the initial
Gaussian state live in this class.

With x = cos(theta), cos(m theta) = T_m(x), so f is the Chebyshev series
sum a_m T_m(x). `evaluate` sums it by Clenshaw's recurrence (one cosine per
angle, memory linear in the angles) and `extrema` solves for its stationary
points in x.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .errors import CriticalSymbolError, SpectralSpecError

# Relative threshold below which a symbol's minimum counts as a zero.
_CRITICAL_REL_TOL = 1e-9
# Bracket width at which the sub-grid refinement of a function that is not a
# polynomial in cos(theta) (the evolved width, `szego.spectrum_maximum`) stops:
# each round of _REFINE_POINTS samples narrows the bracket 32-fold, so the grid
# cells either side of a scanned extremum need 6 or 7 rounds.
_REFINE_XATOL = 1e-12
_REFINE_POINTS = 65
_EPS = np.finfo(float).eps
# Angles per block of `evaluate`: its temporaries are a few arrays of this
# length, whatever the number of angles or the degree.
_EVAL_BLOCK = 1 << 14


def _refine_minimum(fn, lo: float, hi: float) -> tuple[float, float]:
    """(x, fn(x)) at the smallest sample of nested sub-grids on [lo, hi].

    Each round evaluates the vectorised fn once on _REFINE_POINTS evenly
    spaced points and keeps the two cells either side of the best sample,
    until that bracket is narrower than _REFINE_XATOL. Callers pass the grid
    cells on either side of a scanned extremum, where the function is unimodal.
    """
    while True:
        x = np.linspace(lo, hi, _REFINE_POINTS)
        f = fn(x)
        i = int(np.argmin(f))
        lo, hi = x[max(i - 1, 0)], x[min(i + 1, _REFINE_POINTS - 1)]
        if hi - lo <= _REFINE_XATOL:
            return float(x[i]), float(f[i])


@dataclasses.dataclass(frozen=True)
class TrigPolynomial:
    """Finite even cosine series; `coeffs[m]` multiplies cos(m theta)."""

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        if arr.ndim != 1 or arr.size == 0:
            raise SpectralSpecError("coefficient vector must be a non-empty 1-d array")
        if not np.all(np.isfinite(arr)):
            raise SpectralSpecError("coefficient vector contains non-finite entries")
        # trim trailing exact zeros so `degree` is meaningful, but keep a_0
        last = arr.size
        while last > 1 and arr[last - 1] == 0.0:
            last -= 1
        object.__setattr__(self, "coeffs", arr[:last].copy())
        self.coeffs.setflags(write=False)

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def __call__(self, theta):
        return evaluate(self, theta)

    @functools.cached_property
    def _extrema(self) -> SpectralExtrema:
        # one solve per instance, carried along when the symbol is pickled
        return _solve_extrema(self)


def _derivative_roots(coeffs: np.ndarray) -> np.ndarray:
    """Real roots of d/dx sum a_m T_m(x) = sum m a_m U_{m-1}(x), clipped to [-1, 1].

    They are the eigenvalues of the colleague matrix of the second-kind series:
    x U_k = (U_{k-1} + U_{k+1}) / 2, with U_n eliminated through the series in
    the last row. A real matrix returns its real eigenvalues with an imaginary
    part of exactly 0, and a root of odd multiplicity (every sign change of the
    derivative) leaves at least one of them, so only the complex pairs of
    roots of even multiplicity are dropped; those are no extrema.
    """
    b = np.arange(1, coeffs.size) * coeffs[1:]
    # leading terms below rounding move no extremum value by more than
    # rounding; dropping them keeps the last row finite
    b = b[: np.flatnonzero(np.abs(b) > _EPS * np.abs(b).max())[-1] + 1]
    n = b.size - 1
    if n == 0:
        return np.empty(0)
    mat = np.zeros((n, n))
    i = np.arange(n - 1)
    mat[i, i + 1] = mat[i + 1, i] = 0.5
    mat[-1] -= 0.5 * b[:-1] / b[-1]
    roots = np.linalg.eigvals(mat)
    return np.clip(roots.real[roots.imag == 0.0], -1.0, 1.0)


def _solve_extrema(f: TrigPolynomial) -> SpectralExtrema:
    """Global extrema from the stationary points of f in x = cos(theta).

    They lie at x = +-1 or at a real root of the derivative series, so the
    candidates are those angles in [0, pi], each evaluated with `evaluate`.
    Degree 0 and 1 have no interior stationary point.
    """
    x = np.array([1.0, -1.0])
    if f.degree >= 2:
        x = np.concatenate([x, _derivative_roots(f.coeffs)])
    theta = np.arccos(x)
    vals = evaluate(f, theta)
    lo, hi = int(np.argmin(vals)), int(np.argmax(vals))
    return SpectralExtrema(minimum=float(vals[lo]), maximum=float(vals[hi]),
                           argmin=float(theta[lo]), argmax=float(theta[hi]))


@dataclasses.dataclass(frozen=True)
class CirculantMatrix:
    """Circulant matrix, stored as its first row; real and symmetric when
    built from a symbol, which `eigenvalues` assumes."""

    first_row: np.ndarray
    size: int

    def to_dense(self) -> np.ndarray:
        """Dense matrix with entry (i, j) = first_row[(j - i) % size]."""
        i = np.arange(self.size)
        return self.first_row[(i[None, :] - i[:, None]) % self.size]

    def eigenvalues(self) -> np.ndarray:
        """Spectrum in mode order j = 0..N-1 (equals symbol samples)."""
        return np.fft.fft(self.first_row).real


@dataclasses.dataclass(frozen=True)
class SpectralExtrema:
    minimum: float
    maximum: float
    argmin: float
    argmax: float


def _clenshaw(a: list, x):
    """sum a_m T_m(x) by Clenshaw's recurrence, from the top coefficient down:
    b_k = a_k + 2x b_{k+1} - b_{k+2}, then a_0 + x b_1 - b_2."""
    if len(a) == 1:
        return a[0] + 0.0 * x
    x2 = x + x
    b1, b2 = a[-1], 0.0
    for ak in reversed(a[1:-1]):
        b1, b2 = ak + x2 * b1 - b2, b1
    return a[0] + x * b1 - b2


def evaluate(f: TrigPolynomial, theta):
    """Evaluate a_0 + sum a_m cos(m theta); vectorized over theta.

    Since cos(m theta) = T_m(cos theta), this is one cosine per angle and
    Clenshaw's recurrence in x = cos(theta). More than _EVAL_BLOCK angles run
    in blocks of that many, each filling its slice of one output array, so
    the temporaries stay a few blocks long. Every step is elementwise: the
    value at an angle does not depend on the array around it or on where the
    blocks split it. A 0-d theta gives a float, any other shape is kept.
    """
    a = f.coeffs.tolist()
    th = np.asarray(theta, dtype=float)
    if th.size <= _EVAL_BLOCK:
        vals = _clenshaw(a, np.cos(th))
        return vals if th.ndim else float(vals)
    flat = th.ravel()
    out = np.empty(flat.size)
    for i in range(0, flat.size, _EVAL_BLOCK):
        out[i:i + _EVAL_BLOCK] = _clenshaw(a, np.cos(flat[i:i + _EVAL_BLOCK]))
    return out.reshape(th.shape)


def gap_family(c: float) -> TrigPolynomial:
    """The (c - cos theta)^2 family as an explicit cosine series.

    Expanding with cos^2 = 1/2 + cos(2 theta)/2 gives coefficients
    (c^2 + 1/2, -2c, 1/2). The symbol touches zero when |c| <= 1 (critical
    coupling); that is allowed, construction does not reject it.
    """
    c = float(c)
    return TrigPolynomial(np.array([c * c + 0.5, -2.0 * c, 0.5]))


def parse_spectral_spec(text: str) -> TrigPolynomial:
    """Parse `poly:a0,a1,...` or `gap:c=<value>` into a TrigPolynomial."""
    if not isinstance(text, str):
        raise SpectralSpecError(f"spectral spec must be a string, got {type(text).__name__}")
    spec = text.strip()
    if spec.startswith("poly:"):
        body = spec[len("poly:"):]
        try:
            coeffs = np.array([float(p) for p in body.split(",")])
        except ValueError as exc:
            raise SpectralSpecError(f"bad polynomial coefficients in {text!r}") from exc
        return TrigPolynomial(coeffs)
    if spec.startswith("gap:"):
        body = spec[len("gap:"):]
        if not body.startswith("c="):
            raise SpectralSpecError(f"gap family spec must look like gap:c=<value>, got {text!r}")
        try:
            return gap_family(float(body[2:]))
        except ValueError as exc:
            raise SpectralSpecError(f"bad gap parameter in {text!r}") from exc
    raise SpectralSpecError(f"unknown spectral spec format: {text!r}")


def build_circulant(f: TrigPolynomial, N: int) -> CirculantMatrix:
    """Circulant matrix with symbol f.

    The Fourier integral of cos(m theta) puts a_m/2 at offsets +-m and a_0 on
    the diagonal. N must exceed 2K so the wrapped offsets stay unambiguous.
    """
    K = f.degree
    if N <= 2 * K:
        raise SpectralSpecError(f"size N={N} too small for degree K={K}; need N > 2K")
    row = np.zeros(N)
    row[0] = f.coeffs[0]
    for m in range(1, K + 1):
        row[m] += 0.5 * f.coeffs[m]
        row[N - m] += 0.5 * f.coeffs[m]
    return CirculantMatrix(first_row=row, size=N)


def extrema(f: TrigPolynomial) -> SpectralExtrema:
    """Global extrema over one period, exact up to rounding.

    With x = cos(theta) the symbol is the Chebyshev series sum a_m T_m(x), so
    its extrema sit at theta = 0, pi or where x is a real root of the
    derivative series; the roots come from one small eigenvalue solve per
    symbol instance. argmin and argmax lie in [0, pi]; a symbol that touches
    zero at a stationary point can give a minimum of exactly 0.0.
    """
    return f._extrema


def is_critical(f: TrigPolynomial) -> bool:
    """True when the symbol's minimum is (numerically) zero."""
    ext = extrema(f)
    return ext.minimum <= _CRITICAL_REL_TOL * max(1.0, abs(ext.maximum))


def require_positive(f: TrigPolynomial, name: str = "symbol") -> None:
    ext = extrema(f)
    if is_critical(f):
        raise SpectralSpecError(
            f"{name} must be strictly positive; minimum {ext.minimum:g} "
            f"at theta={ext.argmin:g}")


def require_nonnegative(f: TrigPolynomial, name: str = "symbol") -> None:
    ext = extrema(f)
    if ext.minimum < -1e-12 * max(1.0, abs(ext.maximum)):
        raise SpectralSpecError(
            f"{name} must be non-negative; minimum {ext.minimum:g} "
            f"at theta={ext.argmin:g}")


def group_velocity_bound(lam: TrigPolynomial) -> float:
    """Propagation-speed bound K * max(lambda) / sqrt(min(lambda)).

    Only defined for gapped symbols; a critical coupling has no finite bound
    of this form and is rejected with a distinct error.
    """
    if lam.degree == 0:
        return 0.0
    ext = extrema(lam)
    if is_critical(lam):
        raise CriticalSymbolError(
            "group-velocity bound undefined for critical coupling (min lambda = 0)")
    return float(lam.degree * ext.maximum / np.sqrt(ext.minimum))
