"""Dense-matrix side: block partition, reduced state, purity, entropy, bounds.

The evolved state's matrix A(t) is materialized as a dense complex symmetric
circulant, cut into blocks for n traced-out oscillators against N-n kept ones,
and turned into the quantities the bound chain needs:

    exact entropy  >=  -ln tr rho^2  >=  (1/2) ln det(P~ R~)

where a tilde always means "block of the real part": T~, R~, C~ are blocks of
Re A and P~ is the corresponding block of (Re A)^{-1}. All determinants are
computed as Cholesky log-determinants; explicit determinants of these matrices
overflow double precision long before the sizes of interest.

A coupling block that is exactly zero short-circuits to the analytic
product-state answers (purity 1, every bound 0). That is an identity, not an
approximation, and it keeps genuinely uncoupled configurations exactly clean.

`symbol_record` gives the same three columns without any N x N matrix: every
block above is a Toeplitz matrix of a symbol built from the mode amplitudes.
The pipeline uses it; the dense functions stay as its reference
implementation, used by the tests and `verify`.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from scipy.linalg import circulant as _circulant_from_row
from scipy.linalg import solve_triangular, toeplitz
from scipy.special import xlogy

from .errors import ConsistencyError, IllConditionedError
from .evolution import GaussianPureState

_COND_LIMIT = 1e12
_PURITY_AGREE_TOL = 1e-9


@dataclasses.dataclass(frozen=True)
class BlockPartition:
    """Blocks of A (T, C, R) and of A^{-1} (Q, D, P) for a cut of n oscillators.

    Layout: the first n rows/columns are the traced-out part, so

        A = [[T, C], [C^T, R]],    A^{-1} = [[Q, D], [D^T, P]].
    """

    T: np.ndarray
    C: np.ndarray
    R: np.ndarray
    Q: np.ndarray
    D: np.ndarray
    P: np.ndarray
    n: int
    condition_estimate: float


@dataclasses.dataclass(frozen=True)
class ReducedGaussianState:
    """Parameters of the reduced density operator plus the recorded identity residual."""

    gamma: np.ndarray
    delta: np.ndarray
    norm: float
    identity_residual: float


@dataclasses.dataclass(frozen=True)
class SymbolRecord:
    """Dense-side columns of one time point, with the checks' recorded figures."""

    t: float
    exact_entropy: float
    neg_log_purity: float
    det_bound: float
    identity_residual: float
    condition_estimate: float
    n: int
    N: int


@dataclasses.dataclass(frozen=True)
class EntropyRecord:
    t: float
    exact_entropy: float
    neg_log_purity: float
    det_bound: float
    n: int
    N: int


def densify(state: GaussianPureState) -> np.ndarray:
    """Dense complex symmetric circulant with the state's mode spectrum.

    The first row is the inverse DFT of the mode symbols. For an exactly
    constant symbol vector the result is exactly diagonal (the FFT butterflies
    cancel exactly), which the product-state shortcuts downstream rely on.
    """
    syms = np.asarray(state.mode_symbols, dtype=complex)
    row = np.fft.ifft(syms)
    dense = _circulant_from_row(row).T
    return 0.5 * (dense + dense.T)


def logdet_pd(M: np.ndarray) -> float:
    """log det of a real symmetric positive definite matrix via Cholesky."""
    try:
        chol = np.linalg.cholesky(0.5 * (M + M.T))
    except np.linalg.LinAlgError as exc:
        raise ConsistencyError("matrix expected positive definite is not") from exc
    return 2.0 * float(np.sum(np.log(np.diag(chol))))


def partition(A: np.ndarray, n: int) -> BlockPartition:
    """Cut A and its numerically computed inverse into 2x2 blocks at index n."""
    A = np.asarray(A)
    N = A.shape[0]
    if A.ndim != 2 or A.shape[1] != N:
        raise ValueError("partition needs a square matrix")
    if not (0 < n < N):
        raise ValueError(f"cut size n={n} must satisfy 0 < n < N={N}")
    Ainv = np.linalg.inv(A)
    norm_a = np.linalg.norm(A, 1)
    norm_i = np.linalg.norm(Ainv, 1)
    cond = float(norm_a * norm_i)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise IllConditionedError(
            f"matrix too ill-conditioned to partition (estimate {cond:.3g})",
            condition_estimate=cond)
    # positivity of the real-part blocks is what every downstream formula needs
    for blk, name in ((A[:n, :n], "traced block"), (A[n:, n:], "kept block")):
        try:
            np.linalg.cholesky(0.5 * (blk.real + blk.real.T))
        except np.linalg.LinAlgError as exc:
            raise ConsistencyError(f"real part of the {name} is not positive definite") from exc
    return BlockPartition(
        T=A[:n, :n], C=A[:n, n:], R=A[n:, n:],
        Q=Ainv[:n, :n], D=Ainv[:n, n:], P=Ainv[n:, n:],
        n=n, condition_estimate=cond)


def _tilde(blocks: BlockPartition):
    """Real-part blocks and the kept-block of the inverse of the real part."""
    T_t = blocks.T.real
    R_t = blocks.R.real
    C_t = blocks.C.real
    full_real = np.block([[T_t, C_t], [C_t.T, R_t]])
    P_t = np.linalg.inv(full_real)[blocks.n:, blocks.n:]
    return T_t, C_t, R_t, P_t


def reduce(blocks: BlockPartition) -> ReducedGaussianState:
    """Reduced-state parameters Gamma, Delta, the norm, and the identity residual.

    Gamma = R/2 - C^T T~^{-1} C / 4 and Delta = C^T T~^{-1} C^* / 4. The
    Schur-complement identity P~^{-1} = R~ - C~^T T~^{-1} C~ is evaluated
    against the directly inverted real part and its residual is recorded,
    never assumed.
    """
    T_t, C_t, R_t, P_t = _tilde(blocks)
    T_t_inv = np.linalg.inv(T_t)
    C = blocks.C
    if not C.any():
        m = blocks.R.shape[0]
        gamma = blocks.R / 2.0
        delta = np.zeros((m, m), dtype=complex)
        norm = float(np.exp(0.5 * logdet_pd(R_t) - 0.5 * m * np.log(np.pi)))
        return ReducedGaussianState(gamma=gamma, delta=delta, norm=norm,
                                    identity_residual=0.0)
    gamma = blocks.R / 2.0 - C.T @ T_t_inv @ C / 4.0
    delta = C.T @ T_t_inv @ C.conj() / 4.0
    schur = R_t - C_t.T @ T_t_inv @ C_t
    residual = float(np.linalg.norm(np.linalg.inv(P_t) - schur))
    m = blocks.R.shape[0]
    # norm = sqrt(det P~^{-1}) / pi^{m/2}; via log-dets to dodge overflow
    norm = float(np.exp(-0.5 * logdet_pd(P_t) - 0.5 * m * np.log(np.pi)))
    return ReducedGaussianState(gamma=gamma, delta=delta, norm=norm,
                                identity_residual=residual)


def purity(blocks: BlockPartition) -> float:
    """tr rho^2 of the kept part, computed twice and cross-checked.

    Route 1 (moment form): det(P~^{-1}) / sqrt(det[2(G~ - D~)] det[2(G~ + D~)])
    with G~, D~ the real parts of Gamma, Delta. Route 2 (phase form):
    [det(P~ (R~ + Z^T T~^{-1} Z))]^{-1/2} with Z = Im C. Disagreement beyond
    1e-9 raises; both equal 1 exactly for an uncoupled cut.
    """
    if not blocks.C.any():
        return 1.0
    T_t, C_t, R_t, P_t = _tilde(blocks)
    T_t_inv = np.linalg.inv(T_t)
    red = reduce(blocks)
    g_minus = 2.0 * (red.gamma.real - red.delta.real)
    g_plus = 2.0 * (red.gamma.real + red.delta.real)
    ld_p = logdet_pd(P_t)
    log_p1 = -ld_p - 0.5 * (logdet_pd(g_minus) + logdet_pd(g_plus))
    Z = blocks.C.imag
    log_p2 = -0.5 * (ld_p + logdet_pd(R_t + Z.T @ T_t_inv @ Z))
    if abs(log_p1 - log_p2) > _PURITY_AGREE_TOL:
        raise ConsistencyError(
            f"purity formulas disagree: {np.exp(log_p1):.12g} vs {np.exp(log_p2):.12g}")
    val = float(np.exp(log_p1))
    if val > 1.0 + 1e-8:
        raise ConsistencyError(f"purity {val:.12g} exceeds 1")
    return min(val, 1.0)


def det_bound(blocks: BlockPartition) -> float:
    """Determinant lower bound (1/2) ln det(P~ R~) in nats.

    Equals -ln purity exactly when Im C = 0 and never exceeds it; zero for an
    uncoupled cut.
    """
    if not blocks.C.any():
        return 0.0
    _, _, R_t, P_t = _tilde(blocks)
    return 0.5 * (logdet_pd(P_t) + logdet_pd(R_t))


def _symplectic_eigenvalues(cov: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a (2m x 2m) covariance in (x..., p...) ordering."""
    m = cov.shape[0] // 2
    omega = np.zeros((2 * m, 2 * m))
    omega[:m, m:] = np.eye(m)
    omega[m:, :m] = -np.eye(m)
    ev = np.linalg.eigvals(omega @ cov)
    # spectrum is +-(i nu_j); picking every second sorted |Im| keeps one per pair
    return np.sort(np.abs(ev.imag))[1::2]


def exact_entropy(A: np.ndarray, n: int) -> float:
    """Von Neumann entropy of the kept part from symplectic eigenvalues.

    Second moments of the pure Gaussian state: <xx> = (Re A)^{-1} / 2,
    <pp> = (Re A + Im A (Re A)^{-1} Im A) / 2, symmetrized <xp> =
    -(Re A)^{-1} Im A / 2. The full-state spectrum is checked to be 1/2
    (purity of the global state) before the kept modes are reduced.
    """
    A = np.asarray(A)
    N = A.shape[0]
    if not (0 < n < N):
        raise ValueError(f"cut size n={n} must satisfy 0 < n < N={N}")
    Are = A.real
    Aim = A.imag
    Are_inv = np.linalg.inv(Are)
    xx = 0.5 * Are_inv
    xp = -0.5 * Are_inv @ Aim
    pp = 0.5 * (Are + Aim @ Are_inv @ Aim)
    cov = np.block([[xx, xp], [xp.T, pp]])
    cov = 0.5 * (cov + cov.T)
    full = _symplectic_eigenvalues(cov)
    if np.abs(full - 0.5).max() > 1e-8:
        raise ConsistencyError(
            f"global state is not pure: max |nu - 1/2| = {np.abs(full - 0.5).max():.3g}")
    if not A[:n, n:].any():
        return 0.0
    keep = np.arange(n, N)
    idx = np.concatenate([keep, N + keep])
    sub = cov[np.ix_(idx, idx)]
    nu = _symplectic_eigenvalues(sub)
    if nu.min() < 0.5 - 1e-8:
        raise ConsistencyError(f"unphysical covariance: nu_min = {nu.min():.12g} < 1/2")
    nu = np.maximum(nu, 0.5)
    plus = nu + 0.5
    minus = nu - 0.5
    ent = plus * np.log(plus) - np.where(minus > 0.0, minus * np.log(np.where(minus > 0.0, minus, 1.0)), 0.0)
    return float(np.sum(ent))


def entropy_record(A: np.ndarray, n: int, t: float) -> EntropyRecord:
    """All three dense-side quantities for one time point, chain-ready."""
    blocks = partition(A, n)
    p = purity(blocks)
    return EntropyRecord(
        t=float(t),
        exact_entropy=exact_entropy(A, n),
        neg_log_purity=-float(np.log(p)) + 0.0,
        det_bound=det_bound(blocks),
        n=n, N=A.shape[0])


def _circulant_rows(a: np.ndarray) -> dict:
    """First rows of the circulants `symbol_record` cuts its blocks from.

    "A" is the state's row, symmetrised r_k <- (r_k + r_{N-k})/2 exactly as
    `densify` does, so its Toeplitz blocks are the dense blocks bit for bit.
    The others are inverse DFTs of symbols built from the equally symmetrised
    mode symbols ("symbols", with Lambda = Re a): "inv" of 1/a (A^{-1}),
    "inv_real" of 1/Lambda ((Re A)^{-1}), and "pp"/"xp" of |a|^2/(2 Lambda)
    and -Im a/(2 Lambda), the <pp> and <xp> second moments (<xx> is
    inv_real/2).
    """
    r = np.fft.ifft(a)
    a = 0.5 * (a + np.roll(a[::-1], 1))
    lam = a.real
    with np.errstate(divide="ignore", invalid="ignore"):
        return {
            "A": 0.5 * (r + np.roll(r[::-1], 1)),
            "symbols": a,
            "inv": np.fft.ifft(1.0 / a),
            "inv_real": np.fft.ifft(1.0 / lam).real,
            "pp": np.fft.ifft(np.abs(a) ** 2 / (2.0 * lam)).real,
            "xp": np.fft.ifft(-a.imag / (2.0 * lam)).real,
        }


def _cholesky(M: np.ndarray, what: str) -> np.ndarray:
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise ConsistencyError(f"{what} is not positive definite") from exc


def symbol_record(state: GaussianPureState, n: int) -> SymbolRecord:
    """The three dense-side columns for a cut of n, without densifying the state.

    The state is circulant, so every block the dense route (`partition`,
    `reduce`, `purity`, `exact_entropy`, `det_bound`) reads is a Toeplitz
    matrix cut from the first row of a circulant, and each such row is one
    inverse DFT of a symbol built from the mode symbols. Every check of the
    dense route is kept, with its exception and tolerance: the 1-norm
    condition estimate, positivity of the traced and kept real blocks,
    agreement of the moment and phase forms of the purity, purity of the
    global state, and nu_min >= 1/2 for the reduced state. The Schur residual
    |P~^{-1} - (R~ - C~^T T~^{-1} C~)| is returned for the caller to judge;
    P~ comes from the symbol 1/Lambda, so it checks that symbol's inverse
    against the Schur complement of the blocks of Re A. An exactly zero
    coupling block gives exactly zero columns, as on the dense route.

    The Williamson spectrum of the reduced covariance V = L L^T is the
    positive half of the eigenvalues of the Hermitian i L^T Omega L, taken on
    the smaller side of the cut.
    """
    a = np.asarray(state.mode_symbols, dtype=complex)
    N = a.shape[0]
    if not (0 < n < N):
        raise ValueError(f"cut size n={n} must satisfy 0 < n < N={N}")
    m = N - n
    rows = _circulant_rows(a)
    s = rows["A"]
    cond = float(np.abs(s).sum() * np.abs(rows["inv"]).sum())
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise IllConditionedError(
            f"matrix too ill-conditioned to partition (estimate {cond:.3g})",
            condition_estimate=cond)
    T_t = toeplitz(s.real[:n])
    R_t = toeplitz(s.real[:m])
    chol_t = _cholesky(T_t, "real part of the traced block")
    _cholesky(R_t, "real part of the kept block")

    # global purity, mode by mode: the DFT block-diagonalises the covariance
    # into the 2x2 blocks [[1, -Im a], [-Im a, |a|^2]] / (2 Lambda)
    sym = rows["symbols"]
    lam = sym.real
    if not (lam > 0.0).all():
        raise ConsistencyError("real part of the mode symbols is not positive")
    nu_modes = np.sqrt((np.abs(sym) ** 2 - sym.imag ** 2) / (4.0 * lam * lam))
    worst = float(np.abs(nu_modes - 0.5).max())
    if not worst <= 1e-8:
        raise ConsistencyError(f"global state is not pure: max |nu - 1/2| = {worst:.3g}")

    t = float(state.time)
    if not s[1:].any():
        return SymbolRecord(t=t, exact_entropy=0.0, neg_log_purity=0.0, det_bound=0.0,
                            identity_residual=0.0, condition_estimate=cond, n=n, N=N)

    # C = X + iZ; with Y = L_T^{-1} C, X^T T~^{-1} X = Yx^T Yx, likewise for Z
    Yx = solve_triangular(chol_t, toeplitz(s.real[n:0:-1], s.real[n:]), lower=True)
    Yz = solve_triangular(chol_t, toeplitz(s.imag[n:0:-1], s.imag[n:]), lower=True)
    schur = R_t - Yx.T @ Yx
    P_t = toeplitz(rows["inv_real"][:m])
    residual = float(np.linalg.norm(np.linalg.inv(P_t) - schur))

    # moment form: 2 Re(Gamma - Delta) = R~ - X^T T~^{-1} X and
    # 2 Re(Gamma + Delta) = R~ + Z^T T~^{-1} Z; the phase form uses the latter
    ld_p = logdet_pd(P_t)
    ld_plus = logdet_pd(R_t + Yz.T @ Yz)
    log_p1 = -ld_p - 0.5 * (logdet_pd(schur) + ld_plus)
    log_p2 = -0.5 * (ld_p + ld_plus)
    if abs(log_p1 - log_p2) > _PURITY_AGREE_TOL:
        raise ConsistencyError(
            f"purity formulas disagree: {np.exp(log_p1):.12g} vs {np.exp(log_p2):.12g}")
    p = float(np.exp(log_p1))
    if p > 1.0 + 1e-8:
        raise ConsistencyError(f"purity {p:.12g} exceeds 1")

    # a pure global state gives both sides of the cut the same nu != 1/2, so
    # the spectrum is read from the covariance of the smaller side
    k = min(n, m)
    xp = toeplitz(rows["xp"][:k])
    cov = np.block([[toeplitz(0.5 * rows["inv_real"][:k]), xp],
                    [xp, toeplitz(rows["pp"][:k])]])
    L = _cholesky(cov, "reduced covariance")
    nu = np.linalg.eigvalsh(1j * (L.T @ np.vstack([L[k:], -L[:k]])))[k:]
    if nu.min() < 0.5 - 1e-8:
        raise ConsistencyError(f"unphysical covariance: nu_min = {nu.min():.12g} < 1/2")
    nu = np.maximum(nu, 0.5)
    return SymbolRecord(
        t=t, exact_entropy=float(np.sum(xlogy(nu + 0.5, nu + 0.5) - xlogy(nu - 0.5, nu - 0.5))),
        neg_log_purity=-float(np.log(min(p, 1.0))) + 0.0,
        det_bound=0.5 * (ld_p + logdet_pd(R_t)),
        identity_residual=residual, condition_estimate=cond, n=n, N=N)
