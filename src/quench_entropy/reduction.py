"""Dense-matrix side: block partition, reduced state, purity, entropy, bounds.

The evolved state's matrix A(t) is materialized as a dense complex symmetric
circulant, cut into blocks for n traced-out oscillators against N-n kept ones,
and turned into the quantities the bound chain needs:

    exact entropy  >=  -ln tr rho^2  >=  (1/2) ln det(P~ R~)

where a tilde always means "block of the real part": T~, R~, C~ are blocks of
Re A and P~ is the corresponding block of (Re A)^{-1}. All determinants are
computed as Cholesky log-determinants; explicit determinants of these matrices
overflow double precision long before the sizes of interest. Every Williamson
spectrum is read from singular values: of K = L^T Omega L for a covariance
with Cholesky factor L (`_williamson`), or of the light-cone windows' cross
covariance (`_window_spectrum`).

A product state short-circuits to the analytic answers (purity 1, every
bound 0). That is an identity, not an approximation, and it keeps genuinely
uncoupled configurations exactly clean. The dense functions recognise it by an
exactly zero coupling block of the matrix they are given, `symbol_record` by
equal mode symbols, at every N.

`entropy_record` gathers the three columns of the dense route into a
`SymbolRecord`. `symbol_record` returns the same record without any N x N
matrix, from the smaller side of the cut alone (Peschel's correlation-matrix
route): the global state is pure, so every column is a function of the reduced
covariance of either side, and each block of that side is a Toeplitz matrix of
a symbol built from the mode amplitudes. The pipeline and `verify` use it; the
dense functions stay as its reference implementation, used by the tests and
`verify`.

The smaller side is an interval and every symbol is even, so each block of
that side, the symmetric Toeplitz matrix B[i, j] = r[|i - j|] of a circulant
row r, commutes with the reflection J of the interval: J B J = B. In the
orthonormal basis (e_i +- e_{k-1-i})/sqrt(2) (the middle index of an odd size
counts as even) every block is then the direct sum of an even and an odd
sector, and `symbol_record` runs its linear algebra once per sector at half
the size. The basis change is orthogonal and acts on x and p alike, so it is
also symplectic: positivity, log-determinants and the Williamson spectrum all
split over the two sectors. `_sectors` reads each sector straight from the
row, r[|i - j|] +- r[k - 1 - i - j], for the whole side and for the
light-cone windows alike, so no k x k block is ever built; `_covariances`
assembles the covariance of each sector from those of the rows.

Correlations across the cut vanish, to rounding, outside a light cone of
width w (Lieb-Robinson bounds for harmonic lattices), so at most 2w of a
side's Williamson values differ from 1/2. When the cone is narrow against the
side, `symbol_record` takes them from the covariance between the w sites
beside each cut point on either side of it (`_window_spectrum`, O(w^3)),
where each nu^2 - 1/4 is a squared singular value, so nu >= 1/2 exactly. It
keeps them only when they pass the same checks against the whole side's
covariance that `_williamson`'s values must pass; otherwise `_williamson`
runs on the whole side.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import ConsistencyError, IllConditionedError
from .evolution import GaussianPureState
from .spectral import CirculantMatrix

_COND_LIMIT = 1e12
_PURITY_AGREE_TOL = 1e-9
_SQRT_HALF = np.sqrt(0.5)
_LN2 = float(np.log(2.0))
_EPS = float(np.finfo(float).eps)
# a row's bound chain exact >= -ln purity >= det bound holds to this slack, and
# its block-row identity residual stays below _RESIDUAL_TOL
_CHAIN_TOL = 1e-8
_RESIDUAL_TOL = 1e-9
# a correlation row's entries below this many eps |r|_2 are its FFT's rounding
# (measured rounding tails reach about 4 eps |r|_2)
_FLOOR_FACTOR = 16.0


@dataclasses.dataclass(frozen=True)
class BlockPartition:
    """Blocks of A (T, C, R) for a cut of n oscillators, P_tilde, the kept
    block of (Re A)^{-1}, and the 1-norm condition estimate of A.

    Layout: the first n rows/columns are the traced-out part, so

        A = [[T, C], [C^T, R]].
    """

    T: np.ndarray
    C: np.ndarray
    R: np.ndarray
    P_tilde: np.ndarray
    n: int
    condition_estimate: float


@dataclasses.dataclass(frozen=True)
class ReducedGaussianState:
    """Parameters of the reduced density operator plus the recorded identity residual."""

    gamma: np.ndarray
    delta: np.ndarray
    identity_residual: float


@dataclasses.dataclass(frozen=True)
class SymbolRecord:
    """Dense-side columns of one time point, with the checks' recorded figures.

    `symbol_record` records its block-row residual, `entropy_record` the
    Schur-complement residual of `reduce`.
    """

    t: float
    exact_entropy: float
    neg_log_purity: float
    det_bound: float
    identity_residual: float
    condition_estimate: float
    n: int
    N: int


def densify(state: GaussianPureState) -> np.ndarray:
    """Dense complex symmetric circulant with the state's mode spectrum.

    The first row is the inverse DFT of the mode symbols. For an exactly
    constant symbol vector and a power-of-two N the result is exactly diagonal
    (the FFT butterflies cancel exactly), so the dense functions' zero-coupling
    shortcuts fire; at other sizes, N = 17 say, the off-diagonal entries are
    at rounding level instead.
    """
    syms = np.asarray(state.mode_symbols, dtype=complex)
    row = np.fft.ifft(syms)
    dense = CirculantMatrix(row, row.size).to_dense()
    dense += dense.T
    dense *= 0.5
    return dense


def _check_cut(n: int, N: int) -> None:
    if not (0 < n < N):
        raise ValueError(f"cut size n={n} must satisfy 0 < n < N={N}")


def _check_condition(cond: float) -> None:
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise IllConditionedError(
            f"matrix too ill-conditioned to partition (estimate {cond:.3g})",
            condition_estimate=cond)


def _check_purity_forms(log_p1: float, log_p2: float) -> None:
    """Two routes to ln tr rho^2 must agree within _PURITY_AGREE_TOL."""
    if abs(log_p1 - log_p2) > _PURITY_AGREE_TOL:
        raise ConsistencyError(
            f"purity formulas disagree: {np.exp(log_p1):.12g} vs {np.exp(log_p2):.12g}")


def _check_nu_min(nu: np.ndarray) -> None:
    """A Williamson spectrum may not fall below 1/2 by more than rounding."""
    if nu.min() < 0.5 - 1e-8:
        raise ConsistencyError(f"unphysical covariance: nu_min = {nu.min():.12g} < 1/2")


def _cholesky(M: np.ndarray, message: str) -> np.ndarray:
    """Cholesky factor of M, or ConsistencyError(message) when M is not positive definite."""
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise ConsistencyError(message) from exc


def logdet_pd(M: np.ndarray) -> float:
    """log det of a real symmetric positive definite matrix via Cholesky."""
    chol = _cholesky(0.5 * (M + M.T), "matrix expected positive definite is not")
    return 2.0 * float(np.sum(np.log(np.diag(chol))))


def partition(A: np.ndarray, n: int) -> BlockPartition:
    """Cut A and the inverse of Re A into blocks at index n; A's inverse gives
    the condition estimate."""
    A = np.asarray(A)
    N = A.shape[0]
    if A.ndim != 2 or A.shape[1] != N:
        raise ValueError("partition needs a square matrix")
    _check_cut(n, N)
    cond = float(np.linalg.norm(A, 1) * np.linalg.norm(np.linalg.inv(A), 1))
    _check_condition(cond)
    # positivity of the real-part blocks is what every downstream formula needs
    for blk, name in ((A[:n, :n], "traced block"), (A[n:, n:], "kept block")):
        _cholesky(0.5 * (blk.real + blk.real.T),
                  f"real part of the {name} is not positive definite")
    T, C, R = A[:n, :n], A[:n, n:], A[n:, n:]
    full_real = np.block([[T.real, C.real], [C.real.T, R.real]])
    return BlockPartition(T=T, C=C, R=R, P_tilde=np.linalg.inv(full_real)[n:, n:],
                          n=n, condition_estimate=cond)


def reduce(blocks: BlockPartition) -> ReducedGaussianState:
    """Reduced-state parameters Gamma, Delta and the identity residual.

    Gamma = R/2 - C^T T~^{-1} C / 4 and Delta = C^T T~^{-1} C^* / 4. The
    Schur-complement identity P~^{-1} = R~ - C~^T T~^{-1} C~ is evaluated
    against the directly inverted real part and its residual is recorded,
    never assumed.
    """
    C = blocks.C
    if not C.any():
        m = blocks.R.shape[0]
        return ReducedGaussianState(gamma=blocks.R / 2.0, delta=np.zeros((m, m), dtype=complex),
                                    identity_residual=0.0)
    T_t_inv = np.linalg.inv(blocks.T.real)
    gamma = blocks.R / 2.0 - C.T @ T_t_inv @ C / 4.0
    delta = C.T @ T_t_inv @ C.conj() / 4.0
    schur = blocks.R.real - C.real.T @ T_t_inv @ C.real
    residual = float(np.linalg.norm(np.linalg.inv(blocks.P_tilde) - schur))
    return ReducedGaussianState(gamma=gamma, delta=delta, identity_residual=residual)


def purity(blocks: BlockPartition) -> float:
    """tr rho^2 of the kept part, computed twice and cross-checked.

    Route 1 (moment form): det(P~^{-1}) / sqrt(det[2(G~ - D~)] det[2(G~ + D~)])
    with G~, D~ the real parts of Gamma, Delta. Route 2 (phase form):
    [det(P~ (R~ + Z^T T~^{-1} Z))]^{-1/2} with Z = Im C. Disagreement beyond
    1e-9 raises; both equal 1 exactly for an uncoupled cut.
    """
    if not blocks.C.any():
        return 1.0
    T_t_inv = np.linalg.inv(blocks.T.real)
    red = reduce(blocks)
    g_minus = 2.0 * (red.gamma.real - red.delta.real)
    g_plus = 2.0 * (red.gamma.real + red.delta.real)
    ld_p = logdet_pd(blocks.P_tilde)
    log_p1 = -ld_p - 0.5 * (logdet_pd(g_minus) + logdet_pd(g_plus))
    Z = blocks.C.imag
    _check_purity_forms(log_p1, -0.5 * (ld_p + logdet_pd(blocks.R.real + Z.T @ T_t_inv @ Z)))
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
    return 0.5 * (logdet_pd(blocks.P_tilde) + logdet_pd(blocks.R.real))


def _williamson(L: np.ndarray) -> np.ndarray:
    """Williamson spectrum, ascending, of the covariance V = L L^T (2h x 2h, x-then-p).

    K = L^T Omega L is real antisymmetric with the eigenvalues +-i nu_j of
    Omega V, so its singular values are the nu_j, each twice. An SVD gives
    each nu_j within about eps nu_max, the small end of a wide spectrum
    included."""
    h = L.shape[0] // 2
    sv = np.linalg.svd(L.T @ np.vstack([L[h:], -L[:h]]), compute_uv=False)
    return sv[::-1][1::2]


def _kept_covariance(A: np.ndarray, n: int) -> np.ndarray:
    """Covariance, in (x..., p...) ordering, of the kept sites n..N-1 of the pure
    Gaussian state with matrix A, whose Re A is checked by a Cholesky
    (ConsistencyError).

    Second moments: <xx> = (Re A)^{-1} / 2, <pp> = (Re A + Im A (Re A)^{-1}
    Im A) / 2, symmetrized <xp> = -(Re A)^{-1} Im A / 2. Only the kept rows and
    columns are built, as products with S = (Re A)^{-1} Im A[:, keep].
    """
    Are, Aim = A.real, A.imag
    _cholesky(Are, "covariance of the global state is not positive definite")
    Are_inv = np.linalg.inv(Are)
    Z = Aim[:, n:]
    S = Are_inv @ Z
    xp = -0.5 * S[n:]
    cov = np.block([[0.5 * Are_inv[n:, n:], xp], [xp.T, 0.5 * (Are[n:, n:] + Z.T @ S)]])
    return 0.5 * (cov + cov.T)


def exact_entropy(A: np.ndarray, n: int) -> float:
    """Von Neumann entropy of the kept part from the symplectic eigenvalues of
    `_kept_covariance(A, n)`, a block of M diag((Re A)^{-1}, Re A) M^T / 2 with
    the shear M = [[I, 0], [-Im A, I]]: the global state is pure by construction
    and positive definite exactly when Re A is, so only Re A is checked, by a
    Cholesky (ConsistencyError)."""
    A = np.asarray(A)
    N = A.shape[0]
    _check_cut(n, N)
    cov = _kept_covariance(A, n)
    if not A[:n, n:].any():
        return 0.0
    nu = _williamson(_cholesky(cov, "reduced covariance is not positive definite"))
    _check_nu_min(nu)
    return _entropy_sum(nu)


def _entropy_sum(nu: np.ndarray) -> float:
    """sum (nu + 1/2) ln(nu + 1/2) - (nu - 1/2) ln(nu - 1/2), with 0 ln 0 = 0,
    over nu clamped to nu >= 1/2."""
    nu = np.maximum(nu, 0.5)
    plus = nu + 0.5
    minus = nu - 0.5
    ent = plus * np.log(plus) - np.where(minus > 0.0, minus * np.log(np.where(minus > 0.0, minus, 1.0)), 0.0)
    return float(np.sum(ent))


def entropy_record(A: np.ndarray, n: int, t: float) -> SymbolRecord:
    """The three dense-side columns for one time point from the dense matrix A,
    with `reduce`'s Schur residual and `partition`'s condition estimate: the
    reference for `symbol_record`."""
    blocks = partition(A, n)
    return SymbolRecord(
        t=float(t), exact_entropy=exact_entropy(A, n),
        neg_log_purity=-float(np.log(purity(blocks))) + 0.0,
        det_bound=det_bound(blocks), identity_residual=reduce(blocks).identity_residual,
        condition_estimate=blocks.condition_estimate, n=n, N=A.shape[0])


def _symmetrised(r: np.ndarray) -> np.ndarray:
    """r_k <- (r_k + r_{N-k}) / 2: the row of an exactly symmetric circulant."""
    return 0.5 * (r + np.roll(r[::-1], 1))


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
    a = _symmetrised(a)
    lam = a.real
    with np.errstate(divide="ignore", invalid="ignore"):
        return {
            "A": _symmetrised(r),
            "symbols": a,
            "inv": np.fft.ifft(1.0 / a),
            "inv_real": np.fft.ifft(1.0 / lam).real,
            "pp": np.fft.ifft(np.abs(a) ** 2 / (2.0 * lam)).real,
            "xp": np.fft.ifft(-a.imag / (2.0 * lam)).real,
        }


def _sectors(r: np.ndarray, size: int, w: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Even and odd reflection sectors of the block r[|i - j|] of a side of
    `size` sites, or their leading w x w blocks, which hold the w sites
    beside each end of the side.

    They are the two diagonal blocks of Q B Q^T, with Q the basis
    (e_i +- e_{size-1-i})/sqrt(2); its off-diagonal blocks vanish, so they
    are read from the row as r[|i - j|] +- r[size - 1 - i - j], copies and
    one sum each, without building B or a product with Q.
    """
    h = size // 2
    i = np.arange(size - h if w is None else w)
    near, far = r[np.abs(i[:, None] - i)], r[size - 1 - i[:, None] - i]
    even = near + far
    # an odd size's middle row or column carries weight 1, not 1/sqrt(2)
    even[h:, :h] *= _SQRT_HALF
    even[:h, h:] *= _SQRT_HALF
    even[h:, h:] *= 0.5
    return even, (near - far)[:h, :h]


def _covariances(rows: dict, size: int, w: int | None = None) -> list[np.ndarray]:
    """Per reflection sector, even then odd, the covariance [[xx, xp], [xp, pp]]
    of a side of `size` sites (xx = inv_real / 2), or of its w sites beside
    each end, as `_sectors` cuts them."""
    xx, xp, pp = (_sectors(r, size, w) for r in (0.5 * rows["inv_real"], rows["xp"], rows["pp"]))
    return [np.block([[x, c], [c, p]]) for x, c, p in zip(xx, xp, pp)]


def _window_width(rows: dict) -> int:
    """Light-cone width w of the correlation rows <xx> = inv_real/2, <xp> and <pp>.

    A lag counts as inside the cone while some row's entry there exceeds that
    row's rounding floor, _FLOOR_FACTOR eps |r|_2: an inverse DFT of N samples
    of a symbol f errs by about eps rms(f) = eps |r|_2 (Parseval) in every
    entry. Each row is measured against its own norm, so the rule is
    unchanged by a local squeezing x -> x/s, p -> s p. Rows are even, so the
    lags 0..N/2 hold every entry.
    """
    half = rows["pp"].size // 2 + 1
    width = 0
    for r in (rows["inv_real"], rows["xp"], rows["pp"]):
        above = np.flatnonzero(np.abs(r[:half]) > _FLOOR_FACTOR * _EPS * np.linalg.norm(r))
        if above.size:
            width = max(width, int(above[-1]) + 1)
    return width


def _window_spectrum(rows: dict, k: int) -> np.ndarray | None:
    """Williamson values of a side A of k sites from the w sites beside each
    cut point, w = `_window_width(rows)`; None when 4w >= k, where the windows
    of the two cut points do not lie well apart.

    The global state is pure, so its covariance [[V, G], [G^T, W]] (G the
    cross covariance Gamma_AB) has V Omega G = -G Omega W, and with
    L_V L_V^T = V, L_W L_W^T = W the products M = L_V^{-1} G Omega L_W give
    M M^T = K^T K - I/4, K = L_V^T Omega L_V: every nu^2 - 1/4 is a squared
    singular value of M, twice. Past the cone G is zero to rounding, so only
    its block between the w sites of A and of B beside each cut point is
    kept, with the covariances V_s, W_s of those windows. In the reflection
    sectors, s = +1 (even) or -1 (odd), with i, j < w and for each row r,

        G_s[i, j] = r[i + j + 1] + s r[k + j - i],
        V_s[i, j] = r[|i - j|] + s r[k - 1 - i - j],
        W_s[i, j] = r[|i - j|] + s r[N - k - 1 - i - j],

    in (x, p) blocks (k + w < N, so no lag wraps); V_s and W_s are the
    leading w x w blocks of the sectors of A and of B, from `_covariances`. So
    nu = sqrt(1/4 + sigma^2) >= 1/2 for the singular values sigma of
    L_V^{-1} G_s Omega L_W; the other k - 2w values are 1/2. The caller
    cross-checks the result against the whole side's covariance.
    """
    w = _window_width(rows)
    if 4 * w >= k:
        return None
    x, xp, pp = 0.5 * rows["inv_real"], rows["xp"], rows["pp"]
    try:  # A's window sectors, then B's
        factors = [[np.linalg.cholesky(V) for V in _covariances(rows, size, w)]
                   for size in (k, x.size - k)]
    except np.linalg.LinAlgError:
        return None
    i = np.arange(w)
    near, far = i[:, None] + i + 1, k + i - i[:, None]
    nu = []
    for s, L_v, L_w in zip((1.0, -1.0), *factors):
        gx, gc, gp = (r[near] + s * r[far] for r in (x, xp, pp))
        M = np.linalg.solve(L_v, np.block([[-gc, gx], [-gp, gc]]) @ L_w)
        sigma = np.linalg.svd(M, compute_uv=False)[::-1][1::2]
        nu.append(np.sqrt(0.25 + sigma * sigma))
    return np.concatenate(nu)


def _check_spectrum(nu: np.ndarray, k: int, ld_v: float) -> None:
    """nu_min >= 1/2, and sum ln 2 nu against (1/2) ln det 2V = k ln 2 + ld_v / 2,
    ld_v = ln det V of the k-site side (ConsistencyError)."""
    _check_nu_min(nu)
    _check_purity_forms(-float(np.sum(np.log(2.0 * nu))), -k * _LN2 - 0.5 * ld_v)


def symbol_record(state: GaussianPureState, n: int) -> SymbolRecord:
    """The three dense-side columns for a cut of n, from the smaller side alone.

    Every block the dense route reads is a Toeplitz matrix cut from the row of
    a circulant, one inverse DFT of a symbol built from the mode symbols. Only
    the smaller side's blocks, of k = min(n, N - n) sites, are read: R~_k of
    Re A, P~_k of (Re A)^{-1} and the reduced covariance V, with blocks
    xx = P~_k / 2, xp and pp. With nu the Williamson spectrum of V,

        exact_entropy = sum s(nu),   neg_log_purity = sum ln 2 nu,
        det_bound = (1/2) (ln det 2 V_xx + ln det R~_k),

    the last equal to the kept side's (1/2) ln det(P~ R~) by Jacobi's identity.
    Checks, with the dense route's exceptions: the 1-norm condition estimate,
    Lambda > 0, positivity of R~_k and V, sum ln 2 nu against (1/2) ln det 2V
    from V's Cholesky factor (_PURITY_AGREE_TOL) and nu_min >= 1/2. The
    block-row residual |(Re A (Re A)^{-1} - I)[:k, :k]|_F, from one circular
    convolution of the two rows, checks the symbol 1/Lambda against Re A and
    is returned for the caller to judge. Equal mode symbols, a product state,
    give exactly zero columns at every N. The sectors of R~_k and of V
    are read from the rows (`_sectors`, `_covariances`; module docstring),
    and every factorisation and the Williamson spectrum are taken per sector
    and combined.

    nu comes from the singular values of the light-cone windows' cross
    covariance (`_window_spectrum`) when they fit and their values pass the
    nu_min and purity-forms checks against V's Cholesky factor, a
    cross-check of the truncation on every row. Otherwise, or when the
    windows do not fit, it is `_williamson`, an SVD, of the sector factors,
    held to the same two checks, which then raise.
    """
    a = np.asarray(state.mode_symbols, dtype=complex)
    N = a.shape[0]
    _check_cut(n, N)
    rows = _circulant_rows(a)
    s = rows["A"]
    cond = float(np.abs(s).sum() * np.abs(rows["inv"]).sum())
    _check_condition(cond)
    if not (rows["symbols"].real > 0.0).all():
        raise ConsistencyError("real part of the mode symbols is not positive")

    t = float(state.time)
    if (rows["symbols"] == rows["symbols"][0]).all():
        return SymbolRecord(t=t, exact_entropy=0.0, neg_log_purity=0.0, det_bound=0.0,
                            identity_residual=0.0, condition_estimate=cond, n=n, N=N)

    k = min(n, N - n)
    re, p = s.real, rows["inv_real"]
    # Re A (Re A)^{-1} - I is the circulant with row d; its k x k block holds
    # d_m (d[-m] = d_{N-m}) k - |m| times
    d = np.fft.irfft(np.fft.rfft(re) * np.fft.rfft(p), N)
    d[0] -= 1.0
    lag = np.arange(1 - k, k)
    residual = float(np.sqrt(np.sum((k - np.abs(lag)) * d[lag] ** 2)))
    factors = []
    ld_r = ld_xx = ld_v = 0.0
    for R, V in zip(_sectors(re, k), _covariances(rows, k)):
        L_r = _cholesky(R, "real part of the smaller side's block is not positive definite")
        ld_r += 2.0 * float(np.sum(np.log(np.diag(L_r))))
        L = _cholesky(V, "reduced covariance is not positive definite")
        # the leading block of L is the Cholesky factor of V_xx
        log_diag = np.log(np.diag(L))
        ld_xx += 2.0 * float(np.sum(log_diag[:R.shape[0]]))
        ld_v += 2.0 * float(np.sum(log_diag))
        factors.append(L)

    nu = _window_spectrum(rows, k)
    if nu is not None:
        try:
            _check_spectrum(nu, k, ld_v)
        except ConsistencyError:
            nu = None  # the window values fail the whole side's checks
    if nu is None:
        nu = np.concatenate([_williamson(L) for L in factors])
        _check_spectrum(nu, k, ld_v)
    log_2nu = np.log(2.0 * nu)
    return SymbolRecord(
        t=t, exact_entropy=_entropy_sum(nu),
        neg_log_purity=float(np.sum(np.maximum(log_2nu, 0.0))),
        det_bound=0.5 * (k * _LN2 + ld_xx + ld_r),
        identity_residual=residual, condition_estimate=cond, n=n, N=N)
