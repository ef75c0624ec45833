"""Dense reduction layer: partition, reduced state, purity, entropy, bound chain.

The randomized checks draw small gapped instances with a fixed seed; the frozen
values were produced by this code once and pinned, then cross-checked against
the independent routes exercised in the verification suites (ODE oracle,
symplectic purity, Parseval identity). `symbol_record`, the Toeplitz-block
route the pipeline uses, is cross-checked against the dense-matrix functions,
which stay as its reference implementation.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quench_entropy import (CirculantMatrix, ConsistencyError, EvolutionSetup,
                            GaussianPureState, IllConditionedError, QuenchEntropyError,
                            SymbolRecord, TrigPolynomial, densify, det_bound,
                            entropy_record, evolve, exact_entropy, gap_family,
                            partition, purity, reduce, symbol_record)
from quench_entropy import reduction
from quench_entropy.reduction import logdet_pd

LAM15 = gap_family(1.5)
FLAT = TrigPolynomial([1.0])


def _dense_state(lam, beta, N, t):
    return densify(evolve(EvolutionSetup(lam, beta, N), t))


def _random_instance(rng, sizes=(16, 32)):
    while True:
        deg = int(rng.integers(0, 4))
        coeffs = np.zeros(deg + 1)
        coeffs[0] = rng.uniform(0.5, 3.0)
        if deg:
            coeffs[1:] = rng.uniform(-0.4, 0.4, deg) * coeffs[0] / deg
        lam = TrigPolynomial(coeffs)
        vals = lam(np.linspace(0, 2 * np.pi, 512, endpoint=False))
        if vals.min() > 0.05:
            break
    while True:
        degb = int(rng.integers(0, 3))
        bco = np.zeros(degb + 1)
        bco[0] = rng.uniform(0.5, 2.0)
        if degb:
            bco[1:] = rng.uniform(-0.3, 0.3, degb)
        beta = TrigPolynomial(bco)
        if beta(np.linspace(0, 2 * np.pi, 512, endpoint=False)).min() > 0.05:
            break
    N = int(rng.choice(sizes))
    t = float(rng.uniform(0.0, 10.0))
    return lam, beta, N, t


def _toeplitz(col):
    """Symmetric Toeplitz matrix with first column col, entries copied: the
    library's earlier block builder, kept as an oracle."""
    # row i of the result is the window vals[col.size - 1 - i:][:col.size]
    vals = np.concatenate((col[::-1], col[1:]))
    return np.lib.stride_tricks.sliding_window_view(vals, col.size)[::-1].copy()


def _fold(B):
    """Even and odd reflection sectors of a block B with J_r B J_c = B, the
    library's earlier fold, kept as an oracle.

    They are the two diagonal blocks of Q_r B Q_c^T, with Q the basis
    (e_i +- e_{k-1-i})/sqrt(2); its off-diagonal blocks vanish, so they are
    read as sums and differences of B's entries, without a product with Q.
    """
    r, c = B.shape
    flip = B[:, ::-1]
    even = B[:(r + 1) // 2, :(c + 1) // 2] + flip[:(r + 1) // 2, :(c + 1) // 2]
    # an odd size's middle row or column carries weight 1, not 1/sqrt(2)
    even[r // 2:, :c // 2] *= np.sqrt(0.5)
    even[:r // 2, c // 2:] *= np.sqrt(0.5)
    even[r // 2:, c // 2:] *= 0.5
    return even, B[:r // 2, :c // 2] - flip[:r // 2, :c // 2]


# ---------------------------------------------------------------------------
# densify
# ---------------------------------------------------------------------------

def test_densify_constant_symbols_exactly_diagonal():
    state = evolve(EvolutionSetup(TrigPolynomial([2.25]), FLAT, 16), 1.3)
    dense = _dense_state(TrigPolynomial([2.25]), FLAT, 16, 1.3)
    off = dense - np.diag(np.diag(dense))
    assert np.abs(off).max() == 0.0
    assert np.abs(np.diag(dense) - state.mode_symbols[0]).max() < 1e-15


def test_densify_matches_circulant_at_time_zero():
    from quench_entropy import build_circulant
    beta = TrigPolynomial([2.0, -1.0])
    dense = _dense_state(LAM15, beta, 16, 0.0)
    ref = build_circulant(beta, 16).to_dense()
    assert np.abs(dense.imag).max() < 1e-15
    assert np.abs(dense.real - ref).max() < 1e-14


def test_densify_matches_scipy_circulant():
    linalg = pytest.importorskip("scipy.linalg")
    state = evolve(EvolutionSetup(LAM15, TrigPolynomial([1.05, 0.05]), 24), 2.5)
    row = np.fft.ifft(np.asarray(state.mode_symbols, dtype=complex))
    ref = linalg.circulant(row).T
    assert np.array_equal(densify(state), 0.5 * (ref + ref.T))


@pytest.mark.parametrize("N", [16, 17, 64])
def test_densify_in_place_symmetrisation_is_bit_identical(N):
    # densify halves dense + dense.T in place; the result must equal the
    # out-of-place 0.5 * (d + d.T) bit for bit and be exactly symmetric
    def out_of_place(symbols):
        d = CirculantMatrix(np.fft.ifft(symbols), N).to_dense()
        return 0.5 * (d + d.T)

    state = evolve(EvolutionSetup(LAM15, TrigPolynomial([1.05, 0.05, -0.02]), N), 3.3)
    dense = densify(state)
    assert np.array_equal(dense, out_of_place(np.asarray(state.mode_symbols, dtype=complex)))
    assert np.array_equal(dense, dense.T)
    symbols = np.full(N, 2.0 - 0.5j)
    constant = densify(GaussianPureState(mode_symbols=symbols, size=N, time=0.0))
    assert np.array_equal(constant, out_of_place(symbols))
    off = constant - np.diag(np.diag(constant))
    if N & (N - 1) == 0:
        # a power-of-two FFT cancels exactly: the matrix is exactly diagonal
        assert np.abs(off).max() == 0.0
    else:
        # at N = 17 the FFT leaves rounding-level off-diagonal entries
        assert 0.0 < np.abs(off).max() < 1e-15


def test_toeplitz_matches_scipy():
    # the oracle fold's square symmetric blocks
    linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(43)
    for n in (1, 2, 5, 8):
        col = rng.normal(size=n)
        assert np.array_equal(_toeplitz(col), linalg.toeplitz(col))


@pytest.mark.parametrize("N", [2, 9, 13, 14, 21])
def test_block_row_residual_matches_dense_oracle(N, monkeypatch):
    # symbol_record's residual from one circular convolution against the
    # k x k block of the dense product of the two circulants; (Re A)^{-1}'s
    # row gets a positive definite circulant added, so the residual is far
    # above rounding and reaches every lag of the block
    theta = 2.0 * np.pi * np.arange(N) / N
    bump = np.fft.ifft(1.0 + 0.5 * np.cos(theta) + 0.3 * np.cos(2.0 * theta)).real
    real_rows = reduction._circulant_rows
    seen = {}

    def perturbed(a):
        rows = seen["rows"] = real_rows(a)
        rows["inv_real"] = rows["inv_real"] + 1e-3 * bump
        return rows

    monkeypatch.setattr(reduction, "_circulant_rows", perturbed)
    state = evolve(EvolutionSetup(LAM15, TrigPolynomial([1.0, 0.1, -0.05]), N), 3.7)
    lag = (np.arange(N) - np.arange(N)[:, None]) % N
    for n in sorted({1, N // 2, N - 1}):
        rec = symbol_record(state, n)
        k = min(n, N - n)
        product = seen["rows"]["A"].real[lag] @ seen["rows"]["inv_real"][lag]
        want = np.linalg.norm(product[:k, :k] - np.eye(k))
        assert want > 1e-4
        assert abs(rec.identity_residual - want) <= 1e-10 * want, (N, n)


def test_densify_preserves_mode_spectrum():
    dense = _dense_state(LAM15, FLAT, 32, 2.0)
    state = evolve(EvolutionSetup(LAM15, FLAT, 32), 2.0)
    recovered = np.fft.fft(dense[0])
    assert np.abs(np.sort(recovered.real) - np.sort(state.mode_symbols.real)).max() < 1e-13


# ---------------------------------------------------------------------------
# logdet / partition
# ---------------------------------------------------------------------------

def test_logdet_matches_slogdet():
    rng = np.random.default_rng(31)
    for m in (3, 8, 20):
        Q = np.linalg.qr(rng.normal(size=(m, m)))[0]
        M = Q @ np.diag(rng.uniform(0.1, 5.0, m)) @ Q.T
        sign, ref = np.linalg.slogdet(M)
        assert sign > 0
        assert abs(logdet_pd(M) - ref) < 1e-10


def test_logdet_rejects_indefinite():
    with pytest.raises(ConsistencyError):
        logdet_pd(np.diag([1.0, -1.0]))


def test_partition_two_by_two_analytic():
    a, c, r = 2.0, 0.3, 1.5
    A = np.array([[a, c], [c, r]])
    blocks = partition(A, 1)
    det = a * r - c * c
    assert blocks.T[0, 0] == a and blocks.R[0, 0] == r and blocks.C[0, 0] == c
    # A is real, so P~ is the kept block of A^{-1}
    assert abs(blocks.P_tilde[0, 0] - a / det) < 1e-14
    assert blocks.n == 1


def test_partition_blocks_reassemble():
    dense = _dense_state(LAM15, FLAT, 16, 1.0)
    blocks = partition(dense, 5)
    rebuilt = np.block([[blocks.T, blocks.C], [blocks.C.T, blocks.R]])
    assert np.array_equal(rebuilt, dense)
    assert blocks.condition_estimate >= 1.0


def test_partition_rejects_bad_cut():
    dense = _dense_state(LAM15, FLAT, 8, 1.0)
    for n in (0, 8, -1):
        with pytest.raises(ValueError):
            partition(dense, n)
    with pytest.raises(ValueError):
        partition(np.ones((3, 4)), 1)


def test_partition_flags_ill_conditioned():
    with pytest.raises(IllConditionedError) as exc_info:
        partition(np.diag([1.0, 1e-15]), 1)
    assert exc_info.value.condition_estimate > 1e12


# ---------------------------------------------------------------------------
# reduce / purity / det bound
# ---------------------------------------------------------------------------

def test_reduce_uncoupled_shortcut():
    dense = _dense_state(TrigPolynomial([2.25]), FLAT, 8, 1.0)
    blocks = partition(dense, 4)
    red = reduce(blocks)
    assert np.abs(red.delta).max() == 0.0
    assert red.identity_residual == 0.0
    assert np.array_equal(red.gamma, blocks.R / 2.0)


def test_reduce_schur_residual_small():
    dense = _dense_state(LAM15, FLAT, 8, 1.0)
    red = reduce(partition(dense, 4))
    assert red.identity_residual < 1e-9


def test_purity_uncoupled_is_exactly_one():
    dense = _dense_state(TrigPolynomial([2.25]), FLAT, 8, 2.0)
    assert purity(partition(dense, 4)) == 1.0


def test_purity_frozen_value():
    dense = _dense_state(LAM15, FLAT, 16, 2.0)
    assert abs(purity(partition(dense, 8)) - 0.4880387108870685) < 1e-12


def test_purity_saturates_det_bound_when_real():
    # at t = 0 the state matrix is real, so the determinant bound is tight
    beta = TrigPolynomial([2.0, -1.0])
    blocks = partition(_dense_state(LAM15, beta, 16, 0.0), 8)
    assert abs(det_bound(blocks) + math.log(purity(blocks))) < 1e-12


def test_purity_in_unit_interval():
    rng = np.random.default_rng(32)
    for _ in range(15):
        lam, beta, N, t = _random_instance(rng)
        p = purity(partition(_dense_state(lam, beta, N, t), N // 2))
        assert 0.0 < p <= 1.0


def test_det_bound_zero_when_uncoupled():
    dense = _dense_state(TrigPolynomial([2.25]), FLAT, 8, 1.5)
    assert det_bound(partition(dense, 4)) == 0.0


# ---------------------------------------------------------------------------
# exact entropy and the bound chain
# ---------------------------------------------------------------------------

def test_exact_entropy_uncoupled_zero():
    dense = _dense_state(TrigPolynomial([2.25]), FLAT, 8, 3.0)
    assert exact_entropy(dense, 4) == 0.0


def test_exact_entropy_frozen_chain():
    dense = _dense_state(LAM15, FLAT, 8, 1.0)
    blocks = partition(dense, 4)
    assert abs(exact_entropy(dense, 4) - 0.6286120412445984) < 1e-12
    assert abs(-math.log(purity(blocks)) - 0.32709674692668056) < 1e-12
    assert abs(det_bound(blocks) - 0.1990012948356955) < 1e-12


def test_chain_inequality_random_instances():
    rng = np.random.default_rng(33)
    for _ in range(15):
        lam, beta, N, t = _random_instance(rng)
        n = int(rng.integers(1, N))
        dense = _dense_state(lam, beta, N, t)
        blocks = partition(dense, n)
        exact = exact_entropy(dense, n)
        nlp = -math.log(purity(blocks))
        det = det_bound(blocks)
        assert exact >= nlp - 1e-8, (exact, nlp, lam.coeffs, beta.coeffs, N, n, t)
        assert nlp >= det - 1e-8, (nlp, det, lam.coeffs, beta.coeffs, N, n, t)


def test_entropy_invariant_under_cyclic_relabeling():
    dense = _dense_state(LAM15, FLAT, 16, 2.0)
    ref = exact_entropy(dense, 8)
    perm = np.roll(np.arange(16), 5)
    shifted = dense[np.ix_(perm, perm)]
    assert abs(exact_entropy(shifted, 8) - ref) < 1e-10


def test_complementary_cuts_equal():
    # the global state is pure, so both sides of any cut carry the same entropy
    dense = _dense_state(LAM15, FLAT, 16, 2.0)
    assert abs(exact_entropy(dense, 5) - exact_entropy(dense, 11)) < 1e-8


def test_exact_entropy_rejects_bad_cut():
    dense = _dense_state(LAM15, FLAT, 8, 1.0)
    with pytest.raises(ValueError):
        exact_entropy(dense, 0)
    with pytest.raises(ValueError):
        exact_entropy(dense, 8)


def test_stationary_entropies_constant():
    beta = TrigPolynomial([1.5, -1.0])  # pointwise sqrt of the coupling
    records = [entropy_record(_dense_state(LAM15, beta, 16, t), 8, t)
               for t in (0.0, 3.0, 9.0)]
    for field in ("exact_entropy", "neg_log_purity", "det_bound"):
        vals = [getattr(r, field) for r in records]
        assert max(vals) - min(vals) < 1e-10, (field, vals)


def test_entropy_record_fields():
    dense = _dense_state(LAM15, FLAT, 8, 0.0)
    record = entropy_record(dense, 4, 0.0)
    assert isinstance(record, SymbolRecord)
    assert record.t == 0.0 and record.n == 4 and record.N == 8
    assert record.identity_residual == 0.0
    assert record.condition_estimate == partition(dense, 4).condition_estimate
    # at t = 0 this configuration is uncoupled: every value is exactly zero,
    # and -ln(1) must come out as +0.0, not -0.0
    assert record.exact_entropy == 0.0
    assert record.neg_log_purity == 0.0
    assert math.copysign(1.0, record.neg_log_purity) == 1.0
    assert record.det_bound == 0.0


def _fresh_p_tilde(blocks):
    """P~ cut from a fresh inverse of Re A."""
    T_t, C_t, R_t = blocks.T.real, blocks.C.real, blocks.R.real
    full_real = np.block([[T_t, C_t], [C_t.T, R_t]])
    return np.linalg.inv(full_real)[blocks.n:, blocks.n:]


def _dense_bits(blocks):
    """Bits of everything reduce, purity and det_bound return for the blocks."""
    red = reduce(blocks)
    return [np.asarray(v).tobytes() for v in (red.gamma, red.delta, red.identity_residual,
                                               purity(blocks), det_bound(blocks))]


def test_partition_inverse_of_real_part_matches_fresh_inverse():
    # reduce, purity and det_bound read P~ from the partition; a P~ from
    # inverting Re A afresh gives the same bits
    rng = np.random.default_rng(41)
    cases = [_random_instance(rng, sizes=(16, 33, 64)) for _ in range(6)]
    cases.append((LAM15, TrigPolynomial([1.0, 0.1]), 32, 3.0))
    for lam, beta, N, t in cases:
        for n in (1, N // 3, N // 2, N - 1):
            blocks = partition(_dense_state(lam, beta, N, t), n)
            fresh = _fresh_p_tilde(blocks)
            assert blocks.P_tilde.tobytes() == fresh.tobytes()
            got = _dense_bits(blocks)
            assert _dense_bits(dataclasses.replace(blocks, P_tilde=fresh)) == got


def test_entropy_record_inverts_each_full_matrix_once(monkeypatch):
    # partition inverts A and Re A, exact_entropy inverts Re A for the
    # covariance; reduce, purity and det_bound invert only the smaller blocks
    N = 32
    dense = _dense_state(LAM15, TrigPolynomial([1.0, 0.1]), N, 3.0)
    shapes = []
    real_inv = np.linalg.inv

    def counting(a):
        shapes.append((a.shape, a.dtype.kind))
        return real_inv(a)

    monkeypatch.setattr(np.linalg, "inv", counting)
    entropy_record(dense, 12, 3.0)
    assert sorted(kind for shape, kind in shapes if shape == (N, N)) == ["c", "f", "f"]
    assert {shape for shape, _ in shapes} == {(N, N), (12, 12), (20, 20)}


# ---------------------------------------------------------------------------
# symbol_record: Toeplitz blocks of the mode symbols against the dense route
# ---------------------------------------------------------------------------

RECORD_FIELDS = ("exact_entropy", "neg_log_purity", "det_bound", "condition_estimate")


def _assert_matches_dense(lam, beta, N, n, t):
    state = evolve(EvolutionSetup(lam, beta, N), t)
    ref = entropy_record(densify(state), n, t)
    rec = symbol_record(state, n)
    assert (rec.t, rec.n, rec.N) == (ref.t, ref.n, ref.N) == (t, n, N)
    for field in RECORD_FIELDS:
        got, want = getattr(rec, field), getattr(ref, field)
        assert abs(got - want) <= 1e-10 + 1e-9 * abs(want), \
            (field, got, want, lam.coeffs, beta.coeffs, N, n, t)
    # the dense Schur residual and symbol_record's block-row residual measure
    # different identities; each must hold on its own
    assert ref.identity_residual <= 1e-9
    assert rec.identity_residual <= 1e-9
    return rec


def test_symbol_record_matches_dense_random_instances():
    rng = np.random.default_rng(34)
    for _ in range(15):
        lam, beta, N, t = _random_instance(rng, sizes=(16, 32, 64))
        _assert_matches_dense(lam, beta, N, int(rng.integers(1, N)), t)


@pytest.mark.parametrize("lam, beta, N, n, t", [
    (LAM15, TrigPolynomial([1.0, 0.1]), 64, 1, 2.0),
    (LAM15, TrigPolynomial([1.0, 0.1]), 64, 63, 2.0),
    (gap_family(1.0), FLAT, 64, 32, 5.0),
    (gap_family(1.0), TrigPolynomial([1.0, 0.2]), 32, 16, 50.0),
    (LAM15, TrigPolynomial([1.0, 0.2]), 64, 32, 1000.0),
    (LAM15, TrigPolynomial([1.5, -1.0]), 32, 16, 4.0),
    # t = 0 with a non-flat width: a real state, where the det bound is tight
    (TrigPolynomial([2.25]), TrigPolynomial([1.0, 0.2]), 16, 8, 0.0),
    # odd N, n = 1 and n = N - 1: symbol_record reads the smaller side, the
    # dense route the kept one, so a small n meets it only by Jacobi's identity
    (LAM15, TrigPolynomial([1.05, 0.05, -0.02]), 33, 1, 2.0),
    (LAM15, TrigPolynomial([1.05, 0.05, -0.02]), 33, 32, 20.0),
    (LAM15, TrigPolynomial([1.05, 0.05, -0.02]), 33, 5, 0.0),
    (LAM15, TrigPolynomial([1.05, 0.05, -0.02]), 33, 28, 2.0),
    (LAM15, TrigPolynomial([1.05, 0.05, -0.02]), 65, 32, 20.0),
    (LAM15, TrigPolynomial([1.05, 0.05, -0.02]), 65, 33, 2.0),
])
def test_symbol_record_matches_dense_edges(lam, beta, N, n, t):
    _assert_matches_dense(lam, beta, N, n, t)


@pytest.mark.parametrize("N", [15, 16, 17, 100])
@pytest.mark.parametrize("lam", [TrigPolynomial([2.25]), TrigPolynomial([1.0])])
def test_symbol_record_uncoupled_exactly_zero(lam, N):
    for t in (0.0, 1.3, 6.0):
        rec = _assert_matches_dense(lam, FLAT, N, N // 2, t)
        assert (rec.exact_entropy, rec.neg_log_purity, rec.det_bound) == (0.0, 0.0, 0.0)
        assert math.copysign(1.0, rec.neg_log_purity) == 1.0
        assert rec.identity_residual == 0.0


def test_symbol_record_error_types_match_dense():
    good = evolve(EvolutionSetup(LAM15, FLAT, 16), 1.0)
    for n in (0, 16, -1):
        with pytest.raises(ValueError):
            symbol_record(good, n)
    theta = 2.0 * np.pi * np.arange(16) / 16
    ill = GaussianPureState(
        mode_symbols=np.where(theta == np.pi, 1e-14, 1.0 + 0.5 * np.cos(theta)),
        size=16, time=0.0)
    negative = GaussianPureState(mode_symbols=-1.0 + 0.3 * np.cos(theta) + 0.2j,
                                 size=16, time=0.0)
    for state, exc in ((ill, IllConditionedError), (negative, ConsistencyError)):
        with pytest.raises(exc):
            entropy_record(densify(state), 8, state.time)
        with pytest.raises(exc):
            symbol_record(state, 8)


@pytest.mark.parametrize("N", [16, 17, 64])
def test_symbol_record_blocks_reflection_symmetric(N, monkeypatch):
    # the sector fold is exact only because every block equals its double
    # reversal bit for bit; the sectors symbol_record factors are the oracle
    # fold of the dense k x k block of Re A and of the rows' Toeplitz blocks
    factored = []
    real_cholesky = reduction._cholesky
    monkeypatch.setattr(reduction, "_cholesky",
                        lambda M, message: factored.append(M) or real_cholesky(M, message))
    state = evolve(EvolutionSetup(LAM15, TrigPolynomial([1.0, 0.1, -0.05]), N), 3.7)
    dense = densify(state).real
    rows = reduction._circulant_rows(np.asarray(state.mode_symbols, dtype=complex))
    for n in range(1, N):
        k = min(n, N - n)
        factored.clear()
        symbol_record(state, n)
        block = dense[:k, :k]
        assert np.array_equal(block, block[::-1, ::-1]), (N, n)
        xx, xp, pp = (_fold(_toeplitz(r[:k])) for r in (0.5 * rows["inv_real"], rows["xp"], rows["pp"]))
        covariances = [np.block([[x, c], [c, p]]) for x, c, p in zip(xx, xp, pp)]
        # R~ then V, for the even sector and then the odd one
        assert len(factored) == 4
        for got, want in zip(factored, [M for R, V in zip(_fold(block), covariances) for M in (R, V)]):
            assert np.array_equal(got, want), (N, n, got.shape)


def test_sectors_match_the_oracle_fold():
    # every size, odd and even, and every window short of a quarter of the
    # side, read from a row longer than the side
    rng = np.random.default_rng(71)
    for size in range(1, 65):
        r = rng.normal(size=size + 5)
        want = _fold(_toeplitz(r[:size]))
        for got, ref in zip(reduction._sectors(r, size), want):
            assert np.array_equal(got, ref), size
        for w in range(1, (size - 1) // 4 + 1):
            for got, ref in zip(reduction._sectors(r, size, w), want):
                assert np.array_equal(got, ref[:w, :w]), (size, w)


def _reflection_basis(k):
    """Rows: the even sector's (e_i + e_{k-1-i})/sqrt(2) (and e_mid), then the odd one's."""
    Q = np.zeros((k, k))
    h = k // 2
    for i in range(h):
        Q[i, i] = Q[i, k - 1 - i] = np.sqrt(0.5)
        Q[k - 1 - i, i], Q[k - 1 - i, k - 1 - i] = np.sqrt(0.5), -np.sqrt(0.5)
    if k % 2:
        Q[h, h] = 1.0
    # order: even rows 0..h-1, middle, then odd rows
    return np.vstack([Q[:h], Q[h:k - h], Q[k - h:][::-1]])


def test_fold_is_the_orthogonal_sector_split():
    rng = np.random.default_rng(61)
    for r in range(1, 10):
        for c in range(1, 10):
            M = rng.normal(size=(r, c))
            B = M + M[::-1, ::-1]
            even, odd = _fold(B)
            assert even.shape == ((r + 1) // 2, (c + 1) // 2)
            assert odd.shape == (r // 2, c // 2)
            full = _reflection_basis(r) @ B @ _reflection_basis(c).T
            assert np.abs(full[:even.shape[0], :even.shape[1]] - even).max(initial=0.0) <= 1e-13
            assert np.abs(full[even.shape[0]:, even.shape[1]:] - odd).max(initial=0.0) <= 1e-13
            assert np.abs(full[:even.shape[0], even.shape[1]:]).max(initial=0.0) <= 1e-13
            assert np.abs(full[even.shape[0]:, :even.shape[1]]).max(initial=0.0) <= 1e-13
            assert abs(math.hypot(np.linalg.norm(even), np.linalg.norm(odd))
                       - np.linalg.norm(B)) <= 1e-13 * np.linalg.norm(B)
            sv = np.sort(np.concatenate([np.linalg.svd(even, compute_uv=False),
                                         np.linalg.svd(odd, compute_uv=False)]))
            assert np.abs(sv - np.sort(np.linalg.svd(B, compute_uv=False))).max() <= 1e-13 * sv.max()
        S = rng.normal(size=(r, r))
        S = S + S.T
        S = S + S[::-1, ::-1]
        ev = np.sort(np.concatenate([np.linalg.eigvalsh(X) for X in _fold(S)]))
        assert np.abs(ev - np.linalg.eigvalsh(S)).max() <= 1e-13 * np.abs(ev).max()


@pytest.mark.parametrize("N, n", [(256, 1), (256, 127), (256, 128), (256, 255), (257, 128)])
def test_symbol_record_matches_dense_large(N, n):
    for t in (0.0, 3.0, 50.0):
        _assert_matches_dense(LAM15, TrigPolynomial([1.0, 0.2]), N, n, t)


def test_symbol_record_edge_cuts_agree_at_512():
    state = evolve(EvolutionSetup(LAM15, TrigPolynomial([1.0, 0.1]), 512), 7.0)
    first, last = symbol_record(state, 1), symbol_record(state, 511)
    assert first.exact_entropy > 0.0
    assert abs(first.exact_entropy - last.exact_entropy) <= 1e-12


def test_symbol_record_small_cut_independent_of_ring_size():
    # at t = 2 the light cone of a 32-site cut is far from wrapping a ring of
    # 4096 sites, so doubling the ring moves the columns only by rounding
    beta = TrigPolynomial([1.05, 0.05])
    small, large = (symbol_record(evolve(EvolutionSetup(LAM15, beta, N), 2.0), 32)
                    for N in (4096, 8192))
    for field in ("exact_entropy", "neg_log_purity", "det_bound"):
        assert abs(getattr(small, field) - getattr(large, field)) <= 1e-12, field
    assert small.exact_entropy > small.neg_log_purity > small.det_bound > 0.0
    assert max(small.identity_residual, large.identity_residual) <= 1e-9


def test_symbol_record_neg_log_purity_never_negative():
    # a nearly uncoupled state: some nu fall a rounding step below 1/2, and
    # the emitted -ln purity stays >= 0, as the dense route's clipped purity does
    theta = 2.0 * np.pi * np.arange(32) / 32
    state = GaussianPureState(mode_symbols=1.0 + 1e-7 * np.cos(theta), size=32, time=0.0)
    for n in range(1, 32):
        rec = symbol_record(state, n)
        assert 0.0 <= rec.neg_log_purity <= 1e-14
        assert rec.exact_entropy >= rec.neg_log_purity - 1e-8 >= rec.det_bound - 2e-8


def test_symbol_record_purity_forms_must_agree(monkeypatch):
    # sum ln 2 nu from the eigensolve is checked against (1/2) ln det 2V from the Cholesky
    state = evolve(EvolutionSetup(LAM15, TrigPolynomial([1.05, 0.05]), 32), 3.0)
    symbol_record(state, 12)
    real_williamson = reduction._williamson
    monkeypatch.setattr(reduction, "_williamson", lambda L: 1.0001 * real_williamson(L))
    with pytest.raises(ConsistencyError, match="purity formulas disagree"):
        symbol_record(state, 12)


@st.composite
def _gapped_symbol(draw, lo, hi):
    """Degree <= 3 cosine polynomial with a0 in [lo, hi] and min >= a0 / 10."""
    a0 = draw(st.floats(lo, hi))
    deg = draw(st.integers(0, 3))
    rest = [0.9 * a0 * draw(st.floats(-1.0, 1.0)) / max(deg, 1) for _ in range(deg)]
    return TrigPolynomial([a0, *rest])


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(lam=_gapped_symbol(0.5, 3.0), beta=_gapped_symbol(0.5, 2.0),
       N=st.sampled_from((16, 32, 64)), cut=st.floats(0.0, 1.0),
       t=st.floats(0.0, 20.0))
def test_symbol_record_bound_chain_property(lam, beta, N, cut, t):
    n = min(N - 1, 1 + int(cut * (N - 1)))
    rec = symbol_record(evolve(EvolutionSetup(lam, beta, N), t), n)
    assert rec.identity_residual <= 1e-9
    assert rec.exact_entropy >= rec.neg_log_purity - 1e-8
    assert rec.neg_log_purity >= rec.det_bound - 1e-8
    assert rec.det_bound >= -1e-12


# ---------------------------------------------------------------------------
# symbol_record: Williamson values from the light-cone windows, against the whole side
# ---------------------------------------------------------------------------

def _window_and_full(state, n, monkeypatch):
    """symbol_record's record, the shapes of the whole-side factors it handed
    `_williamson` (none on the window route), and the record of the whole-side
    route, forced by making the window helper decline."""
    calls = []
    real_williamson = reduction._williamson
    with monkeypatch.context() as m:
        m.setattr(reduction, "_williamson", lambda L: calls.append(L.shape) or real_williamson(L))
        rec = symbol_record(state, n)
    with monkeypatch.context() as m:
        m.setattr(reduction, "_window_spectrum", lambda rows, k: None)
        full = symbol_record(state, n)
    return rec, full, calls


def _window_cases():
    """Seeded gapped symbols on off-centre cuts of even and odd rings."""
    rng = np.random.default_rng(83)
    cases = []
    for N in (512, 513, 1001, 1025):
        lam, beta, _, _ = _random_instance(rng)
        n = int(rng.integers(N // 4, 3 * N // 4))
        cases.append((lam, beta, N, n, float(rng.uniform(0.5, 4.0))))
    return cases


@pytest.mark.parametrize("lam, beta, N, n, t", [
    *_window_cases(),
    (LAM15, TrigPolynomial([1.05, 0.05, -0.02]), 1025, 300, 10.0),
    (LAM15, TrigPolynomial([1.05, 0.05, -0.02]), 1001, 777, 5.0),
    (gap_family(1.0), TrigPolynomial([1.0, 0.1]), 512, 256, 1.0),
    (gap_family(1.0), TrigPolynomial([1.0, 0.1]), 512, 256, 10.0),
    (gap_family(1.0), FLAT, 1025, 400, 5.0),
    (gap_family(0.5), FLAT, 512, 256, 10.0),
    (gap_family(0.5), TrigPolynomial([1.0, 0.2]), 513, 200, 3.0),
])
def test_window_route_matches_whole_side(lam, beta, N, n, t, monkeypatch):
    rec, full, calls = _window_and_full(evolve(EvolutionSetup(lam, beta, N), t), n, monkeypatch)
    assert calls == []  # the window route
    for field in ("exact_entropy", "neg_log_purity"):
        got, want = getattr(rec, field), getattr(full, field)
        assert abs(got - want) <= 1e-10 + 1e-9 * abs(want), (field, got, want)
    # every other figure comes from the whole-side factorisations, unchanged
    assert dataclasses.replace(rec, exact_entropy=full.exact_entropy,
                               neg_log_purity=full.neg_log_purity) == full


# the benchmark's dense-ring pool (perfbench/workloads.py): gap:c, poly:b0,b1
DENSE_RING_POOL = (
    (1.4536, 1.0545, 0.0979), (1.4490, 1.0757, 0.0960), (1.4313, 1.0483, 0.0651),
    (1.4224, 1.0448, 0.0563), (1.4844, 1.0389, -0.0184), (1.5290, 1.0674, -0.0849),
    (1.5294, 1.0022, 0.0420), (1.5153, 1.0904, 0.0979), (1.5347, 1.0625, 0.0806),
    (1.5341, 1.0266, 0.0454), (1.5768, 1.0940, -0.0189), (1.5483, 1.0067, -0.0129),
)


def test_dense_ring_rows_take_the_window_route(monkeypatch):
    calls = []
    real_williamson = reduction._williamson
    monkeypatch.setattr(reduction, "_williamson",
                        lambda L: calls.append(L.shape) or real_williamson(L))
    for c, b0, b1 in DENSE_RING_POOL:
        setup = EvolutionSetup(gap_family(c), TrigPolynomial([b0, b1]), 512)
        for t in np.linspace(0.0, 10.0, 9):
            symbol_record(evolve(setup, float(t)), 256)
    assert calls == []


@pytest.mark.parametrize("c", [1.5, 1.1, 3.0])
def test_window_route_squeezed_width_scan(c, monkeypatch):
    # strongly squeezed widths: where the window values miss the whole side's
    # (1/2) ln det 2V the cross-check rejects them and the whole side takes
    # over, so a row raises only where the whole-side route raises too. Every
    # window value is sqrt(1/4 + sigma^2), never below 1/2
    window_nu = []
    real_window = reduction._window_spectrum

    def recording(rows, k):
        nu = real_window(rows, k)
        window_nu.extend([] if nu is None else nu)
        return nu

    monkeypatch.setattr(reduction, "_window_spectrum", recording)
    for beta in ((300.0,), (1000.0,), (0.003,), (30.0, 10.0), (1e4,)):
        for N in (256, 512, 1025):
            for t in (1.0, 3.0, 10.0, 50.0):
                state = evolve(EvolutionSetup(gap_family(c), TrigPolynomial(beta), N), t)
                try:
                    rec = symbol_record(state, N // 2)
                except QuenchEntropyError as exc:
                    with monkeypatch.context() as m:
                        m.setattr(reduction, "_window_spectrum", lambda rows, k: None)
                        with pytest.raises(type(exc)):
                            symbol_record(state, N // 2)
                    continue
                assert rec.exact_entropy >= rec.neg_log_purity - 1e-8
                assert rec.neg_log_purity >= rec.det_bound - 1e-8
    assert len(window_nu) > 0 and min(window_nu) >= 0.5


@pytest.mark.parametrize("c, beta, t, sizes, entropy_tol", [
    (1.5, 1e4, 1.0, (256, 512, 1024, 2048), 1e-9),
    (3.0, 0.003, 10.0, (512, 1024, 2048), 1e-10),
])
def test_window_spectrum_independent_of_ring_size(c, beta, t, sizes, entropy_tol):
    # strongly squeezed widths whose cone spans far fewer sites than a quarter
    # of the half cut, so the window values cannot depend on N. The whole
    # side's (1/2) ln det 2V drifts by up to 6e-7 on these rows, and with the
    # BLAS thread count, so the route the cross-check picks is not asserted
    sums, entropies = [], []
    for N in sizes:
        state = evolve(EvolutionSetup(gap_family(c), TrigPolynomial([beta]), N), t)
        rows = reduction._circulant_rows(np.asarray(state.mode_symbols, dtype=complex))
        nu = reduction._window_spectrum(rows, N // 2)
        sums.append(float(np.sum(np.log(2.0 * nu))))
        entropies.append(reduction._entropy_sum(nu))
    assert max(sums) - min(sums) <= 1e-9, sums
    assert max(entropies) - min(entropies) <= entropy_tol, entropies


def test_window_short_of_the_cone_is_rejected(monkeypatch):
    state = evolve(EvolutionSetup(LAM15, TrigPolynomial([1.05, 0.05]), 512), 5.0)
    rows = reduction._circulant_rows(np.asarray(state.mode_symbols, dtype=complex))
    # one site short of the 1e-6 cone: a row entry of 1e-6 of its norm is
    # dropped, and the singular values move by its square
    edge = max(int(np.flatnonzero(np.abs(r[:257]) > 1e-6 * np.linalg.norm(r))[-1]) + 1
               for r in (rows["inv_real"], rows["xp"], rows["pp"]))
    assert 4 * edge < 256 and edge < reduction._window_width(rows)
    monkeypatch.setattr(reduction, "_window_width", lambda rows: edge - 1)
    rec, full, calls = _window_and_full(state, 256, monkeypatch)
    assert calls == []  # the window route
    for field in ("exact_entropy", "neg_log_purity"):
        assert abs(getattr(rec, field) - getattr(full, field)) <= 1e-12, field
    # far short of it, the window misses by about 1e-3 and the check rejects it
    monkeypatch.setattr(reduction, "_window_width", lambda rows: 12)
    assert reduction._window_spectrum(rows, 256) is not None
    rec, full, calls = _window_and_full(state, 256, monkeypatch)
    assert calls == [(256, 256), (256, 256)]  # the fallback
    assert rec == full


def test_window_route_declines_edge_cuts_and_wide_cones(monkeypatch):
    state = evolve(EvolutionSetup(LAM15, TrigPolynomial([1.05, 0.05]), 512), 2.0)
    rows = reduction._circulant_rows(np.asarray(state.mode_symbols, dtype=complex))
    w = reduction._window_width(rows)
    assert 0 < w < 64
    for k in (1, 2, 4 * w):
        assert reduction._window_spectrum(rows, k) is None
    assert reduction._window_spectrum(rows, 4 * w + 1).shape == (2 * w,)
    # n = 1 and n = N - 1 are a one-site side: the whole-side route
    for n in (1, 511):
        rec, full, calls = _window_and_full(state, n, monkeypatch)
        assert calls == [(2, 2), (0, 0)] and rec == full
    # at t = 50 the cone is wider than a quarter of the half cut
    wide = evolve(EvolutionSetup(LAM15, TrigPolynomial([1.05, 0.05]), 512), 50.0)
    rows = reduction._circulant_rows(np.asarray(wide.mode_symbols, dtype=complex))
    assert 4 * reduction._window_width(rows) >= 256
    rec, full, calls = _window_and_full(wide, 256, monkeypatch)
    assert calls == [(256, 256), (256, 256)] and rec == full


def test_window_route_falls_back_when_a_window_covariance_is_not_positive(monkeypatch):
    # a window covariance that Cholesky rejects makes the window helper
    # decline, and the row is the whole side's record bit for bit
    state = evolve(EvolutionSetup(LAM15, TrigPolynomial([1.05, 0.05]), 512), 2.0)
    real_covariances = reduction._covariances
    windows = []

    def indefinite(rows, size, w=None):
        covs = real_covariances(rows, size, w)
        if w is None:
            return covs
        windows.append((size, w))
        return [-V for V in covs]

    rec, full, calls = _window_and_full(state, 256, monkeypatch)
    assert calls == []  # unpatched, the row takes the window route
    monkeypatch.setattr(reduction, "_covariances", indefinite)
    rows = reduction._circulant_rows(np.asarray(state.mode_symbols, dtype=complex))
    assert reduction._window_spectrum(rows, 256) is None
    windows.clear()
    rec, full, calls = _window_and_full(state, 256, monkeypatch)
    assert windows == [(256, reduction._window_width(rows))]
    assert calls == [(256, 256), (256, 256)]  # the fallback
    assert rec == full


# ---------------------------------------------------------------------------
# Williamson spectrum: one SVD, against the eigvalsh and eigvals(Omega V) oracles
# ---------------------------------------------------------------------------

def _omega_eigvals_spectrum(cov):
    """Williamson spectrum from the general eigenvalues of Omega V, the slow oracle."""
    h = cov.shape[0] // 2
    omega = np.zeros((2 * h, 2 * h))
    omega[:h, h:] = np.eye(h)
    omega[h:, :h] = -np.eye(h)
    ev = np.linalg.eigvals(omega @ cov)
    # spectrum is +-(i nu_j); picking every second sorted |Im| keeps one per pair
    return np.sort(np.abs(ev.imag))[1::2]


def _block_eigvalsh(top, lower, bottom):
    """Ascending eigenvalues of the symmetric [[top, lower^T], [lower, bottom]]."""
    h = top.shape[0]
    S = np.zeros((2 * h, 2 * h))
    S[:h, :h], S[h:, :h], S[h:, h:] = top, lower, bottom
    return np.linalg.eigvalsh(S)


def _eigvalsh_williamson(L):
    """Williamson spectrum of V = L L^T from eigensolves of the squares of
    K = L^T Omega L, the library's earlier kernel, kept as an oracle.

    With L = [[L11, 0], [L21, L22]] (h x h blocks), G = L11^T L21, W = G - G^T
    and M = L11^T L22, K = [[W, M], [-M^T, 0]], and K^T K has every nu^2 twice.
    When nu_max > 2 nu_min, the nu with nu^2 < nu_max nu_min come instead from
    the largest eigenvalues 1 / nu^2 of K^{-T} K^{-1}, K^{-1} = [[0, -N^T],
    [N, N W N^T]], N = M^{-1}, to win back the accuracy that squaring K costs
    at the small end of a wide spectrum."""
    h = L.shape[0] // 2
    G = L[:h, :h].T @ L[h:, :h]
    W = G - G.T
    M = L[:h, :h].T @ L[h:, h:]
    nu = np.sqrt(np.maximum(_block_eigvalsh(W.T @ W + M @ M.T, M.T @ W, M.T @ M)[1::2], 0.0))
    if h == 0 or nu[-1] <= 2.0 * nu[0]:
        return nu
    N = np.linalg.inv(M)
    Z = N @ W @ N.T
    inv_sq = _block_eigvalsh(N.T @ N, Z.T @ N, N @ N.T + Z.T @ Z)[::-1][1::2]
    small = int(np.count_nonzero(nu * nu < nu[-1] * nu[0]))
    nu[:small] = 1.0 / np.sqrt(inv_sq[:small])
    return np.sort(nu)


def _pure_covariance(A):
    """The whole 2N x 2N covariance of the pure state with matrix A, the oracle
    of `reduction._kept_covariance`."""
    Are, Aim = A.real, A.imag
    Are_inv = np.linalg.inv(Are)
    xp = -0.5 * Are_inv @ Aim
    cov = np.block([[0.5 * Are_inv, xp], [xp.T, 0.5 * (Are + Aim @ Are_inv @ Aim)]])
    return 0.5 * (cov + cov.T)


def _williamson_of(cov):
    return reduction._williamson(np.linalg.cholesky(cov))


def _random_symplectic(rng, h, r_max):
    """Orthogonal symplectic, squeezing by up to e^{r_max}, orthogonal symplectic."""
    def rotation():
        U = np.linalg.qr(rng.normal(size=(h, h)) + 1j * rng.normal(size=(h, h)))[0]
        return np.block([[U.real, -U.imag], [U.imag, U.real]])
    r = rng.uniform(-r_max, r_max, h)
    return rotation() @ np.diag(np.exp(np.r_[r, -r])) @ rotation()


def test_williamson_matches_omega_eigvals_oracle():
    # per-side sizes 0..20: odd ones, and the empty odd sector of a k = 1 cut
    rng = np.random.default_rng(70)
    for h in range(21):
        for _ in range(3):
            M = rng.normal(size=(2 * h, 2 * h))
            V = M @ M.T + 0.1 * np.eye(2 * h)
            nu = _williamson_of(V)
            ref = _omega_eigvals_spectrum(V)
            assert nu.shape == (h,)
            assert np.all(np.diff(nu) >= 0.0)
            assert np.abs(nu - ref).max(initial=0.0) <= 1e-12 * ref.max(initial=1.0), h
            oracle = _eigvalsh_williamson(np.linalg.cholesky(V))
            assert np.abs(oracle - ref).max(initial=0.0) <= 1e-12 * ref.max(initial=1.0), h


def test_williamson_strongly_squeezed():
    # h = 64 is the sector size of a half cut of N = 256
    for h, seed in ((12, 71), (64, 73)):
        rng = np.random.default_rng(seed)
        nu = np.sort(np.r_[0.5, rng.uniform(0.5, 100.0, h - 2), 100.0])
        S = _random_symplectic(rng, h, r_max=2.0)
        omega = np.block([[np.zeros((h, h)), np.eye(h)], [-np.eye(h), np.zeros((h, h))]])
        assert np.abs(S @ omega @ S.T - omega).max() <= 1e-10
        V = S @ np.diag(np.r_[nu, nu]) @ S.T
        V = 0.5 * (V + V.T)
        L = np.linalg.cholesky(V)
        got = reduction._williamson(L)
        assert np.abs(got - nu).max() <= 1e-9 * nu.max()
        assert np.abs(got - _omega_eigvals_spectrum(V)).max() <= 1e-9 * nu.max()
        assert np.abs(got - _eigvalsh_williamson(L)).max() <= 1e-9 * nu.max()
    # a strongly squeezed initial width on the dense route
    N, n = 32, 16
    dense = _dense_state(LAM15, TrigPolynomial([300.0]), N, 3.0)
    keep = np.r_[n:N, N + n:2 * N]
    ref = _omega_eigvals_spectrum(_pure_covariance(dense)[np.ix_(keep, keep)])
    assert ref.max() > 50.0
    want = reduction._entropy_sum(np.maximum(ref, 0.5))
    assert abs(exact_entropy(dense, n) - want) <= 1e-9 * want


def _sector_factors(state, k):
    """Cholesky factors of the two reflection sectors of the k-site side's
    covariance, cut from the rows `symbol_record` uses."""
    rows = reduction._circulant_rows(np.asarray(state.mode_symbols, dtype=complex))
    return [np.linalg.cholesky(V) for V in reduction._covariances(rows, k)]


def test_williamson_matches_eigvalsh_oracle_on_dense_ring_sectors():
    # the benchmark's dense-ring row: N = 512, n = 256, two sectors of h = 128.
    # symbol_record takes this row's spectrum from the light-cone windows; the
    # whole side's kernel, its fallback, is held to the eigvalsh oracle here
    state = evolve(EvolutionSetup(LAM15, TrigPolynomial([1.05, 0.05]), 512), 10.0)
    factors = _sector_factors(state, 256)
    assert [L.shape for L in factors] == [(256, 256), (256, 256)]
    for L in factors:
        got, ref = reduction._williamson(L), _eigvalsh_williamson(L)
        assert np.abs(got - ref).max() <= 1e-12 * ref.max()


def test_williamson_wide_spectrum_matches_eigvalsh_oracle(monkeypatch):
    # a strongly squeezed width at t = 50: nu_max ~ 4.6e3 against nu_min ~ 1/2.
    # The SVD keeps every nu within about eps nu_max, as the oracle's second
    # eigensolve of K^{-T} K^{-1} does for the small end
    state = evolve(EvolutionSetup(LAM15, TrigPolynomial([1e4]), 256), 50.0)
    factors, shapes = [], []
    real_williamson, real_svd = reduction._williamson, np.linalg.svd

    def recording(L):
        factors.append(L)
        return real_williamson(L)

    def counting(a, *args, **kwargs):
        shapes.append(a.shape)
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(reduction, "_williamson", recording)
    monkeypatch.setattr(np.linalg, "svd", counting)
    rec = symbol_record(state, 128)
    assert rec.exact_entropy > rec.neg_log_purity > rec.det_bound > 0.0
    assert shapes == [(128, 128)] * 2  # one K per sector
    for L in factors:
        got, ref = real_williamson(L), _eigvalsh_williamson(L)
        assert ref.max() > 1e3 and ref.min() < 0.6
        assert np.abs(got / ref - 1.0).max() <= 1e-10
        # det V = prod nu^2, and the Cholesky factor gives ln det V to rounding
        assert abs(np.log(got).sum() - np.log(np.diag(L)).sum()) <= 1e-10


def test_williamson_closed_forms():
    # product state of modes squeezed by odd powers of 2: every Cholesky entry
    # and every x-p product is exact, so every nu is exactly 1/2
    s = 2.0 ** np.array([1, -1, 3, -3, 5])
    assert np.array_equal(_williamson_of(np.diag(np.r_[s / 2, 1 / (2 * s)])), np.full(5, 0.5))
    # two-mode squeezed vacuum in (x1, x2, p1, p2): pure globally, and one
    # mode alone is thermal with nu = cosh(2r) / 2
    for r in (0.0, 0.3, 1.0, 2.5):
        c, sh = np.cosh(2 * r), np.sinh(2 * r)
        V = 0.5 * np.array([[c, sh, 0, 0], [sh, c, 0, 0], [0, 0, c, -sh], [0, 0, -sh, c]])
        assert np.abs(_williamson_of(V) - 0.5).max() <= 1e-13 * c
        one = _williamson_of(V[np.ix_([0, 2], [0, 2])])
        assert one.shape == (1,) and abs(one[0] - c / 2) <= 1e-15 * c


def test_williamson_spectra_come_from_one_svd(monkeypatch):
    state = evolve(EvolutionSetup(LAM15, TrigPolynomial([1.05, 0.05]), 32), 10.0)
    dense = densify(state)
    shapes = []
    real_svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        assert a.dtype.kind == "f" and kwargs == {"compute_uv": False}
        shapes.append(a.shape)
        return real_svd(a, *args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("eigensolve on a Williamson route")

    monkeypatch.setattr(np.linalg, "svd", counting)
    for name in ("eigvalsh", "eigvals", "eig", "eigh"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    symbol_record(state, 12)
    assert shapes == [(12, 12), (12, 12)]  # one per reflection sector, h = 6
    shapes.clear()
    exact_entropy(dense, 12)
    assert shapes == [(40, 40)]  # the kept side; global purity is a Cholesky of Re A


@pytest.mark.parametrize("n", [1, 5, 11])
def test_kept_covariance_matches_whole_covariance(n):
    # a general complex symmetric A, not a circulant, and a ring's state
    rng = np.random.default_rng(74)
    N = 12
    M = rng.normal(size=(N, N))
    im = rng.normal(size=(N, N))
    keep = np.r_[n:N, N + n:2 * N]
    for A in (M @ M.T + 0.5 * np.eye(N) + 0.3j * (im + im.T),
              _dense_state(LAM15, TrigPolynomial([1.05, 0.05]), N, 10.0)):
        ref = _pure_covariance(A)[np.ix_(keep, keep)]
        got = reduction._kept_covariance(A, n)
        assert np.array_equal(got, got.T)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


_THETA16 = 2.0 * np.pi * np.arange(16) / 16


@pytest.mark.parametrize("symbols", [-1.0 + 0.3 * np.cos(_THETA16) + 0.2j,
                                     0.2 + np.cos(_THETA16) + 0.3j],
                         ids=["negative", "indefinite"])
def test_exact_entropy_rejects_non_positive_covariance(symbols):
    dense = densify(GaussianPureState(mode_symbols=symbols, size=16, time=0.0))
    with pytest.raises(ConsistencyError,
                       match="covariance of the global state is not positive definite"):
        exact_entropy(dense, 8)


def test_exact_entropy_checks_global_state_by_cholesky_of_re_a(monkeypatch):
    # a general complex symmetric A, not a circulant: the global check is one
    # Cholesky of Re A, and a Re A with one negative eigenvalue raises
    rng = np.random.default_rng(72)
    N, n = 12, 5
    M = rng.normal(size=(N, N))
    w, U = np.linalg.eigh(M @ M.T + 0.5 * np.eye(N))
    im = rng.normal(size=(N, N))
    im = 0.3 * (im + im.T)
    good = U @ np.diag(w) @ U.T + 1j * im
    shapes = []
    real_cholesky = np.linalg.cholesky

    def counting(a):
        shapes.append(a.shape)
        return real_cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    assert exact_entropy(good, n) > 0.0
    assert shapes == [(N, N), (2 * (N - n), 2 * (N - n))]
    w[0] = -0.1
    with pytest.raises(ConsistencyError,
                       match="covariance of the global state is not positive definite"):
        exact_entropy(U @ np.diag(w) @ U.T + 1j * im, n)
