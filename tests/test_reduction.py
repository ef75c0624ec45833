"""Dense reduction layer: partition, reduced state, purity, entropy, bound chain.

The randomized checks draw small gapped instances with a fixed seed; the frozen
values were produced by this code once and pinned, then cross-checked against
the independent routes exercised in the verification suites (ODE oracle,
symplectic purity, Parseval identity). `symbol_record`, the Toeplitz-block
route the pipeline uses, is cross-checked against the dense-matrix functions,
which stay as its reference implementation.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quench_entropy import (ConsistencyError, EvolutionSetup,
                            GaussianPureState, IllConditionedError,
                            TrigPolynomial, densify, det_bound, entropy_record,
                            evolve, exact_entropy, gap_family, partition,
                            purity, reduce, symbol_record)
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
    assert abs(blocks.P[0, 0] - a / det) < 1e-14
    assert abs(blocks.Q[0, 0] - r / det) < 1e-14
    assert abs(blocks.D[0, 0] + c / det) < 1e-14
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
    assert red.norm > 0.0


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
    record = entropy_record(_dense_state(LAM15, FLAT, 8, 0.0), 4, 0.0)
    assert record.t == 0.0 and record.n == 4 and record.N == 8
    # at t = 0 this configuration is uncoupled: every value is exactly zero,
    # and -ln(1) must come out as +0.0, not -0.0
    assert record.exact_entropy == 0.0
    assert record.neg_log_purity == 0.0
    assert math.copysign(1.0, record.neg_log_purity) == 1.0
    assert record.det_bound == 0.0


# ---------------------------------------------------------------------------
# symbol_record: Toeplitz blocks of the mode symbols against the dense route
# ---------------------------------------------------------------------------

RECORD_FIELDS = ("exact_entropy", "neg_log_purity", "det_bound",
                 "identity_residual", "condition_estimate")


def _dense_record(state, n):
    dense = densify(state)
    blocks = partition(dense, n)
    return {
        "exact_entropy": exact_entropy(dense, n),
        "neg_log_purity": -math.log(purity(blocks)) + 0.0,
        "det_bound": det_bound(blocks),
        "identity_residual": reduce(blocks).identity_residual,
        "condition_estimate": blocks.condition_estimate,
    }


def _assert_matches_dense(lam, beta, N, n, t):
    state = evolve(EvolutionSetup(lam, beta, N), t)
    ref = _dense_record(state, n)
    rec = symbol_record(state, n)
    assert (rec.t, rec.n, rec.N) == (t, n, N)
    for field in RECORD_FIELDS:
        got = getattr(rec, field)
        assert abs(got - ref[field]) <= 1e-10 + 1e-9 * abs(ref[field]), \
            (field, got, ref[field], lam.coeffs, beta.coeffs, N, n, t)
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
])
def test_symbol_record_matches_dense_edges(lam, beta, N, n, t):
    _assert_matches_dense(lam, beta, N, n, t)


@pytest.mark.parametrize("lam", [TrigPolynomial([2.25]), TrigPolynomial([1.0])])
def test_symbol_record_uncoupled_exactly_zero(lam):
    for t in (0.0, 1.3, 6.0):
        rec = _assert_matches_dense(lam, FLAT, 16, 8, t)
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
            _dense_record(state, 8)
        with pytest.raises(exc):
            symbol_record(state, 8)


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
