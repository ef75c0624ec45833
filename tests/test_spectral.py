"""Spectral-function algebra: parsing, circulant construction, extrema, velocity bound."""

import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev, polynomial

from quench_entropy import spectral
from quench_entropy import (CriticalSymbolError, SpectralSpecError,
                            TrigPolynomial, build_circulant, evaluate, extrema,
                            gap_family, group_velocity_bound, is_critical,
                            parse_spectral_spec)
from quench_entropy.spectral import require_nonnegative, require_positive


def test_parse_poly_and_gap_formats():
    f = parse_spectral_spec("poly:2.25,0,0.5")
    assert np.allclose(f.coeffs, [2.25, 0.0, 0.5])
    g = parse_spectral_spec("gap:c=1.5")
    assert np.allclose(g.coeffs, [2.75, -3.0, 0.5])
    assert parse_spectral_spec("  poly:1 ").degree == 0


@pytest.mark.parametrize("bad", [
    "poly:", "poly:1,zz", "gap:", "gap:1.5", "gap:c=", "gap:q=2",
    "spline:3", "", "1.5",
])
def test_parse_rejects_malformed_specs(bad):
    with pytest.raises(SpectralSpecError):
        parse_spectral_spec(bad)


def test_format_roundtrip():
    f = TrigPolynomial([2.25, -0.3, 0.017])
    g = parse_spectral_spec("poly:" + ",".join(repr(float(a)) for a in f.coeffs))
    assert np.array_equal(f.coeffs, g.coeffs)


def test_trailing_zeros_trimmed():
    f = TrigPolynomial([1.0, 0.5, 0.0, 0.0])
    assert f.degree == 1
    assert f.coeffs.size == 2
    # the constant term survives even when it is zero
    assert TrigPolynomial([0.0]).degree == 0


def test_coefficients_are_read_only():
    f = TrigPolynomial([1.0, 0.5])
    with pytest.raises(ValueError):
        f.coeffs[0] = 7.0


def test_nonfinite_coefficients_rejected():
    with pytest.raises(SpectralSpecError):
        TrigPolynomial([1.0, np.nan])
    with pytest.raises(SpectralSpecError):
        TrigPolynomial([np.inf])
    with pytest.raises(SpectralSpecError):
        TrigPolynomial([])


def test_gap_family_matches_squared_form():
    rng = np.random.default_rng(11)
    theta = rng.uniform(0, 2 * np.pi, 64)
    for c in (0.5, 1.0, 1.5, -0.7):
        f = gap_family(c)
        assert np.abs(f(theta) - (c - np.cos(theta)) ** 2).max() < 1e-14


def test_evaluate_scalar_and_vector():
    f = TrigPolynomial([2.0, -1.0])
    v = evaluate(f, 0.0)
    assert isinstance(v, float) and v == 1.0
    arr = evaluate(f, np.array([0.0, np.pi]))
    assert arr.shape == (2,)
    assert np.allclose(arr, [1.0, 3.0])


def _cos_table_sum(f, theta):
    """The direct sum: the (..., K+1) table cos(m theta) times the coefficients.

    It costs K + 1 cosines per angle and a temporary of K + 1 times the
    output, and is the oracle for `evaluate`'s Clenshaw recurrence.
    """
    th = np.asarray(theta, dtype=float)
    vals = np.cos(np.multiply.outer(th, np.arange(f.coeffs.size))) @ f.coeffs
    return vals if th.ndim else float(vals)


_SPECIAL_ANGLES = [0.0, np.pi, 2 * np.pi, -np.pi, -2 * np.pi, 4 * np.pi, -4 * np.pi]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(coeffs=st.lists(st.floats(-10.0, 10.0, allow_subnormal=False), min_size=1, max_size=41),
       angles=st.lists(st.one_of(st.sampled_from(_SPECIAL_ANGLES),
                                 st.floats(-4 * np.pi, 4 * np.pi)), min_size=1, max_size=24),
       ndim=st.sampled_from([0, 1, 2]))
def test_evaluate_matches_cos_table_property(coeffs, angles, ndim):
    """Clenshaw agrees with the direct sum to 8 (K+1)^2 eps sum|a_m|.

    Both sides err by O(eps) per step, scaled by how far a perturbation
    carries. Clenshaw's input x = cos(theta) is off by up to eps, and
    |d/dx T_m(x)| <= m^2, reached at x = +-1 (T_m'(+-1) = +-m^2), so that
    carries up to K^2 eps sum|a_m|; its recurrence terms satisfy
    |b_k| <= (K - k + 1) sum|a_m|, and rounding them adds about
    (K+1)^2 eps sum|a_m|. The direct sum rounds m theta with |m theta| <=
    4 pi K, which moves cos(m theta) by up to 2 pi K eps, and sums K + 1
    terms. Together that is below 8 (K+1)^2 eps sum|a_m| for every K >= 1;
    degree 0 is exact on both sides.
    """
    f = TrigPolynomial(coeffs)
    arr = np.array(angles)
    theta = {0: arr[0], 1: arr, 2: np.stack([arr, arr[::-1]])}[ndim]
    got, want = evaluate(f, theta), _cos_table_sum(f, theta)
    if ndim == 0:
        assert isinstance(got, float)
    else:
        assert got.shape == theta.shape
    bound = 8 * (f.degree + 1) ** 2 * np.finfo(float).eps * np.abs(f.coeffs).sum()
    assert np.all(np.abs(np.asarray(got) - want) <= bound)


def test_evaluate_elementwise_across_blocks():
    # the angles either side of every block boundary give the same bits
    # inside a multi-block array, in a shifted copy and on their own
    block = spectral._EVAL_BLOCK
    rng = np.random.default_rng(17)
    theta = rng.uniform(-4 * np.pi, 4 * np.pi, 3 * block + 5)
    f = TrigPolynomial(rng.normal(size=9))
    whole = evaluate(f, theta)
    shifted = evaluate(f, theta[3:])
    for edge in (block, 2 * block, 3 * block):
        near = slice(edge - 4, edge + 4)
        alone = evaluate(f, theta[near])
        assert np.array_equal(alone, whole[near])
        assert np.array_equal(alone, shifted[edge - 7:edge + 1])
        assert [evaluate(f, th) for th in theta[near]] == alone.tolist()
    assert np.array_equal(evaluate(f, theta[:-5].reshape(3, block)),
                          whole[:-5].reshape(3, block))


def test_evaluate_memory_linear_in_the_angles():
    theta = np.linspace(0, 2 * np.pi, 1 << 20, endpoint=False)
    f = gap_family(1.0)
    tracemalloc.start()
    try:
        vals = evaluate(f, theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * vals.nbytes


def test_build_circulant_first_row_frozen():
    mat = build_circulant(gap_family(1.5), 8)
    assert mat.size == 8
    expected = np.array([2.75, -1.5, 0.25, 0.0, 0.0, 0.0, 0.25, -1.5])
    assert np.array_equal(mat.first_row, expected)


def test_circulant_eigenvalues_match_symbol_samples():
    rng = np.random.default_rng(12)
    for _ in range(20):
        deg = int(rng.integers(0, 4))
        coeffs = rng.normal(size=deg + 1)
        f = TrigPolynomial(coeffs)
        N = int(rng.choice([16, 32, 64]))
        mat = build_circulant(f, N)
        samples = evaluate(f, 2 * np.pi * np.arange(N) / N)
        assert np.abs(np.sort(mat.eigenvalues()) - np.sort(samples)).max() < 1e-12


def test_circulant_dense_structure():
    mat = build_circulant(gap_family(1.5), 12)
    dense = mat.to_dense()
    assert np.array_equal(dense, dense.T)
    # every row is the previous one rotated right by one slot
    for i in range(1, 12):
        assert np.array_equal(dense[i], np.roll(dense[0], i))


def test_build_circulant_rejects_small_size():
    with pytest.raises(SpectralSpecError):
        build_circulant(gap_family(1.5), 4)  # need N > 2K = 4


def test_extrema_gap_family_closed_form():
    ext = extrema(gap_family(1.5))
    assert abs(ext.minimum - 0.25) < 1e-10
    assert abs(ext.maximum - 6.25) < 1e-10
    assert min(ext.argmin, 2 * np.pi - ext.argmin) < 1e-5
    assert abs(ext.argmax - np.pi) < 1e-5
    # |c| <= 1 puts the zero at theta = arccos(c)
    ext05 = extrema(gap_family(0.5))
    assert abs(ext05.minimum) < 1e-12
    assert abs(ext05.argmin - np.pi / 3) < 1e-5


def test_extrema_against_brute_force():
    rng = np.random.default_rng(13)
    theta = np.linspace(0, 2 * np.pi, 200_000, endpoint=False)
    for _ in range(10):
        deg = int(rng.integers(1, 4))
        f = TrigPolynomial(rng.normal(size=deg + 1))
        vals = evaluate(f, theta)
        ext = extrema(f)
        assert ext.minimum <= vals.min() + 1e-9
        assert ext.maximum >= vals.max() - 1e-9


def test_is_critical_classification():
    assert is_critical(gap_family(1.0))
    assert is_critical(gap_family(0.5))  # zero sits at an interior angle
    assert not is_critical(gap_family(1.5))
    assert not is_critical(TrigPolynomial([2.0, -1.0]))


def test_extrema_scanned_once_per_instance(monkeypatch):
    calls = []
    real = spectral._solve_extrema

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(spectral, "_solve_extrema", counting)
    lam = gap_family(1.5)
    for _ in range(3):
        assert not is_critical(lam)
        require_positive(lam)
        assert abs(group_velocity_bound(lam) - 25.0) < 1e-9
    assert len(calls) == 1  # one solve gives the minimum and the maximum
    is_critical(gap_family(1.5))  # a new instance solves again
    assert len(calls) == 2


def test_refine_minimum_vectorised_rounds():
    # one vectorised call per round; the two grid cells of a 16384-point scan
    # shrink below the 1e-12 stop in at most 7 rounds
    shapes = []

    def fn(x):
        shapes.append(np.shape(x))
        return (x - 0.1234567890123) ** 2

    h = 2.0 * np.pi / 16384
    x, fx = spectral._refine_minimum(fn, 0.1234 - h, 0.1234 + h)
    assert abs(x - 0.1234567890123) <= 1e-12
    assert fx == (x - 0.1234567890123) ** 2
    assert 1 <= len(shapes) <= 7
    assert all(s == (spectral._REFINE_POINTS,) for s in shapes)


def test_extrema_agree_with_minimize_scalar():
    # the refinement the scan used before: scipy's bounded Brent search on the
    # same cells; the refined values differ by rounding on the symbol's scale
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(41)
    for _ in range(40):
        deg = int(rng.integers(1, 6))
        f = TrigPolynomial(rng.normal(size=deg + 1))
        grid = max(4096, 4 * deg)
        theta = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
        vals = f(theta)
        h = 2.0 * np.pi / grid
        scale = np.abs(vals).max()
        ext = extrema(f)
        for idx, sign, got in ((np.argmin(vals), 1.0, ext.minimum),
                               (np.argmax(vals), -1.0, ext.maximum)):
            res = optimize.minimize_scalar(
                lambda x: sign * evaluate(f, x), bounds=(theta[idx] - h, theta[idx] + h),
                method="bounded", options={"xatol": 1e-12})
            ref = sign * float(res.fun)
            assert abs(got - ref) <= 1e-14 * scale, (f.coeffs, sign, got, ref)


def _scanned_extrema(f):
    """The scan the solve replaced: 4096 points plus `_refine_minimum` on the
    cells either side of every sampled local minimum (and, for -f, maximum),
    so near-equal wells cannot send the oracle to the wrong one."""
    grid = max(4096, 4 * f.degree)
    theta = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    h = 2.0 * np.pi / grid
    out = []
    for sign in (1.0, -1.0):
        vals = sign * evaluate(f, theta)
        wells = np.flatnonzero((vals < np.roll(vals, 1)) & (vals <= np.roll(vals, -1)))
        wells = np.union1d(wells, [np.argmin(vals)])  # a constant has no strict well
        out.append(sign * min(spectral._refine_minimum(lambda x: sign * evaluate(f, x),
                                                       theta[i] - h, theta[i] + h)[1]
                              for i in wells))
    return out


def _assert_matches_scan(f):
    ext = extrema(f)
    scale = np.abs(f.coeffs).sum()
    lo, hi = _scanned_extrema(f)
    assert abs(ext.minimum - lo) <= 1e-14 * scale, (f.coeffs, ext, lo)
    assert abs(ext.maximum - hi) <= 1e-14 * scale, (f.coeffs, ext, hi)
    # the extremes are values of f at angles in [0, pi]
    assert 0.0 <= ext.argmin <= np.pi and 0.0 <= ext.argmax <= np.pi
    assert abs(evaluate(f, ext.argmin) - ext.minimum) <= 4 * np.finfo(float).eps * scale
    assert abs(evaluate(f, ext.argmax) - ext.maximum) <= 4 * np.finfo(float).eps * scale
    return ext


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(coeffs=st.lists(st.floats(-10.0, 10.0, allow_subnormal=False), min_size=1, max_size=8))
def test_extrema_solve_matches_scan_property(coeffs):
    _assert_matches_scan(TrigPolynomial(coeffs))


def _from_power_series(p):
    # cosine coefficients of p(cos theta): its Chebyshev coefficients
    return TrigPolynomial(chebyshev.poly2cheb(p))


def test_extrema_exact_zero_for_critical_gap_family():
    for c in (0.5, 1.0):
        ext = extrema(gap_family(c))
        assert ext.minimum == 0.0
        assert abs(ext.argmin - np.arccos(c)) < 1e-15
        assert ext.maximum == (c + 1.0) ** 2 and ext.argmax == np.pi
    assert group_velocity_bound(gap_family(1.5)) == 25.0


def test_extrema_interior_minimum_of_odd_multiplicity():
    # (cos theta - 0.3)^4: the derivative has a triple root at x = 0.3
    f = _from_power_series(polynomial.polypow([-0.3, 1.0], 4))
    ext = _assert_matches_scan(f)
    assert abs(ext.minimum) <= 1e-15
    assert abs(ext.argmin - np.arccos(0.3)) < 1e-3
    assert abs(ext.maximum - 1.3 ** 4) <= 1e-14 and ext.argmax == np.pi


def test_extrema_with_an_inflection():
    # f' = (x - 0.2)^2 (x + 0.5): the double root at x = 0.2 is an inflection,
    # the simple root at -0.5 the minimum
    f = _from_power_series(polynomial.polyint(
        polynomial.polymul(polynomial.polypow([-0.2, 1.0], 2), [0.5, 1.0])))
    ext = _assert_matches_scan(f)
    assert abs(ext.argmin - np.arccos(-0.5)) < 1e-7
    assert ext.argmax == 0.0


def test_extrema_low_degree_needs_no_solve(monkeypatch):
    def no_solve(*args):
        raise AssertionError("eigenvalue solve for a symbol of degree <= 1")

    monkeypatch.setattr(np.linalg, "eigvals", no_solve)
    ext = extrema(TrigPolynomial([2.5]))
    assert (ext.minimum, ext.maximum) == (2.5, 2.5)
    ext = extrema(TrigPolynomial([0.5, -2.0]))
    assert (ext.minimum, ext.argmin, ext.maximum, ext.argmax) == (-1.5, 0.0, 2.5, np.pi)
    # a leading term below rounding leaves no stationary point to solve for
    ext = extrema(TrigPolynomial([1.0, 0.5, 1e-300]))
    assert (ext.minimum, ext.maximum) == (0.5, 1.5)


def test_pickled_symbol_carries_its_solve(monkeypatch):
    f = TrigPolynomial([0.4, -0.3, 0.8, 0.1, -0.25])
    ext = _assert_matches_scan(f)
    data = pickle.dumps(f)

    def no_solve(*args):
        raise AssertionError("a pickled symbol solved again")

    monkeypatch.setattr(spectral, "_solve_extrema", no_solve)
    assert extrema(pickle.loads(data)) == ext


def test_to_dense_matches_scipy_circulant():
    linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(42)
    for row in (rng.normal(size=9), rng.normal(size=8) + 1j * rng.normal(size=8)):
        dense = spectral.CirculantMatrix(row, row.size).to_dense()
        assert np.array_equal(dense, linalg.circulant(row).T)
        assert dense.dtype == row.dtype
    circ = build_circulant(gap_family(1.5), 12)
    assert np.array_equal(circ.to_dense(), linalg.circulant(circ.first_row).T)


def test_pickled_symbol_keeps_classification():
    for c, critical in ((0.5, True), (1.0, True), (1.5, False)):
        scanned = gap_family(c)
        ext = extrema(scanned)
        for f in (scanned, gap_family(c)):  # with and without a cached scan
            copy = pickle.loads(pickle.dumps(f))
            assert np.array_equal(copy.coeffs, f.coeffs)
            assert is_critical(copy) is critical
            assert extrema(copy) == ext


def test_require_positive_and_nonnegative():
    sign_changing = TrigPolynomial([1.0, -2.0])
    with pytest.raises(SpectralSpecError):
        require_positive(sign_changing)
    with pytest.raises(SpectralSpecError):
        require_nonnegative(sign_changing)
    require_nonnegative(gap_family(1.0))  # touches zero: allowed
    with pytest.raises(SpectralSpecError):
        require_positive(gap_family(1.0))
    require_positive(TrigPolynomial([2.0, -1.0]))


def test_group_velocity_bound_value():
    # degree 2, max 6.25, min 0.25 -> 2 * 6.25 / 0.5
    assert abs(group_velocity_bound(gap_family(1.5)) - 25.0) < 1e-9
    assert group_velocity_bound(TrigPolynomial([3.0])) == 0.0


def test_group_velocity_bound_rejects_critical():
    with pytest.raises(CriticalSymbolError):
        group_velocity_bound(gap_family(1.0))


def test_derivative_bound_property():
    # max |f'| <= K max |f| for a degree-K cosine polynomial
    rng = np.random.default_rng(14)
    theta = np.linspace(0, 2 * np.pi, 8192, endpoint=False)
    for _ in range(10):
        deg = int(rng.integers(1, 5))
        f = TrigPolynomial(rng.normal(size=deg + 1))
        m = np.arange(deg + 1)
        deriv = -np.sin(np.multiply.outer(theta, m)) @ (m * f.coeffs)
        assert np.abs(deriv).max() <= deg * np.abs(f(theta)).max() * (1 + 1e-9)
