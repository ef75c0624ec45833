"""Self-contained verification suites over randomized and pinned instances.

Each family bundles related invariants: spectral algebra, time evolution,
dense reduction, and the Fourier-side bounds. Every check reports a name, a
pass flag and a one-line detail; the report is JSON-ready. The `quick` level
trims instance counts and grid sizes so the whole run stays interactive; the
`full` level runs the complete set at the acceptance scales.

Functions look up collaborators through their modules (reduction.purity and so
on), so fault-injection tests can monkeypatch one operation and watch the
relevant family fail.
"""

from __future__ import annotations

import random

import numpy as np

from . import evolution, reduction, spectral, szego
from .errors import CriticalSymbolError

# each family draws from its own random.Random(_SEED + i), the standard
# library's Mersenne Twister; numpy's Generator would load six bit-generator
# modules and, through secrets and hashlib, OpenSSL for about a thousand draws
_SEED = 20260817


def _random_symbol(rng: random.Random, max_degree: int, top: float, spread: float):
    """Random cosine series of degree <= max_degree: a_0 uniform in [0.5, top], the
    others within spread * a_0 / degree of 0, redrawn until its minimum exceeds 0.05."""
    while True:
        degree = rng.randrange(max_degree + 1)
        coeffs = np.zeros(degree + 1)
        coeffs[0] = rng.uniform(0.5, top)
        if degree:
            coeffs[1:] = [rng.uniform(-spread, spread) * coeffs[0] / degree
                          for _ in range(degree)]
        poly = spectral.TrigPolynomial(coeffs)
        if spectral.extrema(poly).minimum > 0.05:
            return poly


def _random_gapped_instance(rng: random.Random, sizes=(32, 64)):
    """Random degree <= 3 gapped coupling and strictly positive width spectrum."""
    lam = _random_symbol(rng, 3, 3.0, 0.4)
    beta = _random_symbol(rng, 2, 2.0, 0.3)
    return lam, beta, rng.choice(sizes), rng.uniform(0.0, 10.0)


class _Family:
    def __init__(self, name):
        self.name = name
        self.checks = []

    def check(self, name, passed, detail=""):
        self.checks.append({"name": name, "passed": bool(passed), "detail": str(detail)})

    def run(self, name, fn):
        """Record a check that passes iff fn() returns (passed, detail) without raising."""
        try:
            passed, detail = fn()
        except Exception as exc:  # noqa: BLE001 - any failure is a finding here
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        self.check(name, passed, detail)

    def report(self):
        return {"passed": all(c["passed"] for c in self.checks), "checks": self.checks}


def _spectral_family(quick: bool) -> _Family:
    fam = _Family("spectral")
    rng = random.Random(_SEED)
    trials = 5 if quick else 20

    def circulant_eigenvalues():
        worst = 0.0
        for _ in range(trials):
            lam, _, N, _ = _random_gapped_instance(rng, sizes=(16, 32))
            mat = spectral.build_circulant(lam, N)
            ev_sorted = np.sort(mat.eigenvalues())
            samples = np.sort(spectral.evaluate(lam, 2 * np.pi * np.arange(N) / N))
            worst = max(worst, float(np.abs(ev_sorted - samples).max()))
        return worst < 1e-12, f"worst {worst:.3g}"
    fam.run("circulant_eigenvalues_match_symbol", circulant_eigenvalues)

    def circulant_symmetric():
        dense = spectral.build_circulant(spectral.gap_family(1.5), 12).to_dense()
        sym = float(np.abs(dense - dense.T).max())
        return sym == 0.0, f"max asymmetry {sym:.3g}"
    fam.run("circulant_symmetric", circulant_symmetric)

    def derivative_bound():
        worst_ratio = 0.0
        theta = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
        for _ in range(trials):
            lam, _, _, _ = _random_gapped_instance(rng, sizes=(16,))
            if lam.degree == 0:
                continue
            vals = spectral.evaluate(lam, theta)
            deriv = np.gradient(vals, theta)
            worst_ratio = max(worst_ratio,
                              float(np.abs(deriv).max() / (lam.degree * np.abs(vals).max())))
        return worst_ratio <= 1.0 + 1e-6, f"worst ratio {worst_ratio:.6f}"
    fam.run("derivative_bound", derivative_bound)

    def extrema_vs_brute_force():
        lam = spectral.gap_family(1.5)
        ext = spectral.extrema(lam)
        # 10^6 angles of linspace(0, 2 pi, endpoint=False), bit for bit, in
        # evaluate's own blocks, so each call allocates one block's temporaries
        angles, block, step = 10 ** 6, spectral._EVAL_BLOCK, 2 * np.pi / 10 ** 6
        lo, hi = np.inf, -np.inf
        for i in range(0, angles, block):
            vals = spectral.evaluate(lam, np.arange(i, min(i + block, angles)) * step)
            lo, hi = min(lo, vals.min()), max(hi, vals.max())
        return (abs(ext.minimum - lo) < 1e-8 and abs(ext.maximum - hi) < 1e-8,
                f"min {ext.minimum:.12g} max {ext.maximum:.12g}")
    fam.run("extrema_vs_brute_force", extrema_vs_brute_force)

    def critical_rejected():
        try:
            spectral.group_velocity_bound(spectral.gap_family(1.0))
        except CriticalSymbolError:
            return True, ""
        return False, "no error raised"
    fam.run("critical_rejected_by_velocity_bound", critical_rejected)

    def velocity_bound():
        v = spectral.group_velocity_bound(spectral.gap_family(1.5))
        return abs(v - 25.0) < 1e-9, f"v_g {v!r}"
    fam.run("velocity_bound_value", velocity_bound)
    return fam


def _evolution_family(quick: bool) -> _Family:
    fam = _Family("evolution")
    rng = random.Random(_SEED + 1)
    lam = spectral.gap_family(1.5)
    beta = spectral.TrigPolynomial([1.0])

    def closed_vs_ode():
        N = 16 if quick else 32
        horizon = 3.0 if quick else 10.0
        setup = evolution.EvolutionSetup(lam, beta, N)
        ends = np.linspace(0.5, horizon, 4 if quick else 10)
        worst = 0.0
        for t_end, ode in zip(ends, evolution.riccati_oracle(setup, ends)):
            closed = evolution.evolve(setup, float(t_end))
            worst = max(worst, float(np.abs(ode.mode_symbols - closed.mode_symbols).max()))
        return worst < 1e-6, f"worst mode deviation {worst:.3g}"
    fam.run("closed_form_vs_ode_oracle", closed_vs_ode)

    def real_part_matches():
        worst = 0.0
        for _ in range(10 if quick else 40):
            lam_r, beta_r, _, t = _random_gapped_instance(rng)
            th = rng.uniform(0, 2 * np.pi)
            a = evolution.mode_symbol(spectral.evaluate(lam_r, th),
                                      spectral.evaluate(beta_r, th), t)
            L = evolution.lambda_of_t(lam_r, beta_r, th, t)
            worst = max(worst, abs(a.real - L))
        return worst < 1e-12, f"worst |Re a - Lambda| {worst:.3g}"
    fam.run("mode_symbol_real_part", real_part_matches)

    def periodicity():
        worst = 0.0
        for _ in range(5 if quick else 20):
            lam_r, beta_r, _, t = _random_gapped_instance(rng)
            th = rng.uniform(0, 2 * np.pi)
            lv = float(spectral.evaluate(lam_r, th))
            period = np.pi / np.sqrt(lv)
            d = abs(evolution.lambda_of_t(lam_r, beta_r, th, t + period)
                    - evolution.lambda_of_t(lam_r, beta_r, th, t))
            worst = max(worst, d)
        return worst < 1e-10, f"worst period defect {worst:.3g}"
    fam.run("time_periodicity", periodicity)

    def short_time_ratio():
        th = np.pi / 2
        ratios = []
        for t in (0.02, 0.01, 0.005):
            e1 = abs(evolution.lambda_of_t(lam, beta, th, t)
                     - evolution.short_time_lambda(lam, beta, th, t))
            e2 = abs(evolution.lambda_of_t(lam, beta, th, 2 * t)
                     - evolution.short_time_lambda(lam, beta, th, 2 * t))
            ratios.append(e2 / e1)
        ok = all(13.0 <= r <= 19.0 for r in ratios)
        return ok, "ratios " + ", ".join(f"{r:.2f}" for r in ratios)
    fam.run("short_time_quartic_remainder", short_time_ratio)

    def stationary_fixed_point():
        lam_s = spectral.gap_family(1.5)
        beta_s = spectral.TrigPolynomial([1.5, -1.0])  # sqrt of the coupling spectrum
        setup = evolution.EvolutionSetup(lam_s, beta_s, 16)
        drift = 0.0
        ref = evolution.evolve(setup, 0.0).mode_symbols.real
        for t in (1.0, 3.0, 7.0):
            drift = max(drift, float(np.abs(evolution.evolve(setup, t).mode_symbols.real - ref).max()))
        return drift < 1e-8, f"width drift {drift:.3g}"
    fam.run("ground_state_stationary", stationary_fixed_point)
    return fam


def _reduction_family(quick: bool) -> _Family:
    fam = _Family("reduction")
    rng = random.Random(_SEED + 2)
    n_inst = 8 if quick else 40
    sizes = (16, 32) if quick else (32, 64)

    worst_slack1 = worst_slack2 = np.inf
    worst_resid = worst_dual = 0.0
    worst_shift = worst_swap = 0.0
    failure = None
    try:
        for _ in range(n_inst):
            lam, beta, N, t = _random_gapped_instance(rng, sizes=sizes)
            state = evolution.evolve(evolution.EvolutionSetup(lam, beta, N), t)
            dense = reduction.densify(state)
            n = N // 2
            rec = reduction.entropy_record(dense, n, t)
            exact = rec.exact_entropy
            worst_resid = max(worst_resid, rec.identity_residual)
            # a product state's slacks are exactly 0; the minima are the coupled ones'
            if dense[:n, n:].any():
                worst_slack1 = min(worst_slack1, exact - rec.neg_log_purity)
                worst_slack2 = min(worst_slack2, rec.neg_log_purity - rec.det_bound)
            # purity against the symplectic spectrum of the smaller-side route the
            # pipeline uses
            sym_nlp = reduction.symbol_record(state, n).neg_log_purity
            worst_dual = max(worst_dual, abs(float(np.exp(-rec.neg_log_purity))
                                             - float(np.exp(-sym_nlp))))
            # cyclic shift of the cut must not change the entropy
            shift = rng.randrange(1, N)
            perm = np.roll(np.arange(N), shift)
            worst_shift = max(worst_shift, abs(reduction.exact_entropy(dense[np.ix_(perm, perm)], n) - exact))
            # pure global state: complementary cuts match
            worst_swap = max(worst_swap, abs(reduction.exact_entropy(dense, N - n) - exact))
    except Exception as exc:  # noqa: BLE001 - a raising operation is itself a finding
        failure = f"{type(exc).__name__}: {exc}"
    if failure is not None:
        for name in ("entropy_chain_slack", "block_inverse_identity", "purity_vs_symplectic",
                     "translation_invariance", "complementary_cuts"):
            fam.check(name, False, failure)
    else:
        tol = reduction._CHAIN_TOL
        fam.check("entropy_chain_slack", worst_slack1 >= -tol and worst_slack2 >= -tol,
                  f"min slacks {worst_slack1:.3g}, {worst_slack2:.3g}")
        fam.check("block_inverse_identity", worst_resid < reduction._RESIDUAL_TOL,
                  f"worst residual {worst_resid:.3g}")
        fam.check("purity_vs_symplectic", worst_dual < 1e-9, f"worst gap {worst_dual:.3g}")
        fam.check("translation_invariance", worst_shift < 1e-10, f"worst shift defect {worst_shift:.3g}")
        fam.check("complementary_cuts", worst_swap < 1e-8, f"worst mismatch {worst_swap:.3g}")

    def saturation_at_real_coupling():
        lam, beta, N, _ = _random_gapped_instance(rng)
        dense = reduction.densify(evolution.evolve(evolution.EvolutionSetup(lam, beta, N), 0.0))
        blocks = reduction.partition(dense, N // 2)
        gap = abs(reduction.det_bound(blocks) + float(np.log(reduction.purity(blocks))))
        return gap < 1e-9, f"saturation defect {gap:.3g}"
    fam.run("det_bound_saturates_when_real", saturation_at_real_coupling)
    return fam


def _szego_family(quick: bool) -> _Family:
    fam = _Family("szego")
    rng = random.Random(_SEED + 3)
    lam = spectral.gap_family(1.5)
    beta = spectral.TrigPolynomial([1.0])

    def parseval():
        worst = 0.0
        for t in ((1.0, 3.0) if quick else (1.0, 3.0, 5.0)):
            s = szego.szego_sum_for(lam, beta, t)
            p = szego.parseval_check(lam, beta, t, grid=4096 if quick else 8192)
            worst = max(worst, abs(p - s) / max(s, 1e-30))
        return worst < 1e-4, f"worst relative gap {worst:.3g}"
    fam.run("parseval_identity", parseval)

    def recombination():
        worst = 0.0
        for _ in range(3 if quick else 8):
            lam_r, beta_r, _, t = _random_gapped_instance(rng)
            t = min(t, 5.0)
            k = int(np.ceil(4.0 * spectral.group_velocity_bound(lam_r) * t)) + 64
            b = szego.bk_coeffs(lam_r, beta_r, t, k)
            sig, mu = szego.mu_sigma(lam_r, beta_r, t, k)
            worst = max(worst, float(np.abs(b - sig - mu).max()))
        return worst < 1e-10, f"worst recombination defect {worst:.3g}"
    fam.run("static_traveling_split", recombination)

    def bound_ordering():
        worst = np.inf
        for t in np.linspace(0.5, 10 if quick else 50, 8 if quick else 25):
            s = szego.szego_sum_for(lam, beta, float(t))
            bb = szego.bk_bound(lam, beta, float(t))
            worst = min(worst, s - bb)
        return worst >= -szego._BK_CHAIN_TOL, f"min slack {worst:.3g}"
    fam.run("momentum_bound_below_szego", bound_ordering)

    def light_cone():
        prof = szego.light_cone_profile(lam, beta, (1.0, 2.0, 4.0))
        ok = all(edge <= prof.velocity_bound * t
                 for edge, t in zip(prof.edges, prof.t_list))
        return ok, f"edges {prof.edges.tolist()} vs v_g t {(prof.velocity_bound * prof.t_list).tolist()}"
    fam.run("cone_edges_inside_bound", light_cone)

    def cone_doubling():
        prof = szego.light_cone_profile(lam, beta, (8.0, 16.0))
        ratio = prof.edges[1] / prof.edges[0]
        return 1.6 <= ratio <= 2.4, f"edge ratio {ratio:.3f}"
    fam.run("cone_doubles_with_time", cone_doubling)

    def stationary_bounds():
        lam_s = spectral.gap_family(1.5)
        beta_s = spectral.TrigPolynomial([1.5, -1.0])
        vals = [szego.szego_sum_for(lam_s, beta_s, t) for t in (0.0, 2.0, 6.0)]
        drift = max(vals) - min(vals)
        return drift < 1e-10, f"drift {drift:.3g}"
    fam.run("stationary_state_constant", stationary_bounds)

    def analytic_coefficients():
        # width spectrum 2 - cos(theta): closed-form coefficients via its
        # Poisson-kernel factorization, an external oracle for the quadrature
        r = 2.0 - np.sqrt(3.0)
        beta_a = spectral.TrigPolynomial([2.0, -1.0])
        k = 24
        b = szego.bk_coeffs(lam, beta_a, 0.0, k)
        b_ref = r ** np.arange(k + 1) / np.sqrt(3.0)
        c = szego.log_symbol_coeffs(lam, beta_a, 0.0, k)
        c_ref = np.empty(k + 1)
        c_ref[0] = np.log(4.0 - 2.0 * np.sqrt(3.0))
        c_ref[1:] = r ** np.arange(1, k + 1) / np.arange(1, k + 1)
        s_ref = -np.log(1.0 - r * r)
        s = szego.szego_sum(c)
        worst = max(float(np.abs(b - b_ref).max()), float(np.abs(c - c_ref).max()),
                    abs(s - s_ref))
        return worst < 1e-12, f"worst defect {worst:.3g}"
    fam.run("poisson_kernel_oracle", analytic_coefficients)

    def purity_extends_szego():
        # dense det bound approaches the coefficient-space bound as N grows
        t = 3.0
        target = szego.szego_sum_for(lam, beta, t)
        diffs = []
        for N in ((32, 64) if quick else (64, 128, 256)):
            setup = evolution.EvolutionSetup(lam, beta, N)
            dense = reduction.densify(evolution.evolve(setup, t))
            blocks = reduction.partition(dense, N // 2)
            diffs.append(abs(reduction.det_bound(blocks) - target))
        # the N = 256 gap is at rounding level, so it is bounded, not ordered
        ok = diffs[1] < diffs[0] and (quick or diffs[2] <= 1e-12)
        return ok, "gaps " + ", ".join(f"{d:.3g}" for d in diffs)
    fam.run("finite_size_convergence", purity_extends_szego)
    return fam


def run_verification(level: str = "quick") -> dict:
    if level not in ("quick", "full"):
        raise ValueError(f"level must be quick or full, got {level!r}")
    quick = level == "quick"
    families = [
        _spectral_family(quick),
        _evolution_family(quick),
        _reduction_family(quick),
        _szego_family(quick),
    ]
    report = {
        "level": level,
        "families": {f.name: f.report() for f in families},
    }
    report["all_passed"] = all(fr["passed"] for fr in report["families"].values())
    return report
