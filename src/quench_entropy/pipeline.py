"""Scenario configuration and the full per-time-point computation pipeline.

One scenario = a coupling spectrum, an initial width spectrum, a chain size and
cut, and a time grid. For every time point the pipeline produces one row

    t, exact_entropy, neg_log_purity, det_bound, szego_sum, bk_bound

and refuses to emit a row that contradicts the bound chain: a violation beyond
the numerical tolerances raises instead of being written. Dense columns are
skipped (nan) above the dense size cutoff; the momentum-coefficient bound is
skipped (nan, with a warning) for critical couplings, where its derivation does
not apply and the inequality genuinely fails at accessible times.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import json
import sys

import numpy as np

from . import reduction, szego
from .errors import ConsistencyError, SpectralSpecError
from .evolution import EvolutionSetup, evolve
from .spectral import (TrigPolynomial, format_spectral_spec, is_critical,
                       parse_spectral_spec, require_nonnegative, require_positive)

CSV_HEADER = "t,exact_entropy,neg_log_purity,det_bound,szego_sum,bk_bound"
DENSE_SIZE_LIMIT = 1024
_CHAIN_TOL = 1e-8
_BK_CHAIN_TOL = 1e-9
_RESIDUAL_TOL = 1e-9

FIGURE1_GAPS = (0.5, 1.0, 1.5)
FIGURE1_T_POINTS = 101
FIGURE1_T_END = 50.0
FIGURE1_FIT_WINDOW = (5.0, 50.0)
FIGURE1_SHORT_T_MAX = 0.1


@dataclasses.dataclass(frozen=True)
class ScenarioConfig:
    lambda_spec: str
    beta_spec: str
    N: int = 64
    n: int | None = None
    t0: float = 0.0
    t1: float = 10.0
    steps: int = 21
    k_max: int | None = None
    jobs: int = 1

    def __post_init__(self):
        if self.N < 2:
            raise ValueError(f"N={self.N} too small")
        cut = self.cut()
        if not (0 < cut < self.N):
            raise ValueError(f"cut n={cut} must satisfy 0 < n < N={self.N}")
        if self.steps < 2:
            raise ValueError(f"steps={self.steps} must be at least 2")
        if not (self.t0 < self.t1):
            raise ValueError(f"need t0 < t1, got t0={self.t0}, t1={self.t1}")
        if self.k_max is not None and self.k_max < 1:
            raise ValueError(f"k_max={self.k_max} must be positive")
        if self.jobs < 1:
            raise ValueError(f"jobs={self.jobs} must be at least 1")
        # parse eagerly so config errors surface before any computation
        lam = parse_spectral_spec(self.lambda_spec)
        beta = parse_spectral_spec(self.beta_spec)
        require_nonnegative(lam, "coupling spectrum (lambda)")
        require_positive(beta, "initial width spectrum (beta)")
        if self.N <= 2 * max(lam.degree, beta.degree):
            raise ValueError(
                f"N={self.N} must exceed twice the symbol degree "
                f"{max(lam.degree, beta.degree)}")

    def cut(self) -> int:
        return self.N // 2 if self.n is None else self.n

    def symbols(self) -> tuple[TrigPolynomial, TrigPolynomial]:
        return parse_spectral_spec(self.lambda_spec), parse_spectral_spec(self.beta_spec)

    def time_grid(self) -> np.ndarray:
        return np.linspace(self.t0, self.t1, self.steps)

    def to_json_dict(self) -> dict:
        return {
            "lambda": self.lambda_spec, "beta": self.beta_spec,
            "N": self.N, "n": self.cut(), "t0": self.t0, "t1": self.t1,
            "steps": self.steps, "kmax": self.k_max if self.k_max is not None else "auto",
            "jobs": self.jobs,
        }


@dataclasses.dataclass(frozen=True)
class BoundRow:
    t: float
    exact_entropy: float
    neg_log_purity: float
    det_bound: float
    szego_sum: float
    bk_bound: float


@dataclasses.dataclass(frozen=True)
class BoundSeries:
    rows: tuple
    metadata: dict

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.rows], dtype=float)


def config_from_json(path: str, overrides: dict | None = None) -> ScenarioConfig:
    """Load a ScenarioConfig from a JSON file; overrides (from flags) win."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SpectralSpecError(f"cannot read config {path!r}: {exc}") from exc
    if not isinstance(raw, dict):
        raise SpectralSpecError(f"config {path!r} must hold a JSON object")
    merged = dict(raw)
    for key, val in (overrides or {}).items():
        if val is not None:
            merged[key] = val
    return config_from_dict(merged)


def config_from_dict(d: dict) -> ScenarioConfig:
    known = {"lambda", "beta", "N", "n", "t0", "t1", "steps", "kmax", "jobs"}
    unknown = set(d) - known
    if unknown:
        raise SpectralSpecError(f"unknown config keys: {sorted(unknown)}")
    if "lambda" not in d:
        raise SpectralSpecError("config needs a lambda spectral spec")
    kmax = d.get("kmax")
    if isinstance(kmax, str):
        if kmax == "auto":
            kmax = None
        else:
            try:
                kmax = int(kmax)
            except ValueError:
                raise SpectralSpecError(
                    f"kmax must be an integer or \"auto\", got {kmax!r}") from None
    try:
        return ScenarioConfig(
            lambda_spec=str(d["lambda"]),
            beta_spec=str(d.get("beta", "poly:1")),
            N=int(d.get("N", 64)),
            n=None if d.get("n") is None else int(d["n"]),
            t0=float(d.get("t0", 0.0)),
            t1=float(d.get("t1", 10.0)),
            steps=int(d.get("steps", 21)),
            k_max=None if kmax is None else int(kmax),
            jobs=int(d.get("jobs", 1)),
        )
    except (TypeError, ValueError) as exc:
        raise SpectralSpecError(f"bad config value: {exc}") from exc


def compute_row(lam: TrigPolynomial, beta: TrigPolynomial, N: int, n: int,
                t: float, k_max: int | None, with_dense: bool,
                coupling_gapped: bool) -> BoundRow:
    """All six columns for one time point, chain-checked before returning."""
    szego_val = szego.szego_sum_for(lam, beta, t, k_max)
    bk_val = szego.bk_bound(lam, beta, t, k_max) if coupling_gapped else float("nan")

    if with_dense:
        rec = reduction.symbol_record(evolve(EvolutionSetup(lam, beta, N), t), n)
        if rec.identity_residual > _RESIDUAL_TOL:
            raise ConsistencyError(
                f"block-inverse identity residual {rec.identity_residual:.3g} at t={t}")
        exact, nlp, det = rec.exact_entropy, rec.neg_log_purity, rec.det_bound
        if exact < nlp - _CHAIN_TOL or nlp < det - _CHAIN_TOL:
            raise ConsistencyError(
                f"entropy bound chain violated at t={t}: "
                f"exact={exact!r}, -ln purity={nlp!r}, det bound={det!r}")
    else:
        exact = nlp = det = float("nan")

    if coupling_gapped and bk_val > szego_val + _BK_CHAIN_TOL:
        raise ConsistencyError(
            f"momentum-coefficient bound {bk_val!r} exceeds the log-spectrum bound "
            f"{szego_val!r} at t={t}")
    return BoundRow(t=float(t), exact_entropy=exact, neg_log_purity=nlp,
                    det_bound=det, szego_sum=szego_val, bk_bound=bk_val)


def _row_worker(args):
    return compute_row(*args)


def _map_rows(arglist, jobs: int):
    if jobs > 1 and len(arglist) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_row_worker, arglist))
    return [_row_worker(a) for a in arglist]


def run_series(config: ScenarioConfig) -> BoundSeries:
    lam, beta = config.symbols()
    n = config.cut()
    with_dense = config.N <= DENSE_SIZE_LIMIT
    gapped = not is_critical(lam)
    if not with_dense:
        print(f"warning: N={config.N} exceeds the dense cutoff {DENSE_SIZE_LIMIT}; "
              "exact_entropy, neg_log_purity and det_bound columns are nan",
              file=sys.stderr)
    if not gapped:
        print("warning: critical coupling (min lambda = 0); the bk_bound column is "
              "nan because the momentum-coefficient bound requires a gap",
              file=sys.stderr)
    arglist = [(lam, beta, config.N, n, float(t), config.k_max, with_dense, gapped)
               for t in config.time_grid()]
    rows = _map_rows(arglist, config.jobs)
    return BoundSeries(rows=tuple(rows), metadata={"config": config.to_json_dict()})


def _csv_line(r: BoundRow, *lead: float) -> str:
    """One CSV row at full precision, after any leading columns."""
    return ",".join("%.17g" % v for v in (
        *lead, r.t, r.exact_entropy, r.neg_log_purity, r.det_bound,
        r.szego_sum, r.bk_bound))


def format_csv(series: BoundSeries) -> str:
    return "\n".join([CSV_HEADER, *map(_csv_line, series.rows)]) + "\n"


def write_csv(series: BoundSeries, out: str | None) -> None:
    text = format_csv(series)
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def dump_state_json(config: ScenarioConfig, path: str) -> None:
    """Serialize the evolved state at the final time to JSON."""
    lam, beta = config.symbols()
    state = evolve(EvolutionSetup(lam, beta, config.N), config.t1)
    with open(path, "w") as fh:
        json.dump(state.to_json_dict(), fh)
        fh.write("\n")


# ---------------------------------------------------------------------------
# shape-reproduction preset: three coupling gaps, one initial state
# ---------------------------------------------------------------------------

def _szego_worker(args):
    lam, beta, t = args
    return szego.szego_sum_for(lam, beta, t)


def run_figure1(out_dir: str, jobs: int = 1) -> dict:
    """Szego-bound growth curves for gap parameters 0.5, 1.0, 1.5.

    Writes one two-column CSV per curve plus a fit-summary JSON; returns the
    summary dict, which includes whether the expected curve ordering at the
    final time holds (largest value for the smallest gap parameter).
    """
    import os
    import time as _time

    beta = parse_spectral_spec("poly:1")
    t_grid = np.linspace(0.0, FIGURE1_T_END, FIGURE1_T_POINTS)
    t_short = np.linspace(0.0, FIGURE1_SHORT_T_MAX, 11)
    started = _time.monotonic()

    units = []
    for c in FIGURE1_GAPS:
        lam = parse_spectral_spec(f"gap:c={c}")
        units.extend((lam, beta, float(t)) for t in t_grid)
        units.extend((lam, beta, float(t)) for t in t_short)
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            flat = list(pool.map(_szego_worker, units))
    else:
        flat = [_szego_worker(u) for u in units]

    os.makedirs(out_dir, exist_ok=True)
    per_curve = len(t_grid) + len(t_short)
    summary = {"curves": {}, "ordering_ok": True}
    finals = {}
    for i, c in enumerate(FIGURE1_GAPS):
        chunk = flat[i * per_curve: (i + 1) * per_curve]
        values = np.array(chunk[: len(t_grid)])
        short_values = np.array(chunk[len(t_grid):])
        path = os.path.join(out_dir, f"figure1_c{c}.csv")
        with open(path, "w") as fh:
            fh.write("t,szego_sum\n")
            for t, v in zip(t_grid, values):
                fh.write("%.17g,%.17g\n" % (t, v))
        line = szego.fit_linear(t_grid, values, FIGURE1_FIT_WINDOW)
        quad = szego.fit_quadratic_short_time(t_short, short_values, FIGURE1_SHORT_T_MAX)
        finals[c] = float(values[-1])
        summary["curves"][f"c={c}"] = {
            "slope": line.slope, "intercept": line.intercept,
            "r_squared": line.r_squared, "window": list(line.window),
            "kappa1": quad.kappa1, "kappa2": quad.kappa2,
            "short_time_exponent": quad.exponent,
            "final_value": finals[c], "csv": os.path.basename(path),
        }
    ordered = finals[0.5] > finals[1.0] > finals[1.5]
    summary["ordering_ok"] = bool(ordered)
    summary["runtime_seconds"] = round(_time.monotonic() - started, 3)
    with open(os.path.join(out_dir, "fits.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


# ---------------------------------------------------------------------------
# parameter sweeps
# ---------------------------------------------------------------------------

SWEEP_PARAMS = ("c", "N", "n", "t1")


def _sweep_config(base: ScenarioConfig, param: str, value: float) -> ScenarioConfig:
    if param == "c":
        return dataclasses.replace(base, lambda_spec=f"gap:c={value}")
    if param == "N":
        return dataclasses.replace(base, N=int(value))
    if param == "n":
        return dataclasses.replace(base, n=int(value))
    if param == "t1":
        return dataclasses.replace(base, t1=float(value))
    raise ValueError(f"unknown sweep parameter {param!r}")


def run_sweep(base: ScenarioConfig, param: str, values) -> tuple[str, list]:
    """Concatenated series over the swept values; returns (csv_text, series list).

    Each value gets a full BoundSeries; rows carry a leading param_value
    column. Values (and their time points) are independent, so the worker
    pool covers the whole cross product at once.
    """
    if param not in SWEEP_PARAMS:
        raise ValueError(f"sweep parameter must be one of {SWEEP_PARAMS}, got {param!r}")
    values = list(values)
    if not values:
        raise ValueError("sweep needs at least one value")
    configs = [_sweep_config(base, param, v) for v in values]

    arglist = []
    spans = []
    for cfg in configs:
        lam, beta = cfg.symbols()
        gapped = not is_critical(lam)
        with_dense = cfg.N <= DENSE_SIZE_LIMIT
        start = len(arglist)
        arglist.extend(
            (lam, beta, cfg.N, cfg.cut(), float(t), cfg.k_max, with_dense, gapped)
            for t in cfg.time_grid())
        spans.append((start, len(arglist)))
    rows = _map_rows(arglist, base.jobs)

    lines = ["param_value," + CSV_HEADER]
    out_series = []
    for (value, cfg, (lo, hi)) in zip(values, configs, spans):
        series = BoundSeries(rows=tuple(rows[lo:hi]),
                             metadata={"config": cfg.to_json_dict(),
                                       "param": param, "param_value": value})
        out_series.append(series)
        lines.extend(_csv_line(r, float(value)) for r in series.rows)
    return "\n".join(lines) + "\n", out_series
