"""Scenario configuration and the full per-time-point computation pipeline.

One scenario = a coupling spectrum, an initial width spectrum, a chain size and
cut, and a time grid. For every time point the pipeline produces one row

    t, exact_entropy, neg_log_purity, det_bound, szego_sum, bk_bound

and refuses to emit a row that contradicts the bound chain: a violation beyond
the numerical tolerances raises instead of being written. Dense columns come
from the smaller side of the cut, k = min(n, N - n) sites, and are skipped
(nan) when k exceeds the dense cutoff; the momentum-coefficient bound is
skipped (nan, with a warning) for critical couplings, where its derivation does
not apply and the inequality genuinely fails at accessible times.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import numpy as np

from . import reduction, szego
from .errors import ConsistencyError, SpectralSpecError
from .evolution import EvolutionSetup, evolve
from .spectral import (TrigPolynomial, is_critical, parse_spectral_spec,
                       require_nonnegative, require_positive)

CSV_HEADER = "t,exact_entropy,neg_log_purity,det_bound,szego_sum,bk_bound"
DENSE_CUT_LIMIT = 512

FIGURE1_GAPS = (0.5, 1.0, 1.5)
FIGURE1_T_POINTS = 101
FIGURE1_T_END = 50.0
FIGURE1_FIT_WINDOW = (5.0, 50.0)
FIGURE1_SHORT_T_MAX = 0.1


@dataclasses.dataclass(frozen=True)
class ScenarioConfig:
    lambda_spec: str
    beta_spec: str = "poly:1"
    N: int = 64
    n: int | None = None
    t0: float = 0.0
    t1: float = 10.0
    steps: int = 21
    k_max: int | None = None
    jobs: int = 1
    # the validated (lambda, beta) instances, so their extrema are scanned once
    _symbols: tuple = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.N < 2:
            raise ValueError(f"N={self.N} too small")
        cut = self.cut()
        if not (0 < cut < self.N):
            raise ValueError(f"cut n={cut} must satisfy 0 < n < N={self.N}")
        if self.steps < 2:
            raise ValueError(f"steps={self.steps} must be at least 2")
        for name in ("t0", "t1"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name}={getattr(self, name)} must be finite")
        if not (self.t0 < self.t1):
            raise ValueError(f"need t0 < t1, got t0={self.t0}, t1={self.t1}")
        if self.k_max is not None and self.k_max < 1:
            raise ValueError(f"k_max={self.k_max} must be positive")
        if self.jobs < 1:
            raise ValueError(f"jobs={self.jobs} must be at least 1")
        # parse eagerly so config errors surface before any computation
        lam = parse_spectral_spec(self.lambda_spec)
        require_nonnegative(lam, "coupling spectrum (lambda)")
        beta = parse_spectral_spec(self.beta_spec)
        require_positive(beta, "initial width spectrum (beta)")
        if self.N <= 2 * max(lam.degree, beta.degree):
            raise ValueError(
                f"N={self.N} must exceed twice the symbol degree "
                f"{max(lam.degree, beta.degree)}")
        object.__setattr__(self, "_symbols", (lam, beta))

    def cut(self) -> int:
        return self.N // 2 if self.n is None else self.n

    def symbols(self) -> tuple[TrigPolynomial, TrigPolynomial]:
        return self._symbols

    def time_grid(self) -> np.ndarray:
        return np.linspace(self.t0, self.t1, self.steps)


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

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.rows], dtype=float)


# each config key with the ScenarioConfig field it sets; the CLI flag that
# overrides a key has the key as its dest
CONFIG_FIELDS = {"lambda": "lambda_spec", "beta": "beta_spec", "N": "N", "n": "n",
                 "t0": "t0", "t1": "t1", "steps": "steps", "kmax": "k_max", "jobs": "jobs"}


def config_from_json(path: str, overrides: dict | None = None) -> ScenarioConfig:
    """Load a ScenarioConfig from a JSON file; overrides (from flags) win
    unless they are None."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SpectralSpecError(f"cannot read config {path!r}: {exc}") from exc
    if not isinstance(raw, dict):
        raise SpectralSpecError(f"config {path!r} must hold a JSON object")
    given = {key: val for key, val in (overrides or {}).items() if val is not None}
    return config_from_dict(raw | given)


def config_from_dict(d: dict) -> ScenarioConfig:
    """A ScenarioConfig from the config keys in `d`. A None value counts as
    absent, so the field keeps its ScenarioConfig default."""
    unknown = set(d) - set(CONFIG_FIELDS)
    if unknown:
        raise SpectralSpecError(f"unknown config keys: {sorted(unknown)}")
    given = {key: val for key, val in d.items() if val is not None}
    if "lambda" not in given:
        raise SpectralSpecError("config needs a lambda spectral spec")
    kmax = given.get("kmax")
    if kmax == "auto":
        del given["kmax"]
    elif isinstance(kmax, str):
        try:
            given["kmax"] = int(kmax)
        except ValueError:
            raise SpectralSpecError(
                f"kmax must be an integer or \"auto\", got {kmax!r}") from None
    try:
        return ScenarioConfig(**{CONFIG_FIELDS[key]: _field_value(key, val)
                                 for key, val in given.items()})
    except (TypeError, ValueError) as exc:
        raise SpectralSpecError(f"bad config value: {exc}") from exc


def _field_value(key: str, val):
    """The config value `val` of `key` as the type of the ScenarioConfig field
    it sets: a spec as a str, else a number, and never a boolean."""
    field_type = ScenarioConfig.__annotations__[CONFIG_FIELDS[key]]
    if field_type == "str":
        return str(val)
    if isinstance(val, bool):
        raise SpectralSpecError(f"{key} must be a number, got {val!r}")
    if field_type == "float":
        return float(val)
    return _integer(key, val)


def _integer(key: str, val) -> int:
    """The config value `val` of `key` as an int; SpectralSpecError for a
    non-integral number."""
    if isinstance(val, float) and not val.is_integer():
        raise SpectralSpecError(f"{key} must be an integer, got {val!r}")
    return int(val)


def compute_row(lam: TrigPolynomial, beta: TrigPolynomial, N: int, n: int,
                t: float, k_max: int | None) -> BoundRow:
    """All six columns for one time point, chain-checked before returning.

    The dense columns are nan when the smaller side of the cut has more than
    DENSE_CUT_LIMIT sites, and bk_bound is nan for a critical coupling.
    """
    gapped = not is_critical(lam)
    szego_val = szego.szego_sum_for(lam, beta, t, k_max)
    bk_val = szego.bk_bound(lam, beta, t, k_max) if gapped else float("nan")

    if min(n, N - n) <= DENSE_CUT_LIMIT:
        rec = reduction.symbol_record(evolve(EvolutionSetup(lam, beta, N), t), n)
        if rec.identity_residual > reduction._RESIDUAL_TOL:
            raise ConsistencyError(
                f"block-row identity residual {rec.identity_residual:.3g} at t={t}")
        exact, nlp, det = rec.exact_entropy, rec.neg_log_purity, rec.det_bound
        if exact < nlp - reduction._CHAIN_TOL or nlp < det - reduction._CHAIN_TOL:
            raise ConsistencyError(
                f"entropy bound chain violated at t={t}: "
                f"exact={exact!r}, -ln purity={nlp!r}, det bound={det!r}")
    else:
        exact = nlp = det = float("nan")

    if gapped and bk_val > szego_val + szego._BK_CHAIN_TOL:
        raise ConsistencyError(
            f"momentum-coefficient bound {bk_val!r} exceeds the log-spectrum bound "
            f"{szego_val!r} at t={t}")
    return BoundRow(t=float(t), exact_entropy=exact, neg_log_purity=nlp,
                    det_bound=det, szego_sum=szego_val, bk_bound=bk_val)


def _map_rows(fn, arglist: list, jobs: int) -> list:
    """fn(*args) for each args tuple, in order; in a process pool when jobs > 1.

    The pool has no more workers than rows: a forking pool starts all of
    them at the first submit.
    """
    if jobs > 1 and len(arglist) > 1:
        import concurrent.futures  # imported here: with logging, a few ms of every start-up

        with concurrent.futures.ProcessPoolExecutor(max_workers=min(jobs, len(arglist))) as pool:
            return list(pool.map(fn, *zip(*arglist)))
    return [fn(*args) for args in arglist]


def _row_args(config: ScenarioConfig) -> list:
    """compute_row arguments for each time point of one scenario.

    Warns on stderr about every column the scenario leaves nan.
    """
    lam, beta = config.symbols()
    k = min(config.cut(), config.N - config.cut())
    if k > DENSE_CUT_LIMIT:
        print(f"warning: the smaller side of the cut, k=min(n, N-n)={k}, exceeds the "
              f"dense cutoff {DENSE_CUT_LIMIT}; exact_entropy, neg_log_purity and "
              "det_bound columns are nan", file=sys.stderr)
    if is_critical(lam):
        print("warning: critical coupling (min lambda = 0); the bk_bound column is "
              "nan because the momentum-coefficient bound requires a gap",
              file=sys.stderr)
    return [(lam, beta, config.N, config.cut(), float(t), config.k_max)
            for t in config.time_grid()]


def run_series(config: ScenarioConfig) -> BoundSeries:
    return BoundSeries(rows=tuple(_map_rows(compute_row, _row_args(config), config.jobs)))


def _csv_text(header: str, rows) -> str:
    """The header line, then one line per row of numbers at full precision."""
    return "\n".join([header, *(",".join("%.17g" % v for v in row) for row in rows)]) + "\n"


def format_csv(series: BoundSeries) -> str:
    return _csv_text(CSV_HEADER, map(dataclasses.astuple, series.rows))


def write_text(text: str, out: str | None) -> None:
    """Write text to the file `out`, or to stdout when out is None."""
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def dump_state_json(config: ScenarioConfig, path: str) -> None:
    """Serialize the evolved state at the final time to JSON."""
    lam, beta = config.symbols()
    state = evolve(EvolutionSetup(lam, beta, config.N), config.t1)
    write_text(json.dumps(state.to_json_dict()) + "\n", path)


# ---------------------------------------------------------------------------
# shape-reproduction preset: three coupling gaps, one initial state
# ---------------------------------------------------------------------------

def run_figure1(out_dir: str, jobs: int = 1) -> dict:
    """Szego-bound growth curves for gap parameters 0.5, 1.0, 1.5.

    Writes one two-column CSV per curve plus a fit-summary JSON; returns the
    summary dict, which includes whether the expected curve ordering at the
    final time holds (largest value for the smallest gap parameter).
    """
    import os
    import time as _time

    if jobs < 1:
        raise ValueError(f"jobs={jobs} must be at least 1")
    beta = parse_spectral_spec("poly:1")
    t_grid = np.linspace(0.0, FIGURE1_T_END, FIGURE1_T_POINTS)
    t_short = np.linspace(0.0, FIGURE1_SHORT_T_MAX, 11)
    started = _time.monotonic()

    units = []
    for c in FIGURE1_GAPS:
        lam = parse_spectral_spec(f"gap:c={c}")
        units.extend((lam, beta, float(t)) for t in t_grid)
        units.extend((lam, beta, float(t)) for t in t_short)
    flat = _map_rows(szego.szego_sum_for, units, jobs)
    curves = np.array(flat).reshape(len(FIGURE1_GAPS), -1)
    grid_values = curves[:, :len(t_grid)]
    short_values = curves[:, len(t_grid):]

    os.makedirs(out_dir, exist_ok=True)
    summary = {"curves": {}}
    for c, values, short in zip(FIGURE1_GAPS, grid_values, short_values):
        path = os.path.join(out_dir, f"figure1_c{c}.csv")
        write_text(_csv_text("t,szego_sum", zip(t_grid, values)), path)
        line = szego.fit_linear(t_grid, values, FIGURE1_FIT_WINDOW)
        quad = szego.fit_quadratic_short_time(t_short, short, FIGURE1_SHORT_T_MAX)
        summary["curves"][f"c={c}"] = {
            "slope": line.slope, "intercept": line.intercept,
            "r_squared": line.r_squared, "window": list(line.window),
            "kappa1": quad.kappa1, "kappa2": quad.kappa2,
            "short_time_exponent": quad.exponent,
            "final_value": float(values[-1]), "csv": os.path.basename(path),
        }
    # the largest final value for the smallest gap parameter, and so on down
    finals = grid_values[:, -1]
    summary["ordering_ok"] = bool(np.all(finals[:-1] > finals[1:]))
    summary["runtime_seconds"] = round(_time.monotonic() - started, 3)
    write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n",
               os.path.join(out_dir, "fits.json"))
    return summary


# ---------------------------------------------------------------------------
# parameter sweeps
# ---------------------------------------------------------------------------

# each sweep parameter with the config key it sets; c sets lambda as gap:c=<value>
SWEEP_PARAMS = {"c": "lambda", "N": "N", "n": "n", "t1": "t1"}


def _sweep_config(base: ScenarioConfig, param: str, value: float) -> ScenarioConfig:
    """base with one parameter swept, converted like a config value and
    validated afresh."""
    key = SWEEP_PARAMS[param]
    if param == "c":
        value = f"gap:c={value}"
    return dataclasses.replace(base, **{CONFIG_FIELDS[key]: _field_value(key, value)})


def run_sweep(base: ScenarioConfig, param: str, values) -> str:
    """CSV text of the series of every swept value, concatenated.

    Rows carry a leading param_value column. Values (and their time points)
    are independent, so the worker pool covers the whole cross product at
    once.
    """
    if param not in SWEEP_PARAMS:
        raise ValueError(f"sweep parameter must be one of {tuple(SWEEP_PARAMS)}, got {param!r}")
    values = list(values)
    if not values:
        raise ValueError("sweep needs at least one value")
    configs = [_sweep_config(base, param, v) for v in values]

    arglist = []
    keys = []
    for value, cfg in zip(values, configs):
        args = _row_args(cfg)
        arglist.extend(args)
        keys.extend([float(value)] * len(args))
    rows = _map_rows(compute_row, arglist, base.jobs)
    return _csv_text("param_value," + CSV_HEADER,
                     ((key, *dataclasses.astuple(r)) for key, r in zip(keys, rows)))
