"""Command-line front end.

    quench-entropy evolve   --lambda gap:c=1.5 --beta poly:1 -N 64 --t0 0 --t1 10 --steps 21
    quench-entropy figure1  --out results/
    quench-entropy verify   --level quick
    quench-entropy sweep    --param N --values 32,64,128 --lambda gap:c=1.5 --t1 3

Exit codes: 0 success, 1 verification/ordering failure, 2 usage or config
error, 3 internal numerical inconsistency.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import pipeline
from .errors import (ConsistencyError, CriticalSymbolError, DivergenceError,
                     IllConditionedError, QuadratureError, SpectralSpecError,
                     TailCriterionError)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

_USAGE_ERRORS = (SpectralSpecError, ValueError)
_NUMERICAL_ERRORS = (ConsistencyError, QuadratureError, TailCriterionError,
                     IllConditionedError, DivergenceError, CriticalSymbolError)


def _add_scenario_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lambda", dest="lambda_spec", metavar="SPEC",
                   help="coupling spectrum: poly:a0,a1,... or gap:c=<value>")
    p.add_argument("--beta", dest="beta_spec", metavar="SPEC",
                   help="initial width spectrum (default poly:1)")
    p.add_argument("-N", dest="N", type=int, help="chain size (default 64)")
    p.add_argument("-n", dest="n", type=int, help="traced-out cut size (default N/2)")
    p.add_argument("--t0", type=float, help="first time point (default 0)")
    p.add_argument("--t1", type=float, help="last time point (default 10)")
    p.add_argument("--steps", type=int, help="number of time points (default 21)")
    p.add_argument("--kmax", help="coefficient truncation: integer or auto (default auto)")
    p.add_argument("--jobs", type=int, help="parallel worker processes (default 1)")
    p.add_argument("--config", metavar="PATH", help="JSON config file; flags override it")
    p.add_argument("--out", metavar="PATH", help="output CSV path (default stdout)")
    p.add_argument("--dump-state", dest="dump_state", metavar="PATH",
                   help="also write the evolved state at t1 as JSON")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quench-entropy",
        description="Entanglement-entropy growth bounds for a quenched harmonic chain")
    sub = parser.add_subparsers(dest="command", required=True)

    p_evolve = sub.add_parser("evolve", help="bound series over a time grid")
    _add_scenario_flags(p_evolve)

    p_fig = sub.add_parser("figure1", help="growth curves for gap parameters 0.5, 1.0, 1.5")
    p_fig.add_argument("--out", metavar="DIR", default=".",
                       help="output directory (default current)")
    p_fig.add_argument("--jobs", type=int, default=1, help="parallel worker processes")

    p_verify = sub.add_parser("verify", help="run the invariant verification suites")
    p_verify.add_argument("--level", choices=("quick", "full"), default="quick")
    p_verify.add_argument("--out", metavar="PATH", help="report JSON path (default stdout)")

    p_sweep = sub.add_parser("sweep", help="repeat a scenario over one swept parameter")
    p_sweep.add_argument("--param", required=True, choices=pipeline.SWEEP_PARAMS)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated parameter values")
    _add_scenario_flags(p_sweep)
    return parser


def _scenario_from_args(args) -> pipeline.ScenarioConfig:
    overrides = {
        "lambda": args.lambda_spec, "beta": args.beta_spec,
        "N": args.N, "n": args.n, "t0": args.t0, "t1": args.t1,
        "steps": args.steps, "kmax": args.kmax, "jobs": args.jobs,
    }
    if args.config:
        return pipeline.config_from_json(args.config, overrides)
    merged = {k: v for k, v in overrides.items() if v is not None}
    if "lambda" not in merged:
        raise SpectralSpecError("either --lambda or --config is required")
    return pipeline.config_from_dict(merged)


def _cmd_evolve(args) -> int:
    config = _scenario_from_args(args)
    series = pipeline.run_series(config)
    pipeline.write_text(pipeline.format_csv(series), args.out)
    if args.dump_state:
        pipeline.dump_state_json(config, args.dump_state)
    return EXIT_OK


def _cmd_figure1(args) -> int:
    summary = pipeline.run_figure1(args.out, jobs=args.jobs)
    print(f"wrote {len(summary['curves'])} curves to {args.out} "
          f"in {summary['runtime_seconds']} s", file=sys.stderr)
    if not summary["ordering_ok"]:
        print("error: curve ordering at the final time is wrong", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def _cmd_verify(args) -> int:
    # imported here, so that no other command loads (or compiles) the suites
    from .verify import run_verification
    report = run_verification(args.level)
    pipeline.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
    if not report["all_passed"]:
        for fname, fam in report["families"].items():
            for check in fam["checks"]:
                if not check["passed"]:
                    print(f"FAILED {fname}.{check['name']}: {check['detail']}",
                          file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def _cmd_sweep(args) -> int:
    values_raw = [v for v in args.values.split(",") if v.strip()]
    if not values_raw:
        raise SpectralSpecError("sweep needs a non-empty --values list")
    try:
        values = [float(v) for v in values_raw]
    except ValueError as exc:
        raise SpectralSpecError(f"bad sweep value in {args.values!r}") from exc
    if args.lambda_spec is None and args.config is None and args.param == "c":
        args.lambda_spec = "gap:c=1.5"  # placeholder; every row replaces it
    config = _scenario_from_args(args)
    pipeline.write_text(pipeline.run_sweep(config, args.param, values), args.out)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed the message; normalize its code
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    handlers = {
        "evolve": _cmd_evolve,
        "figure1": _cmd_figure1,
        "verify": _cmd_verify,
        "sweep": _cmd_sweep,
    }
    try:
        return handlers[args.command](args)
    except _NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
