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
from .errors import QuenchEntropyError, SpectralSpecError

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _add_scenario_flags(p: argparse.ArgumentParser) -> None:
    # each flag's dest is the config key it overrides (pipeline.CONFIG_FIELDS)
    p.add_argument("--lambda", metavar="SPEC",
                   help="coupling spectrum: poly:a0,a1,... or gap:c=<value>")
    p.add_argument("--beta", metavar="SPEC",
                   help="initial width spectrum (default poly:1)")
    p.add_argument("-N", type=int, help="chain size (default 64)")
    p.add_argument("-n", type=int, help="traced-out cut size (default N/2)")
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
    p_evolve.set_defaults(handler=_cmd_evolve)

    p_fig = sub.add_parser("figure1", help="growth curves for gap parameters 0.5, 1.0, 1.5")
    p_fig.add_argument("--out", metavar="DIR", default=".",
                       help="output directory (default current)")
    p_fig.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p_fig.set_defaults(handler=_cmd_figure1)

    p_verify = sub.add_parser("verify", help="run the invariant verification suites")
    p_verify.add_argument("--level", choices=("quick", "full"), default="quick")
    p_verify.add_argument("--out", metavar="PATH", help="report JSON path (default stdout)")
    p_verify.set_defaults(handler=_cmd_verify)

    p_sweep = sub.add_parser("sweep", help="repeat a scenario over one swept parameter")
    p_sweep.add_argument("--param", required=True, choices=pipeline.SWEEP_PARAMS)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated parameter values")
    _add_scenario_flags(p_sweep)
    p_sweep.set_defaults(handler=_cmd_sweep)
    return parser


def _scenario_from_args(args) -> pipeline.ScenarioConfig:
    overrides = {key: getattr(args, key) for key in pipeline.CONFIG_FIELDS}
    if args.config:
        return pipeline.config_from_json(args.config, overrides)
    if overrides["lambda"] is None:
        raise SpectralSpecError("either --lambda or --config is required")
    return pipeline.config_from_dict(overrides)


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
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise SpectralSpecError(f"bad sweep value in {args.values!r}") from exc
    if args.param == "c" and values:
        # every row replaces the base's coupling; the first swept value stands in
        setattr(args, "lambda", f"gap:c={values[0]}")
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
    try:
        return args.handler(args)
    except (SpectralSpecError, ValueError, OSError) as exc:
        error, code = exc, EXIT_USAGE
    except QuenchEntropyError as exc:
        error, code = exc, EXIT_NUMERICAL
    print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
