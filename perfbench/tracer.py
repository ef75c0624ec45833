"""In-process tracer for the per-layer metrics of the benchmark.

The tracer wraps every public function of each library module (the layers
spectral, evolution, reduction, szego, pipeline and verify), plus the
quadrature pass `szego._cosine_coeffs_once` and `numpy.linalg`'s inv, eigvals
and cholesky, from outside: nothing in src/ changes. Modules bind many of
these with `from .x import y`, so each wrapper is installed at every module of
the package that holds the original object, or those calls would escape.

A span is (name, start, end, parent); spans stay in memory until the run
ends. Run as a script, this file executes one workload in-process: each
repetition runs it once untraced and once traced, checks both outputs, and
writes the per-layer metrics as JSON.

    PYTHONPATH=src python3 perfbench/tracer.py --workload figure1 --seed 1 \
        --seconds 40 --out trace.json
"""

from __future__ import annotations

import argparse
import collections
import functools
import importlib
import json
import os
import shutil
import statistics
import sys
import time
import traceback

import numpy as np
from quench_entropy import cli

import workloads

LAYERS = ("spectral", "evolution", "reduction", "szego", "pipeline", "verify")
PRIVATE_TARGETS = {"szego": ("_cosine_coeffs_once",)}
LINALG = ("inv", "eigvals", "cholesky")
# argument holding the sampled theta points, by span name: an array counts
# its size, an integer (a quadrature grid) itself
POINT_ARG = {"spectral.evaluate": 1, "evolution.lambda_of_t": 2,
             "szego._cosine_coeffs_once": 2}
MIN_REPS = 2  # (untraced, traced) pairs, so that counts can be compared
# span fields
NAME, START, END, PARENT, ERROR, POINTS, NESTED = range(7)


def library_functions() -> dict:
    """Span name -> original function for every traced library function."""
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"quench_entropy.{layer}")
        extra = PRIVATE_TARGETS.get(layer, ())
        for attr, obj in vars(mod).items():
            if (callable(obj) and getattr(obj, "__module__", None) == mod.__name__
                    and hasattr(obj, "__code__")
                    and (not attr.startswith("_") or attr in extra)):
                out[f"{layer}.{attr}"] = obj
    return out


def _points(arg) -> int:
    return int(arg) if isinstance(arg, (int, np.integer)) else int(np.size(arg))


class Tracer:
    """Records spans around wrapped callables; install() swaps the wrappers in."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._active = collections.Counter()
        self._patches: list[tuple] = []

    def wrap(self, name: str, fn):
        spans, stack, active = self.spans, self._stack, self._active
        point_arg = POINT_ARG.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None,
                    _points(args[point_arg]) if point_arg is not None else 0,
                    active[name] > 0]
            spans.append(span)
            stack.append(idx)
            active[name] += 1
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = clock()
                active[name] -= 1
                stack.pop()
        return traced

    def install(self) -> None:
        import numpy.linalg as la
        targets = dict(library_functions())
        targets.update({f"numpy.linalg.{f}": getattr(la, f) for f in LINALG})
        by_id = {id(fn): self.wrap(name, fn) for name, fn in targets.items()}
        modules = [m for n, m in list(sys.modules.items())
                   if n == "quench_entropy" or n.startswith("quench_entropy.")]
        for mod in modules + [la]:
            for attr, obj in list(vars(mod).items()):
                wrapper = by_id.get(id(obj))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def counts(self) -> collections.Counter:
        return collections.Counter(s[NAME] for s in self.spans)


def _quantile(values, q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def layer_metrics(spans: list, traced_wall: float, untraced_wall: float,
                  verify_checks: tuple[int, int] = (0, 0)) -> dict:
    """Per-layer metrics (name -> (value, unit)) of one traced run.

    verify_checks is (checks run, checks failed) from the verify report.
    """
    n = len(spans)
    child_time = [0.0] * n
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]

    def layer_of(i: int) -> str:
        # numpy.linalg time belongs to the library layer that called it
        while spans[i][NAME].startswith("numpy.") and spans[i][PARENT] >= 0:
            i = spans[i][PARENT]
        return spans[i][NAME].split(".")[0]

    calls, points, errors = (collections.Counter() for _ in range(3))
    incl, self_time, layer_self = (collections.defaultdict(float) for _ in range(3))
    linalg_in_reduction = 0
    for i, s in enumerate(spans):
        name, dur = s[NAME], s[END] - s[START]
        calls[name] += 1
        points[name] += s[POINTS]
        if not s[NESTED]:
            incl[name] += dur
        self_time[name] += dur - child_time[i]
        if s[ERROR]:
            errors[(name, s[ERROR])] += 1
        if name.startswith("numpy.linalg.") and s[PARENT] >= 0 \
                and spans[s[PARENT]][NAME].startswith("reduction."):
            linalg_in_reduction += 1
        layer = layer_of(i)
        if layer != "numpy":
            layer_self[layer] += dur - child_time[i]

    point_spans = [s[END] - s[START] for s in spans if s[NAME] == "pipeline.compute_row"]
    if not point_spans:  # figure1: each time point is one szego_sum_for call
        point_spans = [s[END] - s[START] for s in spans
                       if s[NAME] == "szego.szego_sum_for" and s[PARENT] >= 0
                       and spans[s[PARENT]][NAME] == "pipeline.run_figure1"]

    values_emitted = sum(1 for s in spans if not s[ERROR]
                         and s[NAME] in ("szego.szego_sum_for", "szego.bk_bound"))
    quadratures = calls["szego.log_symbol_coeffs"] + calls["szego.bk_coeffs"]
    rows = calls["reduction.densify"]

    m = {}
    m["spectral.evaluate.calls"] = (calls["spectral.evaluate"], "count")
    m["spectral.evaluate.points"] = (points["spectral.evaluate"], "count")
    m["spectral.evaluate.self_s"] = (self_time["spectral.evaluate"], "s")
    m["spectral.extrema.calls"] = (calls["spectral.extrema"], "count")
    m["spectral.extrema.s"] = (incl["spectral.extrema"], "s")
    m["evolution.lambda_of_t.calls"] = (calls["evolution.lambda_of_t"], "count")
    m["evolution.lambda_of_t.points"] = (points["evolution.lambda_of_t"], "count")
    m["evolution.lambda_of_t.self_s"] = (self_time["evolution.lambda_of_t"], "s")
    m["evolution.evolve.s"] = (incl["evolution.evolve"], "s")
    m["evolution.riccati_oracle.s"] = (incl["evolution.riccati_oracle"], "s")
    for f in ("densify", "partition", "reduce", "purity", "exact_entropy", "det_bound"):
        m[f"reduction.{f}.s"] = (incl[f"reduction.{f}"], "s")
    m["reduction.linalg_calls_per_row"] = (linalg_in_reduction / rows if rows else 0.0,
                                           "count")
    m["szego.szego_sum_for.s"] = (incl["szego.szego_sum_for"], "s")
    for f in ("log_symbol_coeffs", "bk_coeffs"):
        m[f"szego.{f}.calls"] = (calls[f"szego.{f}"], "count")
        m[f"szego.{f}.s"] = (incl[f"szego.{f}"], "s")
    m["szego.spectrum_maximum.s"] = (incl["szego.spectrum_maximum"], "s")
    m["szego.parseval_check.s"] = (incl["szego.parseval_check"], "s")
    m["szego.quadrature_samples"] = (points["szego._cosine_coeffs_once"], "count")
    m["szego.tail_retries"] = (errors[("szego.szego_sum", "TailCriterionError")], "count")
    m["szego.useful_ratio"] = (values_emitted / quadratures if quadratures else 0.0,
                               "ratio")
    m["pipeline.points"] = (len(point_spans), "count")
    m["pipeline.point_p50_s"] = (_quantile(point_spans, 0.5), "s")
    m["pipeline.point_p90_s"] = (_quantile(point_spans, 0.9), "s")
    m["pipeline.format_csv.s"] = (incl["pipeline.format_csv"], "s")
    m["verify.run_verification.s"] = (incl["verify.run_verification"], "s")
    m["verify.checks"] = (verify_checks[0], "count")
    m["verify.checks_failed"] = (verify_checks[1], "count")
    for layer in LAYERS:
        m[f"{layer}.share"] = (layer_self[layer] / traced_wall, "ratio")
    m["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    return m


def premise_failures(workload: workloads.Workload, metrics: dict,
                     counts: collections.Counter) -> list[str]:
    """How a traced run contradicts the reason the workload was chosen."""
    failures = []
    if workload.dominant_layers:
        share = sum(metrics[f"{layer}.share"][0] for layer in workload.dominant_layers)
        if not share > 0.5:
            failures.append(f"{' + '.join(workload.dominant_layers)} share "
                            f"{share:.3f}, expected > 0.5")
    for layer in workload.untouched_layers:
        called = sum(n for name, n in counts.items() if name.startswith(layer + "."))
        if called:
            failures.append(f"{layer} called {called} times, expected never")
    return failures


def _execute(workload, scenario, work_dir: str, reference: dict, tracer=None):
    """One in-process CLI run; returns (wall seconds, list of errors)."""
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    out = workloads.output_path(workload, work_dir)
    argv = workloads.output_argv(scenario, out)
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        code = cli.main(argv)
        errors = [f"exit code {code}"] if code else []
    except Exception:  # noqa: BLE001 - a crashing run is a failed run, not the end
        errors = [traceback.format_exc(limit=3)]
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    errors += workloads.check_output(workload, scenario, out, reference)
    return wall, errors


def trace_workload(name: str, seed: int, seconds: float, work_dir: str) -> dict:
    """Repeat (untraced run, traced run) pairs for about `seconds`; summarize."""
    workload = workloads.WORKLOADS[name]
    scenario = workload.scenarios(seed)[0]
    reference = workloads.load_reference()
    started = time.perf_counter()
    reps, errors, attempted, failed = [], [], 0, 0
    while len(reps) < MIN_REPS or (
            time.perf_counter() - started
            + statistics.median(r["pair_s"] for r in reps) <= seconds):
        pair_start = time.perf_counter()
        untraced, errs = _execute(workload, scenario, work_dir, reference)
        tracer = Tracer()
        traced, errs2 = _execute(workload, scenario, work_dir, reference, tracer)
        errors += errs + errs2
        attempted += 2
        failed += bool(errs) + bool(errs2)
        checks = (_verify_counts(workloads.output_path(workload, work_dir))
                  if workload.kind == "verify" else (0, 0))
        metrics = layer_metrics(tracer.spans, traced, untraced, checks)
        reps.append({"pair_s": time.perf_counter() - pair_start, "metrics": metrics,
                     "counts": tracer.counts(), "spans": tracer.spans})
    shutil.rmtree(work_dir, ignore_errors=True)

    deterministic = all(r["counts"] == reps[0]["counts"] for r in reps)
    merged = {}
    for key, (value, unit) in reps[0]["metrics"].items():
        if unit == "count":
            merged[key] = {"value": value, "unit": unit}
            deterministic &= all(r["metrics"][key][0] == value for r in reps)
        else:
            merged[key] = {"value": statistics.median(r["metrics"][key][0] for r in reps),
                           "unit": unit}
    return {
        "workload": name, "seed": seed, "scenario": scenario.key,
        "repetitions": len(reps), "attempted": attempted, "failed": failed,
        "errors": errors,
        "deterministic": deterministic,
        "premise_failures": [f for r in reps for f in
                             premise_failures(workload, r["metrics"], r["counts"])],
        "metrics": merged,
        "spans": [s[:4] for s in reps[-1]["spans"]],
    }


def _verify_counts(report_path: str) -> tuple[int, int]:
    """(checks run, checks failed); (0, 0) when the run left no report."""
    try:
        with open(report_path) as fh:
            report = json.load(fh)
    except (OSError, ValueError):
        return 0, 0
    checks = [c for fam in report["families"].values() for c in fam["checks"]]
    return len(checks), sum(not c["passed"] for c in checks)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True,
                        help="metrics JSON path; the last traced run's spans go next "
                             "to it, as <name>.spans.json")
    args = parser.parse_args(argv)
    work_dir = os.path.join(os.path.dirname(os.path.abspath(args.out)),
                            f"trace-work-{args.workload}")
    result = trace_workload(args.workload, args.seed, args.seconds, work_dir)
    spans = result.pop("spans")
    with open(os.path.splitext(args.out)[0] + ".spans.json", "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent"], "spans": spans}, fh)
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
