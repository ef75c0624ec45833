"""Benchmark of the quench-entropy CLI: end-to-end timing and per-layer tracing.

    python3 perfbench/run.py --workload dense-ring --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Run from the repository root; the library is taken from ./src. With
--trace 0 the CLI (`python -m quench_entropy ... --jobs 1`) runs as a child
process, repeatedly for about --seconds, and every output is checked against
reference.json; the end-to-end metrics are cpu_s, points_per_s, setup_s and
peak_rss_mb, all from each child's own rusage. With --trace 1,
tracer.py runs the workload in-process, once untraced and once traced per
repetition, and the metrics are the per-layer ones. The last line of standard output is one JSON object; the lines before
it give medians with quartiles and sample counts, fail_ratio and the machine
context. Full results go to .perfbench_out/results/.

See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
BLAS_THREADS = 1
SETUP_REPS = 5
MIN_RUNS = 2
# a run stops launching children after this many seconds, and kills a child
# still running at the hard limit, so the whole run ends well within 180 s
RUN_DEADLINE_S = 150.0

# imports what `python -m quench_entropy` imports, then validates the configs
SETUP_PROBE = (
    "import json, sys\n"
    "from quench_entropy import cli, pipeline\n"
    "for config in json.loads(sys.argv[1]):\n"
    "    pipeline.config_from_dict(config)\n"
)

# also the warm-up: importing the CLI compiles the package's bytecode
CONTEXT_PROBE = (
    "import json, sys, numpy, scipy, quench_entropy\n"
    "from quench_entropy import cli\n"
    "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
    "print(json.dumps({'python': sys.version.split()[0], 'numpy': numpy.__version__,\n"
    "    'scipy': scipy.__version__, 'blas': f\"{blas.get('name')} {blas.get('version')}\",\n"
    "    'package_file': quench_entropy.__file__}))\n"
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(argv: list[str], env: dict, timeout: float, stdout=subprocess.DEVNULL,
          stderr=subprocess.DEVNULL) -> tuple[float, float, int, float]:
    """Run a child to completion: (wall s, CPU s, exit code, peak RSS in MB).

    CPU time (user + system) and RSS come from this child's own rusage
    (wait4); RUSAGE_CHILDREN would sum, or take the maximum, over every child
    so far.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=stdout, stderr=stderr)
    killer = threading.Timer(max(timeout, 1.0), proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, usage.ru_utime + usage.ru_stime, proc.returncode,
            usage.ru_maxrss / 1024.0)


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        v = values[0]
        return {"median": v, "q1": v, "q3": v, "n": len(values)}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


def machine_context(seed: int, env: dict) -> dict:
    out = subprocess.run([sys.executable, "-c", CONTEXT_PROBE], env=env,
                         capture_output=True, text=True, timeout=60)
    if out.returncode != 0:
        raise BenchError(f"cannot import the library from ./src:\n{out.stderr}")
    ctx = json.loads(out.stdout)
    if not os.path.abspath(ctx["package_file"]).startswith(os.path.abspath("src") + os.sep):
        raise BenchError(f"library imported from {ctx['package_file']}, not ./src")
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(glob.glob("src/quench_entropy/*.py")):
        with open(path, "rb") as fh:
            digest.update(path.encode() + b"\0" + fh.read())
    git_sha = None
    if os.path.isdir(".git"):
        try:
            res = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=30)
            git_sha = res.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    ctx.update({
        "nproc": os.cpu_count(), "cpu_model": model, "platform": platform.platform(),
        "blas_threads": BLAS_THREADS, "git_sha": git_sha,
        "src_sha256": digest.hexdigest()[:16], "seed": seed,
    })
    return ctx


def measure(workload: workloads.Workload, seed: int, seconds: float, env: dict) -> dict:
    """Untraced end-to-end run: setup probes, then CLI runs for about `seconds`."""
    started = time.perf_counter()
    scenarios = workload.scenarios(seed)
    reference = workloads.load_reference()
    missing = [s.key for s in scenarios if s.key not in reference.get(workload.name, {})]
    if missing:
        raise BenchError(f"no reference output for {missing}")

    def remaining() -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - started)

    setup_argv = [sys.executable, "-c", SETUP_PROBE,
                  json.dumps([c for s in scenarios for c in s.setup_configs])]
    setup = []
    for _ in range(SETUP_REPS):
        _, cpu, code, _ = spawn(setup_argv, env, remaining())
        if code != 0:
            raise BenchError(f"setup probe exited with {code}")
        setup.append(cpu)

    work_dir = os.path.join(OUT_DIR, f"work-{workload.name}")
    runs = []
    min_runs = max(MIN_RUNS, len(scenarios))
    # start another run while it would end at most half a run past `seconds`,
    # so that on average the run lasts `seconds`
    while len(runs) < min_runs or (
            time.perf_counter() - started
            + statistics.median(r["wall_s"] for r in runs) / 2 <= seconds):
        if remaining() <= 0:
            break
        scenario = scenarios[len(runs) % len(scenarios)]
        shutil.rmtree(work_dir, ignore_errors=True)
        os.makedirs(work_dir)
        out = workloads.output_path(workload, work_dir)
        argv = [sys.executable, "-m", "quench_entropy",
                *workloads.output_argv(scenario, out)]
        with open(os.path.join(work_dir, "stderr.txt"), "w") as err:
            wall, cpu, code, rss = spawn(argv, env, remaining(), stderr=err)
        errors = [f"exit code {code}"] if code else []
        errors += workloads.check_output(workload, scenario, out, reference)
        runs.append({"scenario": scenario.key, "wall_s": wall, "cpu_s": cpu,
                     "exit_code": code,
                     "peak_rss_mb": rss, "errors": errors[:5]})
    shutil.rmtree(work_dir, ignore_errors=True)
    if not runs:
        raise BenchError(f"no CLI run started within {RUN_DEADLINE_S} s")

    failed = sum(bool(r["errors"]) for r in runs)
    summary = {
        "cpu_s": quartiles([r["cpu_s"] for r in runs]),
        "wall_s": quartiles([r["wall_s"] for r in runs]),
        "setup_s": quartiles(setup),
        "peak_rss_mb": quartiles([r["peak_rss_mb"] for r in runs]),
        "fail_ratio": failed / len(runs),
    }
    # seeded workloads draw one scenario per c stratum, and c moves the run
    # time by up to +-15 %: the median of each scenario's runs, averaged over
    # the strata, keeps the draw within a stratum as the only input noise
    per_scenario = {}
    for r in runs:
        per_scenario.setdefault(r["scenario"], []).append(r["cpu_s"])
    cpu = statistics.fmean(statistics.median(v) for v in per_scenario.values())
    return {
        "attempted": len(runs), "failed": failed, "runs": runs,
        "errors": [e for r in runs for e in r["errors"]],
        "summary": summary,
        "metrics": {
            "cpu_s": {"value": cpu, "unit": "s"},
            "points_per_s": {"value": workload.points / cpu, "unit": "1/s"},
            "setup_s": {"value": summary["setup_s"]["median"], "unit": "s"},
            "peak_rss_mb": {"value": summary["peak_rss_mb"]["median"], "unit": "MB"},
        },
    }


def trace(workload: workloads.Workload, seed: int, seconds: float, env: dict) -> dict:
    """Traced in-process run in a child interpreter; per-layer metrics."""
    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, f"trace-{workload.name}.json")
    argv = [sys.executable, os.path.join(HERE, "tracer.py"), "--workload", workload.name,
            "--seed", str(seed), "--seconds", str(seconds), "--out", out]
    with open(os.path.join(OUT_DIR, f"trace-{workload.name}.stderr"), "w") as err:
        _, _, code, _ = spawn(argv, env, RUN_DEADLINE_S, stderr=err)
    if code != 0:
        raise BenchError(f"tracer exited with {code}; see {err.name}")
    with open(out) as fh:
        result = json.load(fh)
    # a traced run that contradicts its own premise is not a correct result
    result["trace_errors"] = [f"premise not confirmed: {f}"
                              for f in result["premise_failures"]]
    if not result["deterministic"]:
        result["trace_errors"].append("counts differ between traced repetitions")
    result["errors"] += result["trace_errors"]
    return result


def describe(workload: workloads.Workload, result: dict, traced: bool) -> list[str]:
    lines = []
    if traced:
        for key, m in result["metrics"].items():
            value = m["value"] if m["unit"] == "count" else f"{m['value']:.6g}"
            lines.append(f"{workload.name} {key} {value} {m['unit']}")
        if workload.dominant_layers and not result["premise_failures"]:
            lines.append(f"{workload.name} premise confirmed: "
                         f"{' + '.join(workload.dominant_layers)} share > 0.5"
                         + "".join(f", {layer} never called"
                                   for layer in workload.untouched_layers))
        return lines
    s = result["summary"]
    # quartiles over single CLI runs (setup probes); wall_s is not a metric
    for key, unit in (("cpu_s", "s"), ("wall_s", "s"), ("setup_s", "s"),
                      ("peak_rss_mb", "MB")):
        q = s[key]
        lines.append(f"{workload.name} runs {key} {q['median']:.6g} {unit} "
                     f"(q1 {q['q1']:.6g}, q3 {q['q3']:.6g}, n={q['n']})")
    for key, m in result["metrics"].items():
        lines.append(f"{workload.name} {key} {m['value']:.6g} {m['unit']}"
                     + (f" ({workload.points} {workload.point_unit} per run)"
                        if key == "points_per_s" else ""))
    lines.append(f"{workload.name} fail_ratio {s['fail_ratio']:.6g} ratio "
                 f"({result['failed']}/{result['attempted']})")
    return lines


def run_one(workload: workloads.Workload, seed: int, seconds: float, traced: bool,
            env: dict, context: dict) -> dict:
    result = (trace if traced else measure)(workload, seed, seconds, env)
    result.update(workload=workload.name, seed=seed, trace=int(traced), context=context)
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    path = os.path.join(OUT_DIR, "results",
                        f"{workload.name}-seed{seed}-trace{int(traced)}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)
    for line in describe(workload, result, traced):
        print(line)
    for e in result["errors"][:10]:
        print(f"{workload.name} error: {e}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so spawn() kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join("src", "quench_entropy", "__init__.py")):
        print("error: run from the repository root; src/quench_entropy not found",
              file=sys.stderr)
        return 2
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    env = child_env()
    try:
        context = machine_context(args.seed, env)
        print("context " + json.dumps(context, sort_keys=True))
        results = {n: run_one(workloads.WORKLOADS[n], args.seed, args.seconds,
                              bool(args.trace), env, context) for n in names}
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    trace_ok = not any(r.get("trace_errors") for r in results.values())
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0 and trace_ok, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
