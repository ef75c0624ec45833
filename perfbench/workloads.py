"""Workload table, seeded scenario draws and the output-correctness gate.

A scenario is one CLI invocation (`python -m quench_entropy <argv>`). Fixed
workloads have a single scenario. Seeded workloads draw theirs from a pool
fixed in this file; every pool member has a reference output, recorded from
the library as it was when the benchmark was added (see make_reference.py),
so any draw can be checked.

The pool is stratified on the coupling parameter c because c sets the
cone-covering k_max and therefore the quadrature grid sizes: one run takes one
member from every stratum, which keeps the run's median wall time close to
the workload's typical value whatever the seed.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

POOL_SEED = 20261017
C_RANGE = (1.4, 1.6)
# b0 >= 1: below about 0.95 the library itself rejects t = 0 (bk_bound exceeds
# szego_sum, exit 3), and a benchmark workload must not fail.
B0_RANGE = (1.0, 1.1)
B1_MAX = 0.1
# pool members per c stratum
PER_STRATUM = 4

# Relative and absolute tolerances of the output gate. Dense columns move by
# up to ~1e-10 relative when only the BLAS thread count changes.
VALUE_RTOL, VALUE_ATOL = 1e-8, 1e-10
FIT_RTOL, FIT_ATOL = 1e-6, 1e-8
FIT_FIELDS = ("slope", "intercept", "r_squared", "kappa1", "kappa2",
              "short_time_exponent", "final_value")

FIGURE1_GAPS = ("0.5", "1.0", "1.5")


@dataclasses.dataclass(frozen=True)
class Scenario:
    key: str            # reference key
    argv: tuple         # CLI arguments, without the output flag
    setup_configs: tuple  # ScenarioConfig dicts the setup probe validates


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    kind: str           # "evolve", "figure1" or "verify"
    points: int         # time points (checks for verify) one CLI run completes
    point_unit: str
    evolve_grid: dict | None = None  # N, t0, t1, steps of seeded evolve runs
    strata: int = 0     # c strata of the seeded pool; 0 = fixed inputs
    # the reason the workload was chosen, checked on every traced run: the
    # dominant layers' combined share exceeds one half, and no function of an
    # untouched layer is called
    dominant_layers: tuple = ()
    untouched_layers: tuple = ()

    def pool(self) -> list[tuple[int, Scenario]]:
        """(stratum, scenario) for every pool member, in a fixed order."""
        rng = random.Random(f"{self.name}:{POOL_SEED}")
        lo, hi = C_RANGE
        width = (hi - lo) / self.strata
        out = []
        for s in range(self.strata):
            for _ in range(PER_STRATUM):
                c = lo + width * (s + rng.random())
                b0 = rng.uniform(*B0_RANGE)
                b1 = rng.uniform(-B1_MAX, B1_MAX)
                out.append((s, self._evolve_scenario(f"gap:c={c:.4f}",
                                                     f"poly:{b0:.4f},{b1:.4f}")))
        return out

    def _evolve_scenario(self, lam: str, beta: str) -> Scenario:
        g = self.evolve_grid
        argv = ("evolve", "--lambda", lam, "--beta", beta, "-N", str(g["N"]),
                "--t0", str(g["t0"]), "--t1", str(g["t1"]),
                "--steps", str(g["steps"]), "--jobs", "1")
        config = {"lambda": lam, "beta": beta, **g}
        return Scenario(key=f"{lam} {beta}", argv=argv, setup_configs=(config,))

    def scenarios(self, seed: int) -> list[Scenario]:
        """The scenarios one run cycles through; a function of the seed only."""
        if self.kind == "figure1":
            configs = tuple({"lambda": f"gap:c={c}", "beta": "poly:1"}
                            for c in FIGURE1_GAPS)
            return [Scenario("figure1", ("figure1", "--jobs", "1"), configs)]
        if self.kind == "verify":
            return [Scenario("verify-full", ("verify", "--level", "full"),
                             ({"lambda": "gap:c=1.5", "beta": "poly:1"},))]
        rng = random.Random(f"{self.name}:{seed}")
        by_stratum = {}
        for s, sc in self.pool():
            by_stratum.setdefault(s, []).append(sc)
        picks = [rng.choice(by_stratum[s]) for s in range(self.strata)]
        rng.shuffle(picks)
        return picks


WORKLOADS = {w.name: w for w in (
    Workload(
        name="dense-ring",
        kind="evolve", points=9, point_unit="points",
        evolve_grid={"N": 512, "t0": 0, "t1": 10, "steps": 9}, strata=3,
        dominant_layers=("reduction",)),
    Workload(
        name="figure1",
        kind="figure1", points=3 * (101 + 11), point_unit="points",
        dominant_layers=("szego", "evolution", "spectral"),
        untouched_layers=("reduction",)),
    Workload(
        name="fourier-wide",
        kind="evolve", points=101, point_unit="points",
        evolve_grid={"N": 65536, "t0": 0, "t1": 50, "steps": 101}, strata=4,
        dominant_layers=("szego", "evolution", "spectral"),
        untouched_layers=("reduction",)),
    Workload(
        name="verify-full",
        kind="verify", points=25, point_unit="checks"),
)}


def output_argv(scenario: Scenario, out_path: str) -> list[str]:
    """Full CLI argument list writing the scenario's output to out_path."""
    return [*scenario.argv, "--out", out_path]


def output_path(workload: Workload, work_dir: str) -> str:
    """Where a run writes its output: a directory for figure1, else a file."""
    if workload.kind == "figure1":
        return os.path.join(work_dir, "figure1")
    return os.path.join(work_dir, "out.json" if workload.kind == "verify" else "out.csv")


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# output gate
# ---------------------------------------------------------------------------

def _close(a: float, b: float, rtol: float, atol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= atol + rtol * abs(b)


def compare_csv(text: str, ref: str) -> list[str]:
    """Mismatches between a CSV output and its reference text."""
    got = text.strip().split("\n")
    want = ref.strip().split("\n")
    if got[0] != want[0]:
        return [f"header {got[0]!r} != {want[0]!r}"]
    if len(got) != len(want):
        return [f"{len(got) - 1} rows, expected {len(want) - 1}"]
    errors = []
    for i, (g_line, w_line) in enumerate(zip(got[1:], want[1:]), start=1):
        g_cells, w_cells = g_line.split(","), w_line.split(",")
        if len(g_cells) != len(w_cells):
            errors.append(f"row {i}: {len(g_cells)} cells, expected {len(w_cells)}")
            continue
        for col, (g, w) in enumerate(zip(g_cells, w_cells)):
            try:
                ok = _close(float(g), float(w), VALUE_RTOL, VALUE_ATOL)
            except ValueError:
                ok = False
            if not ok:
                errors.append(f"row {i} col {col}: {g} != {w}")
    return errors


def check_output(workload: Workload, scenario: Scenario, out_path: str,
                 reference: dict) -> list[str]:
    """Every way the output at out_path differs from the reference; [] if none."""
    ref = reference[workload.name][scenario.key]
    try:
        if workload.kind == "evolve":
            with open(out_path) as fh:
                return compare_csv(fh.read(), ref["csv"])
        if workload.kind == "verify":
            with open(out_path) as fh:
                report = json.load(fh)
            return _check_verify(report, ref)
        return _check_figure1(out_path, ref)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def verify_summary(report: dict) -> dict:
    return {"all_passed": report["all_passed"],
            "checks": {fam: [c["name"] for c in body["checks"]]
                       for fam, body in sorted(report["families"].items())}}


def _check_verify(report: dict, ref: dict) -> list[str]:
    got = verify_summary(report)
    errors = []
    if got["all_passed"] != ref["all_passed"]:
        errors.append(f"all_passed {got['all_passed']} != {ref['all_passed']}")
    n_got = sum(map(len, got["checks"].values()))
    n_ref = sum(map(len, ref["checks"].values()))
    if n_got != n_ref or got["checks"] != ref["checks"]:
        errors.append(f"{n_got} checks, expected {n_ref} with the reference names")
    return errors


def figure1_summary(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "fits.json")) as fh:
        fits = json.load(fh)
    fits.pop("runtime_seconds", None)
    csv = {}
    for curve in fits["curves"].values():
        with open(os.path.join(out_dir, curve["csv"])) as fh:
            csv[curve["csv"]] = fh.read()
    return {"fits": fits, "csv": csv}


def _check_figure1(out_dir: str, ref: dict) -> list[str]:
    got = figure1_summary(out_dir)
    errors = []
    if got["fits"]["ordering_ok"] != ref["fits"]["ordering_ok"]:
        errors.append(f"ordering_ok {got['fits']['ordering_ok']} != "
                      f"{ref['fits']['ordering_ok']}")
    if sorted(got["fits"]["curves"]) != sorted(ref["fits"]["curves"]):
        return errors + [f"curves {sorted(got['fits']['curves'])} != "
                         f"{sorted(ref['fits']['curves'])}"]
    for name, want in ref["fits"]["curves"].items():
        have = got["fits"]["curves"][name]
        for field in FIT_FIELDS:
            if not _close(float(have[field]), float(want[field]), FIT_RTOL, FIT_ATOL):
                errors.append(f"{name} {field}: {have[field]!r} != {want[field]!r}")
    for fname, text in ref["csv"].items():
        if fname not in got["csv"]:
            errors.append(f"missing {fname}")
        else:
            errors.extend(f"{fname} {e}" for e in compare_csv(got["csv"][fname], text))
    return errors
