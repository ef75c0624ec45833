"""Self-test of the benchmark's tracer.

    python3 -m pytest -q perfbench/check_tracer.py

The file name keeps it out of the library's own test collection; pytest runs
it when named explicitly.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(HERE, "..", "src"))

from quench_entropy import cli, evolution, pipeline, spectral  # noqa: E402
from tracer import Tracer, layer_metrics, library_functions  # noqa: E402

# one gapped dense scenario, one critical one (k-doubling retries), the quick
# verification (the oracles) and a shortened figure1 preset (see small_figure1)
SMALL_RUNS = (
    ["evolve", "--lambda", "gap:c=1.5", "--beta", "poly:1.0,0.05", "-N", "32",
     "--t1", "2", "--steps", "3"],
    ["evolve", "--lambda", "gap:c=1.0", "-N", "16", "--t1", "20", "--steps", "2"],
    ["verify", "--level", "quick"],
    ["figure1", "--jobs", "1"],
)


@pytest.fixture(autouse=True)
def small_figure1(monkeypatch):
    """figure1 on 12 points to t = 11 instead of 101 to t = 50."""
    monkeypatch.setattr(pipeline, "FIGURE1_T_POINTS", 12)
    monkeypatch.setattr(pipeline, "FIGURE1_T_END", 11.0)
    monkeypatch.setattr(pipeline, "FIGURE1_FIT_WINDOW", (0.0, 11.0))


def _run_small(tmp_path, tracer: Tracer, profile: cProfile.Profile | None = None):
    for i, argv in enumerate(SMALL_RUNS):
        tracer.install()
        if profile is not None:
            profile.enable()
        try:
            code = cli.main(argv + ["--out", str(tmp_path / f"run{i}")])
        finally:
            if profile is not None:
                profile.disable()
            tracer.uninstall()
        assert code == 0


def test_wrapper_counts_equal_cprofile_counts(tmp_path):
    tracer, profile = Tracer(), cProfile.Profile()
    _run_small(tmp_path, tracer, profile)
    stats = pstats.Stats(profile).stats
    counts = tracer.counts()
    mismatches = {}
    for name, fn in library_functions().items():
        code = fn.__code__
        profiled = stats.get((code.co_filename, code.co_firstlineno, code.co_name),
                             (0, 0))[1]
        if profiled != counts[name]:
            mismatches[name] = (counts[name], profiled)
    assert not mismatches, f"(traced, cProfile) call counts differ: {mismatches}"
    # the from-import bindings and the figure1 and verify paths are covered
    # too, so these are all non-zero
    for name in ("spectral.evaluate", "spectral.extrema", "spectral.is_critical",
                 "evolution.lambda_of_t", "evolution.evolve", "reduction.densify",
                 "reduction.exact_entropy", "szego.szego_sum_for", "szego.bk_bound",
                 "szego._cosine_coeffs_once", "pipeline.compute_row",
                 "pipeline.run_figure1", "verify.run_verification",
                 "szego.parseval_check", "szego.spectrum_maximum",
                 "evolution.riccati_oracle"):
        assert counts[name] > 0, name


def test_counts_repeat_exactly(tmp_path):
    first, second = Tracer(), Tracer()
    _run_small(tmp_path, first)
    _run_small(tmp_path, second)
    assert first.counts() == second.counts()
    m1 = layer_metrics(first.spans, 1.0, 1.0)
    m2 = layer_metrics(second.spans, 1.0, 1.0)
    count_keys = [k for k, (_, unit) in m1.items() if unit == "count"]
    assert {k: m1[k][0] for k in count_keys} == {k: m2[k][0] for k in count_keys}
    assert m1["szego.tail_retries"][0] > 0  # the critical run retried


def test_uninstall_restores_every_binding(tmp_path):
    originals = (pipeline.evolve, pipeline.is_critical, evolution.evaluate,
                 spectral.evaluate)
    _run_small(tmp_path, Tracer())
    assert (pipeline.evolve, pipeline.is_critical, evolution.evaluate,
            spectral.evaluate) == originals
    assert not hasattr(spectral.evaluate, "__wrapped__")


def test_metrics_are_the_ones_benchmark_json_declares(tmp_path):
    tracer = Tracer()
    _run_small(tmp_path, tracer)
    produced = {k: unit for k, (_, unit) in layer_metrics(tracer.spans, 1.0, 1.0).items()}
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    assert produced == declared
