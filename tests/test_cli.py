"""End-to-end command-line behavior: formats, exit codes, determinism, fault paths.

Most tests drive the real console entry point in a subprocess; the fault
injection ones run in-process so a single operation can be monkeypatched.
"""

import argparse
import dataclasses
import json
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from quench_entropy import (ConsistencyError, EvolutionSetup, TrigPolynomial,
                            evolve, gap_family)
import quench_entropy
from quench_entropy import cli, pipeline, reduction, spectral, szego
from quench_entropy.evolution import GaussianPureState
from quench_entropy.pipeline import CSV_HEADER
from quench_entropy.szego import szego_sum_for
from quench_entropy.verify import _random_symbol, _reduction_family

LAM15 = "gap:c=1.5"


# the child imports the package this process imported, installed or not
_PKG_ROOT = os.path.dirname(os.path.dirname(quench_entropy.__file__))
_CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    p for p in (_PKG_ROOT, os.environ.get("PYTHONPATH")) if p)}


def run_cli(*args, timeout=300):
    return subprocess.run([sys.executable, "-m", "quench_entropy", *args],
                          capture_output=True, text=True, timeout=timeout,
                          env=_CHILD_ENV)


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    rows = [[float(x) for x in ln.split(",")] for ln in lines[1:]]
    return header, rows


def test_evolve_header_and_initial_row():
    res = run_cli("evolve", "--lambda", LAM15, "-N", "16", "--steps", "3", "--t1", "1.0")
    assert res.returncode == 0
    header, rows = parse_csv(res.stdout)
    assert ",".join(header) == CSV_HEADER
    assert len(rows) == 3
    # a flat initial width is uncoupled at t = 0: every bound starts at zero
    assert rows[0][0] == 0.0
    assert rows[0][1:] == [0.0, 0.0, 0.0, 0.0, 0.0]
    # no stray "-0" anywhere in the emitted text
    assert "-0," not in res.stdout and not res.stdout.endswith("-0\n")


@pytest.mark.parametrize("coupling", [LAM15, "gap:c=1.0"])
def test_flat_width_initial_row_exactly_zero(coupling):
    # the product state at t = 0 carries no entanglement, with no rounding dust
    res = run_cli("evolve", "--lambda", coupling, "--beta", "poly:1", "-N", "64",
                  "--steps", "2", "--t1", "1.0")
    assert res.returncode == 0
    _, rows = parse_csv(res.stdout)
    assert rows[0][:5] == [0.0, 0.0, 0.0, 0.0, 0.0]


def test_csv_roundtrips_full_precision():
    res = run_cli("evolve", "--lambda", LAM15, "-N", "16", "--steps", "3", "--t1", "1.0")
    _, rows = parse_csv(res.stdout)
    lam = gap_family(1.5)
    beta = TrigPolynomial([1.0])
    for row in rows:
        # %.17g output parses back to the exact double the library computes
        assert row[4] == szego_sum_for(lam, beta, row[0])


def test_evolve_deterministic_and_jobs_invariant():
    args = ("evolve", "--lambda", LAM15, "-N", "16", "--steps", "5", "--t1", "2.0")
    first = run_cli(*args)
    second = run_cli(*args)
    parallel = run_cli(*args, "--jobs", "2")
    assert first.stdout == second.stdout
    assert first.stdout == parallel.stdout


def test_critical_rows_jobs_invariant():
    # each critical row runs its own quadrature, so a worker's rows match
    # those of one process, and those of a fresh in-process call
    args = ("evolve", "--lambda", "gap:c=0.5", "-N", "16", "--steps", "3", "--t1", "50.0")
    serial = run_cli(*args)
    parallel = run_cli(*args, "--jobs", "2")
    assert serial.returncode == 0 and serial.stdout == parallel.stdout
    _, rows = parse_csv(serial.stdout)
    lam, beta = gap_family(0.5), TrigPolynomial([1.0])
    for row in rows[::-1]:
        assert row[4] == szego_sum_for(lam, beta, row[0])


def test_pool_has_no_more_workers_than_rows(monkeypatch, capsys):
    import concurrent.futures

    sizes = []

    class SerialPool:
        """Stands in for ProcessPoolExecutor: records max_workers, maps in process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    args = ["evolve", "--lambda", LAM15, "-N", "16", "--steps", "3", "--t1", "2.0"]
    assert cli.main(args) == 0
    serial = capsys.readouterr().out
    assert cli.main([*args, "--jobs", "64"]) == 0
    assert capsys.readouterr().out == serial
    assert sizes == [3]
    assert pipeline._map_rows(pow, [(2, 3), (3, 2)], 5) == [8, 9]
    assert pipeline._map_rows(pow, [(2, 3), (3, 2), (2, 2)], 2) == [8, 9, 4]
    assert sizes == [3, 2, 2]


@pytest.mark.parametrize("N", [15, 16, 17, 100])
def test_uncoupled_rows_exactly_zero(N):
    # decided from the mode symbols, so a size whose FFT leaves rounding in
    # the circulant row gives exact zeros too
    res = run_cli("evolve", "--lambda", "poly:2.25", "--beta", "poly:1",
                  "-N", str(N), "--steps", "4", "--t1", "6.0")
    assert res.returncode == 0
    _, rows = parse_csv(res.stdout)
    for row in rows:
        assert row[1:] == [0.0, 0.0, 0.0, 0.0, 0.0], row


def test_stationary_columns_constant():
    res = run_cli("evolve", "--lambda", LAM15, "--beta", "poly:1.5,-1",
                  "-N", "16", "--steps", "5", "--t1", "8.0")
    assert res.returncode == 0
    _, rows = parse_csv(res.stdout)
    cols = np.array(rows)
    for j in range(1, 6):
        assert np.ptp(cols[:, j]) < 1e-8, (j, cols[:, j])


def test_dump_state_schema_and_roundtrip(tmp_path):
    out = tmp_path / "state.json"
    res = run_cli("evolve", "--lambda", LAM15, "-N", "12", "--steps", "2",
                  "--t1", "1.5", "--out", str(tmp_path / "series.csv"),
                  "--dump-state", str(out))
    assert res.returncode == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"N", "t", "re", "im"}
    assert payload["N"] == 12 and payload["t"] == 1.5
    assert len(payload["re"]) == 12 and len(payload["im"]) == 12
    state = GaussianPureState.from_json_dict(payload)
    ref = evolve(EvolutionSetup(gap_family(1.5), TrigPolynomial([1.0]), 12), 1.5)
    assert np.abs(state.mode_symbols - ref.mode_symbols).max() == 0.0


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"lambda": LAM15, "N": 16, "steps": 2, "t1": 1.0}))
    res = run_cli("evolve", "--config", str(cfg), "--steps", "4")
    assert res.returncode == 0
    _, rows = parse_csv(res.stdout)
    assert len(rows) == 4
    assert rows[-1][0] == 1.0


def test_output_file_matches_stdout(tmp_path):
    out = tmp_path / "series.csv"
    piped = run_cli("evolve", "--lambda", LAM15, "-N", "16", "--steps", "3", "--t1", "1.0")
    written = run_cli("evolve", "--lambda", LAM15, "-N", "16", "--steps", "3",
                      "--t1", "1.0", "--out", str(out))
    assert written.returncode == 0 and written.stdout == ""
    assert out.read_text() == piped.stdout


@pytest.mark.parametrize("args", [
    ("evolve", "--lambda", "gap:q=2"),
    ("evolve", "--lambda", "poly:1,abc"),
    ("evolve",),                                        # no spectrum at all
    ("evolve", "--lambda", LAM15, "--steps", "1"),
    ("evolve", "--lambda", LAM15, "-N", "16", "-n", "16"),
    ("evolve", "--lambda", LAM15, "--kmax", "sometimes"),
    ("evolve", "--lambda", LAM15, "-N", "16", "--steps", "2", "--kmax", "5000000"),
    ("evolve", "--lambda", "poly:1,-2"),                # sign-changing coupling
    ("sweep", "--param", "N", "--values", ",,", "--lambda", LAM15),
    ("sweep", "--param", "N", "--values", "16,xy", "--lambda", LAM15),
    ("sweep", "--param", "bogus", "--values", "1", "--lambda", LAM15),
    ("nonsense",),
])
def test_usage_errors_exit_two(args):
    res = run_cli(*args)
    assert res.returncode == 2, (args, res.stderr)


def test_forced_truncation_is_numerical_error():
    res = run_cli("evolve", "--lambda", LAM15, "-N", "16", "--steps", "2",
                  "--t1", "5.0", "--kmax", "3")
    assert res.returncode == 3
    assert "error:" in res.stderr


def test_help_exits_clean():
    res = run_cli("--help")
    assert res.returncode == 0
    assert "evolve" in res.stdout and "figure1" in res.stdout


def test_sweep_shape_and_param_column():
    res = run_cli("sweep", "--param", "N", "--values", "16,32", "--lambda", LAM15,
                  "--steps", "3", "--t1", "2.0")
    assert res.returncode == 0
    header, rows = parse_csv(res.stdout)
    assert header[0] == "param_value" and ",".join(header[1:]) == CSV_HEADER
    assert len(rows) == 6
    assert [r[0] for r in rows] == [16.0] * 3 + [32.0] * 3


def test_sweep_gap_parameter():
    res = run_cli("sweep", "--param", "c", "--values", "1.2,1.5",
                  "--steps", "2", "--t1", "1.0", "-N", "16")
    assert res.returncode == 0
    _, rows = parse_csv(res.stdout)
    assert len(rows) == 4
    # larger gap parameter means a weaker bound at the same time
    assert rows[1][5] > rows[3][5]


def test_critical_coupling_warns_and_emits_nan():
    res = run_cli("evolve", "--lambda", "gap:c=1.0", "-N", "16",
                  "--steps", "2", "--t1", "1.0")
    assert res.returncode == 0
    assert "critical" in res.stderr
    _, rows = parse_csv(res.stdout)
    assert math.isnan(rows[1][5])       # momentum bound undefined without a gap
    assert not math.isnan(rows[1][4])   # log-spectrum bound still fine


def test_compute_row_derives_its_nan_columns():
    # no flag selects the columns: the smaller side of the cut decides the
    # dense ones and the coupling decides bk_bound
    beta = TrigPolynomial([1.05, 0.05])
    N = 2 * pipeline.DENSE_CUT_LIMIT + 2
    big = pipeline.compute_row(gap_family(1.5), beta, N, N // 2, 2.0, None)
    assert all(math.isnan(v) for v in (big.exact_entropy, big.neg_log_purity, big.det_bound))
    small_cut = pipeline.compute_row(gap_family(1.5), beta, N, 16, 2.0, None)
    assert small_cut.exact_entropy >= small_cut.neg_log_purity >= small_cut.det_bound > 0.0
    edge = pipeline.compute_row(gap_family(1.5), beta, N, N - pipeline.DENSE_CUT_LIMIT, 2.0, None)
    assert not math.isnan(edge.det_bound)
    assert big.szego_sum == szego_sum_for(gap_family(1.5), beta, 2.0)
    assert 0.0 < big.bk_bound <= big.szego_sum
    critical = pipeline.compute_row(gap_family(1.0), beta, 32, 16, 2.0, None)
    assert math.isnan(critical.bk_bound)
    assert critical.szego_sum == szego_sum_for(gap_family(1.0), beta, 2.0)
    assert critical.exact_entropy >= critical.neg_log_purity >= critical.det_bound > 0.0


def test_rejected_spec_names_its_minimum():
    res = run_cli("evolve", "--lambda", "poly:1,-2")
    assert res.returncode == 2
    assert res.stderr == ("error: coupling spectrum (lambda) must be non-negative; "
                          "minimum -1 at theta=0\n")


def test_sweep_warns_like_evolve():
    res = run_cli("sweep", "--param", "c", "--values", "0.5,1.5",
                  "--steps", "2", "--t1", "1.0", "-N", "16")
    assert res.returncode == 0
    assert "critical" in res.stderr
    _, rows = parse_csv(res.stdout)
    assert math.isnan(rows[1][6]) and not math.isnan(rows[3][6])
    res = run_cli("sweep", "--param", "N", "--values", "16,2048", "--lambda", LAM15,
                  "--steps", "2", "--t1", "1.0")
    assert res.returncode == 0
    assert "exceeds the dense cutoff" in res.stderr
    _, rows = parse_csv(res.stdout)
    assert not math.isnan(rows[1][2]) and math.isnan(rows[3][2])


def test_small_cut_of_large_ring_gets_dense_columns():
    res = run_cli("evolve", "--lambda", "gap:c=1.5", "-N", "65536", "-n", "32",
                  "--t1", "5", "--steps", "3")
    assert res.returncode == 0, res.stderr
    assert "dense cutoff" not in res.stderr
    _, rows = parse_csv(res.stdout)
    assert rows[0][1:4] == [0.0, 0.0, 0.0]
    for t, exact, nlp, det, _, _ in rows[1:]:
        assert exact >= nlp - 1e-8 and nlp >= det - 1e-8 and det > 0.0, t


def test_verify_quick_subprocess():
    res = run_cli("verify", "--level", "quick")
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout)
    assert report["all_passed"] is True
    assert set(report["families"]) == {"spectral", "evolution", "reduction", "szego"}
    for fam in report["families"].values():
        assert fam["passed"] and fam["checks"]


def test_library_runs_without_scipy():
    # the CLI's whole path (validation, a dense row with bk_bound, the
    # spectrum maximum) loads numpy only
    code = (
        "import sys\n"
        "import quench_entropy, quench_entropy.cli\n"
        "from quench_entropy import pipeline, szego\n"
        "config = pipeline.ScenarioConfig('gap:c=1.5', 'poly:1.05,0.05', N=32)\n"
        "lam, beta = config.symbols()\n"
        "row = pipeline.compute_row(lam, beta, 32, 16, 2.0, None)\n"
        "assert row.bk_bound > 0.0 and row.exact_entropy > 0.0\n"
        "assert szego.spectrum_maximum(lam, beta, 2.0) > 0.0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=_CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_verify_loads_no_numpy_random_and_repeats():
    # verify's seeded draws come from random.Random, so a run loads neither
    # numpy's bit generators nor secrets/hashlib (OpenSSL), and two runs in
    # one process report the same
    code = (
        "import sys\n"
        "from quench_entropy import run_verification\n"
        "first = run_verification('quick')\n"
        "assert first['all_passed'] and run_verification('quick') == first\n"
        "print(sorted(m for m in ('numpy.random', 'secrets', 'hashlib', '_hashlib')\n"
        "             if m in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=_CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_random_symbol_contract():
    # verify's random symbols: degree <= max_degree, a_0 in [0.5, top], every
    # other coefficient within spread * a_0 / degree, minimum above 0.05; each
    # degree up to max_degree is drawn
    for max_degree, top, spread in ((3, 3.0, 0.4), (2, 2.0, 0.3)):
        rng = random.Random(max_degree)
        degrees = set()
        for _ in range(300):
            poly = _random_symbol(rng, max_degree, top, spread)
            a = poly.coeffs
            degrees.add(poly.degree)
            assert poly.degree <= max_degree
            assert 0.5 <= a[0] <= top
            if poly.degree:
                assert np.all(np.abs(a[1:]) <= spread * a[0] / poly.degree)
            assert spectral.extrema(poly).minimum > 0.05
        assert degrees == set(range(max_degree + 1))


def test_verify_suites_load_only_for_verify():
    # an evolve start never imports quench_entropy.verify; the package's
    # run_verification and verify load it on first use
    code = (
        "import contextlib, io, sys\n"
        "import quench_entropy\n"
        "from quench_entropy import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['evolve', '--lambda', 'gap:c=1.5', '-N', '32', '--steps', '2']) == 0\n"
        "print('quench_entropy.verify' in sys.modules)\n"
        "from quench_entropy import run_verification\n"
        "from quench_entropy.verify import run_verification as direct\n"
        "assert run_verification is direct and quench_entropy.verify.run_verification is direct\n"
        "assert 'run_verification' in quench_entropy.__all__\n"
        "namespace = {}\n"
        "exec('from quench_entropy import *', namespace)\n"
        "assert namespace['run_verification'] is direct\n"
        "print('quench_entropy.verify' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=_CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]
    with pytest.raises(AttributeError):
        quench_entropy.no_such_name  # noqa: B018


def test_serial_run_loads_neither_numpy_ma_nor_concurrent_futures():
    # both cost start-up time; the process pool is imported only for --jobs > 1
    code = (
        "import contextlib, io, sys\n"
        "from quench_entropy import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['evolve', '--lambda', 'gap:c=1.5', '--beta', 'poly:1.05,0.05',\n"
        "                     '-N', '64', '--steps', '3', '--jobs', '1']) == 0\n"
        "print(sorted(m for m in ('numpy.ma', 'concurrent.futures') if m in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=_CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_row_args_adds_no_scan(monkeypatch):
    # the config keeps the symbols it validated, so building the rows reuses
    # their extrema instead of parsing and scanning both specs again
    calls = []
    real = spectral._solve_extrema

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(spectral, "_solve_extrema", counting)
    config = pipeline.ScenarioConfig(LAM15, "poly:1.05,0.05", N=32, steps=3)
    assert len(calls) == 2  # one solve for each symbol
    args = pipeline._row_args(config)
    assert len(calls) == 2
    assert args[0][:2] == config.symbols()


@pytest.mark.parametrize("param, values", [
    ("t1", (2.0, 3.0, 4.0)), ("N", (16, 24, 40)), ("n", (3, 5, 7)), ("c", (1.2, 2.0, 3.0))])
def test_sweep_validates_each_value_once(monkeypatch, param, values):
    # each swept value's config parses and solves both its specs, as one
    # built by hand does, and building its rows solves nothing more
    calls = []
    real = spectral._solve_extrema

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(spectral, "_solve_extrema", counting)
    base = pipeline.ScenarioConfig(LAM15, "poly:1.05,0.05", N=32, steps=2, t1=1.0)
    assert len(calls) == 2
    configs = [pipeline._sweep_config(base, param, v) for v in values]
    assert len(calls) == 2 + 2 * len(values)
    text = pipeline.run_sweep(base, param, values)
    assert len(calls) == 2 + 4 * len(values)
    assert len(text.splitlines()) == 1 + 2 * len(values)
    for cfg in configs:
        assert cfg == pipeline.ScenarioConfig(cfg.lambda_spec, cfg.beta_spec, N=cfg.N, n=cfg.n,
                                              steps=2, t1=cfg.t1)


def test_sweep_keeps_config_errors():
    base = pipeline.ScenarioConfig(LAM15, "poly:1.05,0.05", N=32)
    with pytest.raises(ValueError, match="twice the symbol degree"):
        pipeline._sweep_config(base, "N", 4)
    with pytest.raises(ValueError, match="cut n=40"):
        pipeline._sweep_config(base, "n", 40)
    with pytest.raises(quench_entropy.SpectralSpecError):
        pipeline._sweep_config(base, "c", float("nan"))


@pytest.mark.parametrize("param, value", [("N", "32.7"), ("n", "8.5"), ("N", "inf")])
def test_sweep_rejects_non_integral_size(param, value, capsys):
    # a size would otherwise be truncated while param_value keeps the fraction;
    # a swept value is converted like a config value, with its message
    rc = cli.main(["sweep", "--param", param, "--values", f"16,{value}",
                   "--lambda", LAM15, "-N", "32", "--steps", "2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{param} must be an integer, got {value}" in err


@pytest.mark.parametrize("config", [{}, {"lambda": "poly:5"}])
def test_sweep_gap_parameter_from_config(config, tmp_path, capsys):
    # --param c needs no base coupling: from a config with or without a
    # lambda, the sweep is the one run from flags
    argv = ["sweep", "--param", "c", "--values", "1.2,2", "--steps", "2", "--t1", "1.0"]
    assert cli.main([*argv, "-N", "16"]) == 0
    from_flags = capsys.readouterr().out
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**config, "N": 16}))
    assert cli.main([*argv, "--config", str(path)]) == 0
    assert capsys.readouterr().out == from_flags


@pytest.mark.parametrize("key", ["N", "n", "steps", "jobs", "kmax"])
def test_config_rejects_non_integral_values(key):
    # a fractional size or count would otherwise be truncated silently
    with pytest.raises(quench_entropy.SpectralSpecError, match=f"{key} must be an integer"):
        pipeline.config_from_dict({"lambda": LAM15, key: 12.5})
    config = pipeline.config_from_dict({"lambda": LAM15, key: 12.0})
    assert {"N": config.N, "n": config.n, "steps": config.steps, "jobs": config.jobs,
            "kmax": config.k_max}[key] == 12


@pytest.mark.parametrize("key", ["N", "n", "steps", "kmax", "jobs", "t0", "t1"])
def test_config_rejects_boolean_values(key):
    # JSON true would otherwise be read as 1
    for val in (True, False):
        with pytest.raises(quench_entropy.SpectralSpecError, match=f"{key} must be a number"):
            pipeline.config_from_dict({"lambda": LAM15, key: val})


def test_config_keys_match_flag_dests_and_fields():
    # one key per flag that feeds a config, and one per ScenarioConfig field
    parser = argparse.ArgumentParser()
    cli._add_scenario_flags(parser)
    dests = {a.dest for a in parser._actions} - {"help", "config", "out", "dump_state"}
    fields = [f.name for f in dataclasses.fields(pipeline.ScenarioConfig) if f.init]
    assert set(pipeline.CONFIG_FIELDS) == dests
    assert sorted(pipeline.CONFIG_FIELDS.values()) == sorted(fields)


@pytest.mark.parametrize("key", sorted(set(pipeline.CONFIG_FIELDS) - {"lambda"}))
def test_config_null_means_default(key, tmp_path):
    default = pipeline.config_from_dict({"lambda": LAM15})
    assert pipeline.config_from_dict({"lambda": LAM15, key: None}) == default
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"lambda": LAM15, key: None}))
    assert pipeline.config_from_json(str(path)) == default
    # an unset flag (None) keeps the file's value
    path.write_text(json.dumps({"lambda": LAM15, "N": 16, "steps": 3}))
    config = pipeline.config_from_json(str(path), {key: None})
    assert (config.N, config.steps) == (16, 3)


def test_config_null_lambda_exits_two(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"lambda": None, "N": 16}))
    assert cli.main(["evolve", "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: config needs a lambda spectral spec\n"


@pytest.mark.parametrize("error", [*quench_entropy.QuenchEntropyError.__subclasses__(),
                                   ValueError, OSError], ids=lambda e: e.__name__)
def test_library_error_exit_code(error, monkeypatch, capsys):
    def fail(config):
        raise error("injected failure")

    monkeypatch.setattr(pipeline, "run_series", fail)
    rc = cli.main(["evolve", "--lambda", LAM15])
    usage = (quench_entropy.SpectralSpecError, ValueError, OSError)
    assert rc == (2 if error in usage else 3)
    out, err = capsys.readouterr()
    assert out == "" and err == "error: injected failure\n"


def test_config_file_with_boolean_kmax_exits_two(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"lambda": LAM15, "N": 16, "kmax": True}))
    assert cli.main(["evolve", "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "kmax must be a number, got True" in err


def test_config_file_with_fractional_values_exits_two(tmp_path):
    path = tmp_path / "config.json"
    for raw in ({"lambda": LAM15, "N": 32.7, "steps": 3.9}, {"lambda": LAM15, "kmax": 12.5}):
        path.write_text(json.dumps(raw))
        res = run_cli("evolve", "--config", str(path))
        assert res.returncode == 2, (raw, res.stdout)
        assert res.stdout == "" and "must be an integer" in res.stderr


@pytest.mark.parametrize("flag, value", [("--t1", "inf"), ("--t1", "-inf"), ("--t0", "-inf")])
def test_evolve_rejects_non_finite_time(flag, value):
    res = run_cli("evolve", "--lambda", LAM15, "-N", "16", f"{flag}={value}")
    assert res.returncode == 2
    assert f"{flag[2:]}={float(value)} must be finite" in res.stderr
    assert "Warning" not in res.stderr


def test_public_names_resolve():
    for name in quench_entropy.__all__:
        assert getattr(quench_entropy, name) is not None, name


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_figure1_rejects_nonpositive_jobs(jobs, tmp_path, capsys):
    out = tmp_path / "fig"
    rc = cli.main(["figure1", "--jobs", jobs, "--out", str(out)])
    assert rc == 2
    assert f"jobs={jobs} must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_fault_injection_breaks_purity(monkeypatch):
    real_reduce = reduction.reduce

    def corrupted(blocks):
        red = real_reduce(blocks)
        return dataclasses.replace(red, gamma=1.01 * red.gamma)

    monkeypatch.setattr(reduction, "reduce", corrupted)
    dense = reduction.densify(
        evolve(EvolutionSetup(gap_family(1.5), TrigPolynomial([1.0]), 16), 2.0))
    with pytest.raises(ConsistencyError):
        reduction.purity(reduction.partition(dense, 8))
    # the verification family sees the same corruption and reports it
    report = _reduction_family(True).report()
    assert report["passed"] is False


def test_fault_injection_trips_block_row_residual(monkeypatch):
    # a 1e-6 error in the (Re A)^{-1} symbol leaves the covariance physical and
    # self-consistent, so only the block-row residual gate can catch it
    args = (gap_family(1.5), TrigPolynomial([1.0, 0.1]), 16, 8, 2.0, None)
    real_rows = reduction._circulant_rows

    def corrupted(a):
        rows = real_rows(a)
        rows["inv_real"] = (1.0 + 1e-6) * rows["inv_real"]
        return rows

    monkeypatch.setattr(reduction, "_circulant_rows", corrupted)
    with pytest.raises(ConsistencyError, match="block-row identity residual"):
        pipeline.compute_row(*args)


def test_fault_injection_breaks_symbol_record(monkeypatch):
    # the same row passes clean; a 1 % error in the (Re A)^{-1} symbol that
    # symbol_record cuts P~ from must trip one of its kept checks
    args = (gap_family(1.5), TrigPolynomial([1.0, 0.1]), 16, 8, 2.0, None)
    pipeline.compute_row(*args)
    real_rows = reduction._circulant_rows

    def corrupted(a):
        rows = real_rows(a)
        rows["inv_real"] = 1.01 * rows["inv_real"]
        return rows

    monkeypatch.setattr(reduction, "_circulant_rows", corrupted)
    with pytest.raises(ConsistencyError):
        pipeline.compute_row(*args)


def test_fault_injection_fails_purity_vs_symplectic(monkeypatch):
    # verify compares the dense purity against symbol_record's; a 1e-6 shift
    # in the smaller-side route fails that check and no other
    real = reduction.symbol_record

    def corrupted(state, n):
        rec = real(state, n)
        return dataclasses.replace(rec, neg_log_purity=rec.neg_log_purity + 1e-6)

    monkeypatch.setattr(reduction, "symbol_record", corrupted)
    checks = _reduction_family(True).report()["checks"]
    assert [c["name"] for c in checks if not c["passed"]] == ["purity_vs_symplectic"]


def test_entropy_chain_slack_reports_coupled_instances():
    # product-state draws have slacks of exactly 0 and are left out of the minima
    checks = {c["name"]: c for c in _reduction_family(True).report()["checks"]}
    detail = checks["entropy_chain_slack"]["detail"]
    assert detail.startswith("min slacks ")
    slacks = [float(v) for v in detail[len("min slacks "):].split(", ")]
    assert len(slacks) == 2 and all(v > 0.0 for v in slacks), detail


def test_fault_injection_fails_spectral_checks(monkeypatch, tmp_path, capsys):
    # a raising operation fails the spectral checks that call it, as in every
    # family; the other checks still run and the report is written
    def names(report):
        return [f"{fam}.{c['name']}" for fam, r in sorted(report["families"].items())
                for c in r["checks"]]

    clean = quench_entropy.run_verification("quick")

    def broken(lam, N):
        raise ValueError("injected fault")

    monkeypatch.setattr(spectral, "build_circulant", broken)
    out = tmp_path / "report.json"
    assert cli.main(["verify", "--level", "quick", "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert names(report) == names(clean)
    failed = [c for c in report["families"]["spectral"]["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["circulant_eigenvalues_match_symbol",
                                           "circulant_symmetric"]
    assert all(c["detail"] == "ValueError: injected fault" for c in failed)
    assert all(r["passed"] for fam, r in report["families"].items() if fam != "spectral")
    assert "FAILED spectral.circulant_symmetric: ValueError: injected fault" in capsys.readouterr().err


def test_compute_row_refuses_a_broken_entropy_chain(monkeypatch, capsys):
    # a det bound above -ln purity is refused, not written
    real = reduction.symbol_record

    def bumped(state, n):
        rec = real(state, n)
        return dataclasses.replace(rec, det_bound=rec.neg_log_purity + 1e-6)

    monkeypatch.setattr(reduction, "symbol_record", bumped)
    with pytest.raises(ConsistencyError, match="entropy bound chain violated"):
        pipeline.compute_row(gap_family(1.5), TrigPolynomial([1.05, 0.05]), 16, 8, 2.0, None)
    rc = cli.main(["evolve", "--lambda", LAM15, "-N", "16", "--steps", "2", "--t1", "2.0"])
    assert rc == 3
    assert "entropy bound chain violated" in capsys.readouterr().err


def test_compute_row_refuses_bk_above_szego(monkeypatch, capsys):
    # a momentum-coefficient bound above the Szego sum is refused for a gapped
    # coupling; a critical one has no momentum bound to hold against it
    real_sum = szego.szego_sum_for
    monkeypatch.setattr(szego, "bk_bound",
                        lambda lam, beta, t, k_max=None: real_sum(lam, beta, t, k_max) + 1e-6)
    beta = TrigPolynomial([1.05, 0.05])
    with pytest.raises(ConsistencyError, match="momentum-coefficient bound .* exceeds"):
        pipeline.compute_row(gap_family(1.5), beta, 16, 8, 2.0, None)
    assert math.isnan(pipeline.compute_row(gap_family(1.0), beta, 16, 8, 2.0, None).bk_bound)
    rc = cli.main(["evolve", "--lambda", LAM15, "-N", "16", "--steps", "2", "--t1", "2.0"])
    assert rc == 3
    assert "exceeds the log-spectrum bound" in capsys.readouterr().err


def _failed_checks(report):
    return [f"{fam}.{c['name']}" for fam, r in sorted(report["families"].items())
            for c in r["checks"] if not c["passed"]]


def test_chain_tolerance_is_read_from_reduction(monkeypatch):
    # the row gate and verify's chain check both read reduction's tolerance
    monkeypatch.setattr(reduction, "_CHAIN_TOL", -1.0)
    with pytest.raises(ConsistencyError, match="entropy bound chain violated"):
        pipeline.compute_row(gap_family(1.5), TrigPolynomial([1.05, 0.05]), 16, 8, 2.0, None)
    report = quench_entropy.run_verification("quick")
    assert _failed_checks(report) == ["reduction.entropy_chain_slack"]


def test_bk_chain_tolerance_is_read_from_szego(monkeypatch):
    # the gapped row gate and verify's ordering check both read szego's tolerance
    monkeypatch.setattr(szego, "_BK_CHAIN_TOL", -1.0)
    with pytest.raises(ConsistencyError, match="momentum-coefficient bound .* exceeds"):
        pipeline.compute_row(gap_family(1.5), TrigPolynomial([1.05, 0.05]), 16, 8, 2.0, None)
    report = quench_entropy.run_verification("quick")
    assert _failed_checks(report) == ["szego.momentum_bound_below_szego"]


def test_verify_failure_exit_code(monkeypatch, capsys):
    fake = {
        "level": "quick",
        "families": {"spectral": {"passed": False, "checks": [
            {"name": "broken", "passed": False, "detail": "boom"}]}},
        "all_passed": False,
    }
    monkeypatch.setattr("quench_entropy.verify.run_verification", lambda level: fake)
    rc = cli.main(["verify", "--level", "quick"])
    assert rc == 1
    assert "FAILED spectral.broken" in capsys.readouterr().err


def test_figure1_ordering_failure_exit_code(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli.pipeline, "run_figure1",
                        lambda out, jobs=1: {"curves": {}, "ordering_ok": False,
                                             "runtime_seconds": 0.0})
    rc = cli.main(["figure1", "--out", str(tmp_path)])
    assert rc == 1
