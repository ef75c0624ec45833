"""End-to-end command-line behavior: formats, exit codes, determinism, fault paths.

Most tests drive the real console entry point in a subprocess; the fault
injection ones run in-process so a single operation can be monkeypatched.
"""

import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from quench_entropy import (ConsistencyError, EvolutionSetup, TrigPolynomial,
                            evolve, gap_family)
import quench_entropy
from quench_entropy import cli, pipeline, reduction
from quench_entropy.evolution import GaussianPureState
from quench_entropy.pipeline import CSV_HEADER
from quench_entropy.szego import szego_sum_for
from quench_entropy.verify import _reduction_family

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


def test_uncoupled_rows_exactly_zero():
    res = run_cli("evolve", "--lambda", "poly:2.25", "--beta", "poly:1",
                  "-N", "16", "--steps", "4", "--t1", "6.0")
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


def test_verify_quick_subprocess():
    res = run_cli("verify", "--level", "quick")
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout)
    assert report["all_passed"] is True
    assert set(report["families"]) == {"spectral", "evolution", "reduction", "szego"}
    for fam in report["families"].values():
        assert fam["passed"] and fam["checks"]


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


def test_fault_injection_breaks_symbol_record(monkeypatch):
    # the same row passes clean; a 1 % error in the (Re A)^{-1} symbol that
    # symbol_record cuts P~ from must trip one of its kept checks
    args = (gap_family(1.5), TrigPolynomial([1.0, 0.1]), 16, 8, 2.0, None, True, True)
    pipeline.compute_row(*args)
    real_rows = reduction._circulant_rows

    def corrupted(a):
        rows = real_rows(a)
        rows["inv_real"] = 1.01 * rows["inv_real"]
        return rows

    monkeypatch.setattr(reduction, "_circulant_rows", corrupted)
    with pytest.raises(ConsistencyError):
        pipeline.compute_row(*args)


def test_verify_failure_exit_code(monkeypatch, capsys):
    fake = {
        "level": "quick",
        "families": {"spectral": {"passed": False, "checks": [
            {"name": "broken", "passed": False, "detail": "boom"}]}},
        "all_passed": False,
    }
    monkeypatch.setattr(cli, "run_verification", lambda level: fake)
    rc = cli.main(["verify", "--level", "quick"])
    assert rc == 1
    assert "FAILED spectral.broken" in capsys.readouterr().err


def test_figure1_ordering_failure_exit_code(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli.pipeline, "run_figure1",
                        lambda out, jobs=1: {"curves": {}, "ordering_ok": False,
                                             "runtime_seconds": 0.0})
    rc = cli.main(["figure1", "--out", str(tmp_path)])
    assert rc == 1
