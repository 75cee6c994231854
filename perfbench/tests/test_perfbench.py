"""Tests of the benchmark itself: metric declarations, reduced-size runs of
every workload, and that corrupted outputs are counted as failures.

    python3 -m pytest perfbench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import passiveqkd
import passiveqkd.cli
import run
import worker
from metrics import END_TO_END, IMPORT_METRICS, PER_LAYER
from tracing import TRACED_NAMES, RunSummary, Span
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def smoke(tmp_path, name, trace=False, seed=7):
    return worker.run(passiveqkd, ROOT, tmp_path, name, seed, 0, trace, smoke=True)


def test_declared_metrics_have_valid_names_and_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    # ``sweep`` is runnable but not declared: see "Workloads" in the README.
    assert sorted(w["name"] for w in spec["workloads"]) == ["keyrate-curve", "simulate-io"]
    assert sorted(run.WORKLOAD_NAMES) == sorted(WORKLOADS)
    for name, unit in {**END_TO_END, **PER_LAYER}.items():
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), (name, unit)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_passes_its_checks(tmp_path, name):
    result = smoke(tmp_path, name)
    assert result["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert set(result["metrics"]) == {"wall_s", "throughput"}
    assert all(v > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_smoke_run_restores_names_and_repeats_counts(tmp_path, name):
    originals = {(m, a): getattr(getattr(passiveqkd, m), a) for m, a, _ in TRACED_NAMES}
    first = smoke(tmp_path, name, trace=True)
    second = smoke(tmp_path, name, trace=True)
    for (module, attr), fn in originals.items():
        assert getattr(getattr(passiveqkd, module), attr) is fn
    # Traced iterations must write the same bytes as untraced ones.
    assert first["correct"] and first["failed"] == 0, first["problems"]
    assert set(first["metrics"]) == set(PER_LAYER) - set(IMPORT_METRICS)
    counts = [k for k in PER_LAYER if k.endswith(("calls", "_per_call"))]
    assert {k: first["metrics"][k] for k in counts} == {
        k: second["metrics"][k] for k in counts}
    spans = Path(first["spans"]).read_text().splitlines()
    assert set(json.loads(spans[0])) == {"run", "id", "parent", "name", "thread",
                                         "start_ns", "end_ns"}


def test_traced_counts_match_the_workloads(tmp_path):
    sweep = smoke(tmp_path, "sweep", trace=True)["metrics"]
    assert sweep["sampling.simulate_batch.calls"] == 12
    assert sweep["estimation.blocked_correlation.calls"] == 12
    assert sweep["keyrate.key_rate_point.calls"] == 0
    assert sweep["cli.sweep.parallelism"] > 0
    curve = smoke(tmp_path, "keyrate-curve", trace=True)["metrics"]
    assert curve["keyrate.distance_cutoff.calls"] == 1
    assert curve["keyrate.optimize_attenuation.evals_per_call"] > 200
    assert curve["sampling.simulate_batch.calls"] == 0


def test_self_time_subtracts_the_union_of_children():
    spans = [Span(1, 1, None, "p", 0, 0, 10, None),
             Span(1, 2, 1, "c", 0, 1, 4, None),
             Span(1, 3, 1, "c", 1, 3, 6, None),
             Span(1, 4, 1, "c", 1, 8, 12, None)]
    summary = RunSummary(spans)
    assert summary.self_ns["p"] == 10 - (5 + 2)
    assert summary.child_calls("p", "c") == 3
    assert summary.calls["c"] == 3


def _corrupt_after(monkeypatch, command, corrupt):
    """Make ``passiveqkd.cli.main`` damage its output after ``command`` runs."""
    main = passiveqkd.cli.main

    def damaged(argv):
        code = main(argv)
        if argv[0] == command:
            path = Path(argv[argv.index("--out") + 1])
            path.write_bytes(corrupt(path.read_bytes()))
        return code

    monkeypatch.setattr(passiveqkd.cli, "main", damaged)


def _flip_first_digit(data):
    lines = data.split(b"\n")
    row = bytearray(lines[2])
    i = next(i for i, c in enumerate(row) if c in b"123456789")
    row[i] = ord("1") if row[i] != ord("1") else ord("2")
    lines[2] = bytes(row)
    return b"\n".join(lines)


def _shift_first_correlation(data):
    lines = data.decode().split("\n")
    fields = lines[2].split(",")
    fields[1] = repr(float(fields[1]) - 0.05)
    lines[2] = ",".join(fields)
    return "\n".join(lines).encode()


def _change_rate_at_80_km(data):
    lines = data.decode().split("\n")
    for i, line in enumerate(lines):
        fields = line.split(",")
        if fields[0] == "80":
            fields[5] = repr(float(fields[5]) * (1 + 1e-6))
            lines[i] = ",".join(fields)
    return "\n".join(lines).encode()


@pytest.mark.parametrize("name, command, corrupt", [
    ("simulate-io", "simulate", _flip_first_digit),
    ("sweep", "sweep-n0", _shift_first_correlation),
    ("keyrate-curve", "keyrate", _change_rate_at_80_km),
])
def test_corrupted_output_is_counted_as_failed(tmp_path, monkeypatch, name, command,
                                               corrupt):
    _corrupt_after(monkeypatch, command, corrupt)
    result = smoke(tmp_path, name)
    assert not result["correct"]
    assert result["failed"] >= 3  # one per iteration at least
    assert result["problems"]


def test_failed_cli_command_is_counted(tmp_path, monkeypatch):
    monkeypatch.setattr(passiveqkd.cli, "main", lambda argv: 3)
    result = smoke(tmp_path, "sweep")
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def _run_command(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, names", [("0", END_TO_END), ("1", PER_LAYER)])
def test_command_prints_every_metric_as_last_line(trace, names):
    proc = _run_command(ROOT, "--workload", "keyrate-curve", "--seed", "3",
                        "--seconds", "0", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_command(tmp_path, "--workload", "sweep", "--seed", "1",
                        "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout
