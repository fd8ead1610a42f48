"""Smoke test of the end-to-end benchmark (tier-1).

Runs ``run.py --smoke`` — every workload, untraced and traced, at sizes
that take seconds — and checks what a later change could silently break:
the output schema, that the metric names printed and the names declared
in BENCHMARK.json are the same sets, and the limits the benchmark
contract puts on that file.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def test_benchmark_json_is_within_the_contract():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in BENCHMARK[section]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


def test_smoke_run_prints_exactly_the_declared_metrics(tmp_path):
    out = tmp_path / "smoke.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1 and last["failed"] == 0
    results = json.loads(out.read_text())
    assert results["claim"] is None
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        untraced = results["results"][workload]["runs"][0]
        traced = results["results"][f"{workload}:traced"]["runs"][0]
        assert set(untraced["metrics"]) == end_to_end
        assert set(traced["metrics"]) == per_layer
        assert untraced["failed"] == 0 and traced["failed"] == 0
        assert all(value > 0 for value in untraced["metrics"].values())
        # The ledger partitions the replay's request seconds.
        attributed = sum(layer["self_s"] for layer in traced["ledger"].values())
        assert abs(attributed / traced["info"]["replay_request_s"] - 1) < 0.02
