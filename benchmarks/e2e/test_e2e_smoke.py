"""Smoke test of the end-to-end benchmark: ``pytest benchmarks/e2e``.

Runs all five workloads once at ``--scale smoke`` (one untraced and one
traced run each, plus the cross-mode check) and checks that every
declared metric is emitted with its unit, that the preconditions and the
reference/batched identity hold, and that tracing leaves the simulated
results bit-identical.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from benchmarks.e2e.report import verdict
from benchmarks.e2e.spec import (LAYER_METRICS, METRICS, METRICS_BY_NAME,
                                 ROOT, WORKLOAD_NAMES, load_benchmark_json)


def _bench(*args: str, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "benchmarks.e2e", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600, check=False)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "result.json"
    proc = _bench("--scale", "smoke", "--reps", "1", "--seed", "1",
                  "--trace", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    return json.loads(out.read_text(encoding="utf-8")), proc.stdout


def test_every_declared_metric_is_emitted_with_its_unit(smoke):
    envelope, stdout = smoke
    declared = load_benchmark_json()
    for w in WORKLOAD_NAMES:
        metrics = envelope["metrics"][w]
        for metric in METRICS:
            assert metric.name in stdout
            if w in metric.workloads:
                assert metrics[metric.name]["unit"] == metric.unit
                assert metrics[metric.name]["n"] == 1
        for m in declared["end_to_end"]:
            assert metrics[m["name"]]["unit"] == m["unit"]
        layers = envelope["layer_metrics"][w]
        for m in declared["per_layer"]:
            assert layers[m["name"]]["unit"] == m["unit"]
    assert {m["name"] for m in declared["per_layer"]} == set(LAYER_METRICS)


def test_preconditions_and_cross_mode_identity_hold(smoke):
    envelope, _ = smoke
    for w in WORKLOAD_NAMES:
        assert envelope["failures"][w] == []
        assert envelope["checks"][w] and all(
            c["ok"] for c in envelope["checks"][w])
        cross = envelope["cross_mode"][w]
        assert cross["identical"]
        assert cross["reference"] == cross["batched"]


def test_traced_run_leaves_sim_digest_bit_identical(smoke):
    envelope, _ = smoke
    for w in WORKLOAD_NAMES:
        assert envelope["traced_sim_digest"][w] == envelope["sim_digest"][w]
        layers = envelope["layer_metrics"][w]
        assert layers["unattributed.self_s"]["median"] >= 0
        assert layers["trace.overhead_ratio"]["median"] > 0


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"),
                                            ("1", "per_layer")])
def test_time_boxed_run_prints_the_result_line(trace, section):
    proc = _bench("--workload", "hot", "--scale", "smoke", "--seed", "3",
                  "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr[-4000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["attempted"] >= 1 and line["failed"] == 0
    names = [m["name"] for m in load_benchmark_json()[section]]
    assert sorted(line["metrics"]) == sorted(names)


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "benchmarks" / "e2e",
                    tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "hot", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_verdicts():
    cpu = METRICS_BY_NAME["cpu_s"]
    parent = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0]
    assert verdict(cpu,0.1, parent, parent) == "unchanged"
    assert verdict(cpu,0.1, parent, [v * 1.2 for v in parent]) == "worse"
    assert verdict(cpu,0.1, parent, [v * 0.8 for v in parent]) == "better"
    # a gain needs ten pairs
    assert verdict(cpu,0.1, parent[:5], [v * 0.8 for v in parent[:5]]) \
        == "unresolved"
    noisy = [5.0, 15.0] * 5
    assert verdict(cpu,0.1, noisy, [v * 1.05 for v in noisy]) \
        == "unresolved"
    # a noisy parent does not hide a change that is worse in every run
    assert verdict(cpu,0.1, [9.0, 11.0] * 5, [12.0, 13.0] * 5) == "worse"
    speedup = METRICS_BY_NAME["sim_speedup"]
    assert verdict(speedup, 0.0, [1.5], [1.5]) == "unchanged"
    assert verdict(speedup, 0.0, [1.5], [1.4999]) == "worse"
