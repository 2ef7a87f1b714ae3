"""Frozen CLI text: the exact stdout of ``run``, ``serve``, ``chaos`` and
``cluster`` for seven small runs, replayed from stored results.

``tests/data/golden_cli.json`` holds, per case, the command line, the
``RunResult.to_dict()`` and label of every run the command simulated
(in call order) and the text the command printed.  The test replays the
command with ``run_experiment`` answering from the stored results, so
it simulates nothing: it pins ``_print_result``, ``_print_service``,
the chaos telemetry lines, ``_print_cluster`` and the baseline
comparison lines byte for byte, where the other CLI tests only look
for substrings.  Every replayed run must carry its stored label, so
the command must still build the same configurations.  A second test
re-simulates every case (about 2 s) and compares each run's
``to_dict()`` with its stored result, so a stored result that the code
no longer computes fails instead of replaying.

Regenerate (only for a deliberate, documented change of the text or of
simulated results; it simulates every case, about 3 s)::

    PYTHONPATH=src python -m tests.test_cli_golden
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from repro import cli
from repro.sim.engine import run_experiment
from repro.sim.results import RunResult

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "golden_cli.json"

CASES = {
    "run/stlt_2core": [
        "run", "--frontend", "stlt", "--cores", "2", "--keys", "2000",
        "--ops", "200", "--warmup-ops", "400"],
    # a rival design prints its accel line; the comparison adds two
    "run/victima_vs_baseline": [
        "run", "--program", "redis", "--frontend", "victima",
        "--keys", "6000", "--ops", "300", "--warmup-ops", "600",
        "--compare-baseline"],
    # the chaos-smoke mitigated serve: the chaos lines follow the
    # service lines
    "serve/mitigated_slowdown": [
        "serve", "--frontend", "stlt", "--cores", "2", "--load", "0.8",
        "--keys", "4000", "--ops", "500", "--warmup-ops", "1000",
        "--fault", "slowdown:core=1,factor=4", "--timeout", "6",
        "--retries", "2", "--hedge", "4", "--fallback"],
    "chaos/fault_plan_vs_baseline": [
        "chaos", "--frontend", "stlt", "--cores", "2",
        "--churn-rate", "0.005", "--fault", "slowdown:core=1,factor=2",
        "--keys", "4000", "--ops", "500", "--warmup-ops", "1000",
        "--compare-baseline"],
    "cluster/migration": [
        "cluster", "--frontend", "stlt", "--cores", "2", "--nodes", "3",
        "--replicas", "1", "--migrate-rate", "0.01", "--net-rtt", "300",
        "--keys", "4000", "--ops", "400", "--warmup-ops", "800"],
    "cluster/crash_restart": [
        "cluster", "--frontend", "stlt", "--cores", "2", "--nodes", "3",
        "--replicas", "1", "--net-rtt", "300", "--keys", "4000",
        "--ops", "400", "--warmup-ops", "800",
        "--node-fault-plan", "crash:node=1,at=0.4",
        "--node-fault-plan", "restart:node=1,at=0.6",
        "--detect-cycles", "2000"],
    "cluster/mixed_storm_hedge": [
        "cluster", "--frontend", "stlt", "--node-types", "6full+2accel",
        "--replicas", "1", "--net-rtt", "300", "--keys", "2000",
        "--ops", "500", "--warmup-ops", "500", "--exec-mode", "batched",
        "--load", "0.15", "--requests", "8000",
        "--node-fault-plan", "storm:rate=0.003", "--hedge", "2.0",
        "--seed", "2"],
}


def invoke(argv, run_fn) -> str:
    """The stdout of ``repro <argv>`` with ``run_fn`` running each
    configuration the command builds."""
    original = cli.run_experiment
    cli.run_experiment = run_fn
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
    finally:
        cli.run_experiment = original
    assert code == 0, f"repro {' '.join(argv)} exited {code}"
    return out.getvalue()


def replay(case: dict, simulate: bool = False) -> str:
    """Re-print a stored case without simulating; with ``simulate``,
    re-simulate each run instead and require its stored result."""
    runs = iter(case["runs"])

    def stored(config):
        run = next(runs)
        assert config.label == run["label"], "the command built another run"
        if not simulate:
            return RunResult.from_dict(run["result"])
        result = run_experiment(config)
        assert json.loads(json.dumps(result.to_dict())) == run["result"], (
            f"{run['label']} no longer simulates to its stored result")
        return result

    text = invoke(case["argv"], stored)
    assert next(runs, None) is None, "the command skipped a stored run"
    return text


def capture(argv) -> dict:
    """Simulate one case and record its runs and text."""
    runs = []

    def recorded(config):
        result = run_experiment(config)
        runs.append({"label": config.label,
                     "result": json.loads(json.dumps(result.to_dict()))})
        return result

    text = invoke(argv, recorded)
    return {"argv": list(argv), "runs": runs, "stdout": text}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)
    for name, argv in CASES.items():
        assert golden[name]["argv"] == argv, name


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_frozen_text(golden, name):
    want = golden[name]["stdout"]
    got = replay(golden[name])
    assert got.splitlines() == want.splitlines()
    assert got == want


@pytest.mark.parametrize("name", sorted(CASES))
def test_stored_runs_match_a_fresh_simulation(golden, name):
    """The replay trusts the stored results; this re-simulates each run
    of the case through the real ``run_experiment``, so a stored result
    that the code no longer computes fails here."""
    assert replay(golden[name], simulate=True) == golden[name]["stdout"]


def test_the_cases_print_every_block(golden):
    """The text only guards a printer block that the cases reach."""
    text = "".join(case["stdout"] for case in golden.values())
    for needle in ("cores         : 2", "accel         : victima",
                   "speedup       :", "mitigation    :", "fault plan    :",
                   "under churn", "migrations    :", "network       :",
                   "resilience    :", "node faults   :", "failover      :",
                   "writes        :", "fleet mix     :", "acked oracle  :"):
        assert needle in text, needle


if __name__ == "__main__":
    # key order stays as captured: the printers walk some dicts (the
    # chaos and failover event counts) in their insertion order
    GOLDEN_PATH.write_text(json.dumps(
        {name: capture(argv) for name, argv in CASES.items()}) + "\n")
    print(f"wrote {GOLDEN_PATH}")
