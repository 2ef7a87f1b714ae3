"""Picklable run functions for runner fault-injection tests.

``SweepRunner`` ships its ``run_fn`` to worker processes by reference,
so these must live in an importable module (not a test body).  Each
fault triggers on ``config.seed == 3`` so one run in a sweep misbehaves
while the others succeed.
"""

from __future__ import annotations

import os
import time

from repro.mem.stats import MemoryStats
from repro.sim.config import RunConfig
from repro.sim.results import RunResult

FAULT_SEED = 3

#: front-ends without a key-level fast path (no table miss rate)
_NO_FAST_PATH = ("baseline", "victima", "pcax", "revelator")

#: deterministic cycle weights so front-ends compare like the paper's
_FRONTEND_WEIGHT = {
    "baseline": 4000,
    "slb": 2000,
    "stlt": 1000,
    "stlt_va": 900,
    "stlt_sw": 3000,
    "victima": 3800,
    "pcax": 3700,
    "revelator": 3900,
}


def fake_run(config: RunConfig) -> RunResult:
    """A deterministic, instant stand-in for the real simulator."""
    cycles = _FRONTEND_WEIGHT[config.frontend] * config.seed \
        + config.num_keys
    chaos = None
    if config.chaos_enabled:
        # churn hurts the accelerated front-ends more than the baseline
        # (stale fast-path rows, scrub storms), mirroring the real
        # simulator's retention curve in miniature
        weight = 4.0 if config.frontend == "baseline" else 10.0
        cycles = int(cycles * (1.0 + config.churn_rate * weight))
        chaos = {
            "churn_rate": config.churn_rate,
            "fault_plan": list(config.fault_plan),
            "oracle": {"checks": config.measure_ops, "fast_checks": 10,
                       "violations": 0},
            "events": {"migrate": int(1000 * config.churn_rate)},
            "events_skipped": 0,
            "ipb_overflows": int(100 * config.churn_rate),
            "stlt_rows_scrubbed": int(2000 * config.churn_rate),
        }
    return RunResult(
        label=config.label,
        frontend=config.frontend,
        cycles=cycles,
        ops=config.measure_ops,
        gets=config.measure_ops - 1,
        sets=1,
        mem=MemoryStats(reads=config.measure_ops, total_cycles=cycles),
        attr={"index": 600 * config.seed, "value": 400 * config.seed},
        fast_miss_rate=(None if config.frontend in _NO_FAST_PATH
                        else 0.25),
        chaos=chaos,
    )


def fail_if_called(config: RunConfig) -> RunResult:
    """For cache tests: simulating at all is the failure."""
    raise AssertionError("run function called despite cached result")


def raise_on_fault_seed(config: RunConfig) -> RunResult:
    if config.seed == FAULT_SEED:
        raise ValueError("injected worker exception")
    return fake_run(config)


def crash_on_fault_seed(config: RunConfig) -> RunResult:
    if config.seed == FAULT_SEED:
        os._exit(23)  # hard death: no exception, no cleanup
    return fake_run(config)


def crash_beside_slow_siblings(config: RunConfig) -> RunResult:
    """The fault seed dies soon after it starts; every other run is slow
    enough to still be in flight when that kills the pool."""
    if config.seed == FAULT_SEED:
        time.sleep(0.1)
        os._exit(23)
    time.sleep(0.5)
    return fake_run(config)


def hang_on_fault_seed(config: RunConfig) -> RunResult:
    if config.seed == FAULT_SEED:
        time.sleep(30.0)
    return fake_run(config)


def slow_fake_run(config: RunConfig) -> RunResult:
    """Jittered completion order: higher seeds finish first."""
    time.sleep(0.01 * (5 - min(config.seed, 4)))
    return fake_run(config)
