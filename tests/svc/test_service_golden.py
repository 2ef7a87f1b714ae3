"""Frozen open-loop service golden: seeded timelines through the svc loop.

``tests/data/golden_svc.json`` pins :meth:`ServiceResult.to_dict` for

* seeded synthetic per-core service sequences over the cross product
  of five mitigations (none, timeout + retry, hedge, fallback, all
  three), the two dispatch policies, both arrival processes and 1, 2
  and 4 cores: 60 timelines.  Core 1 of a multi-core run is a 4x slow core, so the
  queues build up and every mitigation fires somewhere.  Arrivals land
  on whole cycles, so completions and arrivals coincide;
* two ``run_experiment`` open-loop runs: an unmitigated 2-core ``jsq``
  run with OS churn, and a mitigated run with core 1 slowed down 4x.

Every field must match exactly, except ``mean_queue_delay`` on
mitigated entries (see :func:`assert_matches`).  The histogram's
bucket counts are stored as one digest; its count, total, min and max
stay readable.

Regenerate (only for a deliberate, documented change of simulated
results)::

    PYTHONPATH=src python -m tests.svc.test_service_golden
"""

import hashlib
import json
import math
import random
from pathlib import Path

import pytest

from repro.sim.config import RunConfig
from repro.sim.engine import run_experiment
from repro.svc.arrival import make_arrivals
from repro.svc.service import DISPATCH_POLICIES, Mitigation, simulate_service

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "data" / \
    "golden_svc.json"

REQUESTS = 300
OFFERED_LOAD = 0.85
MITIGATIONS = {
    "none": None,
    "retry": Mitigation(timeout_cycles=600.0, retries=2),
    "hedge": Mitigation(hedge_cycles=400.0),
    "fallback": Mitigation(fallback=True, slo_cycles=600.0),
    "all": Mitigation(timeout_cycles=600.0, retries=2,
                      hedge_cycles=400.0, fallback=True, slo_cycles=600.0),
}
PROCESSES = ("poisson", "mmpp")
CORES = (1, 2, 4)
SYNTHETIC = [
    f"{mitigation}/{policy}/{process}/{cores}c"
    for mitigation in MITIGATIONS
    for policy in DISPATCH_POLICIES
    for process in PROCESSES
    for cores in CORES
]

_E2E_BASE = dict(program="unordered_map", frontend="stlt", num_keys=400,
                 measure_ops=300, warmup_ops=200, num_cores=2,
                 arrival_process="poisson", offered_load=0.8, seed=3)
E2E = {
    "e2e/jsq_churn": dict(_E2E_BASE, dispatch_policy="jsq",
                          churn_rate=0.01),
    "e2e/mitigated_slowdown": dict(
        _E2E_BASE, fault_plan=("slowdown:core=1,factor=4",),
        svc_timeout=4.0, svc_retries=2, svc_hedge=3.0, svc_fallback=True),
}
NAMES = SYNTHETIC + sorted(E2E)


def synthetic_case(name: str) -> dict:
    """One synthetic timeline's ``ServiceResult.to_dict()``."""
    mitigation, policy, process, cores = name.split("/")
    n = int(cores[:-1])
    rng = random.Random(name)
    service = []
    for core in range(n):
        slow = 4 if core == 1 else 1
        service.append([slow * rng.randint(50, 350)
                        for _ in range(rng.randint(20, 60))])
    capacity = sum(1.0 / (sum(seq) / len(seq)) for seq in service)
    rate = OFFERED_LOAD * capacity
    # whole-cycle arrivals, like the integer service times, so that
    # completions coincide with arrivals and the queue-drain boundary
    # (a request completing at the arrival instant has left) is pinned
    arrivals = [float(round(t)) for t in make_arrivals(
        process, rate, REQUESTS, seed=rng.randrange(1 << 30))]
    result = simulate_service(
        service, arrivals, policy,
        process=process, offered_load=OFFERED_LOAD, arrival_rate=rate,
        closed_loop_throughput=capacity,
        mitigation=MITIGATIONS[mitigation])
    return result.to_dict()


def capture(name: str) -> dict:
    """One entry, normalised through JSON like the file."""
    if name in E2E:
        record = run_experiment(RunConfig(**E2E[name])).service
    else:
        record = synthetic_case(name)
    record = json.loads(json.dumps(record))
    counts = json.dumps(record["histogram"]["counts"], sort_keys=True)
    record["histogram"]["counts"] = hashlib.sha256(
        counts.encode()).hexdigest()[:16]
    return record


def assert_matches(got: dict, want: dict) -> None:
    got, want = dict(got), dict(want)
    if want["mitigation"] is not None:
        # these entries were frozen from a loop that summed each
        # request's queue delay as ``latency - service``; the loop sums
        # ``start - arrival``, equal in exact arithmetic but rounded
        # differently, which moves the mean by ~1e-16 relative
        assert math.isclose(got.pop("mean_queue_delay"),
                            want.pop("mean_queue_delay"), rel_tol=1e-12)
    drifted = sorted(k for k in want if got.get(k) != want[k])
    assert not drifted, f"fields drifted: {drifted}"
    assert got == want


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", NAMES)
def test_matches_frozen_golden(golden, name):
    assert_matches(capture(name), golden[name])


def test_goldens_exercise_every_mechanism(golden):
    """The records only guard the loop if each mechanism fired."""
    for name in NAMES:
        rec = golden[name]
        if rec["mitigation"] is None:
            assert rec["timeouts"] == rec["hedges"] == rec["fallbacks"] == 0
        assert max(c["max_queue_depth"] for c in rec["per_core"]) > 1, name
    totals = {key: 0 for key in ("timeouts", "hedges", "hedge_wins",
                                 "fallbacks")}
    for name in SYNTHETIC:
        for key in totals:
            totals[key] += golden[name][key]
    assert all(totals.values()), totals
    churn = golden["e2e/jsq_churn"]
    assert churn["mitigation"] is None and churn["dispatch"] == "jsq"
    slow = golden["e2e/mitigated_slowdown"]
    assert slow["timeouts"] + slow["hedges"] + slow["fallbacks"] > 0


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(
        {name: capture(name) for name in NAMES},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
