"""Frozen cluster goldens: five overlay configs pinned bit-identically.

``tests/data/golden_cluster.json`` holds ``RunResult.to_dict()`` (the
cluster payload included) for five smoke configs that together cross
every route-invalidation path of the overlay: migration commits and
ASK redirects (``scale``), promotion, restart, partition drops,
degraded links, hedges and eager repair (``failover``), seeded fault
churn (``storm``), capability dispatch with migrations off
accelerator slots (``hetero``), and a mixed fleet under faults
(``hetero_failover``): an accelerator crash and restart, promotions
over the full nodes only, and re-syncs of accelerator-owned slots.
Any change to the overlay's routing state, resource schedules or
oracles must reproduce these records exactly.

Regenerate (only for a deliberate, documented change of simulated
results)::

    PYTHONPATH=src python -m tests.cluster.test_cluster_golden
"""

import json
from pathlib import Path

import pytest

from repro.cluster.service import run_cluster
from repro.sim.config import RunConfig

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "data" / \
    "golden_cluster.json"

_SHARED = dict(
    program="unordered_map", frontend="stlt", num_keys=2_000,
    warmup_ops=500, measure_ops=500, exec_mode="batched", nodes=8,
    replicas=1, net_rtt_cycles=300.0, arrival_process="poisson",
    service_requests=8_000, seed=1)

CONFIGS = {
    "scale": dict(offered_load=0.5, migrate_rate=0.01),
    "failover": dict(
        node_fault_plan=("crash:node=1,at=0.3",
                         "restart:node=1,at=0.6",
                         "partition:node=2,start=0.4,stop=0.5",
                         "degrade:node=3,factor=3,start=0.2,stop=0.7"),
        repair_policy="eager", cluster_hedge=2.0, cluster_timeout=8.0),
    "storm": dict(node_fault_plan=("storm:rate=0.0005",),
                  cluster_hedge=2.0),
    "hetero": dict(node_types="6full+2accel", offered_load=0.15,
                   migrate_rate=0.01),
    "hetero_failover": dict(
        node_types="6full+2accel", offered_load=0.15, migrate_rate=0.01,
        node_fault_plan=("crash:node=1,at=0.3",
                         "restart:node=1,at=0.6",
                         "crash:node=7,at=0.4",
                         "restart:node=7,at=0.7",
                         "partition:node=2,start=0.4,stop=0.5"),
        repair_policy="eager", cluster_hedge=2.0, cluster_timeout=8.0),
}


def golden_config(name: str) -> RunConfig:
    return RunConfig(**dict(_SHARED, **CONFIGS[name]))


def capture(name: str) -> dict:
    """One config's result, normalised through JSON like the file."""
    return json.loads(json.dumps(run_cluster(golden_config(name))
                                 .to_dict()))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_matches_frozen_golden(golden, name):
    got = capture(name)
    want = golden[name]
    # name the first drifted cluster field before the whole-record diff
    drifted = sorted(k for k in want["cluster"]
                     if got["cluster"].get(k) != want["cluster"][k])
    assert not drifted, f"{name}: cluster fields drifted: {drifted}"
    assert got == want


def test_goldens_exercise_every_invalidation_path(golden):
    """The records only guard the overlay if the mechanisms fired."""
    scale = golden["scale"]["cluster"]
    assert scale["migration"]["committed"] > 0
    assert scale["ask_redirects"] > 0
    assert scale["moved_redirects"] > 0
    failover = golden["failover"]["cluster"]
    assert failover["failover"]["promotions"] >= 1
    assert failover["failover"]["events"]["node_restart"] == 1
    assert failover["network"]["drops"] > 0
    assert failover["network"]["degraded_transfers"] > 0
    assert failover["resilience"]["hedges"] > 0
    assert failover["eager_repairs"] > 0
    storm = golden["storm"]["cluster"]
    assert sum(storm["failover"]["events"].values()) > 0
    hetero = golden["hetero"]["cluster"]
    assert hetero["hetero"]["accel_hits"] > 0
    assert hetero["hetero"]["fallbacks"]["capacity"] > 0
    assert hetero["migration"]["committed"] > 0
    mixed = golden["hetero_failover"]["cluster"]
    events = mixed["failover"]["events"]
    assert events["node_crash"] == 2
    assert events["node_restart"] == 2
    assert events["link_partition"] == 1
    assert mixed["failover"]["promotions"] >= 1
    # one of the two crashes takes down an accelerator node
    assert mixed["hetero"]["node_classes"][7] == "accel"
    assert any(acc["node"] == 7 for acc in mixed["hetero"]["per_accel"])
    assert mixed["migration"]["committed"] > 0
    assert mixed["ask_redirects"] > 0
    assert mixed["resilience"]["hedges"] > 0
    assert mixed["eager_repairs"] > 0
    assert all(n > 0 for n in mixed["hetero"]["fallbacks"].values())
    assert mixed["acked_write_losses"] == 0


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_network_totals_are_the_link_sums(golden, name):
    """The frozen records were written with running network totals;
    the report now sums the per-link counters, and both must agree
    (``failover`` drops at a partition and crosses a degraded link)."""
    network = golden[name]["cluster"]["network"]
    links = network["links"].values()

    def total(counter):
        return sum(link[counter] for link in links)

    assert network["transfers"] == total("reservations")
    assert network["bytes_moved"] == total("bytes")
    assert network["drops"] == total("drops")
    assert network["degraded_transfers"] == total("degraded")


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(
        {name: capture(name) for name in sorted(CONFIGS)},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
