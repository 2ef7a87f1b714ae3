"""Content-hash key coverage over *every* ``RunConfig`` field.

The durable result store keys records by
:func:`repro.sim.config.config_hash`, which must be sensitive to every
configuration field — the pre-``repro.exp`` benchmark cache hand-listed
fields and silently omitted the machine, so a machine change could be
served a stale result.  This regression test introspects the dataclass:
when a field is added to ``RunConfig`` (as ``num_cores`` was in PR 2),
it fails until an alternate value is registered here, forcing the
author to prove the new field reaches the key.
"""

import dataclasses

from repro.params import SCALED_MACHINE
from repro.sim.config import RunConfig, config_hash

#: for every RunConfig field, a value different from the default of
#: ``_BASE`` below that must produce a different content hash
ALTERNATES = {
    "program": "btree",
    "frontend": "slb",
    "distribution": "latest",
    "value_size": 128,
    "num_keys": 2_000,
    "measure_ops": 500,
    "warmup_ops": 123,
    "stlt_rows": 4096,
    "stlt_ways": 8,
    "fast_hash": "xxh64",
    "prefetchers": ("stream",),
    "num_cores": 4,
    "arrival_process": "poisson",
    "offered_load": 0.5,
    "dispatch_policy": "jsq",
    "service_requests": 64,
    "churn_rate": 0.05,
    "fault_plan": ("slowdown:core=0,factor=2",),
    "svc_timeout": 6.0,
    "svc_retries": 2,
    "svc_backoff": 1.5,
    "svc_hedge": 4.0,
    "svc_fallback": True,
    "nodes": 3,
    "replicas": 1,
    "route_cache": False,
    "client_batch": 4,
    "replica_reads": True,
    "migrate_rate": 0.01,
    "net_rtt_cycles": 250.0,
    "node_fault_plan": ("crash:node=0,at=0.5",),
    "failover_detect_cycles": 2000.0,
    "repair_policy": "eager",
    "cluster_timeout": 10.0,
    "cluster_hedge": 3.0,
    "node_types": "1full",
    "hetero_big_key_fraction": 0.25,
    "accel": "stlt",
    "exec_mode": "batched",
    "seed": 99,
    "machine": dataclasses.replace(SCALED_MACHINE, line_bytes=128),
}

_BASE = RunConfig(num_keys=1_000, measure_ops=100)


class TestKeyCoverage:
    def test_every_field_has_an_alternate(self):
        """Adding a RunConfig field must extend ALTERNATES (and hence
        prove the store key covers it)."""
        field_names = {f.name for f in dataclasses.fields(RunConfig)}
        assert field_names == set(ALTERNATES), (
            "RunConfig fields and ALTERNATES diverged; register an "
            "alternate value for any new field so key coverage is "
            "proven")

    def test_every_field_changes_the_hash(self):
        base_hash = config_hash(_BASE)
        for name, value in ALTERNATES.items():
            mutated = dataclasses.replace(_BASE, **{name: value})
            assert getattr(mutated, name) != getattr(_BASE, name), (
                f"alternate for {name!r} equals the base value")
            assert config_hash(mutated) != base_hash, (
                f"content hash ignores RunConfig field {name!r}")

    def test_nested_machine_parameter_changes_the_hash(self):
        """Not just the machine object — a single nested parameter."""
        machine = dataclasses.replace(
            _BASE.machine,
            dram=dataclasses.replace(_BASE.machine.dram,
                                     service_cycles=99),
        )
        mutated = dataclasses.replace(_BASE, machine=machine)
        assert config_hash(mutated) != config_hash(_BASE)

    def test_hash_is_stable_for_equal_configs(self):
        clone = RunConfig(num_keys=1_000, measure_ops=100)
        assert config_hash(clone) == config_hash(_BASE)
        assert config_hash(RunConfig.from_dict(_BASE.to_dict())) == \
            config_hash(_BASE)
