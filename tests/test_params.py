"""Machine-parameter tests: Table III defaults and the scaled machine."""

import pytest

from repro.errors import ConfigError
from repro.params import (
    DEFAULT_MACHINE,
    SCALED_MACHINE,
    SEED_NAMESPACES,
    CacheParams,
    MachineParams,
    TLBParams,
    derive_seed,
    ns_to_cycles,
    scaled_machine,
)


class TestTableIIIDefaults:
    def test_cache_geometry(self):
        assert DEFAULT_MACHINE.l1d.size_bytes == 32 * 1024
        assert DEFAULT_MACHINE.l1d.ways == 8
        assert DEFAULT_MACHINE.l1d.latency == 4
        assert DEFAULT_MACHINE.l2.size_bytes == 256 * 1024
        assert DEFAULT_MACHINE.l2.latency == 12
        assert DEFAULT_MACHINE.l3.size_bytes == 2 * 1024 * 1024
        assert DEFAULT_MACHINE.l3.latency == 40

    def test_tlb_geometry(self):
        assert DEFAULT_MACHINE.dtlb.entries == 64
        assert DEFAULT_MACHINE.dtlb.latency == 1
        assert DEFAULT_MACHINE.stlb.entries == 1536
        assert DEFAULT_MACHINE.stlb.latency == 7

    def test_memory_latency_45ns(self):
        # 45 ns at 2.66 GHz
        assert DEFAULT_MACHINE.dram.latency_cycles == ns_to_cycles(45.0)
        assert ns_to_cycles(45.0) == 120

    def test_instruction_latencies(self):
        assert DEFAULT_MACHINE.instr.load_va_cycles == 6
        assert DEFAULT_MACHINE.instr.insert_stlt_cycles == 4

    def test_validation_passes(self):
        DEFAULT_MACHINE.validate()


class TestScaledMachine:
    def test_capacities_shrink_latencies_do_not(self):
        assert SCALED_MACHINE.l3.size_bytes < DEFAULT_MACHINE.l3.size_bytes
        assert SCALED_MACHINE.l3.latency == DEFAULT_MACHINE.l3.latency
        assert SCALED_MACHINE.stlb.entries < DEFAULT_MACHINE.stlb.entries
        assert SCALED_MACHINE.stlb.latency == DEFAULT_MACHINE.stlb.latency

    def test_factor_one_keeps_capacities(self):
        machine = scaled_machine(1)
        assert machine.l3.size_bytes == DEFAULT_MACHINE.l3.size_bytes

    def test_invalid_factor(self):
        with pytest.raises(ConfigError):
            scaled_machine(0)

    def test_minimums_enforced(self):
        machine = scaled_machine(1_000_000)
        machine.validate()
        assert machine.dtlb.entries >= 16

    def test_scaled_is_valid(self):
        SCALED_MACHINE.validate()


class TestDeriveSeed:
    """The shared seed-namespacing helper (extracted in PR 5).

    The registered salts are *frozen*: they are the literal XOR masks
    the subsystems used before the helper existed, so every stream the
    golden regression data was captured with must come out unchanged.
    """

    # (namespace, salt) pairs as they existed inline in the subsystems
    # before the refactor.  Do not edit: changing a salt silently
    # invalidates every pinned golden number downstream of the stream.
    FROZEN = {
        "workload_ops": 0x5EED,      # repro.workloads.ycsb (seed repo)
        "svc_arrival": 0xA221,       # repro.svc.service (PR 3)
        "chaos_schedule": 0xC4A0,    # repro.chaos.schedule (PR 4)
        "chaos_target": 0x7A26,      # repro.chaos.injector (PR 4)
    }

    @pytest.mark.parametrize("namespace,salt", sorted(FROZEN.items()))
    @pytest.mark.parametrize("seed", [0, 1, 7, 0x5EED, 123456789])
    def test_registered_streams_unchanged(self, namespace, salt, seed):
        assert derive_seed(seed, namespace) == seed ^ salt

    def test_registry_covers_frozen_salts(self):
        for namespace, salt in self.FROZEN.items():
            assert SEED_NAMESPACES[namespace] == salt

    def test_registered_namespaces_distinct(self):
        salts = list(SEED_NAMESPACES.values())
        assert len(set(salts)) == len(salts)

    def test_unregistered_namespace_is_stable_and_distinct(self):
        # SHA-256 fallback: any label yields a process-stable stream
        a = derive_seed(42, "node3")
        assert a == derive_seed(42, "node3")
        assert a != derive_seed(42, "node4")
        assert a != derive_seed(43, "node3")
        # and it never collides with simply using the seed itself
        assert a != 42

    def test_fallback_does_not_shadow_registry(self):
        # a registered name uses its frozen salt, not the hash fallback
        import hashlib
        digest = hashlib.sha256(b"workload_ops").digest()
        hashed = 42 ^ int.from_bytes(digest[:8], "big")
        assert derive_seed(42, "workload_ops") == 42 ^ 0x5EED != hashed


class TestParamValidation:
    def test_bad_cache_size(self):
        with pytest.raises(ConfigError):
            CacheParams("x", 1000, 2, 1).validate()

    def test_bad_tlb_ways(self):
        with pytest.raises(ConfigError):
            TLBParams("x", 10, 3, 1).validate()

    def test_bad_page_size(self):
        machine = MachineParams(page_bytes=5000)
        with pytest.raises(ConfigError):
            machine.validate()
