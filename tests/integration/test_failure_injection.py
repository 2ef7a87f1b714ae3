"""Failure injection: the simulator must fail loudly, never silently.

Timing simulators are notorious for producing plausible numbers from
corrupted state; these tests inject faults (wild pointers, use-after-
free, misuse of the STLT API, impossible configurations) and verify the
error surfaces immediately.
"""

import pytest

from repro.core.os_interface import OSInterface
from repro.core.stu import STU
from repro.errors import KVSError, PageFault, ReproError, STLTError
from repro.hashes.registry import get_hash
from repro.kvs import make_index
from repro.mem.hierarchy import MemorySystem
from repro.params import DEFAULT_MACHINE
from repro.sim.config import RunConfig
from repro.sim.engine import Engine
from repro.sim.frontend import STLTFrontend
from repro.workloads.keys import key_bytes


class TestWildPointers:
    def test_wild_load_page_faults(self, mem):
        with pytest.raises(PageFault):
            mem.access(0x6666_0000_0000, 8)

    def test_use_after_unmap_faults(self, space, mem):
        region = space.alloc_region(4096)
        mem.access(region, 8)
        space.unmap_page(region)
        with pytest.raises(PageFault):
            mem.access(region, 8)

    def test_page_fault_carries_address(self, mem):
        try:
            mem.access(0x6666_0000_0000, 8)
        except PageFault as fault:
            assert fault.vaddr == 0x6666_0000_0000
        else:  # pragma: no cover
            raise AssertionError("expected a fault")

    def test_errors_share_a_root_type(self):
        assert issubclass(PageFault, ReproError)
        assert issubclass(STLTError, ReproError)
        assert issubclass(KVSError, ReproError)


class TestSTLTMisuse:
    def test_instructions_after_free_raise(self, ctx):
        stu = STU(ctx.mem)
        osi = OSInterface(ctx.space, ctx.mem, stu)
        osi.stlt_alloc(1 << 8)
        osi.stlt_free()
        with pytest.raises(STLTError):
            stu.load_va(1)

    def test_stale_frontend_after_free_raises(self, ctx):
        index = make_index("unordered_map", ctx, expected_keys=32)
        rec = ctx.records.create(key_bytes(0), 16)
        index.build_insert(key_bytes(0), rec)
        stu = STU(ctx.mem)
        osi = OSInterface(ctx.space, ctx.mem, stu)
        osi.stlt_alloc(1 << 8)
        frontend = STLTFrontend(ctx, index, stu, get_hash("xxh3"))
        frontend.get(key_bytes(0))
        osi.stlt_free()
        with pytest.raises(STLTError):
            frontend.get(key_bytes(0))


class TestEngineIntegrity:
    def test_engine_detects_lost_keys(self):
        engine = Engine(RunConfig(num_keys=1000, measure_ops=200,
                                  warmup_ops=200))
        # sabotage the store: remove a record behind the engine's back
        victim = engine.records[0]
        engine.index.remove(victim.key)
        with pytest.raises(KVSError):
            for _ in range(2000):
                engine.do_get(0, 0)

    def test_stale_stlt_row_to_freed_record_is_survivable(self, ctx):
        # a freed-and-reused VA behind a stale STLT row must degrade to
        # the slow path, never return the wrong record
        index = make_index("unordered_map", ctx, expected_keys=64)
        a = ctx.records.create(key_bytes(1), 16)
        index.build_insert(key_bytes(1), a)
        stu = STU(ctx.mem)
        osi = OSInterface(ctx.space, ctx.mem, stu)
        osi.stlt_alloc(1 << 8)
        frontend = STLTFrontend(ctx, index, stu, get_hash("xxh3"))
        frontend.get(key_bytes(1))          # row cached
        index.remove(key_bytes(1))
        ctx.records.destroy(a)
        # the freed slot is immediately reused by a different key
        b = ctx.records.create(key_bytes(2), 16)
        index.build_insert(key_bytes(2), b)
        assert b.va == a.va  # LIFO reuse makes this the dangerous case
        assert frontend.get(key_bytes(1)) is None
        assert frontend.get(key_bytes(2)) is b


class TestConfigurationSanity:
    def test_empty_measure_window_rejected(self):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            RunConfig(num_keys=100, measure_ops=0)

    def test_stlt_rows_must_be_power_of_two(self):
        engine_cfg = RunConfig(num_keys=500, measure_ops=100,
                               warmup_ops=100, frontend="stlt",
                               stlt_rows=1000)
        with pytest.raises(STLTError):
            Engine(engine_cfg)

    def test_memory_system_rejects_invalid_machine(self, space):
        from repro.errors import ConfigError
        from repro.params import CacheParams, MachineParams
        broken = MachineParams(l1d=CacheParams("L1D", 1000, 3, 4))
        with pytest.raises(ConfigError):
            MemorySystem(space, broken)
