"""RunConfig validation and derived-default tests."""

import pytest

from repro.errors import ConfigError
from repro.params import DEFAULT_MACHINE
from repro.sim.config import RunConfig


class TestValidation:
    def test_defaults_are_valid(self):
        RunConfig()

    def test_unknown_program(self):
        with pytest.raises(ConfigError):
            RunConfig(program="rocksdb")

    def test_unknown_frontend(self):
        with pytest.raises(ConfigError):
            RunConfig(frontend="magic")

    def test_unknown_distribution(self):
        with pytest.raises(ConfigError):
            RunConfig(distribution="pareto")

    def test_unknown_exec_mode(self):
        # only the two timed modes exist; there is no event-count mode
        with pytest.raises(ConfigError):
            RunConfig(exec_mode="untimed")

    def test_unknown_prefetcher(self):
        with pytest.raises(ConfigError):
            RunConfig(prefetchers=("ghb",))

    def test_nonpositive_counts(self):
        with pytest.raises(ConfigError):
            RunConfig(num_keys=0)
        with pytest.raises(ConfigError):
            RunConfig(measure_ops=0)


class TestDerivedDefaults:
    def test_warmup_defaults_to_4x_measure(self):
        cfg = RunConfig(measure_ops=1000)
        assert cfg.effective_warmup_ops == 4000
        assert cfg.total_ops == 5000

    def test_explicit_warmup_respected(self):
        cfg = RunConfig(measure_ops=1000, warmup_ops=100)
        assert cfg.effective_warmup_ops == 100

    def test_stlt_rows_target_paper_ratio(self):
        cfg = RunConfig(num_keys=163840)
        # 3.2 rows per key, at the nearest power of two
        assert cfg.effective_stlt_rows == 524288

    def test_stlt_rows_are_power_of_two(self):
        for keys in (1000, 33333, 100000):
            rows = RunConfig(num_keys=keys).effective_stlt_rows
            assert rows & (rows - 1) == 0

    def test_explicit_rows_respected(self):
        assert RunConfig(stlt_rows=4096).effective_stlt_rows == 4096

    def test_slb_entries_default_to_stlt_rows(self):
        cfg = RunConfig(stlt_rows=8192)
        assert cfg.effective_slb_entries == 8192

    def test_slow_hash_per_program(self):
        assert RunConfig(program="redis").slow_hash == "siphash"
        assert RunConfig(program="btree").slow_hash == "murmur"

    def test_with_frontend(self):
        cfg = RunConfig(frontend="baseline")
        assert cfg.with_frontend("stlt").frontend == "stlt"
        assert cfg.with_frontend("stlt").num_keys == cfg.num_keys

    def test_default_machine_is_scaled(self):
        cfg = RunConfig()
        assert cfg.machine.l3.size_bytes < DEFAULT_MACHINE.l3.size_bytes


class TestSerialisationAndHash:
    def test_to_dict_from_dict_round_trip(self):
        cfg = RunConfig(program="redis", frontend="stlt", num_keys=5000,
                        measure_ops=800, prefetchers=("stream", "vldp"),
                        machine=DEFAULT_MACHINE)
        rebuilt = RunConfig.from_dict(cfg.to_dict())
        assert rebuilt == cfg

    def test_from_dict_survives_json(self):
        import json
        cfg = RunConfig(program="btree", prefetchers=("tlb_distance",))
        data = json.loads(json.dumps(cfg.to_dict()))
        assert RunConfig.from_dict(data) == cfg

    def test_from_dict_rejects_unknown_field(self):
        data = RunConfig().to_dict()
        data["turbo"] = True
        with pytest.raises(ConfigError):
            RunConfig.from_dict(data)

    def test_content_hash_stable(self):
        a = RunConfig(num_keys=1234)
        b = RunConfig(num_keys=1234)
        assert a.content_hash == b.content_hash
        assert len(a.content_hash) == 64

    def test_content_hash_distinguishes_every_surface_field(self):
        base = RunConfig()
        variants = [
            RunConfig(program="redis"),
            RunConfig(frontend="slb"),
            RunConfig(distribution="uniform"),
            RunConfig(value_size=128),
            RunConfig(num_keys=base.num_keys + 1),
            RunConfig(measure_ops=base.measure_ops + 1),
            RunConfig(warmup_ops=7),
            RunConfig(stlt_rows=2048),
            RunConfig(stlt_ways=8),
            RunConfig(fast_hash="djb2"),
            RunConfig(slb_entries=512),
            RunConfig(prefetchers=("stream",)),
            RunConfig(prefill=False),
            RunConfig(seed=2),
        ]
        hashes = {v.content_hash for v in variants}
        assert len(hashes) == len(variants)
        assert base.content_hash not in hashes

    def test_content_hash_sees_the_machine(self):
        """Regression: the old benchmark cache key omitted the machine,
        so changing the machine model could serve stale results."""
        scaled = RunConfig()
        literal = RunConfig(machine=DEFAULT_MACHINE)
        assert scaled.content_hash != literal.content_hash

    def test_content_hash_sees_nested_machine_fields(self):
        from dataclasses import replace
        from repro.params import CacheParams
        tweaked = replace(
            DEFAULT_MACHINE,
            l3=CacheParams("L3", 4 * 1024 * 1024, 8, 40))
        a = RunConfig(machine=DEFAULT_MACHINE)
        b = RunConfig(machine=tweaked)
        assert a.content_hash != b.content_hash
