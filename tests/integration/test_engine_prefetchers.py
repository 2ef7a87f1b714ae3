"""Engine-level prefetcher integration (the Fig. 19-right machinery)."""

import pytest

from repro.sim.config import RunConfig
from repro.sim.engine import run_experiment

SMALL = dict(num_keys=6000, measure_ops=1200, warmup_ops=2400)


class TestPrefetcherIntegration:
    @pytest.fixture(scope="class")
    def baseline(self):
        return run_experiment(RunConfig(**SMALL))

    def test_stream_issues_prefetches(self, baseline):
        run = run_experiment(RunConfig(prefetchers=("stream",), **SMALL))
        assert run.mem.prefetches_issued > 0
        assert run.mem.prefetch_accuracy < 0.5  # mostly wrong on KV lookups

    def test_vldp_issues_prefetches(self, baseline):
        run = run_experiment(RunConfig(prefetchers=("vldp",), **SMALL))
        assert run.mem.prefetches_issued > 0

    def test_prefetch_traffic_reaches_dram(self, baseline):
        config = RunConfig(prefetchers=("vldp",), **SMALL)
        run = run_experiment(config)
        # prefetches occupy the channel: it is busy for longer than
        # with the baseline's demand-only traffic, and for longer than
        # the run's own demand transfers alone would keep it
        assert run.mem.dram_busy_cycles > baseline.mem.dram_busy_cycles
        demand_busy = (run.mem.dram_accesses
                       * config.machine.dram.service_cycles)
        assert run.mem.dram_busy_cycles > demand_busy
        assert run.mem.prefetches_issued > 0

    def test_tlb_prefetcher_counts(self, baseline):
        run = run_experiment(RunConfig(prefetchers=("tlb_distance",),
                                       **SMALL))
        assert run.mem.tlb_prefetches_issued > 0
        assert run.mem.prefetches_issued == 0  # no data prefetches

    def test_combined_prefetchers_allowed(self, baseline):
        run = run_experiment(RunConfig(
            prefetchers=("stream", "vldp", "tlb_distance"), **SMALL))
        assert run.cycles > 0

    def test_prefetchers_do_not_change_results(self, baseline):
        # functional integrity: the engine verifies every GET internally,
        # so a completed run is proof the prefetchers never corrupt data
        run = run_experiment(RunConfig(prefetchers=("vldp",), **SMALL))
        assert run.ops == baseline.ops
        assert run.gets == baseline.gets


class TestPrefetcherWithSTLT:
    def test_stlt_and_prefetchers_compose(self):
        run = run_experiment(RunConfig(frontend="stlt",
                                       prefetchers=("stream",), **SMALL))
        assert run.fast_miss_rate < 0.2
        assert run.mem.prefetches_issued > 0
