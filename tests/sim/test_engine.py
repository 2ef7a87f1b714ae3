"""Engine integration tests on small configurations."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.sim.config import RunConfig
from repro.sim.engine import Engine, run_experiment

SMALL = dict(num_keys=3000, measure_ops=800, warmup_ops=1600)


class TestEngineRuns:
    @pytest.mark.parametrize("frontend",
                             ["baseline", "slb", "stlt", "stlt_va",
                              "stlt_sw"])
    def test_every_frontend_runs(self, frontend):
        result = run_experiment(RunConfig(frontend=frontend, **SMALL))
        assert result.ops == 800
        assert result.cycles > 0

    @pytest.mark.parametrize("program",
                             ["redis", "unordered_map", "dense_hash_map",
                              "ordered_map", "btree"])
    def test_every_program_runs(self, program):
        result = run_experiment(RunConfig(
            program=program, frontend="stlt", num_keys=1500,
            measure_ops=400, warmup_ops=800))
        assert result.cycles_per_op > 0

    def test_stlt_runs_leave_the_accel_lab_unimported(self):
        # the STLT builder lives in the engine, so a plain stlt/stlt_va
        # run does not pay for importing repro.accel; a fresh process,
        # since other tests import it here
        code = ("import sys\n"
                "from repro.sim.config import RunConfig\n"
                "from repro.sim.engine import run_experiment\n"
                "for frontend in ('stlt', 'stlt_va'):\n"
                "    run_experiment(RunConfig(frontend=frontend, num_keys=200,"
                " measure_ops=20, warmup_ops=20))\n"
                "assert 'repro.accel' not in sys.modules\n")
        src = Path(repro.__file__).resolve().parents[1]
        subprocess.run([sys.executable, "-c", code], check=True,
                       env=dict(os.environ, PYTHONPATH=str(src)))

    def test_latest_distribution_grows_keyspace(self):
        engine = Engine(RunConfig(distribution="latest", **SMALL))
        result = engine.run()
        assert result.sets > 0
        assert len(engine.records) > engine.config.num_keys

    def test_measured_window_excludes_warmup(self):
        result = run_experiment(RunConfig(**SMALL))
        assert result.ops == 800
        # per-op cost should be bounded by the theoretical worst case of
        # a handful of uncached accesses
        assert result.cycles_per_op < 20_000

    def test_deterministic_given_seed(self):
        a = run_experiment(RunConfig(frontend="stlt", seed=3, **SMALL))
        b = run_experiment(RunConfig(frontend="stlt", seed=3, **SMALL))
        assert a.cycles == b.cycles
        assert a.mem.stlb_misses == b.mem.stlb_misses

    def test_different_seeds_differ(self):
        a = run_experiment(RunConfig(seed=1, **SMALL))
        b = run_experiment(RunConfig(seed=2, **SMALL))
        assert a.cycles != b.cycles


class TestPrefill:
    def test_prefill_gives_high_initial_hit_rate(self):
        result = run_experiment(RunConfig(frontend="stlt", **SMALL))
        assert result.fast_miss_rate < 0.10

    def test_no_prefill_starts_cold(self):
        warm = run_experiment(RunConfig(frontend="stlt", **SMALL))
        cold = run_experiment(RunConfig(frontend="stlt", prefill=False,
                                        num_keys=3000, measure_ops=800,
                                        warmup_ops=0))
        assert cold.fast_miss_rate > warm.fast_miss_rate

    def test_prefill_applies_to_slb(self):
        result = run_experiment(RunConfig(frontend="slb", **SMALL))
        assert result.fast_miss_rate < 0.10


class TestResultContents:
    def test_fast_table_bytes_reported(self):
        stlt = run_experiment(RunConfig(frontend="stlt", stlt_rows=4096,
                                        **SMALL))
        assert stlt.fast_table_bytes == 4096 * 16
        slb = run_experiment(RunConfig(frontend="slb", stlt_rows=4096,
                                       **SMALL))
        assert slb.fast_table_bytes == 4096 * 40  # the 2.5x of Fig. 14

    def test_baseline_has_no_fast_metrics(self):
        base = run_experiment(RunConfig(frontend="baseline", **SMALL))
        assert base.fast_miss_rate is None

    def test_attribution_covers_all_cycles(self):
        result = run_experiment(RunConfig(frontend="stlt", **SMALL))
        assert sum(result.attr.values()) == pytest.approx(result.cycles)


class TestFunctionalIntegrity:
    def test_stlt_and_baseline_agree_on_results(self):
        # both engines must serve every GET (the engine raises otherwise);
        # run both to make sure neither loses a key
        run_experiment(RunConfig(frontend="baseline", **SMALL))
        run_experiment(RunConfig(frontend="stlt", **SMALL))

    def test_stb_hits_occur_with_full_stlt(self):
        result = run_experiment(RunConfig(frontend="stlt", **SMALL))
        assert result.mem.stb_hits > 0

    def test_va_only_never_touches_stb(self):
        result = run_experiment(RunConfig(frontend="stlt_va", **SMALL))
        assert result.mem.stb_hits == 0
        assert result.mem.stb_misses == 0
