"""Integration: the adaptive resizer driving a live store's STLT."""

import pytest

from repro.core.resizer import AdaptiveResizer
from repro.sim.config import RunConfig
from repro.sim.engine import Engine
from repro.workloads.keys import key_bytes


class TestResizerOnLiveStore:
    def test_undersized_table_grows_under_real_traffic(self):
        # start with a deliberately tiny STLT: conflicts everywhere
        engine = Engine(RunConfig(program="unordered_map", frontend="stlt",
                                  num_keys=8_000, measure_ops=1_000,
                                  stlt_rows=1024))
        engine.osi.stlt.clear()  # start cold
        resizer = AdaptiveResizer(engine.osi, window_ops=1_000,
                                  grow_above=0.10, min_rows=1024)
        rows_before = resizer.rows
        for i in range(4_000):
            engine.frontends[0].get(key_bytes(i % 8_000))
            resizer.record_op()
        assert resizer.grows >= 1
        assert resizer.rows > rows_before

    def test_growth_eventually_restores_hit_rate(self):
        engine = Engine(RunConfig(program="unordered_map", frontend="stlt",
                                  num_keys=4_000, measure_ops=1_000,
                                  stlt_rows=512))
        engine.osi.stlt.clear()  # start cold
        resizer = AdaptiveResizer(engine.osi, window_ops=2_000,
                                  grow_above=0.05, min_rows=512)
        for round_no in range(6):
            for i in range(2_000):
                engine.frontends[0].get(key_bytes((i * 7) % 4_000))
                resizer.record_op()
        stlt = engine.osi.stlt
        assert stlt.num_rows >= 4096  # grew enough to hold the key set
        # measure a final window's hit rate
        lookups0, hits0 = stlt.lookups, stlt.hits
        for i in range(2_000):
            engine.frontends[0].get(key_bytes((i * 7) % 4_000))
        window_hit = (stlt.hits - hits0) / (stlt.lookups - lookups0)
        assert window_hit > 0.9

    def test_oversized_table_shrinks_when_quiet(self):
        engine = Engine(RunConfig(program="unordered_map", frontend="stlt",
                                  num_keys=2_000, measure_ops=1_000,
                                  stlt_rows=1 << 15))
        resizer = AdaptiveResizer(engine.osi, window_ops=1_000,
                                  shrink_below=0.05, shrink_patience=2,
                                  min_rows=1 << 12)
        # hot, tiny working set: almost all hits after the first pass
        for _ in range(4):
            for i in range(1_000):
                engine.frontends[0].get(key_bytes(i % 100))
                resizer.record_op()
        assert resizer.shrinks >= 1
        assert engine.osi.stlt.num_rows < (1 << 15)
