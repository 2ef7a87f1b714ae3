"""Reporting tests: metrics shape and table rendering."""

from repro.exp import SweepRunner, points_from_configs
from repro.exp.reporting import (
    accel_table,
    churn_table,
    metrics_from_record,
    speedup_table,
    summary_table,
)
from repro.exp.store import make_record
from repro.sim.config import RunConfig

from tests.exp.workers import fake_run

EXPECTED_METRIC_KEYS = {
    "cycles_per_op", "cycles", "ops", "tlb_misses", "cache_misses",
    "page_walks", "dram_accesses", "llc_miss_rate", "fast_miss_rate",
    "fast_table_bytes", "stb_hits", "attr", "prefetches_issued",
    "prefetch_accuracy",
    # multi-core / DRAM observability (PR 2)
    "num_cores", "throughput", "fairness",
    "dram_busy_fraction", "dram_max_queue_cycles",
    # open-loop latency (PR 3) — None for closed-loop records
    "latency_p50", "latency_p99", "latency_p999",
    "offered_rate", "achieved_throughput",
    # chaos / mitigation telemetry (PR 4) — None for quiet records
    "oracle_checks", "oracle_violations", "ipb_overflows",
    "stlt_rows_scrubbed", "chaos_events",
    "svc_timeouts", "svc_hedges", "svc_fallbacks",
    # cluster telemetry (PR 5) — None for single-node records
    "nodes", "cluster_throughput", "cluster_p99", "cluster_p999",
    "cluster_fairness", "route_hits", "route_stale_hits",
    "route_misses", "moved_redirects", "ask_redirects",
    "migrations_committed", "route_violations",
    # rival translation-design telemetry (PR 8) — None for every
    # other front-end
    "accel",
    # failover / acked-write oracle telemetry (PR 9) — None for
    # single-node records
    "cluster_writes", "acked_writes", "acked_write_losses",
    "failover_violations", "cluster_failed_requests",
    "failover_promotions", "post_promotion_moved",
    # heterogeneous-fleet telemetry (PR 10) — None for homogeneous
    # records
    "node_types", "fleet_cost_units", "accel_hit_fraction",
    "hetero_fallback_rate", "cost_normalized_throughput",
    "capability_violations",
}


def record_for(**overrides):
    config = RunConfig(num_keys=100, measure_ops=20, **overrides)
    return make_record(config, fake_run(config))


class TestMetrics:
    def test_metrics_shape_matches_legacy_harness(self):
        metrics = metrics_from_record(record_for())
        assert set(metrics) == EXPECTED_METRIC_KEYS

    def test_metrics_values_match_result_properties(self):
        config = RunConfig(num_keys=100, measure_ops=20)
        result = fake_run(config)
        metrics = metrics_from_record(make_record(config, result))
        assert metrics["cycles_per_op"] == result.cycles_per_op
        assert metrics["cycles"] == result.cycles
        assert metrics["tlb_misses"] == result.tlb_misses
        assert metrics["fast_miss_rate"] == result.fast_miss_rate
        assert metrics["attr"] == result.attr


class TestTables:
    def _report(self, tmp_path):
        configs = [
            RunConfig(num_keys=100, measure_ops=20, frontend=f)
            for f in ("baseline", "slb", "stlt")
        ]
        return SweepRunner(jobs=1, run_fn=fake_run).run(
            points_from_configs(configs))

    def test_summary_table_lists_every_outcome(self, tmp_path):
        report = self._report(tmp_path)
        text = summary_table(report)
        for outcome in report:
            assert outcome.label in text
        assert "cycles/op" in text

    def test_summary_table_handles_failures(self, tmp_path):
        from tests.exp.workers import raise_on_fault_seed
        configs = [RunConfig(num_keys=100, measure_ops=20, seed=s)
                   for s in (1, 3)]
        report = SweepRunner(jobs=1, retries=0, backoff=0.0,
                             run_fn=raise_on_fault_seed).run(
            points_from_configs(configs))
        text = summary_table(report)
        assert "failed" in text

    def test_speedup_table_normalises_against_baseline(self, tmp_path):
        report = self._report(tmp_path)
        records = [o.record for o in report]
        text = speedup_table(records)
        # baseline 4100 cycles; slb 2100 -> 1.95x; stlt 1100 -> 3.73x
        assert "1.95x" in text
        assert "3.73x" in text
        assert "baseline" not in text.splitlines()[-1]

    def test_speedup_table_without_baseline(self):
        records = [record_for(frontend="stlt")]
        assert "no baseline" in speedup_table(records)

    def test_speedup_table_compares_like_churn_with_like(self):
        # a quiet baseline must not anchor a churny run: the grouping
        # key includes the chaos knobs, so a churn run with no same-
        # churn baseline is simply skipped
        records = [record_for(frontend="baseline"),
                   record_for(frontend="stlt", churn_rate=0.05)]
        assert "no baseline" in speedup_table(records)


class TestChurnTable:
    def _records(self):
        records = []
        for rate in (0.0, 0.05):
            for frontend in ("baseline", "stlt"):
                records.append(record_for(frontend=frontend,
                                          churn_rate=rate))
        return records

    def test_retention_normalises_against_quiet_speedup(self):
        text = churn_table(self._records())
        # quiet: 4100 / 1100 = 3.73x (the 100% anchor); at churn 0.05
        # the weights give 4920 / 1650 = 2.98x -> 80% retained
        assert "3.73x" in text
        assert "100%" in text
        assert "2.98x" in text
        assert "80%" in text

    def test_oracle_and_scrub_telemetry_ride_along(self):
        text = churn_table(self._records())
        assert "OK" in text
        assert "100" in text          # stlt_rows_scrubbed at 0.05
        assert "rows scrubbed" in text

    def test_quiet_records_render_placeholder(self):
        records = [record_for(frontend=f) for f in ("baseline", "stlt")]
        assert "no churn records" in churn_table(records)

    def test_rival_design_gets_its_own_retention_row(self):
        # a rival design is a frontend value, so its records file
        # beside the baseline's instead of over them
        records = [record_for(frontend=frontend, churn_rate=rate)
                   for rate in (0.0, 0.01)
                   for frontend in ("baseline", "victima")]
        rows = [line.split()
                for line in churn_table(records).splitlines()[2:]]
        # quiet: 4100 / 3900 = 1.05x (the 100% anchor); at churn 0.01
        # the weights give 4264 / 4290 = 0.99x -> 95% retained
        assert [row[1:3] + row[5:7] for row in rows] == [
            ["victima", "0", "1.05x", "100%"],
            ["victima", "0.01", "0.99x", "95%"],
        ]


class TestAccelTable:
    def test_accel_free_records_render_placeholder(self):
        records = [record_for(frontend=f) for f in ("baseline", "stlt")]
        assert "no accel" in accel_table(records)

    def test_head_to_head_names_every_design(self):
        records = [record_for(frontend=design)
                   for design in ("baseline", "stlt", "victima",
                                  "pcax", "revelator")]
        text = accel_table(records)
        for design in ("baseline", "stlt", "victima", "pcax",
                       "revelator"):
            assert design in text
        assert "speedup" in text
