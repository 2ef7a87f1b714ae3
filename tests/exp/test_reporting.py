"""Reporting tests: table rendering."""

from repro.exp import SweepRunner, points_from_configs
from repro.exp.reporting import (
    accel_table,
    churn_table,
    scaling_table,
    speedup_table,
    summary_table,
)
from repro.exp.store import make_record
from repro.sim.config import RunConfig

from tests.exp.workers import fake_run


def record_for(**overrides):
    config = RunConfig(num_keys=100, measure_ops=20, **overrides)
    return make_record(config, fake_run(config))


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
        assert speedup_table(records) == ""

    def test_speedup_table_compares_like_churn_with_like(self):
        # a quiet baseline must not anchor a churny run: the grouping
        # key includes the chaos knobs, so a churn run with no same-
        # churn baseline is simply skipped
        records = [record_for(frontend="baseline"),
                   record_for(frontend="stlt", churn_rate=0.05)]
        assert speedup_table(records) == ""


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
        assert churn_table(records) == ""

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
        assert [row[2:4] + row[6:8] for row in rows] == [
            ["victima", "0", "1.05x", "100%"],
            ["victima", "0.01", "0.99x", "95%"],
        ]


class TestWorkloadColumn:
    def test_scaling_rows_of_different_workloads_differ(self):
        # same program, front-end and core count: only the workload
        # column tells the closed-loop row from the open-loop one
        records = [record_for(num_cores=2, value_size=128),
                   record_for(num_cores=2, value_size=128,
                              arrival_process="poisson",
                              offered_load=0.5)]
        rows = [line.split()
                for line in scaling_table(records).splitlines()[2:]]
        assert [row[1] for row in rows] == [
            "zipf-128B-100keys", "zipf-128B-100keys@poisson-0.5"]

    def test_churn_rows_name_their_workload(self):
        records = [record_for(frontend=frontend, churn_rate=rate,
                              distribution="uniform")
                   for rate in (0.0, 0.05)
                   for frontend in ("baseline", "stlt")]
        rows = [line.split()
                for line in churn_table(records).splitlines()[2:]]
        assert [row[1:4] for row in rows] == [
            ["uniform-64B-100keys", "stlt", "0"],
            ["uniform-64B-100keys", "stlt", "0.05"],
        ]


class TestAccelTable:
    def test_accel_free_records_render_placeholder(self):
        records = [record_for(frontend=f) for f in ("baseline", "stlt")]
        assert accel_table(records) == ""

    def test_head_to_head_names_every_design(self):
        records = [record_for(frontend=design)
                   for design in ("baseline", "stlt", "victima",
                                  "pcax", "revelator")]
        text = accel_table(records)
        for design in ("baseline", "stlt", "victima", "pcax",
                       "revelator"):
            assert design in text
        assert "speedup" in text
