"""SweepRunner tests: determinism, caching, and fault tolerance.

Fault-injecting run functions live in :mod:`tests.exp.workers` so the
process pool can pickle them by reference.
"""

import io

import pytest

from repro.exp import (
    STATUS_CACHED,
    STATUS_COMPLETED,
    STATUS_FAILED,
    ProgressReporter,
    ResultStore,
    SweepRunner,
    points_from_configs,
)
from repro.sim.config import RunConfig

from tests.exp import workers


def seed_points(seeds=(1, 2, 3, 4)):
    return points_from_configs(
        [RunConfig(num_keys=100, measure_ops=20, seed=s) for s in seeds],
        labels=[f"seed-{s}" for s in seeds])


class TestParallelEqualsSerial:
    def test_fake_runs_bit_identical(self, tmp_path):
        serial_store = ResultStore(tmp_path / "serial.jsonl")
        parallel_store = ResultStore(tmp_path / "parallel.jsonl")
        points = seed_points(seeds=(1, 2, 4, 5, 6, 7))

        serial = SweepRunner(store=serial_store, jobs=1,
                             run_fn=workers.slow_fake_run).run(points)
        parallel = SweepRunner(store=parallel_store, jobs=4,
                               run_fn=workers.slow_fake_run).run(points)

        assert serial.ok and parallel.ok
        for a, b in zip(serial, parallel):
            assert a.label == b.label
            assert a.record["key"] == b.record["key"]
            assert a.record["config"] == b.record["config"]
            assert a.record["result"] == b.record["result"]

    def test_real_simulations_bit_identical(self, tmp_path):
        """The acceptance guarantee, at miniature scale: a --jobs 4
        sweep of real simulations matches the serial records exactly."""
        configs = [
            RunConfig(program="unordered_map", frontend=f, num_keys=400,
                      measure_ops=80, warmup_ops=160)
            for f in ("baseline", "slb", "stlt")
        ]
        points = points_from_configs(configs)
        serial = SweepRunner(store=ResultStore(tmp_path / "s.jsonl"),
                             jobs=1).run(points)
        parallel = SweepRunner(store=ResultStore(tmp_path / "p.jsonl"),
                               jobs=4).run(points)
        assert serial.ok and parallel.ok
        for a, b in zip(serial, parallel):
            assert a.record["result"] == b.record["result"]
            assert a.record["config"] == b.record["config"]

    def test_outcomes_keep_point_order(self, tmp_path):
        points = seed_points(seeds=(1, 2, 4, 5))
        report = SweepRunner(store=ResultStore(tmp_path / "o.jsonl"),
                             jobs=3, run_fn=workers.slow_fake_run,
                             ).run(points)
        # slow_fake_run finishes high seeds first; order must not care
        assert [o.label for o in report] == [p.label for p in points]


class TestCaching:
    def test_second_sweep_is_served_from_store(self, tmp_path):
        store = ResultStore(tmp_path / "c.jsonl")
        points = seed_points(seeds=(1, 2))
        first = SweepRunner(store=store, jobs=1,
                            run_fn=workers.fake_run).run(points)
        assert first.completed == 2

        second = SweepRunner(store=store, jobs=1,
                             run_fn=workers.fail_if_called).run(points)
        assert second.cached == 2 and second.completed == 0
        assert [o.status for o in second] == [STATUS_CACHED] * 2
        for a, b in zip(first, second):
            assert a.record["result"] == b.record["result"]

    def test_fresh_forces_re_simulation(self, tmp_path):
        store = ResultStore(tmp_path / "c.jsonl")
        points = seed_points(seeds=(1,))
        SweepRunner(store=store, jobs=1, run_fn=workers.fake_run).run(points)
        report = SweepRunner(store=store, jobs=1, fresh=True,
                             run_fn=workers.fake_run).run(points)
        assert report.completed == 1 and report.cached == 0

    def test_duplicate_points_simulate_once(self, tmp_path):
        store = ResultStore(tmp_path / "d.jsonl")
        config = RunConfig(num_keys=100, measure_ops=20)
        points = points_from_configs([config, config, config])
        report = SweepRunner(store=store, jobs=1,
                             run_fn=workers.fake_run).run(points)
        assert len(report) == 3
        assert len(store) == 1
        assert all(o.record["result"] == report.outcomes[0].record["result"]
                   for o in report)


class TestFaultTolerance:
    def test_worker_exception_fails_one_run_only(self, tmp_path):
        report = SweepRunner(store=ResultStore(tmp_path / "e.jsonl"),
                             jobs=2, retries=1, backoff=0.0,
                             run_fn=workers.raise_on_fault_seed,
                             ).run(seed_points())
        assert [o.status for o in report] == [
            STATUS_COMPLETED, STATUS_COMPLETED, STATUS_FAILED,
            STATUS_COMPLETED]
        failed = report.failed[0]
        assert "injected worker exception" in failed.error
        assert failed.attempts == 2  # initial try + one retry

    def test_worker_crash_fails_one_run_only(self, tmp_path):
        """A worker that dies (os._exit) breaks the pool; the runner
        must rebuild it and complete the sweep."""
        store = ResultStore(tmp_path / "crash.jsonl")
        report = SweepRunner(store=store, jobs=2, retries=2, backoff=0.0,
                             run_fn=workers.crash_on_fault_seed,
                             ).run(seed_points())
        assert len(report.failed) == 1
        assert report.failed[0].label == "seed-3"
        assert "died" in report.failed[0].error
        assert report.completed == 3
        # completed runs were durably recorded despite the crash
        assert len(store) == 3

    def test_sibling_in_flight_during_crashes_is_not_charged(self,
                                                             tmp_path):
        """Seed 4 is in flight each time seed 3 kills the pool; only the
        run that died is charged, so seed 4 completes on its first
        attempt and seed 3 fails after its own three."""
        report = SweepRunner(store=ResultStore(tmp_path / "sib.jsonl"),
                             jobs=2, retries=2, backoff=0.0,
                             run_fn=workers.crash_beside_slow_siblings,
                             ).run(seed_points())
        outcomes = report.by_label()
        assert [o.label for o in report.failed] == ["seed-3"]
        assert outcomes["seed-3"].attempts == 3
        assert "died" in outcomes["seed-3"].error
        for label in ("seed-1", "seed-2", "seed-4"):
            assert outcomes[label].status == STATUS_COMPLETED
            assert outcomes[label].attempts == 1

    def test_timeout_fails_one_run_only(self, tmp_path):
        report = SweepRunner(store=ResultStore(tmp_path / "t.jsonl"),
                             jobs=2, retries=0, backoff=0.0, timeout=0.5,
                             run_fn=workers.hang_on_fault_seed,
                             ).run(seed_points())
        assert len(report.failed) == 1
        assert report.failed[0].label == "seed-3"
        assert "RunTimeout" in report.failed[0].error
        assert report.completed == 3

    def test_serial_path_isolates_faults_too(self, tmp_path):
        report = SweepRunner(store=ResultStore(tmp_path / "s.jsonl"),
                             jobs=1, retries=0, backoff=0.0,
                             run_fn=workers.raise_on_fault_seed,
                             ).run(seed_points())
        assert len(report.failed) == 1 and report.completed == 3

    def test_failed_runs_are_not_stored(self, tmp_path):
        store = ResultStore(tmp_path / "f.jsonl")
        SweepRunner(store=store, jobs=1, retries=0, backoff=0.0,
                    run_fn=workers.raise_on_fault_seed).run(seed_points())
        assert len(store) == 3
        fault_config = RunConfig(num_keys=100, measure_ops=20,
                                 seed=workers.FAULT_SEED)
        assert store.get(fault_config) is None


class TestValidationAndProgress:
    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            SweepRunner(jobs=0)
        with pytest.raises(ValueError):
            SweepRunner(retries=-1)

    def test_progress_reports_every_run_and_summary(self, tmp_path):
        stream = io.StringIO()
        progress = ProgressReporter(stream=stream, jobs=1)
        SweepRunner(store=ResultStore(tmp_path / "p.jsonl"), jobs=1,
                    run_fn=workers.fake_run, progress=progress,
                    ).run(seed_points(seeds=(1, 2)))
        text = stream.getvalue()
        assert "2 unique runs" in text
        assert "[1/2]" in text and "[2/2]" in text
        assert "2 completed, 0 cached, 0 failed" in text

    def test_progress_reports_failures_and_retries(self, tmp_path):
        stream = io.StringIO()
        progress = ProgressReporter(stream=stream, jobs=1)
        SweepRunner(store=ResultStore(tmp_path / "p.jsonl"), jobs=1,
                    retries=1, backoff=0.0, progress=progress,
                    run_fn=workers.raise_on_fault_seed,
                    ).run(seed_points())
        text = stream.getvalue()
        assert "retry #1 seed-3" in text
        assert "FAILED" in text
        assert "1 failed" in text
