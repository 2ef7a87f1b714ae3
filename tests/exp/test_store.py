"""ResultStore durability, keying, and query tests."""

import json

import pytest

from repro.exp.store import ResultStore, make_record
from repro.params import DEFAULT_MACHINE
from repro.sim.config import RunConfig, config_hash
from repro.sim.results import RunResult

from tests.exp.workers import fake_run


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "results.jsonl")


def put(store, **overrides):
    config = RunConfig(num_keys=1000, measure_ops=100, **overrides)
    return config, store.put(config, fake_run(config))


class TestRoundTrip:
    def test_put_get(self, store):
        config, record = put(store)
        fetched = store.get(config)
        assert fetched == record
        assert fetched["key"] == config_hash(config)
        assert fetched["config"] == config.to_dict()

    def test_get_result_rehydrates(self, store):
        config, _ = put(store)
        result = store.get_result(config)
        assert isinstance(result, RunResult)
        assert result == fake_run(config)

    def test_missing_is_none(self, store):
        assert store.get(RunConfig()) is None
        assert store.get_result("deadbeef") is None

    def test_record_carries_meta(self, store):
        config = RunConfig()
        record = store.put(config, fake_run(config),
                           meta={"wall_time": 1.5, "worker_pid": 42})
        assert record["meta"]["wall_time"] == 1.5
        assert "written_at" in record["meta"]

    def test_put_record_validates_schema(self, store):
        with pytest.raises(ValueError):
            store.put_record({"key": "x", "label": "y"})


class TestKeying:
    def test_machine_change_misses(self, store):
        """The satellite bug: a machine-model change must never hit a
        stale cache entry (the old repr()-tuple key omitted machine)."""
        scaled = RunConfig(num_keys=1000, measure_ops=100)
        put(store)
        literal = RunConfig(num_keys=1000, measure_ops=100,
                            machine=DEFAULT_MACHINE)
        assert store.get(scaled) is not None
        assert store.get(literal) is None

    def test_any_field_change_misses(self, store):
        config, _ = put(store)
        assert store.get(RunConfig(num_keys=1000, measure_ops=101)) is None

    def test_contains_accepts_config_or_key(self, store):
        config, _ = put(store)
        assert config in store
        assert config_hash(config) in store


class TestDurability:
    def test_survives_reopen(self, tmp_path):
        path = tmp_path / "r.jsonl"
        first = ResultStore(path)
        config, record = put(first)
        second = ResultStore(path)
        assert second.get(config) == record
        assert len(second) == 1

    def test_last_writer_wins(self, tmp_path):
        path = tmp_path / "r.jsonl"
        store = ResultStore(path)
        config = RunConfig()
        store.put(config, fake_run(config), meta={"attempt": 1})
        store.put(config, fake_run(config), meta={"attempt": 2})
        assert len(store) == 1
        assert ResultStore(path).get(config)["meta"]["attempt"] == 2

    def test_corrupt_trailing_line_skipped(self, tmp_path):
        path = tmp_path / "r.jsonl"
        store = ResultStore(path)
        config, record = put(store)
        with open(path, "a") as handle:
            handle.write('{"key": "partial')  # simulated crash mid-write
        reloaded = ResultStore(path)
        assert reloaded.get(config) == record
        assert reloaded.skipped_lines == 1

    def test_non_record_lines_skipped(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('[1,2,3]\n{"no_key": true}\n')
        store = ResultStore(path)
        assert len(store) == 0
        assert store.skipped_lines == 2


class TestQueryInvalidate:
    def test_query_by_config_fields(self, store):
        put(store, program="redis", frontend="stlt")
        put(store, program="redis", frontend="baseline")
        put(store, program="btree", frontend="stlt")
        assert len(store.query(program="redis")) == 2
        assert len(store.query(program="redis", frontend="stlt")) == 1
        assert store.query(program="ordered_map") == []

    def test_query_predicate(self, store):
        put(store, seed=1)  # baseline, 4000 * 1 + 1000 cycles
        put(store, seed=2)  # baseline, 4000 * 2 + 1000 cycles
        heavy = store.query(
            predicate=lambda r: r["result"]["cycles"] > 7000)
        assert len(heavy) == 1

    def test_invalidate_one(self, tmp_path):
        path = tmp_path / "r.jsonl"
        store = ResultStore(path)
        config, _ = put(store)
        other, _ = put(store, seed=9)
        assert store.invalidate(config) is True
        assert store.invalidate(config) is False
        reloaded = ResultStore(path)
        assert reloaded.get(config) is None
        assert reloaded.get(other) is not None

    def test_invalidate_where(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        put(store, program="redis")
        put(store, program="redis", seed=2)
        put(store, program="btree")
        assert store.invalidate_where(program="redis") == 2
        assert len(store) == 1

    def test_clear(self, tmp_path):
        path = tmp_path / "r.jsonl"
        store = ResultStore(path)
        put(store)
        store.clear()
        assert len(store) == 0
        assert len(ResultStore(path)) == 0

    def test_records_iterates_live_records(self, store):
        put(store)
        put(store, seed=2)
        assert len(list(store.records())) == 2


class TestServiceRoundTrip:
    """Open-loop latency results survive the JSONL store bit-exactly
    (PR 3): the nested service payload — histogram buckets, float
    percentiles, per-core queue stats — is keyed by the config hash
    like every other field and re-hydrates to an equal ServiceResult."""

    @pytest.fixture(scope="class")
    def open_loop(self):
        from repro.sim.engine import run_experiment
        config = RunConfig(
            frontend="stlt", num_cores=2, num_keys=200,
            warmup_ops=40, measure_ops=80,
            arrival_process="poisson", offered_load=0.7,
            dispatch_policy="jsq")
        return config, run_experiment(config)

    def test_service_payload_round_trips_exactly(self, tmp_path,
                                                 open_loop):
        config, result = open_loop
        assert result.service is not None
        path = tmp_path / "r.jsonl"
        ResultStore(path).put(config, result)
        fetched = ResultStore(path).get_result(config)
        assert fetched == result
        assert fetched.service == result.service
        hydrated = fetched.service_result()
        assert hydrated.to_dict() == result.service_result().to_dict()
        assert hydrated.p99 == result.service_result().p99
        assert hydrated.latency_histogram().count == \
            result.service_result().latency_histogram().count

    def test_traffic_fields_change_the_key(self, tmp_path, open_loop):
        import dataclasses
        config, result = open_loop
        store = ResultStore(tmp_path / "r.jsonl")
        store.put(config, result)
        for change in ({"arrival_process": "mmpp"},
                       {"offered_load": 0.3},
                       {"dispatch_policy": "round_robin"},
                       {"service_requests": 512}):
            assert store.get(dataclasses.replace(config, **change)) \
                is None, f"stale hit after changing {change}"

    def test_latency_metrics_surface_in_reporting(self, open_loop):
        # reporting re-hydrates the stored record's result
        config, result = open_loop
        record = make_record(config, result)
        service = RunResult.from_dict(record["result"]).service
        latency = service["latency"]
        assert latency["p50"] <= latency["p99"] <= latency["p999"]
        assert service["achieved_throughput"] > 0.0
        assert service["arrival_rate"] > 0.0

    def test_closed_loop_records_have_no_latency_metrics(self):
        config = RunConfig()
        record = make_record(config, fake_run(config))
        assert RunResult.from_dict(record["result"]).service is None


class TestMakeRecord:
    def test_label_defaults_to_config_label(self):
        config = RunConfig()
        record = make_record(config, fake_run(config))
        assert record["label"] == config.label

    def test_record_is_json_serialisable(self):
        config = RunConfig(prefetchers=("stream",))
        record = make_record(config, fake_run(config))
        rebuilt = json.loads(json.dumps(record))
        assert rebuilt["config"]["prefetchers"] == ["stream"]
