"""CLI tests (``python -m repro``)."""

import dataclasses
import json

import pytest

from repro.cli import _config_from_args, build_parser, main
from repro.sim.config import RunConfig, config_hash


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag_prints_version_and_exits_zero(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert f"repro {__version__}" in capsys.readouterr().out

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.program == "unordered_map"
        assert args.frontend == "stlt"

    def test_invalid_program_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--program", "rocksdb"])

    def test_prefetcher_choices(self):
        args = build_parser().parse_args(
            ["run", "--prefetchers", "vldp", "stream"])
        assert args.prefetchers == ["vldp", "stream"]


#: the CLI's own defaults, shared by every config-building subcommand
CLI_DEFAULTS = {"frontend": "stlt", "num_keys": 30_000, "measure_ops": 5_000}


class TestConfigDefaults:
    """A subcommand parsed with no flags builds ``RunConfig()`` except
    for the defaults the CLI sets on purpose: ``_config_from_args``
    restates many RunConfig defaults, and none of them may drift."""

    @pytest.mark.parametrize("command, expected", [
        ("run", CLI_DEFAULTS),
        ("breakdown", CLI_DEFAULTS),
        ("serve", {**CLI_DEFAULTS, "arrival_process": "poisson"}),
        ("chaos", {**CLI_DEFAULTS, "churn_rate": 0.05}),
        ("cluster", {**CLI_DEFAULTS, "arrival_process": "poisson",
                     "nodes": 3}),
    ])
    def test_flagless_config_differs_only_where_intended(self, command,
                                                         expected):
        config = _config_from_args(build_parser().parse_args([command]))
        default = RunConfig()
        differs = {f.name: getattr(config, f.name)
                   for f in dataclasses.fields(RunConfig)
                   if getattr(config, f.name) != getattr(default, f.name)}
        assert differs == expected


class TestCommands:
    def test_hwcost(self, capsys):
        assert main(["hwcost"]) == 0
        out = capsys.readouterr().out
        assert "837" in out
        assert "STB" in out

    def test_run_small(self, capsys):
        rc = main(["run", "--keys", "2000", "--ops", "400",
                   "--warmup-ops", "800"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cycles/op" in out
        assert "table miss" in out

    def test_run_with_baseline_comparison(self, capsys):
        rc = main(["run", "--keys", "2000", "--ops", "400",
                   "--warmup-ops", "800", "--compare-baseline"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "speedup" in out

    def test_breakdown(self, capsys):
        rc = main(["breakdown", "--program", "redis", "--keys", "2000",
                   "--ops", "400", "--warmup-ops", "800"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "addressing share" in out

    def test_run_two_keys(self, capsys):
        # at n = 2 YCSB's eta has a zero denominator; no draw reads it
        rc = main(["run", "--keys", "2", "--ops", "10"])
        assert rc == 0
        assert "cycles/op" in capsys.readouterr().out

    def test_run_baseline_frontend_has_no_table(self, capsys):
        rc = main(["run", "--frontend", "baseline", "--keys", "2000",
                   "--ops", "400", "--warmup-ops", "800"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "table miss" not in out

    def test_rival_design_compares_against_the_baseline(self, capsys):
        rc = main(["run", "--program", "redis", "--frontend", "victima",
                   "--keys", "2000", "--ops", "400", "--warmup-ops", "800",
                   "--compare-baseline"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "configuration : redis/victima/" in out
        assert "accel         : victima (" in out
        assert "table miss" not in out
        assert "speedup" in out

    def test_accel_flag_is_gone(self, capsys):
        # the rival designs are --frontend values
        with pytest.raises(SystemExit) as exc:
            main(["run", "--frontend", "baseline", "--accel", "victima"])
        assert exc.value.code == 2
        assert "--accel" in capsys.readouterr().err

    def test_hwcost_all_accels_prints_each_rival_once(self, capsys):
        assert main(["hwcost", "--all-accels"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line and line[0] != " "] == [
            "stlt (Table I)", "victima", "pcax", "revelator"]


RUN_ARGS = ["--keys", "2000", "--ops", "400", "--warmup-ops", "800"]


class TestJsonOutput:
    def test_run_json_is_a_store_record(self, capsys):
        rc = main(["run", "--json"] + RUN_ARGS)
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        assert set(record) >= {"key", "label", "config", "result", "meta"}
        # the key is the content hash of the exact config that ran
        config = RunConfig.from_dict(record["config"])
        assert record["key"] == config_hash(config)
        assert config.num_keys == 2000
        assert record["result"]["ops"] == 400
        assert record["result"]["cycles"] > 0

    def test_run_json_with_baseline_comparison(self, capsys):
        rc = main(["run", "--json", "--compare-baseline"] + RUN_ARGS)
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        assert record["baseline"]["config"]["frontend"] == "baseline"
        assert record["speedup"] > 0

    def test_breakdown_json_carries_shares(self, capsys):
        rc = main(["breakdown", "--json", "--program", "redis"] + RUN_ARGS)
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        assert set(record) >= {"key", "config", "result", "shares",
                               "addressing_share"}
        assert record["addressing_share"] == pytest.approx(
            sum(record["shares"].get(c, 0.0) for c in
                ("hash", "index", "translation", "compare", "record",
                 "stlt", "slb")))


SERVE_ARGS = ["serve", "--keys", "2000", "--ops", "200",
              "--warmup-ops", "400", "--cores", "2"]


class TestServeCommand:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.arrival == "poisson"
        assert args.load == 0.7
        assert args.dispatch == "round_robin"
        assert args.requests is None

    def test_bad_traffic_choices_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--arrival", "closed"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--dispatch", "random"])

    def test_serve_prints_percentiles_and_queues(self, capsys):
        rc = main(SERVE_ARGS + ["--frontend", "stlt", "--load", "0.7"])
        assert rc == 0
        out = capsys.readouterr().out
        for needle in ("latency p50", "latency p95", "latency p99",
                       "latency p99.9", "offered", "achieved",
                       "closed loop", "queue depth max"):
            assert needle in out, f"serve output missing {needle!r}"
        # one queue line per core
        assert "core 0:" in out and "core 1:" in out

    def test_serve_json_is_a_store_record_with_service(self, capsys):
        rc = main(SERVE_ARGS + ["--json", "--dispatch", "jsq",
                                "--requests", "150"])
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        config = RunConfig.from_dict(record["config"])
        assert record["key"] == config_hash(config)
        assert config.arrival_process == "poisson"
        assert config.dispatch_policy == "jsq"
        assert config.service_requests == 150
        service = record["result"]["service"]
        assert service["requests"] == 150
        assert set(service["latency"]) == {"p50", "p95", "p99", "p999"}
        assert service["arrival_rate"] > 0.0
        assert service["achieved_throughput"] > 0.0
        assert len(service["per_core"]) == 2
        assert all("max_queue_depth" in core
                   for core in service["per_core"])

    def test_run_records_stay_closed_loop(self, capsys):
        rc = main(["run", "--json"] + RUN_ARGS)
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        assert record["config"]["arrival_process"] == "closed"
        assert record["result"]["service"] is None


class TestSweepCommand:
    SPEC = {
        "name": "mini",
        "base": {"num_keys": 400, "measure_ops": 80, "warmup_ops": 160},
        "grid": {"frontend": ["baseline", "stlt"]},
    }

    def _spec_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(self.SPEC))
        return str(path)

    def test_requires_name_xor_spec(self, capsys, tmp_path):
        assert main(["sweep", "--quiet"]) == 2
        assert main(["sweep", "smoke", "--spec",
                     self._spec_file(tmp_path)]) == 2

    def test_sweep_spec_file_runs_and_prints_tables(self, capsys, tmp_path):
        store = str(tmp_path / "store.jsonl")
        rc = main(["sweep", "--spec", self._spec_file(tmp_path),
                   "--jobs", "2", "--store", store, "--quiet"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "2 completed, 0 cached, 0 failed" in out
        assert "speedup" in out

    def test_second_invocation_is_cached(self, capsys, tmp_path):
        store = str(tmp_path / "store.jsonl")
        spec = self._spec_file(tmp_path)
        assert main(["sweep", "--spec", spec, "--jobs", "1",
                     "--store", store, "--quiet"]) == 0
        capsys.readouterr()
        assert main(["sweep", "--spec", spec, "--jobs", "1",
                     "--store", store, "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "0 completed, 2 cached, 0 failed" in out

    def test_sweep_json_emits_one_record_per_point(self, capsys, tmp_path):
        store = str(tmp_path / "store.jsonl")
        rc = main(["sweep", "--spec", self._spec_file(tmp_path),
                   "--jobs", "1", "--store", store, "--quiet", "--json"])
        assert rc == 0
        lines = [json.loads(line)
                 for line in capsys.readouterr().out.splitlines() if line]
        # one record per point plus one trailing summary line (PR 5)
        assert len(lines) == 3
        records, summary = lines[:-1], lines[-1]
        assert {line["status"] for line in records} == {"completed"}
        assert all("result" in line for line in records)
        assert set(summary) == {"summary"}

    def test_sweep_json_summary_reports_store_traffic(self, capsys,
                                                      tmp_path):
        store = str(tmp_path / "store.jsonl")
        spec = self._spec_file(tmp_path)
        rc = main(["sweep", "--spec", spec, "--jobs", "1",
                   "--store", store, "--quiet", "--json"])
        assert rc == 0
        summary = json.loads(
            capsys.readouterr().out.splitlines()[-1])["summary"]
        assert summary["store_hits"] == 0
        assert summary["store_misses"] == 2
        assert summary["wall_seconds"] > 0.0
        assert summary["ok"] is True
        # a second invocation is served entirely from the store
        rc = main(["sweep", "--spec", spec, "--jobs", "1",
                   "--store", store, "--quiet", "--json"])
        assert rc == 0
        summary = json.loads(
            capsys.readouterr().out.splitlines()[-1])["summary"]
        assert summary["store_hits"] == 2
        assert summary["store_misses"] == 0

    def test_sweep_text_summary_has_store_and_wall_line(self, capsys,
                                                        tmp_path):
        store = str(tmp_path / "store.jsonl")
        rc = main(["sweep", "--spec", self._spec_file(tmp_path),
                   "--jobs", "1", "--store", store, "--quiet"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "store: 0 hit(s), 2 miss(es)" in out
        assert "wall" in out

    def test_sweep_list_names_every_builtin(self, capsys):
        from repro.exp.spec import sweep_descriptions

        rc = main(["sweep", "--list"])
        assert rc == 0
        out = capsys.readouterr().out
        for name, description in sweep_descriptions().items():
            assert name in out
            assert description in out
        assert "scale" in out

    def test_open_loop_spec_prints_latency_table(self, capsys, tmp_path):
        spec = {
            "name": "mini-load",
            "base": {"num_keys": 400, "measure_ops": 80,
                     "warmup_ops": 160, "num_cores": 2,
                     "arrival_process": "poisson"},
            "grid": {"frontend": ["baseline", "stlt"],
                     "offered_load": [0.4, 0.9]},
        }
        path = tmp_path / "load.json"
        path.write_text(json.dumps(spec))
        store = str(tmp_path / "store.jsonl")
        rc = main(["sweep", "--spec", str(path), "--jobs", "2",
                   "--store", store, "--quiet"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "4 completed, 0 cached, 0 failed" in out
        assert "p99" in out
        assert "offered" in out

    def test_accel_grid_is_a_config_error(self, capsys, tmp_path):
        # a design is a frontend value; a spec that still grids the
        # removed accel field fails before anything runs
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(
            {**self.SPEC, "grid": {"accel": ["none", "victima"]}}))
        rc = main(["sweep", "--spec", str(path), "--quiet",
                   "--store", str(tmp_path / "s.jsonl")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "repro: ConfigError:" in err
        assert "accel" in err

    def test_unknown_named_sweep_fails_loudly(self, capsys, tmp_path):
        # errors exit with their mapped code and one clean stderr line —
        # no traceback spill (PR 4)
        rc = main(["sweep", "definitely-not-a-sweep", "--quiet",
                   "--store", str(tmp_path / "s.jsonl")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "repro: ConfigError:" in err
        assert "Traceback" not in err


CHAOS_ARGS = ["--keys", "1500", "--ops", "300", "--warmup-ops", "300"]


class TestExitCodes:
    """Every ReproError subclass maps to a distinct, documented code."""

    def test_mapping_is_stable(self):
        from repro import errors
        from repro.cli import EXIT_CODES, exit_code_for

        assert exit_code_for(errors.ConfigError("x")) == 2
        assert exit_code_for(errors.CoherenceError("x")) == 3
        assert exit_code_for(errors.FaultInjectionError("x")) == 4
        assert exit_code_for(errors.STLTError("x")) == 5
        assert exit_code_for(errors.KVSError("x")) == 6
        assert exit_code_for(errors.AddressError("x")) == 7
        assert exit_code_for(errors.PageFault(0xBAD)) == 8
        assert exit_code_for(errors.AllocationError("x")) == 9
        assert exit_code_for(errors.ReproError("x")) == 10
        assert exit_code_for(errors.ClusterError("x")) == 11
        assert exit_code_for(errors.FailoverError("x")) == 12
        assert exit_code_for(errors.HeteroError("x")) == 13
        # distinctness: no two classes share a code
        assert len(set(EXIT_CODES.values())) == len(EXIT_CODES)

    def test_subclasses_resolve_via_mro(self):
        from repro.cli import exit_code_for
        from repro.errors import CoherenceError

        class FutureCoherenceBug(CoherenceError):
            pass

        assert exit_code_for(FutureCoherenceBug("x")) == 3

    def test_bad_fault_spec_exits_4_with_one_line(self, capsys):
        rc = main(["run", "--fault", "meteor:core=0"] + CHAOS_ARGS)
        assert rc == 4
        captured = capsys.readouterr()
        assert "repro: FaultInjectionError:" in captured.err
        assert "meteor" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_fault_on_missing_core_exits_4(self, capsys):
        rc = main(["run", "--fault", "slowdown:core=7,factor=2"]
                  + CHAOS_ARGS)
        assert rc == 4
        assert "core 7" in capsys.readouterr().err

    def test_bad_churn_rate_exits_2(self, capsys):
        rc = main(["run", "--churn-rate", "1.5"] + CHAOS_ARGS)
        assert rc == 2
        assert "repro: ConfigError:" in capsys.readouterr().err


class TestFailoverExitCode:
    """FailoverError gets its own code (12), distinct from the generic
    cluster code (11) despite subclassing ClusterError — the explicit
    EXIT_CODES entry wins over the MRO walk (satellite: PR 9)."""

    def test_failover_beats_its_cluster_superclass(self):
        from repro import errors
        from repro.cli import exit_code_for

        assert issubclass(errors.FailoverError, errors.ClusterError)
        assert exit_code_for(errors.FailoverError("x")) == 12
        assert exit_code_for(errors.ClusterError("x")) == 11

    def test_bad_node_fault_spec_exits_4_with_one_line(self, capsys):
        rc = main(["cluster", "--nodes", "2",
                   "--node-fault-plan", "meteor:node=0"] + CHAOS_ARGS)
        assert rc == 4
        captured = capsys.readouterr()
        assert "repro: FaultInjectionError:" in captured.err
        assert "meteor" in captured.err
        assert "Traceback" not in captured.err

    def test_fault_on_missing_node_exits_4(self, capsys):
        rc = main(["cluster", "--nodes", "3",
                   "--node-fault-plan", "crash:node=7,at=0.5"]
                  + CHAOS_ARGS)
        assert rc == 4
        assert "node 7" in capsys.readouterr().err

    def test_failover_violation_exits_12_with_one_line(self, capsys,
                                                       monkeypatch):
        # an actual oracle violation requires a buggy promotion, which
        # the simulator (correctly) refuses to produce — exercise the
        # CLI contract at the seam the real exception crosses
        import repro.cli as cli
        from repro.errors import FailoverError

        def boom(config):
            raise FailoverError(
                "failover oracle: 1 acknowledged write(s) with a live "
                "replica at ack time did not survive to the end of "
                "the run")

        monkeypatch.setattr(cli, "run_experiment", boom)
        rc = main(["cluster", "--nodes", "3", "--replicas", "1",
                   "--node-fault-plan", "crash:node=1,at=0.5"]
                  + CHAOS_ARGS)
        assert rc == 12
        captured = capsys.readouterr()
        assert "repro: FailoverError:" in captured.err
        assert "acknowledged write" in captured.err
        assert "Traceback" not in captured.err
        assert captured.err.count("\n") == 1


class TestChaosCommand:
    def test_chaos_defaults_to_some_churn(self):
        args = build_parser().parse_args(["chaos"])
        assert args.churn_rate == 0.05

    def test_chaos_without_adversity_is_a_usage_error(self, capsys):
        rc = main(["chaos", "--churn-rate", "0"] + CHAOS_ARGS)
        assert rc == 2
        assert "nothing to inject" in capsys.readouterr().err

    def test_chaos_prints_telemetry(self, capsys):
        rc = main(["chaos", "--frontend", "stlt", "--cores", "2",
                   "--churn-rate", "0.05"] + CHAOS_ARGS)
        assert rc == 0
        out = capsys.readouterr().out
        for needle in ("churn rate", "chaos events", "churn volume",
                       "IPB overflows", "oracle"):
            assert needle in out, f"chaos output missing {needle!r}"
        assert "0 violations" in out

    def test_chaos_prints_rival_telemetry(self, capsys):
        # past the TLBs' reach the rival serves translations, and the
        # text audit shows them beside the oracle's verdict
        rc = main(["chaos", "--frontend", "victima", "--churn-rate", "0.01",
                   "--keys", "10000", "--ops", "200", "--warmup-ops", "400"])
        assert rc == 0
        out = capsys.readouterr().out
        line = next(line for line in out.splitlines()
                    if line.startswith("accel"))
        assert line.startswith("accel         : victima (")
        hits = int(line.split("hits=")[1].split(",")[0])
        assert hits > 0
        assert "0 violations" in out

    def test_chaos_compare_baseline_reports_retained_speedup(self, capsys):
        rc = main(["chaos", "--frontend", "stlt", "--churn-rate", "0.02",
                   "--compare-baseline"] + CHAOS_ARGS)
        assert rc == 0
        out = capsys.readouterr().out
        assert "speedup" in out and "under" in out

    def test_chaos_json_record_carries_chaos_payload(self, capsys):
        rc = main(["chaos", "--json", "--frontend", "stlt",
                   "--churn-rate", "0.05"] + CHAOS_ARGS)
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        config = RunConfig.from_dict(record["config"])
        assert record["key"] == config_hash(config)
        assert config.churn_rate == 0.05
        chaos = record["result"]["chaos"]
        assert chaos["oracle"]["violations"] == 0
        assert sum(chaos["events"].values()) > 0

    def test_fault_plan_via_repeated_flags(self, capsys):
        rc = main(["chaos", "--json", "--cores", "2", "--churn-rate", "0",
                   "--fault", "slowdown:core=1,factor=2",
                   "--fault", "stall:core=0,cycles=50"] + CHAOS_ARGS)
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        assert record["config"]["fault_plan"] == [
            "slowdown:core=1,factor=2", "stall:core=0,cycles=50"]
        assert record["result"]["chaos"]["fault_cycles_charged"] > 0


class TestServeMitigationFlags:
    def test_defaults_are_quiet(self):
        args = build_parser().parse_args(["serve"])
        assert args.timeout is None
        assert args.retries == 0
        assert args.backoff == 2.0
        assert args.hedge is None
        assert args.fallback is False

    def test_mitigated_serve_prints_mitigation_line(self, capsys):
        rc = main(["serve", "--cores", "2", "--frontend", "stlt",
                   "--load", "0.9", "--fault", "slowdown:core=1,factor=4",
                   "--timeout", "6", "--retries", "2", "--hedge", "4",
                   "--fallback"] + CHAOS_ARGS)
        assert rc == 0
        out = capsys.readouterr().out
        assert "mitigation" in out
        assert "fault plan" in out

    def test_mitigation_knobs_land_in_json_record(self, capsys):
        rc = main(["serve", "--json", "--cores", "2", "--timeout", "6",
                   "--retries", "1"] + CHAOS_ARGS)
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        assert record["config"]["svc_timeout"] == 6.0
        assert record["config"]["svc_retries"] == 1
        service = record["result"]["service"]
        assert service["mitigation"]["retries"] == 1
        assert service["mitigation"]["timeout_cycles"] > 0


CLUSTER_ARGS = ["--keys", "1500", "--ops", "300", "--warmup-ops", "300"]


class TestClusterCommand:
    def test_cluster_defaults(self):
        args = build_parser().parse_args(["cluster"])
        assert args.nodes == 3
        assert args.replicas == 0
        assert args.no_route_cache is False
        assert args.batch == 1
        assert args.migrate_rate == 0.0
        assert args.net_rtt == 0.0
        assert args.arrival == "poisson"

    def test_single_quiet_node_is_a_usage_error(self, capsys):
        rc = main(["cluster", "--nodes", "1"] + CLUSTER_ARGS)
        assert rc == 2
        assert "nothing to shard" in capsys.readouterr().err

    def test_cluster_prints_fleet_telemetry(self, capsys):
        rc = main(["cluster", "--nodes", "3", "--cores", "2",
                   "--frontend", "stlt"] + CLUSTER_ARGS)
        assert rc == 0
        out = capsys.readouterr().out
        for needle in ("fleet", "achieved", "latency p99", "route cache",
                       "MOVED", "oracle", "node 0:", "node 2:"):
            assert needle in out, f"cluster output missing {needle!r}"
        assert "oracle        : OK" in out
        assert "VIOLATIONS" not in out

    def test_cluster_json_record_carries_cluster_payload(self, capsys):
        rc = main(["cluster", "--json", "--nodes", "2", "--cores", "2",
                   "--net-rtt", "200", "--migrate-rate", "0.01",
                   "--replicas", "1"] + CLUSTER_ARGS)
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        config = RunConfig.from_dict(record["config"])
        assert record["key"] == config_hash(config)
        assert config.nodes == 2
        assert config.replicas == 1
        assert config.net_rtt_cycles == 200.0
        cluster = record["result"]["cluster"]
        assert cluster["nodes"] == 2
        assert cluster["oracle_violations"] == 0
        assert cluster["achieved_throughput"] > 0
        assert set(cluster["latency"]) == {"p50", "p95", "p99", "p999"}
        assert len(cluster["per_node"]) == 2

    def test_one_node_rtt_anchor_runs_through_the_overlay(self, capsys):
        rc = main(["cluster", "--json", "--nodes", "1",
                   "--net-rtt", "300"] + CLUSTER_ARGS)
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        cluster = record["result"]["cluster"]
        assert cluster["nodes"] == 1
        assert cluster["network"]["rtt_cycles"] == 300.0
        assert "net300" in record["label"]

    def test_no_route_cache_bounces_through_moved(self, capsys):
        rc = main(["cluster", "--json", "--nodes", "4",
                   "--no-route-cache"] + CLUSTER_ARGS)
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        cluster = record["result"]["cluster"]
        assert cluster["route_cache"] is False
        assert cluster["route_hits"] == 0
        assert cluster["moved_redirects"] > 0
        assert cluster["oracle_violations"] == 0


class TestHeteroCommand:
    """--node-types: fleet grammar, exit code 13, hetero telemetry
    (satellite: PR 10)."""

    def test_hetero_beats_its_cluster_superclass(self):
        from repro import errors
        from repro.cli import exit_code_for

        assert issubclass(errors.HeteroError, errors.ClusterError)
        assert exit_code_for(errors.HeteroError("x")) == 13
        assert exit_code_for(errors.ClusterError("x")) == 11

    def test_nodes_default_is_unchanged(self):
        args = build_parser().parse_args(["cluster"])
        assert args.nodes == 3
        assert args.node_types is None

    def test_node_types_derives_the_node_count(self, capsys):
        rc = main(["cluster", "--json", "--node-types", "3full+1accel",
                   "--cores", "2"] + CLUSTER_ARGS)
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        config = RunConfig.from_dict(record["config"])
        assert config.nodes == 4
        assert len(record["result"]["cluster"]["per_node"]) == 4

    def test_bad_node_types_exits_13_with_one_line(self, capsys):
        rc = main(["cluster", "--node-types", "3accel"] + CLUSTER_ARGS)
        assert rc == 13
        captured = capsys.readouterr()
        assert "repro: HeteroError:" in captured.err
        assert "full" in captured.err
        assert "Traceback" not in captured.err
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_unknown_class_exits_13(self, capsys):
        rc = main(["cluster", "--node-types", "2full+1turbo"]
                  + CLUSTER_ARGS)
        assert rc == 13
        assert "turbo" in capsys.readouterr().err

    def test_mixed_fleet_prints_hetero_telemetry(self, capsys):
        rc = main(["cluster", "--node-types", "2full+1accel",
                   "--cores", "2", "--frontend", "stlt"] + CLUSTER_ARGS)
        assert rc == 0
        out = capsys.readouterr().out
        for needle in ("fleet mix", "2full+1accel", "accel GETs",
                       "fallbacks", "cost-normal", "capab. oracle"):
            assert needle in out, f"hetero output missing {needle!r}"
        assert "VIOLATIONS" not in out

    def test_homogeneous_output_has_no_hetero_lines(self, capsys):
        rc = main(["cluster", "--nodes", "3", "--cores", "2"]
                  + CLUSTER_ARGS)
        assert rc == 0
        out = capsys.readouterr().out
        assert "fleet mix" not in out
        assert "capab. oracle" not in out

    def test_mixed_fleet_json_carries_hetero_payload(self, capsys):
        rc = main(["cluster", "--json", "--node-types", "2full+1accel",
                   "--big-key-fraction", "0.2",
                   "--cores", "2"] + CLUSTER_ARGS)
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        config = RunConfig.from_dict(record["config"])
        assert config.node_types == "2full+1accel"
        hetero = record["result"]["cluster"]["hetero"]
        assert hetero["node_types"] == "2full+1accel"
        assert hetero["accel_keys"] == 4096
        assert hetero["big_key_fraction"] == 0.2
        assert hetero["capability_violations"] == 0

    def test_sweep_list_includes_hetero(self, capsys):
        rc = main(["sweep", "--list"])
        assert rc == 0
        assert "hetero" in capsys.readouterr().out

    def test_hwcost_kv_accel_block(self, capsys):
        rc = main(["hwcost", "--kv-accel"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "total bytes: 837" in out  # Table I untouched
        assert "kv-accel node" in out
        assert "Pearson hash tables" in out

    def test_hwcost_default_output_unchanged(self, capsys):
        rc = main(["hwcost"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "total bytes: 837" in out
        assert "kv-accel" not in out
