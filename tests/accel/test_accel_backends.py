"""The translation-accel framework: golden identity, rivals, churn.

The contract (DESIGN.md section 12):

* ``accel=stlt`` is the pre-refactor ``frontend="stlt"`` machinery
  behind the :class:`~repro.accel.base.TranslationAccel` interface —
  pinned *bit-identical* to ``tests/data/golden_smoke.json`` in both
  reference and batched execution modes, as is ``accel=none`` with the
  baseline frontend;
* every rival backend (victima / pcax / revelator) is deterministic
  across execution modes and **oracle-clean under OS churn**: a stale
  translation is charged as a misspeculation or invalidated, never
  served;
* the config axis is validated, labelled, content-hashed, and carries
  a per-backend hardware-cost report.
"""

import dataclasses
import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.accel import ACCEL_BACKENDS, make_accel
from repro.core.hwcost import accel_hardware_cost
from repro.errors import ConfigError
from repro.sim.config import ACCELS, RunConfig, config_hash
from repro.sim.engine import Engine, run_experiment

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "data" / \
    "golden_smoke.json"
SMOKE = dict(num_keys=200, measure_ops=60, warmup_ops=120)
RIVALS = ("victima", "pcax", "revelator")
#: footprint past L2-TLB reach so every backend sees measured-window
#: STLB misses (at SMOKE scale the rivals are warmup-only)
BIG = dict(num_keys=20_000, measure_ops=600, warmup_ops=1_200)


def golden():
    return json.loads(GOLDEN_PATH.read_text())


class TestGoldenBitIdentity:
    """The refactor seam: accel=stlt / accel=none vs. the golden run."""

    @pytest.mark.parametrize("exec_mode", ["reference", "batched"])
    @pytest.mark.parametrize("program", ["unordered_map", "btree"])
    def test_accel_stlt_matches_golden_stlt(self, program, exec_mode):
        config = RunConfig(program=program, frontend="baseline",
                           accel="stlt", exec_mode=exec_mode, **SMOKE)
        result = run_experiment(config)
        want = golden()[f"{program}/stlt"]
        assert result.cycles == want["cycles"]
        assert result.ops == want["ops"]
        assert result.gets == want["gets"]
        assert result.sets == want["sets"]
        assert result.attr == want["attr"]
        assert result.fast_miss_rate == want["fast_miss_rate"]
        mem = asdict(result.mem)
        for counter, value in want["mem"].items():
            assert mem[counter] == value, (
                f"{program}: accel=stlt drifted on {counter}")

    @pytest.mark.parametrize("exec_mode", ["reference", "batched"])
    @pytest.mark.parametrize("program", ["unordered_map", "btree"])
    def test_accel_none_matches_golden_baseline(self, program, exec_mode):
        config = RunConfig(program=program, frontend="baseline",
                           accel="none", exec_mode=exec_mode, **SMOKE)
        result = run_experiment(config)
        want = golden()[f"{program}/baseline"]
        assert result.cycles == want["cycles"]
        assert result.fast_miss_rate == want["fast_miss_rate"]
        mem = asdict(result.mem)
        for counter, value in want["mem"].items():
            assert mem[counter] == value, (
                f"{program}: accel=none drifted on {counter}")

    def test_accel_stlt_carries_stlt_telemetry(self):
        config = RunConfig(frontend="baseline", accel="stlt", **SMOKE)
        result = run_experiment(config)
        assert result.accel is not None
        assert result.accel["accel"] == "stlt"
        assert result.accel["stlt_rows"] > 0
        assert result.accel["stb_probes"] > 0


class TestRivalBackends:
    """victima / pcax / revelator under the same memory system."""

    @pytest.mark.parametrize("accel", RIVALS)
    def test_reference_and_batched_are_identical(self, accel):
        config = RunConfig(program="redis", frontend="baseline",
                           accel=accel, **BIG)
        ref = run_experiment(
            dataclasses.replace(config, exec_mode="reference"))
        bat = run_experiment(
            dataclasses.replace(config, exec_mode="batched"))
        assert bat.to_dict() == ref.to_dict()
        assert bat.accel == ref.accel

    @pytest.mark.parametrize("accel", RIVALS)
    def test_backend_is_exercised_past_tlb_reach(self, accel):
        config = RunConfig(program="redis", frontend="baseline",
                           accel=accel, **BIG)
        result = run_experiment(config)
        telemetry = result.accel
        assert telemetry is not None and telemetry["accel"] == accel
        if accel == "revelator":
            assert telemetry["spec_hits"] > 0
        else:
            assert telemetry["hits"] > 0
        # rivals never populate the key-level fast path
        assert result.fast_miss_rate is None

    def test_victima_and_pcax_reduce_walks(self):
        base = RunConfig(program="redis", frontend="baseline",
                         accel="none", **BIG)
        walks = run_experiment(base).page_walks
        assert walks > 0
        for accel in ("victima", "pcax"):
            accelerated = run_experiment(
                dataclasses.replace(base, accel=accel))
            assert accelerated.page_walks < walks, accel

    def test_revelator_walks_functionally_but_hides_latency(self):
        base = RunConfig(program="redis", frontend="baseline",
                         accel="none", **BIG)
        none_result = run_experiment(base)
        rev = run_experiment(
            dataclasses.replace(base, accel="revelator"))
        # every walk still happens (validation requires the real PTE)
        assert rev.page_walks == none_result.page_walks
        # but correct speculation hides the walk latency
        assert rev.cycles < none_result.cycles


class TestChurnOracle:
    """OS churn against every backend: stale translations must be
    charged or invalidated, never served — zero oracle violations."""

    CHURN = dict(program="redis", frontend="baseline", churn_rate=0.05,
                 num_keys=2_000, measure_ops=600, warmup_ops=1_200)

    @pytest.mark.parametrize("accel", ["none", "stlt", "victima",
                                       "pcax", "revelator"])
    def test_zero_violations_under_churn(self, accel):
        config = RunConfig(accel=accel, **self.CHURN)
        result = run_experiment(config)
        chaos = result.chaos
        assert chaos is not None
        assert chaos["oracle"]["violations"] == 0, accel
        assert chaos["oracle"]["checks"] > 0

    def test_revelator_misspeculates_under_churn_yet_stays_clean(self):
        config = RunConfig(accel="revelator",
                           **{**self.CHURN, "num_keys": 20_000})
        result = run_experiment(config)
        telemetry = result.accel
        # churn moved pages under live guesses: the stale guesses were
        # *detected and charged*, not served
        assert telemetry["spec_misses"] > 0
        assert result.chaos["oracle"]["violations"] == 0


class TestConfigAxis:
    """Validation, labelling, hashing, registry, hardware cost."""

    def test_accels_tuple_matches_registry(self):
        assert set(ACCELS) == {"none"} | set(ACCEL_BACKENDS)

    def test_non_baseline_frontend_rejected(self):
        for frontend in ("stlt", "slb"):
            with pytest.raises(ConfigError):
                RunConfig(frontend=frontend, accel="victima", **SMOKE)

    def test_unknown_accel_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(accel="tlbboost", **SMOKE)

    def test_unknown_accel_rejected_by_factory(self):
        engine = Engine(RunConfig(frontend="baseline", **SMOKE))
        with pytest.raises(ConfigError):
            make_accel("tlbboost", engine)

    def test_label_names_the_accel(self):
        config = RunConfig(frontend="baseline", accel="pcax", **SMOKE)
        assert "accel-pcax" in config.label
        plain = RunConfig(frontend="baseline", **SMOKE)
        assert "accel" not in plain.label

    def test_accel_knobs_reach_the_hash(self):
        base = RunConfig(frontend="baseline", accel="victima", **SMOKE)
        assert config_hash(dataclasses.replace(base, accel="pcax")) != \
            config_hash(base)

    @pytest.mark.parametrize("accel", ["stlt", "victima", "pcax",
                                       "revelator"])
    def test_every_backend_reports_hardware_cost(self, accel):
        report = accel_hardware_cost(accel)
        assert report.total_bytes > 0
        assert any(component == "Total" for component, _ in report.rows())

    def test_backend_instances_report_cost_too(self):
        config = RunConfig(frontend="baseline", accel="victima", **SMOKE)
        engine = Engine(config)
        assert engine.accel is not None
        assert engine.accel.hardware_cost().total_bytes > 0
