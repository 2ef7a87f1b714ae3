"""The rival translation designs: one lookup-design axis, churn.

The contract (DESIGN.md section 12):

* every rival design (victima / pcax / revelator) is a
  ``RunConfig.frontend`` value beside the key-level front-ends, and is
  deterministic across execution modes (``test_accel_golden.py`` pins
  its numbers);
* every design is **oracle-clean under OS churn**: a stale translation
  is charged as a misspeculation or invalidated, never served;
* the designs are validated, labelled, content-hashed, and carry a
  per-design hardware-cost report; ``result.accel`` carries the rival
  telemetry and ``fast_miss_rate`` the key-level fast path's.
"""

import dataclasses

import pytest

from repro.accel import ACCEL_BACKENDS, make_accel
from repro.core.hwcost import accel_hardware_cost
from repro.errors import ConfigError
from repro.sim.config import FRONTENDS, RunConfig, config_hash
from repro.sim.engine import Engine, run_experiment

SMOKE = dict(num_keys=200, measure_ops=60, warmup_ops=120)
RIVALS = ("victima", "pcax", "revelator")
#: footprint past L2-TLB reach so every backend sees measured-window
#: STLB misses (at SMOKE scale the rivals are warmup-only)
BIG = dict(num_keys=20_000, measure_ops=600, warmup_ops=1_200)


class TestOneAxis:
    """Every lookup design is one ``frontend`` value."""

    @pytest.mark.parametrize("design", FRONTENDS)
    def test_every_design_runs_identically_in_both_modes(self, design):
        config = RunConfig(program="redis", frontend=design, **SMOKE)
        ref = run_experiment(
            dataclasses.replace(config, exec_mode="reference"))
        bat = run_experiment(
            dataclasses.replace(config, exec_mode="batched"))
        assert bat.to_dict() == ref.to_dict()
        # only the key-level fast paths have a table miss rate, and
        # only the rivals carry backend telemetry
        assert (ref.fast_miss_rate is None) == \
            (design in ("baseline",) + RIVALS)
        assert (ref.accel is not None) == (design in RIVALS)


class TestRivalBackends:
    """victima / pcax / revelator under the same memory system."""

    @pytest.mark.parametrize("design", RIVALS)
    def test_reference_and_batched_are_identical(self, design):
        config = RunConfig(program="redis", frontend=design, **BIG)
        ref = run_experiment(
            dataclasses.replace(config, exec_mode="reference"))
        bat = run_experiment(
            dataclasses.replace(config, exec_mode="batched"))
        assert bat.to_dict() == ref.to_dict()
        assert bat.accel == ref.accel

    @pytest.mark.parametrize("design", RIVALS)
    def test_backend_is_exercised_past_tlb_reach(self, design):
        config = RunConfig(program="redis", frontend=design, **BIG)
        result = run_experiment(config)
        telemetry = result.accel
        assert telemetry is not None and telemetry["accel"] == design
        if design == "revelator":
            assert telemetry["spec_hits"] > 0
        else:
            assert telemetry["hits"] > 0
        # rivals never populate the key-level fast path
        assert result.fast_miss_rate is None

    def test_victima_and_pcax_reduce_walks(self):
        base = RunConfig(program="redis", frontend="baseline", **BIG)
        walks = run_experiment(base).page_walks
        assert walks > 0
        for design in ("victima", "pcax"):
            accelerated = run_experiment(base.with_frontend(design))
            assert accelerated.page_walks < walks, design

    def test_revelator_walks_functionally_but_hides_latency(self):
        base = RunConfig(program="redis", frontend="baseline", **BIG)
        none_result = run_experiment(base)
        rev = run_experiment(base.with_frontend("revelator"))
        # every walk still happens (validation requires the real PTE)
        assert rev.page_walks == none_result.page_walks
        # but correct speculation hides the walk latency
        assert rev.cycles < none_result.cycles


class TestChurnOracle:
    """OS churn against every backend: stale translations must be
    charged or invalidated, never served — zero oracle violations."""

    CHURN = dict(program="redis", churn_rate=0.05, num_keys=2_000,
                 measure_ops=600, warmup_ops=1_200)

    @pytest.mark.parametrize("design", ["baseline", "stlt", "victima",
                                        "pcax", "revelator"])
    def test_zero_violations_under_churn(self, design):
        config = RunConfig(frontend=design, **self.CHURN)
        result = run_experiment(config)
        chaos = result.chaos
        assert chaos is not None
        assert chaos["oracle"]["violations"] == 0, design
        assert chaos["oracle"]["checks"] > 0

    def test_revelator_misspeculates_under_churn_yet_stays_clean(self):
        config = RunConfig(frontend="revelator",
                           **{**self.CHURN, "num_keys": 20_000})
        result = run_experiment(config)
        telemetry = result.accel
        # churn moved pages under live guesses: the stale guesses were
        # *detected and charged*, not served
        assert telemetry["spec_misses"] > 0
        assert result.chaos["oracle"]["violations"] == 0


class TestConfigAxis:
    """Validation, labelling, hashing, registry, hardware cost."""

    def test_rival_frontends_match_registry(self):
        assert FRONTENDS[-len(ACCEL_BACKENDS):] == tuple(ACCEL_BACKENDS)

    def test_unknown_accel_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(frontend="tlbboost", **SMOKE)

    def test_stored_accel_field_rejected(self):
        # the design is the frontend; a record that still carries the
        # old accel field must re-simulate, not load under a new meaning
        data = RunConfig(frontend="victima", **SMOKE).to_dict()
        data["accel"] = "victima"
        with pytest.raises(ConfigError, match="'accel'"):
            RunConfig.from_dict(data)

    def test_unknown_accel_rejected_by_factory(self):
        engine = Engine(RunConfig(frontend="baseline", **SMOKE))
        with pytest.raises(ConfigError):
            make_accel("tlbboost", engine)

    def test_label_names_the_accel(self):
        config = RunConfig(frontend="pcax", **SMOKE)
        assert config.label.startswith("unordered_map/pcax/")

    def test_accel_knobs_reach_the_hash(self):
        base = RunConfig(frontend="victima", **SMOKE)
        assert config_hash(base.with_frontend("pcax")) != \
            config_hash(base)

    @pytest.mark.parametrize("design", ["stlt", "victima", "pcax",
                                        "revelator"])
    def test_every_backend_reports_hardware_cost(self, design):
        report = accel_hardware_cost(design)
        assert report.total_bytes > 0
        assert any(component == "Total" for component, _ in report.rows())

    def test_backend_instances_report_cost_too(self):
        config = RunConfig(frontend="victima", **SMOKE)
        engine = Engine(config)
        assert engine.accel is not None
        assert engine.accel.hardware_cost().total_bytes > 0
