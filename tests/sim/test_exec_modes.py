"""The execution-mode seam: batched vs. the reference loop.

The contract (DESIGN.md section 11):

* **batched** is *bit-identical* to reference — every cycle, every
  counter, every RNG draw, every DRAM queue timestamp.  Pinned here
  against ``tests/data/golden_smoke.json`` (captured long before the
  seam existed) and differentially against reference mode over a
  hypothesis-driven matrix of front-ends, programs, cores, churn,
  distributions and cluster sizes.
* both modes observe the identical prefill state
  (:meth:`Engine.prefill_digest`), and a mid-run
  ``notify_record_moved`` invalidation behaves identically in both
  modes — the two seams through which the modes could silently
  drift apart.
"""

import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.config import RunConfig
from repro.sim.engine import Engine, run_experiment
from repro.sim.fastpath import BatchedOpExecutor
from repro.sim.multicore import MultiCoreEngine
from repro.workloads.keys import key_bytes

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "data" / \
    "golden_smoke.json"
SMOKE = dict(num_keys=200, measure_ops=60, warmup_ops=120)
SMOKE_POINTS = [
    (program, frontend)
    for program in ("unordered_map", "btree")
    for frontend in ("baseline", "slb", "stlt", "stlt_va", "stlt_sw")
]

def run_mode(config: RunConfig, exec_mode: str, capture: bool = False):
    """One full run in the given mode; returns (outcome, engine)."""
    cfg = dataclasses.replace(config, exec_mode=exec_mode)
    engine = Engine(cfg)
    outcome = MultiCoreEngine(engine, capture_op_cycles=capture).run()
    return outcome, engine


def full_state(outcome, engine) -> dict:
    """Everything observable from a run, for exact comparison."""
    return {
        "aggregate": outcome.aggregate.to_dict(),
        "per_core": [r.to_dict() for r in outcome.per_core],
        "op_cycles": outcome.op_cycles,
        "dram": engine.ctx.core_mem(0).dram.snapshot(),
        "table": engine.prefill_digest(),
    }


class TestBatchedGoldenBitIdentity:
    """Batched mode against the pre-seam golden numbers."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN_PATH.read_text())

    @pytest.mark.parametrize("program,frontend", SMOKE_POINTS)
    def test_matches_golden(self, golden, program, frontend):
        config = RunConfig(program=program, frontend=frontend,
                           exec_mode="batched", **SMOKE)
        result = run_experiment(config)
        want = golden[f"{program}/{frontend}"]
        assert result.cycles == want["cycles"]
        assert result.ops == want["ops"]
        assert result.gets == want["gets"]
        assert result.sets == want["sets"]
        assert result.attr == want["attr"]
        assert result.fast_miss_rate == want["fast_miss_rate"]
        mem = result.mem.to_dict()
        for counter, value in want["mem"].items():
            assert mem[counter] == value, (
                f"{program}/{frontend}: batched drifted on {counter}")


class TestBatchedDifferential:
    """Batched == reference over a randomised config matrix."""

    @settings(max_examples=12, deadline=None)
    @given(
        program=st.sampled_from(("unordered_map", "btree")),
        frontend=st.sampled_from(
            ("baseline", "slb", "stlt", "stlt_va", "stlt_sw")),
        accel=st.sampled_from(
            ("none", "stlt", "victima", "pcax", "revelator")),
        num_cores=st.sampled_from((1, 2)),
        churn_rate=st.sampled_from((0.0, 0.03)),
        distribution=st.sampled_from(("zipf", "latest")),
        value_size=st.sampled_from((64, 128)),
    )
    def test_run_state_is_identical(self, program, frontend, accel,
                                    num_cores, churn_rate, distribution,
                                    value_size):
        # a non-'none' accel owns the whole translation path, so it
        # composes only with the baseline frontend (ConfigError else)
        if accel != "none":
            frontend = "baseline"
        config = RunConfig(
            program=program, frontend=frontend, accel=accel,
            num_cores=num_cores,
            churn_rate=churn_rate, distribution=distribution,
            value_size=value_size, num_keys=150, measure_ops=40,
            warmup_ops=80)
        ref = full_state(*run_mode(config, "reference"))
        bat = full_state(*run_mode(config, "batched"))
        assert bat == ref

    def test_capture_and_faults_are_identical(self):
        # "latest" draws 5% SETs, so captures cover SETs on the
        # single-core slice (1 core, no fault plan) and on the per-op
        # loop (2 cores, or a fault plan's injector), where core 1's
        # GETs must run against core 1
        for num_cores in (1, 2):
            for fault_plan in ((), ("slowdown:core=0,factor=2",)):
                config = RunConfig(
                    frontend="stlt", distribution="latest",
                    num_cores=num_cores, fault_plan=fault_plan, **SMOKE)
                ref = full_state(*run_mode(config, "reference",
                                           capture=True))
                bat = full_state(*run_mode(config, "batched",
                                           capture=True))
                assert ref["aggregate"]["sets"] > 0
                assert bat == ref, (num_cores, fault_plan)

    def test_redis_program_is_identical(self):
        config = RunConfig(program="redis", frontend="stlt", **SMOKE)
        ref = full_state(*run_mode(config, "reference"))
        bat = full_state(*run_mode(config, "batched"))
        assert bat == ref

    def test_cluster_runs_are_identical(self):
        config = RunConfig(frontend="stlt", nodes=3, **SMOKE)
        ref = run_experiment(
            dataclasses.replace(config, exec_mode="reference"))
        bat = run_experiment(
            dataclasses.replace(config, exec_mode="batched"))
        assert bat.to_dict() == ref.to_dict()


class TestPrefillState:
    """Both modes must observe the identical prefill state."""

    @pytest.mark.parametrize("frontend",
                             ["baseline", "slb", "stlt", "stlt_sw"])
    def test_prefill_digest_is_mode_independent(self, frontend):
        config = RunConfig(frontend=frontend, **SMOKE)
        digests = {
            mode: Engine(
                dataclasses.replace(config, exec_mode=mode)
            ).prefill_digest()
            for mode in ("reference", "batched")
        }
        assert digests["batched"] == digests["reference"]
        if frontend != "baseline":
            assert digests["reference"] is not None


class TestRecordMovedMidRun:
    """A mid-run record move + Section III-F refresh must leave both
    timed modes in the identical state — the invalidation path runs
    outside the fused kernel, so a drifting view would show up here."""

    KEYS = 120
    MOVED_KEY = 7

    def _drive(self, exec_mode: str) -> dict:
        config = RunConfig(frontend="stlt", exec_mode=exec_mode,
                           num_keys=self.KEYS, measure_ops=30,
                           warmup_ops=0)
        engine = Engine(config)
        executor = BatchedOpExecutor(engine) \
            if exec_mode == "batched" else None

        def get(key_id: int) -> None:
            if executor is not None:
                executor.do_get(0, key_id)
            else:
                engine.bind_core(0)
                engine.do_get(0, key_id)

        for key_id in range(self.KEYS):
            get(key_id)
        # the mid-run move: realloc one hot record, run the paper's
        # refresh protocol (both modes take the reference path here)
        engine.bind_core(0)
        record = engine.frontends[0].index.lookup(
            key_bytes(self.MOVED_KEY))
        assert record is not None
        old_va = engine.ctx.records.move(record)
        engine.notify_record_moved(record, old_va)
        # keep going, including through the moved key
        for key_id in range(self.KEYS):
            get(key_id)
        if executor is not None:
            executor._flush(executor._views[0])
        mem = engine.ctx.core_mem(0)
        return {
            "stats": mem.stats.to_dict(),
            "attr": dict(mem.attr),
            "now": mem.now,
            "table": engine.prefill_digest(),
            "gets": engine.frontends[0].gets,
            "fast_hits": engine.frontends[0].fast_hits,
            "oracle": (engine.oracle.checks, engine.oracle.fast_checks),
            "moved_va": record.va,
        }

    def test_invalidation_behaves_identically(self):
        ref = self._drive("reference")
        bat = self._drive("batched")
        assert bat == ref
        # the move really happened and the refreshed row serves hits
        assert ref["stats"]["accesses"] > 0
