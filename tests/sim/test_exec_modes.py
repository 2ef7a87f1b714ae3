"""The execution-mode seam: batched vs. the reference loop.

The contract (DESIGN.md section 11):

* **batched** is *bit-identical* to reference — every cycle, every
  counter, every RNG draw, every DRAM queue timestamp.  Pinned here
  against ``tests/data/golden_smoke.json`` (captured long before the
  seam existed; its ``redis/*`` entries before Redis GETs were fused)
  and differentially against reference mode over a hypothesis-driven
  matrix of front-ends, programs, cores, churn, distributions and
  cluster sizes, plus a full matrix of the fused Redis configs (the
  STLT front-ends' all-hit kernel and the baseline's chained-hash
  kernel) and unordered_map's baseline in both kernel shapes.
* both modes observe the identical prefill state
  (:meth:`Engine.prefill_digest`), and a mid-run
  ``notify_record_moved`` invalidation (on the STLT and the baseline
  front-ends) and a disabled STU behave identically in both modes — the
  seams through which the modes could silently drift apart.
"""

import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.config import FRONTENDS, RunConfig
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
#: the redis/* goldens were captured from the reference mode before the
#: fused kernel served Redis GETs; every field is pinned, the memory
#: bundle whole
REDIS_FRONTENDS = ("baseline", "slb", "stlt", "stlt_va", "stlt_sw")

def run_mode(config: RunConfig, exec_mode: str, capture: bool = False):
    """One full run in the given mode; returns (outcome, engine)."""
    cfg = dataclasses.replace(config, exec_mode=exec_mode)
    engine = Engine(cfg)
    outcome = MultiCoreEngine(engine, capture_op_cycles=capture).run()
    return outcome, engine


def full_state(outcome, engine) -> dict:
    """Everything observable from a run, for exact comparison."""
    redis = engine.redis
    return {
        "aggregate": outcome.aggregate.to_dict(),
        "per_core": [r.to_dict() for r in outcome.per_core],
        "op_cycles": outcome.op_cycles,
        "dram": engine.ctx.core_mem(0).dram.snapshot(),
        "table": engine.prefill_digest(),
        "oracle": (engine.oracle.checks, engine.oracle.fast_checks),
        # the client buffers' cursor: every command, GET or SET, moves it
        "redis": None if redis is None else redis._buf_cursor,
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

    @pytest.mark.parametrize("frontend", REDIS_FRONTENDS)
    @pytest.mark.parametrize("exec_mode", ["reference", "batched"])
    def test_redis_matches_golden(self, golden, exec_mode, frontend):
        config = RunConfig(program="redis", frontend=frontend,
                           exec_mode=exec_mode, **SMOKE)
        result = run_experiment(config)
        want = golden[f"redis/{frontend}"]
        got = {
            "attr": result.attr, "cycles": result.cycles,
            "fast_miss_rate": result.fast_miss_rate,
            "fast_occupancy": result.fast_occupancy,
            "fast_table_bytes": result.fast_table_bytes,
            "gets": result.gets, "mem": result.mem.to_dict(),
            "ops": result.ops, "sets": result.sets,
        }
        assert got == want


class TestBatchedDifferential:
    """Batched == reference over a randomised config matrix."""

    @settings(max_examples=12, deadline=None)
    @given(
        program=st.sampled_from(("unordered_map", "btree", "redis")),
        frontend=st.sampled_from(FRONTENDS),
        num_cores=st.sampled_from((1, 2)),
        churn_rate=st.sampled_from((0.0, 0.03)),
        distribution=st.sampled_from(("zipf", "latest")),
        value_size=st.sampled_from((64, 128)),
    )
    def test_run_state_is_identical(self, program, frontend, num_cores,
                                    churn_rate, distribution, value_size):
        config = RunConfig(
            program=program, frontend=frontend, num_cores=num_cores,
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


#: the STLT front-ends whose Redis GETs the all-hit kernel serves; the
#: ids keep the "-none" suffix the cells carried while a separate accel
#: axis sat beside frontend, so the test ids stay stable
REDIS_STLT = [pytest.param("stlt", id="stlt-none"),
              pytest.param("stlt_va", id="stlt_va-none")]
#: ... and the baseline front-end, whose GETs the chained-hash kernel
#: serves
REDIS_FUSED = REDIS_STLT + [pytest.param("baseline", id="baseline")]
#: configs the batched mode must leave to the reference loop: the
#: baselines of the other index structures, and the rival designs,
#: which run baseline front-ends with a resolver attached
UNFUSED = [dict(program=program, frontend="baseline")
           for program in ("dense_hash_map", "ordered_map", "btree")] + [
    dict(program=program, frontend=frontend)
    for program in ("redis", "unordered_map")
    for frontend in ("victima", "pcax", "revelator")]
#: long enough for latest's SETs and churn's events to land in both
#: windows, small enough to run the whole matrix
REDIS_MATRIX_SIZE = dict(num_keys=300, warmup_ops=150, measure_ops=200)


class TestRedisFusedKernel:
    """Redis GETs on the STLT front-ends run the all-hit kernel, with
    the command framing as the model's own calls, and on the baseline
    front-end the chained-hash kernel; every state the two modes can
    reach must stay identical."""

    @pytest.mark.parametrize("frontend", REDIS_STLT)
    def test_stlt_frontends_are_fused(self, frontend):
        config = RunConfig(program="redis", frontend=frontend,
                           exec_mode="batched", **SMOKE)
        assert BatchedOpExecutor(Engine(config)).fused

    @pytest.mark.parametrize("program", ["redis", "unordered_map"])
    def test_chained_hash_baseline_is_fused(self, program):
        config = RunConfig(program=program, frontend="baseline",
                           exec_mode="batched", **SMOKE)
        assert BatchedOpExecutor(Engine(config)).fused

    def test_other_baselines_and_rival_designs_are_not_fused(self):
        for fields in UNFUSED:
            config = RunConfig(exec_mode="batched", **fields, **SMOKE)
            assert not BatchedOpExecutor(Engine(config)).fused, fields

    @pytest.mark.parametrize("capture", [False, True])
    # 4,000 B: the out-of-line value's robj crosses a page
    @pytest.mark.parametrize("value_size", [64, 4_000])
    # latest draws SETs, which move the client-buffer cursor too
    @pytest.mark.parametrize("distribution", ["zipf", "latest"])
    @pytest.mark.parametrize("churn_rate", [0.0, 0.03])
    @pytest.mark.parametrize("num_cores", [1, 2])
    @pytest.mark.parametrize("frontend", REDIS_FUSED)
    def test_matrix_is_identical(self, frontend, num_cores, churn_rate,
                                 distribution, value_size, capture):
        config = RunConfig(
            program="redis", frontend=frontend,
            num_cores=num_cores, churn_rate=churn_rate,
            distribution=distribution, value_size=value_size,
            **REDIS_MATRIX_SIZE)
        ref = full_state(*run_mode(config, "reference", capture=capture))
        bat = full_state(*run_mode(config, "batched", capture=capture))
        assert bat == ref
        if distribution == "latest":
            assert ref["aggregate"]["sets"] > 0

    @pytest.mark.parametrize("distribution", ["zipf", "latest"])
    @pytest.mark.parametrize("num_cores", [1, 2])
    @pytest.mark.parametrize("frontend", REDIS_FUSED)
    def test_fault_plan_is_identical(self, frontend, num_cores,
                                     distribution):
        config = RunConfig(
            program="redis", frontend=frontend,
            num_cores=num_cores, distribution=distribution,
            fault_plan=("slowdown:core=0,factor=2",), **REDIS_MATRIX_SIZE)
        ref = full_state(*run_mode(config, "reference", capture=True))
        bat = full_state(*run_mode(config, "batched", capture=True))
        assert bat == ref
        assert ref["aggregate"]["attr"]["fault"] > 0

    # the chained-hash kernel's two shapes: one slice per window (one
    # core, no injector) and one-op slices (two cores under churn)
    @pytest.mark.parametrize("num_cores,churn_rate", [(1, 0.0), (2, 0.03)],
                             ids=["slice", "per_op"])
    def test_unordered_map_baseline_is_identical(self, num_cores,
                                                 churn_rate):
        config = RunConfig(
            program="unordered_map", frontend="baseline",
            num_cores=num_cores, churn_rate=churn_rate,
            distribution="latest", value_size=4_000, **REDIS_MATRIX_SIZE)
        ref = full_state(*run_mode(config, "reference", capture=True))
        bat = full_state(*run_mode(config, "batched", capture=True))
        assert bat == ref
        assert ref["aggregate"]["sets"] > 0


class TestDisabledSTU:
    """A disabled STU (the performance monitor's switch, Sec. III-F)
    takes the reference GET in batched mode.  No engine run switches one
    off by itself, so these tests do it by hand: mid-run through the
    per-op executors, and before a whole run."""

    KEYS = 120

    def _drive(self, program: str, exec_mode: str) -> dict:
        config = RunConfig(program=program, frontend="stlt",
                           exec_mode=exec_mode, num_keys=self.KEYS,
                           measure_ops=30, warmup_ops=0)
        engine = Engine(config)
        executor = BatchedOpExecutor(engine) \
            if exec_mode == "batched" else None
        stu = engine.stus[0]
        frontend = engine.frontends[0]

        def sweep() -> int:
            """GET every key; returns the fast hits it scored."""
            if executor is not None:
                executor._views[0].flush()
            before = frontend.fast_hits
            for key_id in range(self.KEYS):
                if executor is not None:
                    executor.do_get(0, key_id)
                else:
                    engine.bind_core(0)
                    engine.do_get(0, key_id)
            if executor is not None:
                executor._views[0].flush()
            return frontend.fast_hits - before

        hits = [sweep()]
        stu.enabled = False
        hits.append(sweep())
        stu.enabled = True
        hits.append(sweep())
        mem = engine.ctx.core_mem(0)
        return {
            "hits": hits,
            "stats": mem.stats.to_dict(),
            "attr": dict(mem.attr),
            "now": mem.now,
            "table": engine.prefill_digest(),
            "gets": frontend.gets,
            "load_va": (stu.load_va_count, stu.load_va_hits),
            "oracle": (engine.oracle.checks, engine.oracle.fast_checks),
            "redis": None if engine.redis is None
            else engine.redis._buf_cursor,
        }

    @pytest.mark.parametrize("program", ["unordered_map", "redis"])
    def test_switched_off_mid_run(self, program):
        ref = self._drive(program, "reference")
        bat = self._drive(program, "batched")
        assert bat == ref
        # hits before and after the switch, none while it is off
        assert ref["hits"][0] > 0 and ref["hits"][2] > 0
        assert ref["hits"][1] == 0

    @pytest.mark.parametrize("num_cores", [1, 2])
    @pytest.mark.parametrize("program", ["unordered_map", "redis"])
    def test_off_from_the_start(self, program, num_cores):
        config = RunConfig(program=program, frontend="stlt",
                           num_cores=num_cores, **SMOKE)
        states = {}
        for mode in ("reference", "batched"):
            engine = Engine(dataclasses.replace(config, exec_mode=mode))
            engine.stus[0].enabled = False
            outcome = MultiCoreEngine(engine).run()
            states[mode] = full_state(outcome, engine)
            assert engine.frontends[0].fast_hits == 0
        assert states["batched"] == states["reference"]


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

    def _drive(self, exec_mode: str, frontend: str = "stlt",
               program: str = "unordered_map") -> dict:
        config = RunConfig(program=program, frontend=frontend,
                           exec_mode=exec_mode, num_keys=self.KEYS,
                           measure_ops=30, warmup_ops=0)
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
            executor._views[0].flush()
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
            "old_va": old_va,
            "redis": None if engine.redis is None
            else engine.redis._buf_cursor,
        }

    def test_invalidation_behaves_identically(self):
        ref = self._drive("reference")
        bat = self._drive("batched")
        assert bat == ref
        # the move really happened and the refreshed row serves hits
        assert ref["stats"]["accesses"] > 0

    @pytest.mark.parametrize("program", ["unordered_map", "redis"])
    def test_invalidation_behaves_identically_on_baseline(self, program):
        # the chained-hash kernel reads the moved record's VA off its
        # node: nothing it memoises may hold the old one
        ref = self._drive("reference", "baseline", program)
        bat = self._drive("batched", "baseline", program)
        assert bat == ref
        assert ref["moved_va"] != ref["old_va"]
