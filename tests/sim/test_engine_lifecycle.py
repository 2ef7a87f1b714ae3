"""A dropped engine is freed by reference counting alone.

The engine graph holds no reference cycle: the address space holds its
observers' bound methods weakly, the batched executor stores no bound
method of itself, a rival design keeps the engine's parts rather than
the engine, and the cluster overlay clears its callbacks when it
finishes.  So when the last reference to an engine (or a fleet of
them) goes, its whole store goes with it, and the cyclic collector has
nothing of it to find.

Each case runs with the collector disabled (its state is restored
afterwards), builds, runs and drops an engine, and then asks the
collector what it would free.  ordered_map is the one exception: its
red-black nodes point at their parents and its sentinel at itself, a
cycle that is the data structure itself, so that case only checks that
no engine part is among the garbage.
"""

import gc
from collections import Counter

import pytest

from repro.sim.config import EXEC_MODES, FRONTENDS, PROGRAMS, RunConfig
from repro.sim.engine import Engine, run_experiment

SMALL = dict(num_keys=300, warmup_ops=40, measure_ops=40)

#: engine parts that must never be cyclic garbage
ENGINE_PARTS = {"Engine", "MemorySystem", "AddressSpace", "SimContext",
                "BatchedOpExecutor"}


def cyclic_garbage(run):
    """The objects the cyclic collector would free after ``run()``."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            return list(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
    finally:
        if enabled:
            gc.enable()


def type_counts(objects):
    return Counter(type(o).__name__ for o in objects).most_common(8)


def run_engine(**fields):
    config = RunConfig(**{**SMALL, **fields})
    return lambda: Engine(config).run()


CELLS = [(program, frontend, mode)
         for program in PROGRAMS
         for frontend in FRONTENDS
         if not (program == "redis" and frontend == "stlt_sw")
         for mode in EXEC_MODES]


@pytest.mark.parametrize(
    "program,frontend,mode", CELLS,
    ids=[f"{p}-{f}-{m}" for p, f, m in CELLS])
def test_dropped_engine_leaves_no_cycle(program, frontend, mode):
    garbage = cyclic_garbage(run_engine(
        program=program, frontend=frontend, exec_mode=mode))
    if program == "ordered_map":
        # the red-black tree's parent links and self-referencing
        # sentinel: collectable, but nothing else of the engine
        parts = ENGINE_PARTS & {type(o).__name__ for o in garbage}
        assert not parts, type_counts(garbage)
    else:
        assert not garbage, type_counts(garbage)


@pytest.mark.parametrize("mode", EXEC_MODES)
def test_churned_faulted_open_loop_run_leaves_no_cycle(mode):
    garbage = cyclic_garbage(run_engine(
        frontend="stlt", distribution="latest", num_cores=2,
        churn_rate=0.05, fault_plan=("slowdown:core=1,factor=3",),
        arrival_process="poisson", exec_mode=mode))
    assert not garbage, type_counts(garbage)


def test_prefetchers_leave_no_cycle():
    garbage = cyclic_garbage(run_engine(
        prefetchers=("stream", "vldp", "tlb_distance")))
    assert not garbage, type_counts(garbage)


FLEETS = {
    "quiet": dict(),
    "crash_restart": dict(node_fault_plan=("crash:node=1,at=0.4",
                                           "restart:node=1,at=0.8")),
    "mixed": dict(node_types="2full+2accel"),
}


@pytest.mark.parametrize("fleet", sorted(FLEETS))
def test_dropped_fleet_leaves_no_cycle(fleet):
    config = RunConfig(**{
        **SMALL, "program": "redis", "frontend": "stlt", "nodes": 4,
        "replicas": 1, "net_rtt_cycles": 50.0, "exec_mode": "batched",
        "failover_detect_cycles": 500.0, **FLEETS[fleet]})
    garbage = cyclic_garbage(lambda: run_experiment(config))
    assert not garbage, type_counts(garbage)
