"""Round-robin multi-core interleaver over one shared store.

``MultiCoreEngine`` drives N independent YCSB streams — one per core —
against a single :class:`~repro.sim.engine.Engine` (shared index, record
store, STLT/IPB, SLB, L3, DRAM channel; private L1/L2, TLBs, STB,
prefetchers).  The interleave is one operation per core per step, so at
every point of the run all cores have executed the same number of
operations and their DRAM/L3 traffic genuinely contends.

Each core streams its own workload: the chooser is seeded with
``config.seed + core_id`` so the streams are independent draws of the
same distribution, and fresh keys (latest-distribution SETs) live in
disjoint strided namespaces (core *i* of *N* inserts ids
``num_keys + i, num_keys + i + N, ...``) so clients never collide on a
new key.  ``measure_ops`` and the warm-up count *per core*.

A single-core run through this loop is cycle-identical to the
pre-split engine: core 0's stream is seeded with ``config.seed``, the
fresh-key namespace is the identity mapping, and the per-core mark /
delta bookkeeping is verbatim the old single-stream loop (a regression
test pins this against golden numbers).

With ``capture_op_cycles=True`` the loop additionally records every
*measured* operation's cycle cost per core (the delta of the core's
``total_cycles`` counter around the op).  The hook is pure observation
— it reads a counter the loop already maintains — so captured and
uncaptured runs are bit-identical; the per-op sequences feed the
open-loop service layer (:mod:`repro.svc`), which charges queueing
requests their measured service times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import KVSError
from ..workloads.ycsb import Operation, WorkloadSpec, generate_operations
from .fastpath import BatchedOpExecutor
from .results import RunResult, aggregate_run_results


@dataclass
class MultiCoreRunResult:
    """Outcome of one interleaved epoch: per-core windows + the fold."""

    per_core: List[RunResult]
    aggregate: RunResult
    #: per-core measured-window per-op service cycles (only when the
    #: engine ran with ``capture_op_cycles=True``); ``op_cycles[c][k]``
    #: is core ``c``'s k-th measured operation's cycle cost
    op_cycles: Optional[List[List[int]]] = None


class _CoreRunState:
    """One core's measured-window bookkeeping (the old engine's locals).

    ``mark()`` is called when the core crosses its warm-up boundary —
    before executing that operation, exactly like the pre-split loop —
    and snapshots the core's memory statistics, cycle attribution, and
    front-end hit counters.  ``finish()`` turns the deltas into the
    core's :class:`RunResult`.
    """

    def __init__(self, engine, core_id: int) -> None:
        self.engine = engine
        self.core_id = core_id
        self.mem = engine.ctx.core_mem(core_id)
        self.frontend = engine.frontends[core_id]
        self.snapshot = None
        self.attr_snapshot: Dict[str, int] = {}
        self.gets_at_mark = 0
        self.fast_hits_at_mark = 0
        self.gets = 0
        self.sets = 0
        #: measured-window per-op cycle costs (capture mode only)
        self.op_cycles: List[int] = []

    def mark(self) -> None:
        self.snapshot = self.mem.stats.snapshot()
        self.attr_snapshot = dict(self.mem.attr)
        self.gets_at_mark = self.frontend.gets
        self.fast_hits_at_mark = self.frontend.fast_hits
        self.gets = self.sets = 0

    def finish(self, num_cores: int) -> RunResult:
        if self.snapshot is None:  # measure window empty
            raise KVSError("no measured operations; check op counts")
        config = self.engine.config
        delta = self.mem.stats.delta(self.snapshot)
        attr = {
            k: v - self.attr_snapshot.get(k, 0)
            for k, v in self.mem.attr.items()
        }
        measured_gets = self.frontend.gets - self.gets_at_mark
        measured_hits = self.frontend.fast_hits - self.fast_hits_at_mark
        fast_miss_rate = None
        # the rival translation designs run the baseline front-end: no
        # key-level fast path, so their rate stays None like baseline's
        if measured_gets and self.frontend.name != "baseline":
            fast_miss_rate = 1.0 - measured_hits / measured_gets
        if num_cores == 1:
            label: str = config.label
            core_id: Optional[int] = None
        else:
            label = f"{config.label}[core{self.core_id}]"
            core_id = self.core_id
        return RunResult(
            label=label,
            frontend=config.frontend,
            cycles=delta.total_cycles,
            ops=self.gets + self.sets,
            gets=self.gets,
            sets=self.sets,
            mem=delta,
            attr=attr,
            fast_miss_rate=fast_miss_rate,
            fast_occupancy=self.engine.fast_occupancy(),
            fast_table_bytes=self.engine.fast_table_bytes(),
            core_id=core_id,
        )


class MultiCoreEngine:
    """Interleaves per-core operation streams over a shared engine."""

    def __init__(self, engine, capture_op_cycles: bool = False) -> None:
        self.engine = engine
        self.config = engine.config
        #: record each measured op's cycle cost per core (pure
        #: observation of the per-core cycle counter: simulated cycles
        #: are bit-identical either way)
        self.capture_op_cycles = capture_op_cycles
        #: the chaos injector, only when the config asks for adversity;
        #: a quiet config leaves the loop untouched (golden bit-identity)
        self.injector = None
        if self.config.chaos_enabled:
            from ..chaos.injector import ChaosInjector
            self.injector = ChaosInjector(engine)

    def _streams(self, spec: WorkloadSpec) -> List[List]:
        """Materialise each core's operation stream up front.

        ``generate_operations`` draws each stream in bulk and returns a
        list; the ``list()`` stays because a caller may wrap that seam
        and hand back an iterator (the e2e benchmark's tracer does).
        At simulation scale (tens of thousands of ops) the lists are
        cheap.
        """
        config = self.config
        n = config.num_cores
        return [
            list(generate_operations(
                spec, config.num_keys, config.total_ops,
                seed=config.seed + core_id,
                first_new_id=config.num_keys + core_id,
                new_id_stride=n,
            ))
            for core_id in range(n)
        ]

    def run(self, streams: Optional[List[List]] = None) \
            -> MultiCoreRunResult:
        """Run the interleaved epoch.

        ``streams`` lets a caller supply pre-generated per-core op
        arrays (exactly what :meth:`_streams` returns for this config).
        Generation is deterministic, so passing them changes nothing
        about the run — the benchmark harness uses this to time the
        execution engines over identical arrays without re-paying
        workload generation inside the measured region.
        """
        config = self.config
        engine = self.engine
        spec = WorkloadSpec(distribution=config.distribution,
                            value_size=config.value_size)
        if streams is None:
            streams = self._streams(spec)
        elif (len(streams) != config.num_cores
              or any(len(s) != config.total_ops for s in streams)):
            raise KVSError(
                "pre-generated streams do not match the config: need "
                f"{config.num_cores} cores x {config.total_ops} ops")
        warmup = config.effective_warmup_ops
        n = config.num_cores
        states = [_CoreRunState(engine, core_id) for core_id in range(n)]

        capture = self.capture_op_cycles
        injector = self.injector
        faulted = injector is not None and injector.has_faults

        # execution-mode seam: a batched config the fast path fuses
        # hands the interleave to its loop (bit-identical by the
        # differential suite); everything else runs the loop below with
        # the engine's own methods
        if config.exec_mode == "batched":
            executor = BatchedOpExecutor(engine)
            if executor.fused:
                executor.run_interleave(
                    streams, states, warmup, capture=capture,
                    injector=injector, faulted=faulted,
                    value_size=spec.value_size)
                return self._fold(states, capture)

        do_get = engine.do_get
        do_set = engine.do_set
        for i in range(config.total_ops):
            measured = i >= warmup
            for core_id in range(n):
                engine.bind_core(core_id)
                state = states[core_id]
                if i == warmup:
                    state.mark()
                if faulted or (capture and measured):
                    cycles_before = state.mem.stats.total_cycles
                op, key_id = streams[core_id][i]
                if op is Operation.GET:
                    do_get(core_id, key_id)
                    state.gets += 1
                else:
                    do_set(core_id, key_id, spec.value_size)
                    state.sets += 1
                if faulted:
                    # per-core performance faults: charge the plan's
                    # extra cycles before the capture below, so the
                    # open-loop service layer sees the slow core.
                    # charge(), not tick(): the contention clock stays
                    # in lockstep with the interleave
                    extra = injector.fault_cycles(
                        core_id, i,
                        state.mem.stats.total_cycles - cycles_before)
                    if extra:
                        state.mem.charge(extra, attr="fault")
                if capture and measured:
                    state.op_cycles.append(
                        state.mem.stats.total_cycles - cycles_before)
                if injector is not None:
                    # OS churn fires *between* operations: the event's
                    # timed side effects (shootdowns, scrubs, protocol
                    # refreshes) land on the active core but outside
                    # the per-op service capture
                    injector.after_op(core_id, i)

        return self._fold(states, capture)

    def _fold(self, states: List[_CoreRunState],
              capture: bool) -> MultiCoreRunResult:
        """Turn the per-core run states into the epoch result."""
        config = self.config
        n = config.num_cores
        per_core = [state.finish(n) for state in states]
        op_cycles = [state.op_cycles for state in states] if capture \
            else None
        if n == 1:
            return MultiCoreRunResult(per_core=per_core,
                                      aggregate=per_core[0],
                                      op_cycles=op_cycles)
        aggregate = aggregate_run_results(per_core, label=config.label,
                                          frontend=config.frontend)
        return MultiCoreRunResult(per_core=per_core, aggregate=aggregate,
                                  op_cycles=op_cycles)
