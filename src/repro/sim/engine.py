"""The run engine: build a store, stream workloads, measure.

Methodology mirrors Section IV-A: the store is populated with
``num_keys`` records, the operation stream warms up caches, TLBs and the
fast-path tables (80% of operations by default, like the paper), and the
final window is measured.  Every GET's result is verified against the
functional store, so a timing bug that corrupts an index fails loudly
instead of skewing numbers.

The engine builds one *shared* store (index, record store, fast-path
tables, STLT/IPB) and ``num_cores`` per-core front-ends over it, each
core owning its private L1/L2, TLBs, STB, prefetchers, and STU.  The
actual operation interleaving lives in
:class:`~repro.sim.multicore.MultiCoreEngine`; a single-core run through
it is cycle-identical to the pre-split engine (a regression test pins
this against golden numbers).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..chaos.oracle import StaleTranslationOracle
from ..chaos.report import build_chaos_report
from ..core.ipb import IPB
from ..core.os_interface import OSInterface
from ..core.stlt import STLT
from ..core.stu import STU
from ..errors import KVSError
from ..hashes.registry import get_hash
from ..kvs import make_index
from ..kvs.base import SimContext
from ..kvs.records import Record
from ..kvs.redis_model import RedisModel
from ..mem.prefetch import (
    DistanceTLBPrefetcher,
    StreamPrefetcher,
    VLDPPrefetcher,
)
from ..params import PAGE_SHIFT
from ..slb.slb import SLBCache
from ..workloads.keys import key_bytes, key_range
from .config import RunConfig
from .frontend import LookupFrontend, make_frontend
from .results import RunResult


def _prefetcher_kwargs(names) -> Dict[str, object]:
    kwargs: Dict[str, object] = {}
    if "stream" in names:
        kwargs["stream_prefetcher"] = StreamPrefetcher()
    if "vldp" in names:
        kwargs["vldp_prefetcher"] = VLDPPrefetcher()
    if "tlb_distance" in names:
        kwargs["tlb_prefetcher"] = DistanceTLBPrefetcher()
    return kwargs


class Engine:
    """Builds one shared store plus per-core front-ends and runs it."""

    def __init__(self, config: RunConfig) -> None:
        self.config = config
        self.ctx = SimContext.create(
            machine=config.machine,
            slow_hash=config.slow_hash,
            num_cores=config.num_cores,
            mem_kwargs_fn=lambda core_id: _prefetcher_kwargs(
                config.prefetchers),
        )
        self.redis: Optional[RedisModel] = None
        if config.program == "redis":
            self.redis = RedisModel(self.ctx, expected_keys=config.num_keys)
            self.index = self.redis.index
        else:
            self.index = make_index(config.program, self.ctx,
                                    expected_keys=config.num_keys)

        self.records: List[Record] = []
        self._populate()

        #: per-core STUs (stlt/stlt_va front-ends only; None otherwise)
        self.stus: List[Optional[STU]] = [None] * config.num_cores
        self.osi: Optional[OSInterface] = None
        self.slb: Optional[SLBCache] = None
        #: the rival translation design (repro.accel) of a victima,
        #: pcax or revelator run, None otherwise; set by _build_frontends
        self.accel = None
        self.frontends: List[LookupFrontend] = self._build_frontends()
        #: always-on stale-translation oracle: every GET is cross-checked
        #: against the authoritative record store (untimed — checked and
        #: unchecked runs are cycle-identical); a wrong or torn read
        #: raises CoherenceError instead of skewing numbers
        self.oracle = StaleTranslationOracle(self.ctx.records,
                                             self.ctx.space)
        self._prefill_fast_tables()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _populate(self) -> None:
        keys = key_range(self.config.num_keys)
        if self.index.hashes_keys:
            self.ctx.slow_hash.prime(keys)
        value_size = self.config.value_size
        append = self.records.append
        if self.redis is not None:
            populate = self.redis.populate
            for key in keys:
                append(populate(key, value_size))
            return
        create = self.ctx.records.create
        build_insert = self.index.build_insert
        for key in keys:
            record = create(key, value_size)
            build_insert(key, record)
            append(record)

    def _build_frontends(self) -> List[LookupFrontend]:
        """One front-end per core over the shared fast-path tables.

        Shared: the STLT (+ IPB, via one :class:`OSInterface` spanning
        every core's STU), the SLB tables, and the STLT-SW user-memory
        table.  Private: each core's STU (STB, insertion buffer, SPTW)
        and the front-end's hit counters.  A rival translation design
        builds its own front-ends and attaches its per-core resolvers.
        """
        config = self.config
        kind = config.frontend
        ctx = self.ctx
        if kind in ("stlt", "stlt_va"):
            return self.build_stlt_frontends(kind)
        fast_hash = get_hash(config.fast_hash)
        if kind == "baseline":
            return [make_frontend("baseline", ctx, self.index)
                    for _ in range(config.num_cores)]
        if kind == "slb":
            self.slb = SLBCache(
                ctx.space, ctx.cores[0].mem,
                # as many entries as the STLT has rows: the paper's
                # same-entry comparison
                num_entries=config.effective_stlt_rows,
                fast_hash=fast_hash,
            )
            return [make_frontend("slb", ctx, self.index, slb=self.slb)
                    for _ in range(config.num_cores)]
        if kind == "stlt_sw":
            rows = config.effective_stlt_rows
            table = STLT(rows, ways=config.stlt_ways)
            table_va = ctx.space.alloc_region(rows * 16)
            return [
                make_frontend("stlt_sw", ctx, self.index,
                              table=table, table_va=table_va,
                              fast_hash=fast_hash)
                for _ in range(config.num_cores)
            ]
        from ..accel import make_accel  # avoid an import cycle
        self.accel = make_accel(kind, self)
        return self.accel.build_frontends()

    def build_stlt_frontends(self, kind: str) -> List[LookupFrontend]:
        """The paper's STLT machine: the one place its graph is built.

        One IPB shared by one STU per core (STB, insertion buffer,
        SPTW; ``va_only`` for ``stlt_va``), one kernel
        :class:`OSInterface` spanning every STU, one ``STLTalloc``, and
        one ``kind`` front-end per STU.  Sets ``self.stus`` and
        ``self.osi``, which prefill, the chaos injector's
        ``STLTresize`` events, the IPB/scrub telemetry and the batched
        fast path read.
        """
        config = self.config
        ctx = self.ctx
        shared_ipb = IPB()
        self.stus = [
            STU(core.mem, va_only=(kind == "stlt_va"), ipb=shared_ipb)
            for core in ctx.cores
        ]
        self.osi = OSInterface(ctx.space, ctx.cores[0].mem, self.stus)
        self.osi.stlt_alloc(config.effective_stlt_rows,
                            ways=config.stlt_ways)
        fast_hash = get_hash(config.fast_hash)
        return [
            make_frontend(kind, ctx, self.index,
                          stu=stu, fast_hash=fast_hash)
            for stu in self.stus
        ]

    def _prefill_fast_tables(self) -> None:
        """Untimed steady-state prefill of the STLT / SLB / SW table.

        The paper warms up on 80 M operations before measuring; replaying
        that many operations is not affordable at simulation scale, so the
        build step installs every live key into the fast-path table the
        way that many operations eventually would.  The timed warm-up
        that follows still churns the tables (replacements, counters,
        conflicts), so measured miss rates reflect capacity and conflict
        behaviour rather than cold-start artifacts.  The tables are
        shared, so one prefill serves every core.
        """
        stlt = self.osi.stlt if self.osi is not None else None
        table = getattr(self.frontends[0], "table", None)
        if stlt is None and table is None and self.slb is None:
            return  # baseline or a rival design: no fast-path table
        records = self.records
        memo = get_hash(self.config.fast_hash).prime(
            [record.key for record in records])
        if stlt is not None:
            from ..core.row import make_pte  # local import avoids a cycle

            page_table = self.ctx.space.page_table
            va_only = self.stus[0].va_only
            insert = stlt.insert
            vpn = pte = None
            for record in records:
                va = record.va
                # records are packed densely, so neighbours share a page
                # and its PTE; the page table does not change here
                if va >> PAGE_SHIFT != vpn:
                    vpn = va >> PAGE_SHIFT
                    pfn = page_table.lookup(vpn)
                    pte = 0 if va_only or pfn is None else make_pte(pfn)
                insert(memo[record.key], va, pte)
            stlt.reset_stats()
        elif table is not None:  # stlt_sw: VAs only
            insert = table.insert
            for record in records:
                insert(memo[record.key], record.va, 0)
            table.reset_stats()
        else:
            prefill = self.slb.prefill
            for record in records:
                prefill(memo[record.key], record.va)

    # ------------------------------------------------------------------
    # core binding
    # ------------------------------------------------------------------

    def bind_core(self, core_id: int) -> None:
        """Route subsequent timed work to ``core_id``'s private levels."""
        self.ctx.bind_core(core_id)
        if self.slb is not None:
            # the SLB tables are shared data; probes are timed against
            # the core that issues them
            self.slb.mem = self.ctx.mem

    # ------------------------------------------------------------------
    # the run loop (delegated to the multi-core interleaver)
    # ------------------------------------------------------------------

    def run(self) -> RunResult:
        """Run the configured number of cores; single-core configs get
        the per-core result (identical to the pre-split engine), multi-
        core configs the aggregate with per-core payloads attached.

        Open-loop configs (``arrival_process != "closed"``) run the
        same closed-loop measurement with the per-op capture hook armed
        — the simulated cycles are bit-identical — and then feed the
        captured per-core service times to the :mod:`repro.svc`
        queueing layer, attaching its latency/throughput outcome as
        ``result.service``.
        """
        from .multicore import MultiCoreEngine  # avoid an import cycle

        open_loop = self.config.arrival_process != "closed"
        mc = MultiCoreEngine(self, capture_op_cycles=open_loop)
        outcome = mc.run()
        result = outcome.aggregate
        if open_loop:
            from ..svc.service import service_from_config
            service = service_from_config(
                self.config, outcome.op_cycles,
                closed_loop_throughput=result.throughput)
            result.service = service.to_dict()
        if mc.injector is not None:
            result.chaos = build_chaos_report(self, mc.injector)
        if self.accel is not None:
            result.accel = self.accel.report()
        return result

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------

    def do_get(self, core_id: int, key_id: int) -> None:
        key = key_bytes(key_id)
        frontend = self.frontends[core_id]
        fast_hits_before = frontend.fast_hits
        if self.redis is not None:
            self.redis.begin_command()
            record = frontend.get(key)
            if record is None:
                raise KVSError(f"GET lost key id {key_id}")
            self.oracle.check_get(
                key, record,
                fast_hit=frontend.fast_hits > fast_hits_before)
            self.ctx.records.access_value(record)
            self.redis.end_command(record.value_size)
        else:
            record = frontend.get(key)
            if record is None:
                raise KVSError(f"GET lost key id {key_id}")
            self.oracle.check_get(
                key, record,
                fast_hit=frontend.fast_hits > fast_hits_before)
            self.ctx.records.access_value(record)

    def do_set(self, core_id: int, key_id: int, value_size: int) -> None:
        key = key_bytes(key_id)
        if self.redis is not None:
            self.redis.begin_command()
            record = self.redis.insert_new(key, value_size)
            self.redis.end_command(0)
        else:
            record = self.ctx.records.create(key, value_size)
            self.index.insert(key, record)
        self.records.append(record)
        self.frontends[core_id].on_insert(key, record)

    # ------------------------------------------------------------------
    # coherence broadcast (Section III-F at machine scope)
    # ------------------------------------------------------------------

    def notify_record_moved(self, record: Record, old_va: int) -> None:
        """Record-movement protocol over all cores.

        The fast-path tables (STLT, SLB, STLT-SW) are shared, so one
        refresh is globally visible; it is issued by the *active* core's
        front-end so the protocol's cycles are charged where the resize
        ran.  Every other core observes the update on its next probe —
        stale VAs fail semantic validation everywhere.
        """
        self.frontends[self.ctx.active_core].on_record_moved(record, old_va)

    # ------------------------------------------------------------------
    # table introspection
    # ------------------------------------------------------------------

    def fast_occupancy(self) -> Optional[int]:
        if self.osi is not None and self.osi.stlt is not None:
            return self.osi.stlt.occupancy
        table = getattr(self.frontends[0], "table", None)
        if table is not None:
            return table.occupancy
        return None

    def fast_table_bytes(self) -> Optional[int]:
        if self.osi is not None and self.osi.stlt is not None:
            return self.osi.stlt.size_bytes
        if self.slb is not None:
            return self.slb.size_bytes
        table = getattr(self.frontends[0], "table", None)
        if table is not None:
            return table.size_bytes
        return None

    def prefill_digest(self) -> Optional[str]:
        """Content digest of the fast-path table this engine observes.

        Taken right after construction it certifies the prefill state;
        the execution-mode differential suite compares digests across
        reference and batched engines built from the same config — the
        seam that would otherwise let the two modes silently drift apart
        (``_prefill_fast_tables`` runs before the mode split, so any
        divergence is a bug in the mode itself).
        """
        if self.osi is not None and self.osi.stlt is not None:
            return self.osi.stlt.state_digest()
        table = getattr(self.frontends[0], "table", None)
        if table is not None:
            return table.state_digest()
        if self.slb is not None:
            return self.slb.state_digest()
        return None


def run_experiment(config: RunConfig) -> RunResult:
    """Convenience wrapper: build an engine (or a fleet) and run it.

    Multi-node configs dispatch to the cluster layer, which runs one
    engine per node plus the request-routing overlay; single-node
    configs run the plain engine exactly as before (the golden tests
    pin this path bit-identical across the cluster work).
    """
    if config.cluster_enabled:
        from ..cluster.service import run_cluster  # avoid a cycle
        return run_cluster(config)
    return Engine(config).run()
