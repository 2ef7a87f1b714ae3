"""The batched execution fast path (``exec_mode="batched"``).

``BatchedOpExecutor`` owns the interleave loop for fused batched runs
and replaces :meth:`Engine.do_get` with a *fused* GET kernel.  The
contract is strict bit-identity with the reference mode: every counter,
every cycle, every RNG draw, every LRU transition and every DRAM queue
timestamp must come out the same (the golden and differential suites
pin this).  True vectorisation is impossible under that contract — LRU
state, the serialised DRAM channel clock, and the STLT's probabilistic
counters are all order-dependent — so the speedup comes from removing
the *interpreter* overhead of the reference path instead:

* the call tower ``do_get -> frontend.get -> stu.load_va -> stlt.scan ->
  mem.physical_access -> mem.access -> records.access_*`` collapses
  into one flat function over a per-core :class:`_CoreView` of hoisted
  references (flat STLT column arrays, L1/D-TLB set lists, counters);
* the overwhelmingly common *all-hit* GET (single STLT match, IPB
  clear, record and value each on one page, oracle clean) runs a two-phase
  kernel: a read-only probe phase proves the op takes the all-hit
  shape, then a commit phase replays the reference mutation sequence
  (LRU moves, the counter RNG draw, the STB insert) and *defers* the
  pure event counters into per-core accumulators that are flushed at
  the measurement boundaries — turning ~40 counter writes per op into
  a handful of integer adds;
* cache and TLB misses inside the kernel are delegated to the
  reference ``MemorySystem._translate`` / ``_line_access`` with the
  exact ``at=now + cycles`` timestamps, so the DRAM queue accounting in
  :mod:`repro.mem.dram` sees the identical request order;
* any other deviation falls back first to the general kernel (the
  reference GET flattened over the view with immediate counters; its
  memory accesses are the reference ``MemorySystem.access`` /
  ``physical_access`` calls), and from there to the reference engine
  methods;
* the stale-translation oracle's page-mapped checks are memoised in a
  set evicted by an :attr:`AddressSpace.invalidation_hooks` observer
  (only *positive* translations are cached: ``remap_page`` fires no
  hook but can only add mappings back);
* ``key_bytes``, the fast-hash integer, and the STLT set geometry are
  memoised per key id, and the fixed 24-byte hash cost is precomputed.

Deferral is safe because everything deferred is a pure event count read
only at measurement boundaries: the loop flushes before ``mark()``,
before every chaos ``after_op`` (the injector may read any counter),
and at the end of the run.  The clock and the DRAM channel are always
exact: the commit phase advances the clock per op (in a local, synced
into ``mem.now`` before every delegated call).  Per-op cycle
deltas on the per-op loop (fault charging, open-loop capture) read
``stats.total_cycles`` plus the view's ``pending()`` cycles; the
single-core slice stamps the core clock instead (see
:meth:`BatchedOpExecutor.run_interleave`).

Fusion covers GETs of the ``stlt``/``stlt_va`` front-ends — the
paper's design point and the hot loop of every paper-scale sweep — on
the kernel programs and on Redis, through one all-hit GET kernel,
:meth:`BatchedOpExecutor._run_hot_ops`; and GETs of the baseline
front-end on the two chained-hash programs, Redis and unordered_map,
through :meth:`BatchedOpExecutor._run_chain_ops`, which walks the live
index in plain Python and times every access of the reference lookup
with immediate counters.  A
single-core run without a chaos injector, captured or not, runs each
measurement window through its kernel as one slice; multi-core and
chaos runs call it with a one-op slice from
:meth:`BatchedOpExecutor.do_get`, after the all-hit kernel's per-op
preamble (a disabled STU or a detached STLT takes the reference
``Engine.do_get``).  SETs run the reference ``Engine.do_set``.
Redis's command framing stays the model's own code too: with the core
bound and ``mem.now`` synced, ``RedisModel.begin_command`` runs before
each GET's shape phase and ``end_command`` after its execute phase (or
at the end of the general kernel, after a bail); the chained-hash
kernel times the same query and reply spans, which the model's
``request_span``/``reply_span`` give.  One geometry rule covers both
value layouts: the span ``RecordStore.access_value`` reads, the value
bytes plus, for an out-of-line value, the robj header before them.  A
config with nothing to fuse (slb, stlt_sw, the baselines of the other
index structures and the rival translation designs) never gets here:
``MultiCoreEngine.run`` runs its own reference loop for it.  Chaos
runs work unmodified: OS churn mutates the shared
structures in place (the view aliases them), an ``STLTresize`` that
swaps the table object is caught by the per-op view resync, and the
per-op flush around ``after_op`` keeps every counter exact when the
injector looks at them.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..core.counters import ProbabilisticCounterPolicy
from ..core.row import COUNTER_MAX, ROW_BYTES, SUBINT_BITS, SUBINT_MASK
from ..errors import KVSError, ReproError
from ..kvs.base import KEY_COMPARE_CYCLES
from ..kvs.chained_hash import BUCKET_PTR_BYTES, NODE_BYTES, ChainedHashIndex
from ..kvs.records import RECORD_HEADER_BYTES
from ..kvs.redis_model import COMMAND_OVERHEAD_CYCLES
from ..mem.types import AccessKind
from ..params import PAGE_BYTES, PAGE_SHIFT
from ..workloads.keys import key_bytes
from ..workloads.ycsb import Operation

_LINE_SHIFT = 6
_PAGE_OFF_MASK = PAGE_BYTES - 1
_GET = Operation.GET
_INDEX = AccessKind.INDEX
_RECORD = AccessKind.RECORD
_VALUE = AccessKind.VALUE
_OTHER = AccessKind.OTHER


class _MemView:
    """One core's hoisted private memory levels for a fused kernel.

    The chained-hash kernel uses it as it is: it keeps no deferred
    counters, so :meth:`pending` and :meth:`flush` have nothing to fold.
    """

    __slots__ = (
        "mem", "stats", "attr",
        "l1_sets", "l1_mask", "l1_latency",
        "dtlb_sets", "dtlb_nsets", "dtlb_latency",
        "frontend",
    )

    def __init__(self, engine, core_id: int) -> None:
        mem = engine.ctx.core_mem(core_id)
        self.mem = mem
        self.stats = mem.stats
        self.attr = mem.attr
        l1_view = mem.l1.kernel_view()
        self.l1_sets = l1_view.sets
        self.l1_mask = l1_view.set_mask
        self.l1_latency = l1_view.latency
        dtlb_view = mem.tlbs.l1.kernel_view()
        self.dtlb_sets = dtlb_view.sets
        self.dtlb_nsets = dtlb_view.num_sets
        self.dtlb_latency = dtlb_view.latency
        self.frontend = engine.frontends[core_id]
        _MemView.verify(self)

    def sliceable(self) -> bool:
        """Whether a single-core run may hand the kernel whole windows."""
        return True

    def pending(self) -> int:
        """Cycles accumulated in the view but not yet flushed."""
        return 0

    def flush(self) -> None:
        """Fold the deferred accumulators into the real counters."""

    def verify(self) -> None:
        """Drift guard: the view must alias the live structures.

        A view over copies (or over a structure some refactor started
        rebinding) would silently diverge from the reference mode; this
        is checked at construction (and on every STLT resync).
        """
        if not (self.l1_sets is self.mem.l1._sets
                and self.dtlb_sets is self.mem.tlbs.l1._sets):
            raise ReproError(
                "batched-mode kernel view does not alias the live "
                "simulation structures; the fast path would drift")


class _CoreView(_MemView):
    """One core's hoisted references for the fused all-hit GET kernel."""

    __slots__ = (
        "stu", "stb", "stb_buf", "stb_cap",
        "ipb", "ipb_buf", "va_only",
        "index", "by_va", "records", "oracle", "space",
        "load_va_cycles", "ipb_probe_cycles", "counter_store_cycles",
        "stlt", "stlt_vas", "stlt_subints", "stlt_counters", "stlt_ptes",
        "stlt_set_mask", "stlt_ways", "stlt_base_pa",
        "counter_policy", "randbelow", "getrandbits", "crs",
        "fast_const", "fast_stlt_attr", "hash_cost", "ro",
        "n_fast", "acc_stlt_c", "acc_transl",
        "acc_rec_c", "acc_val_c", "acc_dtlb", "acc_l1", "acc_stb",
    )

    def __init__(self, engine, core_id: int, hash_cost: int) -> None:
        super().__init__(engine, core_id)
        mem = self.mem
        frontend = self.frontend
        stu = frontend.stu
        self.stu = stu
        self.stb = stu.stb
        self.stb_buf = stu.stb._buf
        self.stb_cap = stu.stb.entries
        self.ipb = stu.ipb
        self.ipb_buf = stu.ipb._buf
        self.va_only = stu.va_only
        self.index = frontend.index
        self.records = engine.ctx.records
        self.by_va = engine.ctx.records.by_va
        self.oracle = engine.oracle
        self.space = engine.ctx.space
        instr = mem.machine.instr
        self.load_va_cycles = instr.load_va_cycles
        self.ipb_probe_cycles = instr.ipb_probe_cycles
        self.counter_store_cycles = instr.counter_store_cycles
        #: per-op constants of the fused kernel: the fixed ticks (the
        #: memory-access parts are dynamic), and the attr["stlt"] share
        #: of them
        self.hash_cost = hash_cost
        self.fast_stlt_attr = (self.load_va_cycles + self.ipb_probe_cycles
                               + self.counter_store_cycles)
        self.fast_const = (hash_cost + self.fast_stlt_attr
                           + KEY_COMPARE_CYCLES)
        self.crs = stu.crs
        #: deferred fused-op event accumulators (see module docstring)
        self.n_fast = 0
        self.acc_stlt_c = 0
        self.acc_transl = 0
        self.acc_rec_c = 0
        self.acc_val_c = 0
        self.acc_dtlb = 0
        self.acc_l1 = 0
        self.acc_stb = 0
        self.stlt = None
        self.sync_stlt(stu.stlt)

    def sync_stlt(self, stlt) -> None:
        """(Re)bind the flat STLT column views; called at construction
        and whenever a chaos ``STLTresize`` swapped the table object."""
        self.stlt = stlt
        self.stlt_vas = stlt._vas
        self.stlt_subints = stlt._subints
        self.stlt_counters = stlt._counters
        self.stlt_ptes = stlt._ptes
        self.stlt_set_mask = stlt._set_mask
        self.stlt_ways = stlt.ways
        self.stlt_base_pa = stlt.base_pa
        pol = stlt.counter_policy
        self.counter_policy = pol
        # the inlined probabilistic increment reuses the policy's own
        # randbelow so the RNG stream is draw-for-draw identical; any
        # other policy type (or a Random without the CPython private
        # method) falls back to pol.update()
        self.randbelow = (
            getattr(pol._rng, "_randbelow", None)
            if type(pol) is ProbabilisticCounterPolicy else None)
        # when the RNG's _randbelow is CPython's getrandbits-based
        # rejection sampler, the hot runner inlines that sampler over
        # the C-level getrandbits method itself — the Python frame of
        # _randbelow_with_getrandbits is the only thing removed, the
        # bit stream consumed is draw-for-draw identical
        self.getrandbits = None
        if self.randbelow is not None:
            rng = pol._rng
            sampler = getattr(
                type(rng), "_randbelow_with_getrandbits", None)
            if sampler is not None and type(rng)._randbelow is sampler:
                self.getrandbits = rng.getrandbits
        #: everything the kernel reads per op, packed for one unpack
        self.ro = (
            self.l1_sets, self.l1_mask, self.l1_latency,
            self.dtlb_sets, self.dtlb_nsets, self.dtlb_latency,
            self.stlt_vas, self.stlt_subints, self.stlt_counters,
            self.stlt_ptes, self.stlt_ways, self.stlt_base_pa,
            self.ipb_buf, self.by_va, self.stb_buf, self.stb_cap,
            self.va_only, self.randbelow, pol,
            self.hash_cost + self.load_va_cycles,          # pre ticks
            self.ipb_probe_cycles + self.counter_store_cycles,  # mid
            self.mem, self.space,
        )
        self.verify()

    def sliceable(self) -> bool:
        # a disabled STU or a detached STLT takes the per-op preamble
        return self.stu.enabled and self.crs.num_rows != 0

    def verify(self) -> None:
        stlt = self.stlt
        if not (self.stlt_vas is stlt._vas
                and self.stlt_subints is stlt._subints
                and self.stlt_counters is stlt._counters
                and self.stlt_ptes is stlt._ptes
                and len(stlt._vas) == stlt.num_rows
                and self.ipb_buf is self.stu.ipb._buf
                and self.stb_buf is self.stu.stb._buf
                and self.by_va is self.records.by_va):
            raise ReproError(
                "batched-mode kernel view does not alias the live "
                "simulation structures; the fast path would drift")
        super().verify()

    def pending(self) -> int:
        return (self.n_fast * self.fast_const + self.acc_stlt_c
                + self.acc_transl + self.acc_rec_c + self.acc_val_c)

    def flush(self) -> None:
        """Every term below mirrors one ``+= 1`` / tick of the reference
        path (see the execute phase in ``_run_hot_ops``)."""
        nf = self.n_fast
        if not nf:
            return
        stats = self.stats
        stats.total_cycles += self.pending()
        stats.reads += 3 * nf
        stats.dtlb_hits += self.acc_dtlb
        stats.l1_hits += self.acc_l1
        attr = self.attr
        attr["hash"] = attr.get("hash", 0) + nf * self.hash_cost
        attr["stlt"] = (attr.get("stlt", 0) + nf * self.fast_stlt_attr
                        + self.acc_stlt_c)
        attr["translation"] = attr.get("translation", 0) + self.acc_transl
        attr["record"] = attr.get("record", 0) + self.acc_rec_c
        attr["value"] = attr.get("value", 0) + self.acc_val_c
        attr["compare"] = (attr.get("compare", 0)
                           + nf * KEY_COMPARE_CYCLES)
        frontend = self.frontend
        frontend.gets += nf
        frontend.fast_hits += nf
        stu = self.stu
        stu.load_va_count += nf
        stu.load_va_hits += nf
        stlt = self.stlt
        stlt.lookups += nf
        stlt.hits += nf
        self.ipb.probes += nf
        self.counter_policy.updates += nf
        self.stb.inserts += self.acc_stb
        oracle = self.oracle
        oracle.checks += nf
        oracle.fast_checks += nf
        self.n_fast = 0
        self.acc_stlt_c = 0
        self.acc_transl = 0
        self.acc_rec_c = 0
        self.acc_val_c = 0
        self.acc_dtlb = 0
        self.acc_l1 = 0
        self.acc_stb = 0


class BatchedOpExecutor:
    """The fused GET kernels and the batched interleave loop."""

    def __init__(self, engine) -> None:
        self.engine = engine
        config = engine.config
        #: fusion covers the hardware-STLT front-ends, on the kernel
        #: programs and Redis alike (the all-hit kernel), and the
        #: baseline front-end on the chained-hash programs, Redis and
        #: unordered_map (the chained-hash kernel); everything else —
        #: the rival translation designs included — runs
        #: MultiCoreEngine's reference loop (identical by construction)
        stlt = (config.frontend in ("stlt", "stlt_va")
                and all(getattr(f, "integer_transform", None) is None
                        for f in engine.frontends))
        self._chained = (config.frontend == "baseline"
                         and type(engine.index) is ChainedHashIndex)
        self.fused = stlt or self._chained
        #: key id -> (key bytes, fast-hash integer, STLT row base, subint)
        self._hot: Dict[int, Tuple[bytes, int, int, int]] = {}
        #: key id -> (key bytes, slow hash, hash cost): the chained-hash
        #: kernel's per-key memo
        self._keys: Dict[int, Tuple[bytes, int, int]] = {}
        #: key id -> (record, row_va, value_size, rspan_end, value_va,
        #: vspan_end, value vpn): the shape phase's record-derived
        #: geometry, revalidated on every use (record identity at the
        #: scanned VA + unchanged value size; ``key``, ``header_bytes``
        #: and ``external_value_va`` are immutable after construction,
        #: so identity implies the memoised spans)
        self._geo: Dict[int, tuple] = {}
        self._views: List[_MemView] = []
        #: record pages with a proven-live translation; the oracle's
        #: fast-hit check memo.  Only positive lookups are cached, and
        #: the invalidation hook evicts on unmap/migrate, so membership
        #: always implies the page is mapped right now.
        self._mapped = set()
        if self._chained:
            self._run_ops = self._run_chain_ops
            self._views = [_MemView(engine, core_id)
                           for core_id in range(config.num_cores)]
        elif stlt:
            self._run_ops = self._run_hot_ops
            spec = engine.frontends[0].fast_hash
            self._hash = spec
            self._hash_cost = spec.cost_cycles(24)  # key_bytes() is 24 B
            self._views = [_CoreView(engine, core_id, self._hash_cost)
                           for core_id in range(config.num_cores)]
            engine.ctx.space.invalidation_hooks.append(self._mapped.discard)

    # ------------------------------------------------------------------
    # the batched interleave loop (the reference loop with the fused
    # kernel, no per-op core binding on the fused path, and the
    # deferred-counter flush points)
    # ------------------------------------------------------------------

    def run_interleave(self, streams, states, warmup: int, capture: bool,
                       injector, faulted: bool, value_size: int) -> None:
        """Drive the interleave over pre-generated per-core op arrays.

        Bit-identical to the reference loop in
        :meth:`MultiCoreEngine.run`: same op order, same mark/capture
        semantics, same fault charging, same chaos hook placement.
        Fused configs only; the others run that reference loop itself.
        """
        engine = self.engine
        n = len(streams)
        total = len(streams[0]) if streams else 0
        get_op = _GET
        views = self._views
        do_get = self.do_get
        do_set = engine.do_set
        run_ops = self._run_ops
        if (n == 1 and injector is None and 0 <= warmup < total
                and views[0].sliceable()):
            # the single-core shape (no chaos, closed loop or captured):
            # with no injector nothing can disable the STU or swap the
            # STLT object mid-run (the performance monitor is a
            # standalone tool, not wired into the engine), so the
            # per-op eligibility checks, the view unpack, and the
            # deferred accumulators all hoist out of the loop into one
            # slice per measurement window
            state = states[0]
            v = views[0]
            stream = streams[0]
            stamps = [] if capture else None
            try:
                g, s = run_ops(v, 0, stream[:warmup], value_size)
                state.gets += g
                state.sets += s
                v.flush()
                state.mark()
                g, s = run_ops(v, 0, stream[warmup:], value_size, stamps)
                state.gets += g
                state.sets += s
            finally:
                v.flush()
            if capture:
                # the reference captures total_cycles deltas; the slice
                # stamps the clock.  They agree here: on one core with
                # no injector only tick, access and physical_access
                # move either, and each moves both by the same cycles
                # (charge, which moves total_cycles alone, is a fault's)
                state.op_cycles.extend(
                    b - a for a, b in zip(stamps, stamps[1:]))
            return
        try:
            for i in range(total):
                measured = i >= warmup
                for core_id in range(n):
                    state = states[core_id]
                    v = views[core_id]
                    if i == warmup:
                        v.flush()
                        state.mark()
                    need_delta = faulted or (capture and measured)
                    if need_delta:
                        before = v.stats.total_cycles + v.pending()
                    op, key_id = streams[core_id][i]
                    if op is get_op:
                        do_get(core_id, key_id)
                        state.gets += 1
                    else:
                        # SETs mutate the index: reference path, bound
                        engine.bind_core(core_id)
                        do_set(core_id, key_id, value_size)
                        state.sets += 1
                    if faulted:
                        extra = injector.fault_cycles(
                            core_id, i,
                            v.stats.total_cycles + v.pending() - before)
                        if extra:
                            v.mem.charge(extra, attr="fault")
                    if capture and measured:
                        state.op_cycles.append(
                            v.stats.total_cycles + v.pending() - before)
                    if injector is not None:
                        # the injector may read (and mutate) anything:
                        # counters must be exact around the churn hook
                        v.flush()
                        engine.bind_core(core_id)
                        injector.after_op(core_id, i)
        finally:
            for v in views:
                v.flush()

    def _run_hot_ops(self, v: _CoreView, core_id: int, ops,
                     value_size: int, stamps=None):
        """The fused GET kernel: run a slice of ``core_id``'s stream
        with every kernel reference *and* every deferred accumulator
        held in function locals.

        The caller runs the per-op preamble's eligibility checks (once
        per window on one core with no injector, or per op in
        :meth:`do_get`), so nothing can resync the view or read a
        counter mid-slice, and the accumulators are written back
        exactly once (in the ``finally``, so an op that raises — e.g. a
        lost key — still leaves the counters exactly where the
        reference mode would).  With a ``stamps`` list, the core clock
        is appended before every op, SETs included, and once after the
        last.  Returns ``(gets, sets)`` executed.
        """
        engine = self.engine
        redis = engine.redis
        general = self._general_get
        hot_memo = self._hot
        geo_memo = self._geo
        mapped = self._mapped
        hashf = self._hash
        get_op = _GET
        (l1_sets, l1_mask, l1_lat, dtlb_sets, dtlb_nsets, dtlb_lat,
         vas, subints, counters, ptes, ways, base_pa, ipb_buf, by_va,
         stb_buf, stb_cap, va_only, randbelow, pol, pre_ticks,
         mid_ticks, mem, space) = v.ro
        set_mask = v.stlt_set_mask
        grb = v.getrandbits
        g = s = 0
        nf = a_stlt = a_transl = a_rec = a_val = 0
        a_dtlb = a_l1 = a_stb = 0
        # the clock lives in a local for the slice: ``_line_access``
        # with an explicit ``at=`` never reads ``mem.now``, so it only
        # needs syncing before ``_translate`` (whose page walk issues
        # ``at=-1`` line accesses) and before any reference-path call
        now = mem.now
        if redis is not None:
            # Redis's command framing is the model's own code, which
            # times against the bound core
            engine.bind_core(core_id)
        try:
            for op, key_id in ops:
                if stamps is not None:
                    stamps.append(now)
                if op is not get_op:
                    mem.now = now
                    engine.bind_core(core_id)
                    engine.do_set(core_id, key_id, value_size)
                    now = mem.now
                    s += 1
                    continue
                g += 1
                if redis is not None:
                    # before the lookup, as Engine.do_get frames it; the
                    # end runs after the execute phase or in the general
                    # kernel
                    mem.now = now
                    redis.begin_command()
                    now = mem.now
                try:
                    key, integer, base, subint = hot_memo[key_id]
                except KeyError:
                    key = key_bytes(key_id)
                    integer = hashf(key)
                    base = ((integer >> SUBINT_BITS) & set_mask) * ways
                    subint = integer & SUBINT_MASK
                    hot_memo[key_id] = (key, integer, base, subint)

                # ---- shape phase: prove the op takes the all-hit shape
                # (read-only, so a bail re-runs the op on the general
                # kernel from untouched state, with the clock synced
                # around it; cache/TLB misses are not bails: the execute
                # phase delegates them line by line)
                # C-level scan first: when exactly one way holds the
                # subint and its row is live, that way is the reference
                # scan's answer; zero matches is a clean miss; anything
                # else (several subint matches, possibly on dead rows)
                # re-runs the exact reference loop
                seg = subints[base:base + ways]
                c = seg.count(subint)
                if c == 1:
                    way = seg.index(subint)
                    if vas[base + way] == 0:
                        way = -1
                elif c == 0:
                    way = -1
                else:
                    way = -1
                    for w in range(ways):
                        j = base + w
                        if vas[j] != 0 and subints[j] == subint:
                            if way >= 0:
                                way = -2
                                break
                            way = w
                if way < 0:
                    mem.now = now
                    general(v, core_id, key, integer, key_id)
                    now = mem.now
                    continue
                j = base + way
                row_va = vas[j]
                vpn_r = row_va >> PAGE_SHIFT
                if vpn_r in ipb_buf:
                    mem.now = now
                    general(v, core_id, key, integer, key_id)
                    now = mem.now
                    continue
                record = by_va.get(row_va)
                geo = geo_memo.get(key_id)
                if (geo is not None and record is geo[0]
                        and row_va == geo[1]
                        and record.value_size == geo[2]):
                    # same record at the same VA with the same value
                    # size: the memoised spans are still exact
                    rspan_end = geo[3]
                    value_va = geo[4]
                    vspan_end = geo[5]
                    vpn_v = geo[6]
                else:
                    if (record is None or record.va != row_va
                            or record.key != key):
                        mem.now = now
                        general(v, core_id, key, integer, key_id)
                        now = mem.now
                        continue
                    size = record.value_size
                    if size == 0:
                        # access_value touches no memory for an empty
                        # value; the execute phase assumes it does
                        mem.now = now
                        general(v, core_id, key, integer, key_id)
                        now = mem.now
                        continue
                    rspan_end = row_va + record.header_bytes + 24 - 1
                    # the span RecordStore.access_value reads, one rule
                    # for both layouts: the value bytes, after the robj
                    # header when the value lives out of line (Redis)
                    ext = record.external_value_va
                    if ext is None:
                        value_va = rspan_end + 1
                        vspan_end = rspan_end + size
                    else:
                        value_va = ext - record.header_bytes
                        vspan_end = ext + size - 1
                    vpn_v = value_va >> PAGE_SHIFT
                    if (rspan_end >> PAGE_SHIFT != vpn_r
                            or vspan_end >> PAGE_SHIFT != vpn_v):
                        # a span straddles a page: the general kernel's
                        # multi-vpn access
                        mem.now = now
                        general(v, core_id, key, integer, key_id)
                        now = mem.now
                        continue
                    geo_memo[key_id] = (record, row_va, size, rspan_end,
                                        value_va, vspan_end, vpn_v)
                # the oracle's fast-hit liveness check (untimed)
                if vpn_r not in mapped:
                    if space.translate(row_va) is None:
                        # a violation: the general kernel raises it
                        mem.now = now
                        general(v, core_id, key, integer, key_id)
                        now = mem.now
                        continue
                    mapped.add(vpn_r)

                # ---- execute phase: the reference op, counts deferred:
                # the hash + loadVA ticks, the physical STLT set load,
                # the IPB probe + counter store ticks, the counter's one
                # RNG draw, the STB forward, then the record (header +
                # key) access, the key compare and the value access
                now += pre_ticks
                p0 = base_pa + base * ROW_BYTES
                ln = p0 >> _LINE_SHIFT
                line_end = (p0 + ways * ROW_BYTES - 1) >> _LINE_SHIFT
                if ln == line_end:  # one line: skip the loop frame
                    ls = l1_sets[ln & l1_mask]
                    if ln in ls:
                        ls.remove(ln)
                        ls.appendleft(ln)
                        a_l1 += 1
                        phys = l1_lat
                    else:
                        phys = mem._line_access(ln, True, now)
                else:
                    phys = 0
                    while ln <= line_end:
                        ls = l1_sets[ln & l1_mask]
                        if ln in ls:
                            ls.remove(ln)
                            ls.appendleft(ln)
                            a_l1 += 1
                            phys += l1_lat
                        else:
                            phys += mem._line_access(ln, True, now + phys)
                        ln += 1
                now += phys + mid_ticks
                a_stlt += phys
                cval = counters[j]
                if grb is not None:
                    # randrange(1 << cval) unrolled over the C-level
                    # getrandbits: (cval+1)-bit rejection sampling,
                    # the same bit stream as _randbelow_with_getrandbits
                    lim = 1 << cval
                    r = grb(cval + 1)
                    while r >= lim:
                        r = grb(cval + 1)
                    if r == 0:
                        pol.increments += 1
                        if cval >= COUNTER_MAX:
                            pol.overflows += 1
                            counters[j] = COUNTER_MAX // 2
                        else:
                            counters[j] = cval + 1
                elif randbelow is not None:
                    if randbelow(1 << cval) == 0:
                        pol.increments += 1
                        if cval >= COUNTER_MAX:
                            pol.overflows += 1
                            counters[j] = COUNTER_MAX // 2
                        else:
                            counters[j] = cval + 1
                else:
                    counters[j] = pol.update(cval)
                    pol.updates -= 1
                if not va_only:
                    pte = ptes[j]
                    if pte:
                        if (vpn_r not in stb_buf
                                and len(stb_buf) >= stb_cap):
                            del stb_buf[next(iter(stb_buf))]
                        stb_buf[vpn_r] = pte
                        a_stb += 1
                dset = dtlb_sets[vpn_r % dtlb_nsets]
                pfn = dset.pop(vpn_r, None)
                if pfn is not None:
                    dset[vpn_r] = pfn
                    a_dtlb += 1
                    t_rec = dtlb_lat
                else:
                    mem.now = now  # the page walk issues at="now"
                    pfn, t_rec, _hit, _walked = mem._translate(vpn_r)
                ln = ((pfn << PAGE_SHIFT)
                      | (row_va & _PAGE_OFF_MASK)) >> _LINE_SHIFT
                line_end = (ln + (rspan_end >> _LINE_SHIFT)
                            - (row_va >> _LINE_SHIFT))
                if ln == line_end:
                    ls = l1_sets[ln & l1_mask]
                    if ln in ls:
                        ls.remove(ln)
                        ls.appendleft(ln)
                        a_l1 += 1
                        rec_c = l1_lat
                    else:
                        rec_c = mem._line_access(ln, True, now + t_rec)
                else:
                    rec_c = 0
                    while ln <= line_end:
                        ls = l1_sets[ln & l1_mask]
                        if ln in ls:
                            ls.remove(ln)
                            ls.appendleft(ln)
                            a_l1 += 1
                            rec_c += l1_lat
                        else:
                            rec_c += mem._line_access(
                                ln, True, now + t_rec + rec_c)
                        ln += 1
                # the key-compare ticks land before the value access and
                # see no delegation in between: one combined advance
                now += t_rec + rec_c + KEY_COMPARE_CYCLES
                dset = dtlb_sets[vpn_v % dtlb_nsets]
                pfn = dset.pop(vpn_v, None)
                if pfn is not None:
                    dset[vpn_v] = pfn
                    a_dtlb += 1
                    t_val = dtlb_lat
                else:
                    mem.now = now
                    pfn, t_val, _hit, _walked = mem._translate(vpn_v)
                ln = ((pfn << PAGE_SHIFT)
                      | (value_va & _PAGE_OFF_MASK)) >> _LINE_SHIFT
                line_end = (ln + (vspan_end >> _LINE_SHIFT)
                            - (value_va >> _LINE_SHIFT))
                if ln == line_end:
                    ls = l1_sets[ln & l1_mask]
                    if ln in ls:
                        ls.remove(ln)
                        ls.appendleft(ln)
                        a_l1 += 1
                        val_c = l1_lat
                    else:
                        val_c = mem._line_access(ln, True, now + t_val)
                else:
                    val_c = 0
                    while ln <= line_end:
                        ls = l1_sets[ln & l1_mask]
                        if ln in ls:
                            ls.remove(ln)
                            ls.appendleft(ln)
                            a_l1 += 1
                            val_c += l1_lat
                        else:
                            val_c += mem._line_access(
                                ln, True, now + t_val + val_c)
                        ln += 1
                now += t_val + val_c
                if redis is not None:
                    mem.now = now
                    redis.end_command(record.value_size)
                    now = mem.now
                nf += 1
                a_transl += t_rec + t_val
                a_rec += rec_c
                a_val += val_c
            if stamps is not None:
                stamps.append(now)
        finally:
            # an exception inside a reference-path call can leave
            # ``mem.now`` ahead of the local (the call advanced it after
            # the sync); the local is ahead in every normal flow
            if now > mem.now:
                mem.now = now
            v.n_fast += nf
            v.acc_stlt_c += a_stlt
            v.acc_transl += a_transl
            v.acc_rec_c += a_rec
            v.acc_val_c += a_val
            v.acc_dtlb += a_dtlb
            v.acc_l1 += a_l1
            v.acc_stb += a_stb
        return g, s

    # ------------------------------------------------------------------
    # per-op executors
    # ------------------------------------------------------------------

    def do_get(self, core_id: int, key_id: int) -> None:
        engine = self.engine
        v = self._views[core_id]
        if self._chained:
            self._run_chain_ops(v, core_id, ((_GET, key_id),), 0)
            return
        stu = v.stu
        stlt = stu.stlt
        if not stu.enabled or stlt is None or v.crs.num_rows == 0:
            # monitor switched the STLT off, or a detached STLT:
            # reference semantics (including the STLTError raise)
            engine.bind_core(core_id)
            engine.do_get(core_id, key_id)
            return
        if stlt is not v.stlt:
            # chaos STLTresize swapped the table: flush anything already
            # accumulated against the old object, drop the geometry memo
            v.flush()
            self._hot.clear()
            v.sync_stlt(stlt)
        self._run_hot_ops(v, core_id, ((_GET, key_id),), 0)

    # ------------------------------------------------------------------
    # the general kernel (any op shape; immediate counters)
    # ------------------------------------------------------------------

    def _general_get(self, v: _CoreView, core_id: int, key: bytes,
                     integer: int, key_id: int) -> None:
        engine = self.engine
        stu = v.stu
        stlt = v.stlt
        mem = v.mem
        stats = v.stats
        attr = v.attr
        frontend = v.frontend
        frontend.gets += 1

        # STLTFrontend._integer: the fast-hash cost tick
        c = self._hash_cost
        mem.now += c
        stats.total_cycles += c
        attr["hash"] = attr.get("hash", 0) + c

        # STU.load_va: fixed issue cost
        stu.load_va_count += 1
        c = v.load_va_cycles
        mem.now += c
        stats.total_cycles += c
        attr["stlt"] = attr.get("stlt", 0) + c

        # STLT.scan (inlined; preserves the multi-match RNG draw)
        stlt.lookups += 1
        set_index = (integer >> SUBINT_BITS) & v.stlt_set_mask
        subint = integer & SUBINT_MASK
        ways = v.stlt_ways
        base = set_index * ways
        vas = v.stlt_vas
        subints = v.stlt_subints
        way = -1
        nmatch = 0
        for w in range(ways):
            i = base + w
            if vas[i] != 0 and subints[i] == subint:
                if nmatch == 0:
                    way = w
                nmatch += 1
        if nmatch:
            if nmatch > 1:
                stlt.multi_matches += 1
                way = stlt._rng.choice([
                    w for w in range(ways)
                    if vas[base + w] != 0 and subints[base + w] == subint
                ])
            stlt.hits += 1

        # the physical STLT set load through the data caches
        mem.physical_access(v.stlt_base_pa + base * ROW_BYTES,
                            ways * ROW_BYTES)

        va_hit = 0
        if nmatch:
            i = base + way
            row_va = vas[i]
            # IPB probe
            c = v.ipb_probe_cycles
            mem.now += c
            stats.total_cycles += c
            attr["stlt"] = attr.get("stlt", 0) + c
            ipb = v.ipb
            ipb.probes += 1
            if (row_va >> PAGE_SHIFT) in v.ipb_buf:
                ipb.hits += 1
                stu.load_va_ipb_filtered += 1
            else:
                # hit: probabilistic counter store + STB forward
                counters = v.stlt_counters
                counters[i] = v.counter_policy.update(counters[i])
                c = v.counter_store_cycles
                mem.now += c
                stats.total_cycles += c
                attr["stlt"] = attr.get("stlt", 0) + c
                if not v.va_only:
                    pte = v.stlt_ptes[i]
                    if pte:
                        v.stb.insert(row_va >> PAGE_SHIFT, pte)
                stu.load_va_hits += 1
                va_hit = row_va

        fast_hit = False
        record = None
        if va_hit:
            # LookupFrontend._validate: timed dereference + key compare
            record = v.by_va.get(va_hit)
            if record is None or record.va != va_hit:
                # stale pointer: the load still happens, the compare fails
                mem.access(va_hit, RECORD_HEADER_BYTES + len(key),
                           kind=AccessKind.RECORD)
                record = None
            else:
                mem.access(record.va, record.header_bytes + len(record.key),
                           kind=AccessKind.RECORD)
            c = KEY_COMPARE_CYCLES
            mem.now += c
            stats.total_cycles += c
            attr["compare"] = attr.get("compare", 0) + c
            if record is not None:
                if record.key != key:
                    record = None
                else:
                    frontend.fast_hits += 1
                    fast_hit = True

        if record is None:
            # slow path: the timed index traversal, then insertSTLT —
            # reference code against the bound core
            engine.bind_core(core_id)
            record = v.index.lookup(key)
            if record is not None:
                stu.insert_stlt(integer, record.va)
            else:
                raise KVSError(f"GET lost key id {key_id}")

        # the stale-translation oracle (untimed); inlined happy path,
        # canonical check_get on any failure so messages and counters
        # stay byte-identical
        oracle = v.oracle
        if v.by_va.get(record.va) is record and record.key == key:
            oracle.checks += 1
            if fast_hit:
                oracle.fast_checks += 1
                if v.space.translate(record.va) is None:
                    oracle.checks -= 1
                    oracle.fast_checks -= 1
                    oracle.check_get(key, record, fast_hit=True)
        else:
            oracle.check_get(key, record, fast_hit=fast_hit)

        # RecordStore.access_value, over the shape phase's span rule
        size = record.value_size
        if size:
            ext = record.external_value_va
            if ext is None:
                mem.access(record.va + record.header_bytes + len(record.key),
                           size, kind=AccessKind.VALUE)
            else:
                mem.access(ext - record.header_bytes,
                           record.header_bytes + size, kind=AccessKind.VALUE)
        if engine.redis is not None:
            engine.redis.end_command(size)

    # ------------------------------------------------------------------
    # the chained-hash kernel (the baseline front-end on Redis and
    # unordered_map; immediate counters)
    # ------------------------------------------------------------------

    def _run_chain_ops(self, v: _MemView, core_id: int, ops,
                       value_size: int, stamps=None):
        """The fused chained-hash GET kernel: ``Engine.do_get`` over
        ``BaselineFrontend`` and ``ChainedHashIndex.lookup`` as one flat
        loop, for a slice of ``core_id``'s stream.

        Each GET walks the live index in plain Python and times, in the
        reference order, every access the reference issues: the Redis
        query buffer, the bucket pointer, each node, each compared
        record's key region, the value span and the Redis reply buffer,
        with the command, hash and compare ticks between them.  Every
        counter is written as the reference writes it, so there is
        nothing to flush, and an op that raises (a lost key, an oracle
        violation) leaves them where the reference would.  With a
        ``stamps`` list, the core clock is appended before every op,
        SETs included, and once after the last.  Returns ``(gets,
        sets)`` executed.
        """
        engine = self.engine
        redis = engine.redis
        index = engine.index
        buckets = index._buckets
        mask = index._mask
        table_va = index.table_va
        # Redis compares the key of every node it visits
        compare_all = not index.cache_node_hash
        slow_hash = engine.ctx.slow_hash
        by_va = engine.ctx.records.by_va
        oracle = engine.oracle
        memo = self._keys
        get_op = _GET
        mem = v.mem
        stats = v.stats
        attr = v.attr
        frontend = v.frontend
        l1_sets = v.l1_sets
        l1_mask = v.l1_mask
        l1_lat = v.l1_latency
        dtlb_sets = v.dtlb_sets
        dtlb_nsets = v.dtlb_nsets
        dtlb_lat = v.dtlb_latency
        access = mem.access
        translate = mem._translate
        line_access = mem._line_access

        def span(now: int, va: int, size: int, kind: AccessKind,
                 write: bool = False) -> int:
            """``MemorySystem.access(va, size, write, kind)`` issued at
            cycle ``now``; returns the clock after it.

            A span on one page takes one inline D-TLB probe and inline
            L1 probes over its lines; misses go to ``_translate`` /
            ``_line_access`` with the reference's ``at=`` stamps.  A
            span over two pages is ``access`` itself, so its multi-page
            loop exists once."""
            last = va + size - 1
            vpn = va >> PAGE_SHIFT
            if last >> PAGE_SHIFT != vpn:
                mem.now = now
                access(va, size, write, kind)
                return mem.now
            if write:
                stats.writes += 1
            else:
                stats.reads += 1
            dset = dtlb_sets[vpn % dtlb_nsets]
            pfn = dset.pop(vpn, None)
            if pfn is not None:
                dset[vpn] = pfn
                stats.dtlb_hits += 1
                t = dtlb_lat
            else:
                mem.now = now  # the page walk issues at "now"
                pfn, t, _hit, _walked = translate(vpn)
            ln = ((pfn << PAGE_SHIFT) | (va & _PAGE_OFF_MASK)) >> _LINE_SHIFT
            line_end = ln + (last >> _LINE_SHIFT) - (va >> _LINE_SHIFT)
            c = t
            while True:
                ls = l1_sets[ln & l1_mask]
                if ln in ls:
                    ls.remove(ln)
                    ls.appendleft(ln)
                    stats.l1_hits += 1
                    c += l1_lat
                else:
                    c += line_access(ln, True, now + c)
                if ln == line_end:
                    break
                ln += 1
            stats.total_cycles += c
            attr["translation"] = attr.get("translation", 0) + t
            name = kind._value_
            attr[name] = attr.get(name, 0) + c - t
            return now + c

        g = s = 0
        now = mem.now
        try:
            for op, key_id in ops:
                if stamps is not None:
                    stamps.append(now)
                if op is not get_op:
                    mem.now = now
                    engine.bind_core(core_id)
                    engine.do_set(core_id, key_id, value_size)
                    now = mem.now
                    s += 1
                    continue
                g += 1
                if redis is not None:
                    # RedisModel.begin_command
                    now += COMMAND_OVERHEAD_CYCLES
                    stats.total_cycles += COMMAND_OVERHEAD_CYCLES
                    attr["command"] = (attr.get("command", 0)
                                       + COMMAND_OVERHEAD_CYCLES)
                    va, size = redis.request_span()
                    now = span(now, va, size, _OTHER)
                frontend.gets += 1
                try:
                    key, h, c = memo[key_id]
                except KeyError:
                    key = key_bytes(key_id)
                    h = slow_hash(key)
                    c = slow_hash.cost_cycles(len(key))
                    memo[key_id] = (key, h, c)
                now += c
                stats.total_cycles += c
                attr["hash"] = attr.get("hash", 0) + c
                idx = h & mask
                now = span(now, table_va + idx * BUCKET_PTR_BYTES,
                           BUCKET_PTR_BYTES, _INDEX)
                node = buckets[idx]
                record = None
                while node is not None:
                    now = span(now, node.va, NODE_BYTES, _INDEX)
                    if compare_all or node.hash == h:
                        candidate = node.record
                        now = span(now, candidate.va,
                                   candidate.header_bytes
                                   + len(candidate.key), _RECORD)
                        now += KEY_COMPARE_CYCLES
                        stats.total_cycles += KEY_COMPARE_CYCLES
                        attr["compare"] = (attr.get("compare", 0)
                                           + KEY_COMPARE_CYCLES)
                        if candidate.key == key:
                            record = candidate
                            break
                    node = node.next
                if record is None:
                    raise KVSError(f"GET lost key id {key_id}")
                # the stale-translation oracle (untimed); the record's
                # key matched, so its happy path is the by_va identity;
                # canonical check_get on any failure
                if by_va.get(record.va) is record:
                    oracle.checks += 1
                else:
                    oracle.check_get(key, record, fast_hit=False)
                # RecordStore.access_value
                size = record.value_size
                if size:
                    ext = record.external_value_va
                    if ext is None:
                        now = span(now, record.va + record.header_bytes
                                   + len(key), size, _VALUE)
                    else:
                        now = span(now, ext - record.header_bytes,
                                   record.header_bytes + size, _VALUE)
                if redis is not None:
                    # RedisModel.end_command
                    va, size = redis.reply_span(size)
                    now = span(now, va, size, _OTHER, True)
            if stamps is not None:
                stamps.append(now)
        finally:
            # an exception inside a reference-path call can leave
            # ``mem.now`` ahead of the local (the call advanced it after
            # the sync); the local is ahead in every normal flow
            if now > mem.now:
                mem.now = now
        return g, s
