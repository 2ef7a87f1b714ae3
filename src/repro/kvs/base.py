"""Shared/private context objects and the Index interface.

The machine a run needs is split along the same line as the memory
hierarchy (see :mod:`repro.mem.shared`):

* the shared half — everything all cores see: the address space (and
  its page table), the allocator, the record store, and the shared
  memory levels (L3 + DRAM channel) that every core's memory system
  holds.  The kernel-side STLT/IPB and the software SLB are also
  logically shared; they are wired up by the engine because they
  depend on the chosen front-end.
* :class:`CoreContext` — one core's private half: its
  :class:`~repro.mem.hierarchy.MemorySystem` (L1/L2, TLBs, STB hook,
  prefetchers) with its own cycle clock, statistics, and attribution.

:class:`SimContext` remains the facade the index structures, the
front-ends, and :class:`~repro.kvs.redis_model.RedisModel` consume — it
bundles one *bound* core view (``ctx.mem`` is the active core's memory
system) over the shared resources, so all existing single-core code runs
unmodified.  The multi-core engine switches the active core with
:meth:`SimContext.bind_core` before executing each operation.

:class:`Index` is the abstract interface of the four Table II structures.
All of them share the same semantic the paper requires of an
STLT-accelerable structure: a key goes in, the matching record comes out.
``lookup`` is the *timed* path (it drives the simulated memory system);
``build_insert`` installs a key without timing, and ``populate`` a whole
key set, to build stores before measurement; ``insert``/``remove`` are
the timed mutation paths.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from ..errors import KVSError
from ..hashes.registry import HashSpec, get_hash
from ..mem.address_space import AddressSpace
from ..mem.allocator import BumpAllocator
from ..mem.hierarchy import MemorySystem
from ..mem.shared import SharedMemory
from ..params import DEFAULT_MACHINE, MachineParams
from .records import Record, RecordStore

#: cycles to compare two short keys after the lines are in registers
KEY_COMPARE_CYCLES = 6


@dataclass
class CoreContext:
    """One core's private half of the machine."""

    core_id: int
    mem: MemorySystem


@dataclass
class SimContext:
    """Everything an index structure needs to exist and be timed.

    ``mem`` and ``records.mem`` always point at the *active* core's
    memory system; single-core contexts never rebind, so they behave
    exactly like the pre-split monolithic context.
    """

    space: AddressSpace
    mem: MemorySystem
    alloc: BumpAllocator
    records: RecordStore
    slow_hash: HashSpec
    #: the per-core private halves
    cores: List[CoreContext] = field(default_factory=list)
    #: index into ``cores`` of the currently bound core
    active_core: int = 0

    @classmethod
    def create(
        cls,
        machine: MachineParams = DEFAULT_MACHINE,
        slow_hash: str = "siphash",
        num_cores: int = 1,
        mem_kwargs_fn: Optional[Callable[[int], dict]] = None,
        **mem_kwargs,
    ) -> "SimContext":
        """Build a context of ``num_cores`` private cores over one shared
        resource set.

        Per-core memory-system keyword arguments (prefetchers have
        per-core state) come from ``mem_kwargs_fn(core_id)`` when given;
        plain ``**mem_kwargs`` apply to every core and are only safe for
        single-core contexts when they carry stateful objects.
        """
        if num_cores < 1:
            raise KVSError("a context needs at least one core")
        space = AddressSpace()
        shared_mem = SharedMemory(machine)
        cores: List[CoreContext] = []
        for core_id in range(num_cores):
            kwargs = (mem_kwargs_fn(core_id) if mem_kwargs_fn is not None
                      else mem_kwargs)
            mem = MemorySystem(space, machine, shared=shared_mem,
                               core_id=core_id, **kwargs)
            cores.append(CoreContext(core_id=core_id, mem=mem))
        alloc = BumpAllocator(space)
        records = RecordStore(alloc=alloc, mem=cores[0].mem)
        return cls(
            space=space,
            mem=cores[0].mem,
            alloc=alloc,
            records=records,
            slow_hash=get_hash(slow_hash),
            cores=cores,
        )

    # -- core binding -----------------------------------------------------

    def bind_core(self, core_id: int) -> CoreContext:
        """Make ``core_id`` the active core: subsequent timed work on
        this context (index traversals, record accesses, hash charges)
        advances that core's clock and counters."""
        core = self.cores[core_id]
        self.active_core = core_id
        self.mem = core.mem
        self.records.mem = core.mem
        return core

    def core_mem(self, core_id: int) -> MemorySystem:
        """The private memory system of one core."""
        return self.cores[core_id].mem

    # -- timed helpers ----------------------------------------------------

    def charge_hash(self, key: bytes) -> None:
        """Charge the slow-path hash cost for ``key``."""
        self.mem.tick(self.slow_hash.cost_cycles(len(key)), attr="hash")

    def charge_compare(self) -> None:
        self.mem.tick(KEY_COMPARE_CYCLES, attr="compare")


class Index(abc.ABC):
    """A key -> record index structure over simulated memory."""

    name: str = "index"
    #: whether the index hashes keys with ``ctx.slow_hash`` (then
    #: :meth:`populate` hashes the whole key set in bulk first)
    hashes_keys: bool = False

    def __init__(self, ctx: SimContext) -> None:
        self.ctx = ctx
        self.size = 0

    # -- timed operations (drive the memory model) -----------------------

    @abc.abstractmethod
    def lookup(self, key: bytes) -> Optional[Record]:
        """Timed lookup: the getValueSlow path of Fig. 4."""

    @abc.abstractmethod
    def insert(self, key: bytes, record: Record) -> None:
        """Timed insert of a new key (SET of a fresh key)."""

    @abc.abstractmethod
    def remove(self, key: bytes) -> Optional[Record]:
        """Timed removal; returns the evicted record if present."""

    # -- untimed operations (population / verification) -------------------

    @abc.abstractmethod
    def build_insert(self, key: bytes, record: Record) -> None:
        """Install a key without charging simulated time."""

    @abc.abstractmethod
    def probe(self, key: bytes) -> Optional[Record]:
        """Untimed functional lookup for verification."""

    def populate(self, keys: Sequence[bytes],
                 value_size: int) -> List[Record]:
        """Untimed store build: a fresh record per key, installed in key
        order by ``create`` and :meth:`build_insert`; returns the
        records."""
        if self.hashes_keys:
            self.ctx.slow_hash.prime(keys)
        create = self.ctx.records.create
        build_insert = self.build_insert
        records = []
        for key in keys:
            record = create(key, value_size)
            build_insert(key, record)
            records.append(record)
        return records

    # -- shared helpers ----------------------------------------------------

    def _check_new_key(self, key: bytes) -> None:
        if not key:
            raise KVSError("keys must be non-empty byte strings")

    def __len__(self) -> int:
        return self.size
