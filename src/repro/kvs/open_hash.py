"""Open-addressing hash table: Google ``dense_hash_map`` style.

A contiguous array of 16-byte slots (key pointer | record pointer) probed
quadratically, with empty/deleted sentinels in the key slot.  Google's
implementation keeps the maximum load factor at 0.5, so the table is
sized to twice the expected key count.

Access pattern per probe: one slot read (16 bytes, frequently the same
cache line as the previous probe early in the sequence), plus — for an
occupied slot — a record access to compare the key (dense_hash_map does
not cache hashes).  That probing locality is why open addressing is the
cache-friendlier of the two hash-table benchmarks.
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import KVSError
from ..mem.types import AccessKind
from .base import Index, SimContext
from .records import Record

SLOT_BYTES = 16
_EMPTY = None
_DELETED = "deleted"  # tombstone sentinel


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p <<= 1
    return p


class OpenHashIndex(Index):
    """Quadratically probed open-addressing table over simulated memory."""

    name = "dense_hash_map"
    hashes_keys = True

    #: Google dense_hash_map's default maximum occupancy
    MAX_LOAD = 0.5

    def __init__(self, ctx: SimContext, expected_keys: int) -> None:
        super().__init__(ctx)
        if expected_keys <= 0:
            raise KVSError("expected_keys must be positive")
        self.num_slots = _next_pow2(max(int(expected_keys / self.MAX_LOAD), 4))
        self._mask = self.num_slots - 1
        self.table_va = ctx.space.alloc_region(self.num_slots * SLOT_BYTES)
        self._slots: List[object] = [_EMPTY] * self.num_slots
        self.probe_visits = 0

    def _slot_va(self, idx: int) -> int:
        return self.table_va + idx * SLOT_BYTES

    def _hash(self, key: bytes) -> int:
        return self.ctx.slow_hash(key)

    def _probe_sequence(self, h: int):
        """Quadratic probing: bucket += num_probes (triangular offsets)."""
        idx = h & self._mask
        step = 0
        while True:
            yield idx
            step += 1
            if step > self.num_slots:
                raise KVSError("open hash table is pathologically full")
            idx = (idx + step) & self._mask

    # -- timed path ---------------------------------------------------------

    def lookup(self, key: bytes) -> Optional[Record]:
        ctx = self.ctx
        ctx.charge_hash(key)
        for idx in self._probe_sequence(self._hash(key)):
            ctx.mem.access(self._slot_va(idx), SLOT_BYTES,
                           kind=AccessKind.INDEX)
            self.probe_visits += 1
            slot = self._slots[idx]
            if slot is _EMPTY:
                return None
            if slot is _DELETED:
                continue
            record: Record = slot  # type: ignore[assignment]
            ctx.records.access_for_compare(record)
            ctx.charge_compare()
            if record.key == key:
                return record
        return None

    def insert(self, key: bytes, record: Record) -> None:
        self._check_new_key(key)
        if (self.size + 1) / self.num_slots > self.MAX_LOAD:
            self._grow()
        ctx = self.ctx
        ctx.charge_hash(key)
        for idx in self._probe_sequence(self._hash(key)):
            ctx.mem.access(self._slot_va(idx), SLOT_BYTES,
                           kind=AccessKind.INDEX)
            slot = self._slots[idx]
            if slot is _EMPTY or slot is _DELETED:
                self._slots[idx] = record
                ctx.mem.access(self._slot_va(idx), SLOT_BYTES, write=True,
                               kind=AccessKind.INDEX)
                self.size += 1
                return
            occupant: Record = slot  # type: ignore[assignment]
            ctx.records.access_for_compare(occupant)
            ctx.charge_compare()
            if occupant.key == key:
                raise KVSError(f"duplicate insert of key {key!r}")

    def remove(self, key: bytes) -> Optional[Record]:
        ctx = self.ctx
        ctx.charge_hash(key)
        for idx in self._probe_sequence(self._hash(key)):
            ctx.mem.access(self._slot_va(idx), SLOT_BYTES,
                           kind=AccessKind.INDEX)
            slot = self._slots[idx]
            if slot is _EMPTY:
                return None
            if slot is _DELETED:
                continue
            record: Record = slot  # type: ignore[assignment]
            ctx.records.access_for_compare(record)
            ctx.charge_compare()
            if record.key == key:
                self._slots[idx] = _DELETED
                ctx.mem.access(self._slot_va(idx), SLOT_BYTES, write=True,
                               kind=AccessKind.INDEX)
                self.size -= 1
                return record
        return None

    # -- untimed path ---------------------------------------------------------

    def build_insert(self, key: bytes, record: Record) -> None:
        self._check_new_key(key)
        if (self.size + 1) / self.num_slots > self.MAX_LOAD:
            self._grow()
        for idx in self._probe_sequence(self._hash(key)):
            slot = self._slots[idx]
            if slot is _EMPTY or slot is _DELETED:
                self._slots[idx] = record
                self.size += 1
                return
            if slot is not _DELETED and slot.key == key:  # type: ignore
                raise KVSError(f"duplicate insert of key {key!r}")

    def probe(self, key: bytes) -> Optional[Record]:
        for idx in self._probe_sequence(self._hash(key)):
            slot = self._slots[idx]
            if slot is _EMPTY:
                return None
            if slot is _DELETED:
                continue
            if slot.key == key:  # type: ignore[union-attr]
                return slot  # type: ignore[return-value]
        return None

    # -- growth ----------------------------------------------------------

    def _grow(self) -> None:
        """Double the table; rehash is untimed (amortised background cost)."""
        old_slots = self._slots
        self.num_slots *= 2
        self._mask = self.num_slots - 1
        self.table_va = self.ctx.space.alloc_region(self.num_slots * SLOT_BYTES)
        self._slots = [_EMPTY] * self.num_slots
        self.size = 0
        for slot in old_slots:
            if slot is not _EMPTY and slot is not _DELETED:
                record: Record = slot  # type: ignore[assignment]
                for idx in self._probe_sequence(self._hash(record.key)):
                    if self._slots[idx] is _EMPTY:
                        self._slots[idx] = record
                        self.size += 1
                        break

    @property
    def load_factor(self) -> float:
        return self.size / self.num_slots
