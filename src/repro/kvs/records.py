"""Key-value records in simulated memory.

A record is one contiguous allocation: a 16-byte header (the robj-style
type/refcount/encoding word plus the value length), the key bytes, and
the value bytes.  Keys and values of arbitrary sizes are supported — the
very capability the paper's address-centric approach has over the
value-centric HTA/SDC caches, which require a record to fit in one cache
line.

:class:`RecordStore` owns all records of a run and provides the timed
access helpers the index structures and front-ends share:

* ``access_for_compare`` — read header + key (the validation step ③ of
  Fig. 4 and the per-node compare of every index traversal);
* ``access_value``       — read the value bytes of a GET.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import KVSError
from ..mem.allocator import BumpAllocator
from ..mem.hierarchy import MemorySystem
from ..mem.types import AccessKind

RECORD_HEADER_BYTES = 16


class Record:
    """One key-value record at a fixed virtual address.

    A plain __slots__ class rather than a dataclass, like
    :class:`~repro.mem.types.AccessResult`: a store build creates one per
    key.  Records compare by identity, which is what the
    stale-translation oracle checks (the record a GET returns must *be*
    the live record of its key).
    """

    __slots__ = ("va", "key", "value_size", "header_bytes", "moves",
                 "external_value_va")

    def __init__(self, va: int, key: bytes, value_size: int,
                 header_bytes: int = RECORD_HEADER_BYTES, moves: int = 0,
                 external_value_va: Optional[int] = None) -> None:
        self.va = va
        self.key = key
        self.value_size = value_size
        self.header_bytes = header_bytes
        #: generation counter bumped when the record is moved (Sec. III-F)
        self.moves = moves
        #: Redis-style out-of-line value (robj + data in its own
        #: allocation); None for the kernel benchmarks whose value is
        #: embedded in the record
        self.external_value_va = external_value_va

    def __repr__(self) -> str:
        return (
            f"Record(va={self.va}, key={self.key!r}, "
            f"value_size={self.value_size}, "
            f"header_bytes={self.header_bytes}, moves={self.moves}, "
            f"external_value_va={self.external_value_va})"
        )

    @property
    def total_size(self) -> int:
        """Bytes of the record allocation itself (excludes external values)."""
        if self.external_value_va is not None:
            return self.header_bytes + len(self.key)
        return self.header_bytes + len(self.key) + self.value_size

    @property
    def key_region(self) -> "tuple[int, int]":
        return self.va, self.header_bytes + len(self.key)

    @property
    def value_va(self) -> int:
        if self.external_value_va is not None:
            return self.external_value_va
        return self.va + self.header_bytes + len(self.key)


@dataclass
class RecordStore:
    """Allocator-backed collection of live records."""

    alloc: BumpAllocator
    mem: MemorySystem
    by_va: Dict[int, Record] = field(default_factory=dict)

    def create(self, key: bytes, value_size: int) -> Record:
        if not key:
            raise KVSError("record keys must be non-empty")
        if value_size < 0:
            raise KVSError("value size cannot be negative")
        va = self.alloc.alloc(RECORD_HEADER_BYTES + len(key) + value_size)
        record = Record(va, key, value_size)
        self.by_va[va] = record
        return record

    def create_external(self, key: bytes, value_size: int) -> Record:
        """Redis layout: dictEntry+sds key in one allocation, the value
        (robj header + data) in another."""
        if not key:
            raise KVSError("record keys must be non-empty")
        if value_size < 0:
            raise KVSError("value size cannot be negative")
        alloc = self.alloc.alloc
        va = alloc(RECORD_HEADER_BYTES + len(key))
        value_va = alloc(RECORD_HEADER_BYTES + value_size)
        record = Record(va, key, value_size, RECORD_HEADER_BYTES, 0,
                        value_va + RECORD_HEADER_BYTES)
        self.by_va[va] = record
        return record

    def create_many(
        self, keys: Sequence[bytes], value_size: int, external: bool,
        node_bytes: int,
    ) -> Tuple[List[Record], List[int]]:
        """``create`` (``create_external`` when ``external``) of every key
        in order, each key's index node of ``node_bytes`` allocated right
        after its record, in one :meth:`BumpAllocator.alloc_rows` pass:
        the allocations and ``by_va`` entries of the per-key loop, in
        its order.  The keys share one length.  Returns the records and
        the node VAs."""
        lengths = set(map(len, keys))
        if len(lengths) > 1:
            raise KVSError("a bulk create takes keys of one length")
        if 0 in lengths:
            raise KVSError("record keys must be non-empty")
        if value_size < 0:
            raise KVSError("value size cannot be negative")
        key_len = lengths.pop() if lengths else 0
        header = RECORD_HEADER_BYTES
        if external:
            vas, value_vas, node_vas = self.alloc.alloc_rows(
                (header + key_len, header + value_size, node_bytes),
                len(keys))
            records = [Record(va, key, value_size, header, 0,
                              value_va + header)
                       for va, key, value_va in zip(vas, keys, value_vas)]
        else:
            vas, node_vas = self.alloc.alloc_rows(
                (header + key_len + value_size, node_bytes), len(keys))
            records = list(map(Record, vas, keys, repeat(value_size)))
        self.by_va.update(zip(vas, records))
        return records, node_vas

    def destroy(self, record: Record) -> None:
        if record.va not in self.by_va:
            raise KVSError(f"record at {record.va:#x} is not live")
        del self.by_va[record.va]
        self.alloc.free(record.va)
        if record.external_value_va is not None:
            self.alloc.free(record.external_value_va - RECORD_HEADER_BYTES)

    def move(self, record: Record, new_value_size: Optional[int] = None) -> int:
        """Reallocate a record (e.g. the value grew); returns the old VA.

        The paper's record-movement protocol requires the application to
        refresh the STLT afterwards; the front-end does that by issuing
        an ``insertSTLT`` for the new VA.
        """
        old_va = record.va
        del self.by_va[old_va]
        if new_value_size is not None:
            record.value_size = new_value_size
        # realloc semantics: the new allocation exists before the old one
        # is released, so the record always lands at a fresh VA
        new_va = self.alloc.alloc(record.total_size)
        self.alloc.free(old_va)
        record.va = new_va
        record.moves += 1
        self.by_va[new_va] = record
        return old_va

    # -- timed access helpers -------------------------------------------

    def access_for_compare(self, record: Record) -> int:
        """Read header + key bytes (validation / compare); returns cycles."""
        va, span = record.key_region
        return self.mem.access(va, span, kind=AccessKind.RECORD).cycles

    def access_value(self, record: Record) -> int:
        """Read the value bytes of a GET; returns cycles.

        External (Redis-style) values read their robj header too — the
        extra pointer hop Redis pays on every GET.
        """
        if record.value_size == 0:
            return 0
        if record.external_value_va is not None:
            return self.mem.access(
                record.external_value_va - record.header_bytes,
                record.header_bytes + record.value_size,
                kind=AccessKind.VALUE,
            ).cycles
        return self.mem.access(
            record.value_va, record.value_size, kind=AccessKind.VALUE
        ).cycles

    def __len__(self) -> int:
        return len(self.by_va)
