"""Chained hash table: the Redis dict / GCC ``unordered_map`` family.

Layout (Fig. 3 of the paper): a power-of-two bucket array of 8-byte
pointers, each heading a singly linked list of 24-byte entry nodes
``(cached hash | record ptr | next ptr)``.  A lookup reads the bucket,
then walks nodes; each node visit is one simulated memory access, and a
node whose cached hash matches costs an additional record access for the
key comparison — exactly the access chain of Section II (hash entry ->
node -> record).

``cache_node_hash`` distinguishes the two library styles:

* ``True``  (unordered_map): the node caches the full hash, so chains
  skip the record read for non-matching nodes.
* ``False`` (Redis dict): the comparison function dereferences the key
  (sds string compare), so every visited node costs a record access.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..errors import KVSError
from ..mem.types import AccessKind
from .base import Index, SimContext
from .records import Record

NODE_BYTES = 24
BUCKET_PTR_BYTES = 8


class _Node:
    __slots__ = ("va", "record", "hash", "next")

    def __init__(self, va: int, record: Record, hash_value: int,
                 next_node: "Optional[_Node]" = None) -> None:
        self.va = va
        self.record = record
        self.hash = hash_value
        self.next = next_node


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p <<= 1
    return p


class ChainedHashIndex(Index):
    """Chained hash table over simulated memory."""

    name = "unordered_map"
    hashes_keys = True

    def __init__(
        self,
        ctx: SimContext,
        expected_keys: int,
        cache_node_hash: bool = True,
    ) -> None:
        super().__init__(ctx)
        if expected_keys <= 0:
            raise KVSError("expected_keys must be positive")
        self.num_buckets = _next_pow2(expected_keys)
        self._mask = self.num_buckets - 1
        self.cache_node_hash = cache_node_hash
        self.table_va = ctx.space.alloc_region(
            self.num_buckets * BUCKET_PTR_BYTES
        )
        self._buckets: List[Optional[_Node]] = [None] * self.num_buckets

    # -- helpers -----------------------------------------------------------

    def _bucket_va(self, idx: int) -> int:
        return self.table_va + idx * BUCKET_PTR_BYTES

    def _hash(self, key: bytes) -> int:
        return self.ctx.slow_hash(key)

    # -- timed path ---------------------------------------------------------

    def lookup(self, key: bytes) -> Optional[Record]:
        ctx = self.ctx
        ctx.charge_hash(key)
        h = self._hash(key)
        idx = h & self._mask
        ctx.mem.access(self._bucket_va(idx), BUCKET_PTR_BYTES,
                       kind=AccessKind.INDEX)
        node = self._buckets[idx]
        while node is not None:
            ctx.mem.access(node.va, NODE_BYTES, kind=AccessKind.INDEX)
            if not self.cache_node_hash or node.hash == h:
                ctx.records.access_for_compare(node.record)
                ctx.charge_compare()
                if node.record.key == key:
                    return node.record
            node = node.next
        return None

    def insert(self, key: bytes, record: Record) -> None:
        self._check_new_key(key)
        ctx = self.ctx
        ctx.charge_hash(key)
        h = self._hash(key)
        idx = h & self._mask
        ctx.mem.access(self._bucket_va(idx), BUCKET_PTR_BYTES,
                       kind=AccessKind.INDEX)
        node = _Node(ctx.alloc.alloc(NODE_BYTES), record, h,
                     self._buckets[idx])
        self._buckets[idx] = node
        self.size += 1
        # write the fresh node and the bucket head pointer
        ctx.mem.access(node.va, NODE_BYTES, write=True, kind=AccessKind.INDEX)
        ctx.mem.access(self._bucket_va(idx), BUCKET_PTR_BYTES, write=True,
                       kind=AccessKind.INDEX)

    def remove(self, key: bytes) -> Optional[Record]:
        ctx = self.ctx
        ctx.charge_hash(key)
        h = self._hash(key)
        idx = h & self._mask
        ctx.mem.access(self._bucket_va(idx), BUCKET_PTR_BYTES,
                       kind=AccessKind.INDEX)
        prev: Optional[_Node] = None
        node = self._buckets[idx]
        while node is not None:
            ctx.mem.access(node.va, NODE_BYTES, kind=AccessKind.INDEX)
            if not self.cache_node_hash or node.hash == h:
                ctx.records.access_for_compare(node.record)
                ctx.charge_compare()
                if node.record.key == key:
                    if prev is None:
                        self._buckets[idx] = node.next
                        ctx.mem.access(self._bucket_va(idx), BUCKET_PTR_BYTES,
                                       write=True, kind=AccessKind.INDEX)
                    else:
                        prev.next = node.next
                        ctx.mem.access(prev.va, NODE_BYTES, write=True,
                                       kind=AccessKind.INDEX)
                    self.ctx.alloc.free(node.va)
                    self.size -= 1
                    return node.record
            prev = node
            node = node.next
        return None

    # -- untimed path ---------------------------------------------------------

    def build_insert(self, key: bytes, record: Record) -> None:
        self._check_new_key(key)
        h = self.ctx.slow_hash(key)
        idx = h & self._mask
        buckets = self._buckets
        buckets[idx] = _Node(self.ctx.alloc.alloc(NODE_BYTES), record, h,
                             buckets[idx])
        self.size += 1

    def populate(self, keys: Sequence[bytes], value_size: int,
                 external: bool = False) -> List[Record]:
        """:meth:`Index.populate` in one allocator pass: each key's
        record (Redis: key record and value, ``external``) and node, in
        the per-key loop's order; then each node is prepended to its
        bucket in key order, its hash read from the primed memo."""
        memo = self.ctx.slow_hash.prime(keys)
        records, node_vas = self.ctx.records.create_many(
            keys, value_size, external, NODE_BYTES)
        buckets = self._buckets
        mask = self._mask
        for key, record, va in zip(keys, records, node_vas):
            h = memo[key]
            idx = h & mask
            buckets[idx] = _Node(va, record, h, buckets[idx])
        self.size += len(records)
        return records

    def probe(self, key: bytes) -> Optional[Record]:
        h = self._hash(key)
        node = self._buckets[h & self._mask]
        while node is not None:
            if node.record.key == key:
                return node.record
            node = node.next
        return None

    # -- internals ---------------------------------------------------------

    @property
    def load_factor(self) -> float:
        return self.size / self.num_buckets

    def max_chain_length(self) -> int:
        longest = 0
        for head in self._buckets:
            length = 0
            node = head
            while node is not None:
                length += 1
                node = node.next
            longest = max(longest, length)
        return longest
