"""A Redis-like key-value server model.

Redis 5.0.7's GET path decomposes into (a) command handling — argument
parsing, type checks, reply construction — and (b) data addressing —
SipHash over the key, dict traversal, record access, and the address
translations underneath.  The paper's Fig. 1 measures (b) at over half
of total time and explicitly excludes network I/O (their runs use Unix
domain sockets + pipelining to mimic RDMA deployments), so this model
reproduces the server-side command loop only:

* the dict is a chained hash table (``cache_node_hash=False``: Redis
  compares sds keys on every chain node) keyed by SipHash;
* values are robj allocations separate from the key/dictEntry record,
  as in Redis, adding the second pointer hop per GET;
* command handling charges a calibrated cycle block plus accesses to the
  (hot, reused) input and output buffers.

The command-overhead constants are calibrated once against Fig. 1's
breakdown — see ``benchmarks/bench_fig01_breakdown.py`` — and are *not*
tuned per experiment.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..errors import KVSError
from ..mem.types import AccessKind
from .base import SimContext
from .chained_hash import ChainedHashIndex
from .records import Record

#: fixed command-handling work per GET/SET: dispatch, argument and type
#: validation, reply header formatting (measured categories of Fig. 1
#: other than addressing and value copy)
COMMAND_OVERHEAD_CYCLES = 210

#: bytes of the request read from / reply written to the client buffers
REQUEST_BYTES = 64


class RedisModel:
    """The simulated Redis server: dict + robj values + command loop."""

    name = "redis"

    def __init__(self, ctx: SimContext, expected_keys: int) -> None:
        if ctx.slow_hash.name != "siphash":
            raise KVSError("Redis's dict is keyed by SipHash")
        self.ctx = ctx
        self.index = ChainedHashIndex(
            ctx, expected_keys=expected_keys, cache_node_hash=False
        )
        self.index.name = "redis"
        # client I/O buffers: small, reused, therefore cache-resident
        self._query_buf_va = ctx.space.alloc_region(16 * 1024)
        self._reply_buf_va = ctx.space.alloc_region(16 * 1024)
        self._buf_cursor = 0

    # -- command framing ----------------------------------------------------

    def begin_command(self) -> None:
        """Parse/dispatch work happening before the key is looked up."""
        mem = self.ctx.mem
        mem.tick(COMMAND_OVERHEAD_CYCLES, attr="command")
        va, size = self.request_span()
        mem.access(va, size, kind=AccessKind.OTHER)

    def end_command(self, value_size: int) -> None:
        """Reply construction after the value is in hand."""
        va, size = self.reply_span(value_size)
        self.ctx.mem.access(va, size, write=True, kind=AccessKind.OTHER)

    def request_span(self) -> Tuple[int, int]:
        """Move to the next request; returns the (VA, bytes) it is read
        from in the (hot) query buffer, whose cursor walks the buffer
        like Redis's qb_pos does."""
        self._buf_cursor = (self._buf_cursor + REQUEST_BYTES) % (8 * 1024)
        return self._query_buf_va + self._buf_cursor, REQUEST_BYTES

    def reply_span(self, value_size: int) -> Tuple[int, int]:
        """The (VA, bytes) the current request's reply is written to."""
        return (self._reply_buf_va + self._buf_cursor,
                min(value_size + 32, REQUEST_BYTES * 4))

    # -- data plane ----------------------------------------------------------

    def populate(self, keys: Sequence[bytes],
                 value_size: int) -> List[Record]:
        """Untimed install of ``keys`` during store construction: each
        key's record, value and dict node, in key order."""
        return self.index.populate(keys, value_size, external=True)

    def insert_new(self, key: bytes, value_size: int) -> Record:
        """SET of a fresh key: allocate and link into the dict (timed)."""
        record = self.ctx.records.create_external(key, value_size)
        self.index.insert(key, record)
        return record
