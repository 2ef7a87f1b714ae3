"""A generic set-associative, write-allocate cache model with LRU.

The model tracks only presence of line addresses (tags), not contents;
the simulator carries real data in Python objects and uses the caches for
timing alone.  Each set is a plain dict used as an LRU list, relying on
its guaranteed insertion order: a hit deletes the line and re-inserts
it, an eviction removes ``next(iter(s))``, the oldest.  Measured at this
model's way counts (400k random probes of a 4,096-set 8-way cache,
CPython 3.11 on a shared x86_64 VM, 9 interleaved rounds), that takes
0.53x the time of a ``collections`` ordered dict with ``move_to_end``
and ``popitem(last=False)`` (median; 0.44-0.65x per round), and keeps
the same LRU order.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..errors import ConfigError
from ..params import CacheParams


class Cache:
    """One level of a set-associative cache, indexed by physical line address."""

    def __init__(self, params: CacheParams) -> None:
        params.validate()
        self.params = params
        self.name = params.name
        self.latency = params.latency
        self._ways = params.ways
        self._num_sets = params.num_sets
        self._set_mask = self._num_sets - 1
        #: per set: line address -> None, least recently used first
        self._sets: List[Dict[int, None]] = [{} for _ in range(self._num_sets)]
        self.hits = 0
        self.misses = 0

    # -- core operations -------------------------------------------------

    def lookup(self, line_addr: int, update_lru: bool = True) -> bool:
        """Probe the cache for ``line_addr``; returns True on hit."""
        s = self._sets[line_addr & self._set_mask]
        if line_addr in s:
            if update_lru:
                del s[line_addr]
                s[line_addr] = None
            self.hits += 1
            return True
        self.misses += 1
        return False

    def insert(self, line_addr: int) -> Optional[int]:
        """Fill ``line_addr``; returns the evicted line address, if any."""
        s = self._sets[line_addr & self._set_mask]
        if line_addr in s:
            del s[line_addr]
            s[line_addr] = None
            return None
        victim = None
        if len(s) >= self._ways:
            victim = next(iter(s))
            del s[victim]
        s[line_addr] = None
        return victim

    def contains(self, line_addr: int) -> bool:
        """Presence check with no LRU update and no stat counting."""
        return line_addr in self._sets[line_addr & self._set_mask]

    def invalidate(self, line_addr: int) -> bool:
        """Drop a line if present; returns True if it was present."""
        s = self._sets[line_addr & self._set_mask]
        if line_addr in s:
            del s[line_addr]
            return True
        return False

    def flush(self) -> None:
        """Empty the cache (used by resize syscalls and context switches)."""
        for s in self._sets:
            s.clear()

    # -- introspection -----------------------------------------------------

    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def kernel_view(self):
        """Flat access view for the batched execution mode.

        The view aliases the live set list — it is a zero-copy window
        onto this cache, not a snapshot (see
        :class:`repro.mem.kernels.SetArrayView`).
        """
        from .kernels import SetArrayView
        return SetArrayView(self._sets, self._num_sets, self._ways,
                            self._set_mask, self.latency)

    def flat_state(self) -> List[int]:
        """Tag state as one flat set-major array (digests / kernels)."""
        from .kernels import flatten_sets
        return flatten_sets(self._sets, self._ways)

    def set_contents(self, set_index: int) -> List[int]:
        """Return the line addresses in one set, LRU first (for tests)."""
        if not 0 <= set_index < self._num_sets:
            raise ConfigError(f"set index {set_index} out of range")
        return list(self._sets[set_index].keys())

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cache({self.name}, {self.params.size_bytes >> 10}KiB, "
            f"{self._ways}-way, {self._num_sets} sets)"
        )
