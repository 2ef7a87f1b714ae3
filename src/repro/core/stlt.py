"""STLT: the system translation lookaside table (Sections III-C and III-E).

A set-associative table of 16-byte rows living in *kernel* memory.  The
table is dynamically sized, must have a power-of-two number of rows, and
is page aligned.  Indexing follows Fig. 6: the hash function's 64-bit
integer supplies a 12-bit sub-integer (the 12 LSBs, used as a partial
tag) and, adjacent to it, ``log2(num_sets)`` set-index bits.

The model stores rows in parallel Python lists for speed; the
``row``/``pack`` helpers expose the literal layout for tests.  All timing
(the set load of ``loadVA``, the 16-byte store of ``insertSTLT``) is
charged by the :class:`~repro.core.stu.STU`, which knows the table's
physical base address through the CR_S register.
"""

from __future__ import annotations

import random
from typing import List, Optional, Set, Tuple

from ..errors import STLTError
from ..mem.kernels import (
    matching_indices,
    occupancy_count,
    rows_in_pages,
    state_digest,
)
from ..params import PAGE_SHIFT
from .counters import ProbabilisticCounterPolicy
from .row import ROW_BYTES, SUBINT_BITS, SUBINT_MASK, STLTRow


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


class STLT:
    """The off-chip table: ``num_rows`` rows, ``ways``-associative."""

    def __init__(
        self,
        num_rows: int,
        ways: int = 4,
        base_pa: int = 0,
        counter_policy: Optional[ProbabilisticCounterPolicy] = None,
        seed: int = 0x51C7,
    ) -> None:
        if not _is_pow2(num_rows):
            raise STLTError("STLT size must be a power of two rows")
        if ways <= 0 or num_rows % ways:
            raise STLTError("associativity must divide the row count")
        if not _is_pow2(num_rows // ways):
            raise STLTError("number of sets must be a power of two")
        self.num_rows = num_rows
        self.ways = ways
        self.num_sets = num_rows // ways
        self._set_mask = self.num_sets - 1
        self.base_pa = base_pa
        self.counter_policy = counter_policy or ProbabilisticCounterPolicy()
        self._rng = random.Random(seed)

        self._counters: List[int] = [0] * num_rows
        self._subints: List[int] = [0] * num_rows
        self._vas: List[int] = [0] * num_rows
        self._ptes: List[int] = [0] * num_rows

        self.lookups = 0
        self.hits = 0
        self.inserts = 0
        self.replacements = 0
        self.multi_matches = 0

    # -- geometry --------------------------------------------------------

    @property
    def size_bytes(self) -> int:
        return self.num_rows * ROW_BYTES

    def set_index(self, integer: int) -> int:
        """Set-index bits sit adjacent to the 12-LSB sub-integer (Fig. 6)."""
        return (integer >> SUBINT_BITS) & self._set_mask

    @staticmethod
    def sub_integer(integer: int) -> int:
        return integer & SUBINT_MASK

    def set_paddr(self, set_index: int) -> int:
        return self.base_pa + set_index * self.ways * ROW_BYTES

    def row_paddr(self, set_index: int, way: int) -> int:
        return self.set_paddr(set_index) + way * ROW_BYTES

    # -- hardware operations ----------------------------------------------

    def scan(self, integer: int) -> Tuple[int, Optional[int]]:
        """Scan the mapped set for the sub-integer; returns (set, way|None).

        With a 12-bit partial tag, more than one row can match; the
        hardware picks one at random (Section III-C).
        """
        self.lookups += 1
        set_index = self.set_index(integer)
        subint = self.sub_integer(integer)
        base = set_index * self.ways
        matches = [
            way
            for way in range(self.ways)
            if self._vas[base + way] != 0 and self._subints[base + way] == subint
        ]
        if not matches:
            return set_index, None
        if len(matches) > 1:
            self.multi_matches += 1
            way = self._rng.choice(matches)
        else:
            way = matches[0]
        self.hits += 1
        return set_index, way

    def read_row(self, set_index: int, way: int) -> STLTRow:
        i = set_index * self.ways + way
        return STLTRow(
            counter=self._counters[i],
            subint=self._subints[i],
            va=self._vas[i],
            pte=self._ptes[i],
        )

    def touch(self, set_index: int, way: int) -> None:
        """Probabilistic counter update performed by a loadVA hit."""
        i = set_index * self.ways + way
        self._counters[i] = self.counter_policy.update(self._counters[i])

    def insert(self, integer: int, va: int, pte: int) -> Tuple[int, int]:
        """Insert/replace a row for ``integer``; returns (set, way).

        Replacement policy (Section III-E): a row whose sub-integer
        matches is overwritten in place; otherwise an invalid row is
        filled; otherwise the least frequently accessed row (smallest
        counter) is evicted.  New rows start with counter 0, matching the
        insertion-buffer initialisation of Section III-D2.
        """
        self.inserts += 1
        set_index = (integer >> SUBINT_BITS) & self._set_mask
        subint = integer & SUBINT_MASK
        ways = self.ways
        base = set_index * ways
        vas = self._vas[base:base + ways]

        victim = None
        subints = self._subints[base:base + ways]
        if subint in subints:
            # an invalid row (VA 0) can hold the sub-integer too (0
            # after a clear or a scrub), so a match must be valid
            for way in range(ways):
                if subints[way] == subint and vas[way] != 0:
                    victim = way
                    break
        if victim is None and 0 in vas:
            victim = vas.index(0)
        if victim is None:
            # least frequently used: the first way with the lowest counter
            counters = self._counters[base:base + ways]
            victim = counters.index(min(counters))
            self.replacements += 1

        i = base + victim
        self._counters[i] = 0
        self._subints[i] = subint
        self._vas[i] = va
        self._ptes[i] = pte
        return set_index, victim

    # -- OS-side maintenance ----------------------------------------------

    def clear(self) -> None:
        """Drop all content (STLTresize clears the table; Section III-F).

        Clears in place: the batched execution mode holds kernel views
        (direct references) onto the column lists, so the lists must
        never be rebound once the table exists.
        """
        n = self.num_rows
        self._counters[:] = [0] * n
        self._subints[:] = [0] * n
        self._vas[:] = [0] * n
        self._ptes[:] = [0] * n

    def _scrub_rows(self, rows) -> int:
        counters, subints, vas, ptes = (
            self._counters, self._subints, self._vas, self._ptes)
        for i in rows:
            counters[i] = 0
            subints[i] = 0
            vas[i] = 0
            ptes[i] = 0
        return len(rows)

    def scrub_pages(self, vpns: Set[int]) -> int:
        """Invalidate every row whose VA lies in one of ``vpns``.

        This is the slow path the kernel runs when the IPB overflows
        (Section III-D1).  Returns the number of rows scrubbed.  The
        full-table scan runs through the bulk kernel
        (:func:`repro.mem.kernels.rows_in_pages`), vectorised when
        numpy is available.
        """
        return self._scrub_rows(rows_in_pages(self._vas, vpns, PAGE_SHIFT))

    def invalidate_va(self, va: int) -> int:
        """Invalidate all rows holding exactly ``va`` (record movement)."""
        return self._scrub_rows(matching_indices(self._vas, va))

    # -- introspection -----------------------------------------------------

    @property
    def occupancy(self) -> int:
        return occupancy_count(self._vas)

    def state_digest(self) -> str:
        """Stable digest of the full table content (mode drift guard)."""
        return state_digest(self.num_rows, self.ways, self._counters,
                            self._subints, self._vas, self._ptes)

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def miss_rate(self) -> float:
        return 1.0 - self.hit_rate if self.lookups else 0.0

    def reset_stats(self) -> None:
        self.lookups = 0
        self.hits = 0
        self.inserts = 0
        self.replacements = 0
        self.multi_matches = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"STLT({self.num_rows} rows, {self.ways}-way, "
            f"{self.size_bytes >> 20} MiB)"
        )
