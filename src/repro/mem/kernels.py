"""Array-backed access kernels for the set-associative structures.

The execution-mode seam (DESIGN.md section 11) splits every
set-associative structure into two faces:

* the **object face** — the per-access Python methods the reference
  execution mode has always used (``Cache.lookup``, ``TLB.lookup``,
  ``STLT.scan`` …); unchanged, and still the source of truth for all
  state;
* the **kernel face** — flat parallel arrays over the same state, so the
  batched execution mode and the bulk maintenance operations (STLT
  scrubs, invalidations, occupancy) can run one tight loop — or one
  numpy vector operation — instead of one Python call per row.

numpy is strictly optional: the image may not carry it, and one CI leg
deliberately runs without it.  Every helper here has a pure-Python
fallback that computes the identical answer, and the numpy path is only
taken for inputs large enough to amortise the array conversion.  The
helpers are *functional* (they return indices/counts and never mutate),
so both paths are trivially bit-identical: the caller applies the same
mutations in the same order either way.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, List, Sequence, Set

try:  # pragma: no cover - exercised by the numpy CI leg
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy leg
    _np = None

HAVE_NUMPY = _np is not None

#: below this many rows the array conversion costs more than the Python
#: loop it replaces; measured on the container this repo targets
_NUMPY_MIN_ROWS = 4096


def matching_indices(values: Sequence[int], target: int) -> List[int]:
    """Indices ``i`` with ``values[i] == target`` (ascending).

    The bulk kernel behind :meth:`repro.core.stlt.STLT.invalidate_va`:
    record movement must scrub every row holding the old VA, which is a
    full-table scan in the reference loop.
    """
    if HAVE_NUMPY and len(values) >= _NUMPY_MIN_ROWS:
        arr = _np.asarray(values, dtype=_np.int64)
        return _np.nonzero(arr == target)[0].tolist()
    return [i for i, v in enumerate(values) if v == target]


def rows_in_pages(vas: Sequence[int], vpns: Set[int],
                  page_shift: int) -> List[int]:
    """Indices of non-zero ``vas`` whose page number lies in ``vpns``.

    The bulk kernel behind :meth:`repro.core.stlt.STLT.scrub_pages`
    (the IPB-overflow slow path, Section III-D1 of the paper).
    """
    if HAVE_NUMPY and len(vas) >= _NUMPY_MIN_ROWS and vpns:
        arr = _np.asarray(vas, dtype=_np.int64)
        mask = arr != 0
        page = arr >> page_shift
        mask &= _np.isin(page, _np.fromiter(vpns, dtype=_np.int64,
                                            count=len(vpns)))
        return _np.nonzero(mask)[0].tolist()
    return [i for i, va in enumerate(vas)
            if va and (va >> page_shift) in vpns]


def occupancy_count(values: List[int]) -> int:
    """How many entries are non-zero (live rows of a table).

    ``list.count`` runs in C, so no numpy path: converting the list to
    an array costs more than the count itself at every table size.
    """
    return len(values) - values.count(0)


def flatten_sets(sets: Iterable, ways: int) -> List[int]:
    """Export per-set state (Cache/TLB) as one flat tag array.

    ``sets`` yields one iterable of tags per set, least recently used
    first: a TLB passes its dict sets as they are (a hit re-inserts the
    key), a cache its MRU-first deques reversed.  Each set contributes
    exactly ``ways`` slots in that order, padded with ``-1``; the result
    is the flat set-major layout the batched kernels and the state
    digests consume.  Purely an export — the sets remain the source of
    truth.
    """
    flat: List[int] = []
    for s in sets:
        tags = list(s)[:ways]
        flat.extend(tags)
        flat.extend([-1] * (ways - len(tags)))
    return flat


class SetArrayView:
    """Flat per-structure access view consumed by the batched kernels.

    Carries direct references to a set-associative structure's live
    set list plus the hoisted geometry/latency constants, so a fused
    access kernel indexes ``sets[tag & set_mask]`` (or
    ``sets[tag % num_sets]`` for modulo-indexed TLBs) without any
    attribute chasing.  The view never copies: mutations through the
    object face are immediately visible here and vice versa.
    """

    __slots__ = ("sets", "num_sets", "ways", "set_mask", "latency")

    def __init__(self, sets, num_sets: int, ways: int,
                 set_mask: int, latency: int) -> None:
        self.sets = sets
        self.num_sets = num_sets
        self.ways = ways
        self.set_mask = set_mask
        self.latency = latency


def state_digest(*parts) -> str:
    """Stable SHA-256 digest over scalars and integer sequences.

    Used by the execution-mode drift guards: both modes must observe
    byte-identical prefill state, and this digest is what the
    regression tests (and :meth:`repro.sim.engine.Engine.prefill_digest`)
    compare.  Accepts plain lists and numpy arrays alike.
    """
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, (int, str)):
            h.update(str(part).encode("ascii"))
        else:
            h.update(",".join(str(int(v)) for v in part).encode("ascii"))
        h.update(b";")
    return h.hexdigest()
