"""Hardware prefetcher models for the Fig. 19 (right) experiment.

Three prefetchers from Section IV-F:

* :class:`StreamPrefetcher` — SniperSim's "Simple" stride/next-line
  prefetcher: on an LLC miss it fetches the next lines of the stream.
* :class:`VLDPPrefetcher` — a variable-length-delta-prediction style
  prefetcher: per-page delta histories feed a global delta-sequence table
  that predicts the next offsets within the page.
* :class:`DistanceTLBPrefetcher` — distance prefetching for the TLB
  (Kandiraju & Sivasubramaniam): the delta between consecutive missing
  vpns indexes a table of previously observed follow-on deltas.

None of these models is tuned to fail; they implement the published
mechanisms, and the low accuracy on pointer-chasing key-value workloads
(and the resulting bandwidth pollution) is emergent, as in the paper.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..params import CACHE_LINE_BYTES, PAGE_BYTES

_LINES_PER_PAGE = PAGE_BYTES // CACHE_LINE_BYTES


class StreamPrefetcher:
    """Next-line stream prefetcher ("Simple" in SniperSim).

    Tracks a small table of active streams; an access that extends a
    stream triggers prefetches of the following ``degree`` lines.
    """

    def __init__(self, degree: int = 4, streams: int = 16) -> None:
        self.degree = degree
        #: stream head line -> 1, least recently extended first
        self._streams: Dict[int, int] = {}
        self._max_streams = streams

    def observe(self, line_addr: int, was_miss: bool) -> List[int]:
        if not was_miss:
            return []
        streams = self._streams
        prev = streams.get(line_addr - 1)
        streams.pop(line_addr, None)
        streams[line_addr] = 1
        while len(streams) > self._max_streams:
            del streams[next(iter(streams))]
        if prev is None:
            return []
        return [line_addr + i for i in range(1, self.degree + 1)]


class VLDPPrefetcher:
    """Variable-length delta prediction (Shevgoor et al., MICRO'15), simplified.

    Per-page state records the last line offset and recent delta history;
    a global table maps the most recent delta to the delta that followed
    it last time.  Predictions chain up to ``degree`` deep.  Random
    pointer-chasing produces unstable histories, so most predictions are
    wrong — the traffic is what degrades performance.
    """

    def __init__(self, degree: int = 4, pages: int = 64, table_size: int = 512):
        self.degree = degree
        #: page -> (last offset, last delta), least recently used first
        self._pages: Dict[int, Tuple[int, int]] = {}
        self._max_pages = pages
        self._delta_table: Dict[int, int] = {}
        self._max_table = table_size

    def observe(self, line_addr: int, was_miss: bool) -> List[int]:
        if not was_miss:
            return []
        page = line_addr // _LINES_PER_PAGE
        offset = line_addr % _LINES_PER_PAGE
        state = self._pages.pop(page, None)
        preds: List[int] = []
        if state is not None:
            last_offset, last_delta = state
            delta = offset - last_offset
            if delta != 0:
                if last_delta != 0:
                    if len(self._delta_table) >= self._max_table:
                        self._delta_table.clear()
                    self._delta_table[last_delta] = delta
                # chain predictions from the current delta
                cur = offset
                d = delta
                for _ in range(self.degree):
                    nxt = self._delta_table.get(d)
                    if nxt is None:
                        nxt = d  # fall back to repeating the last delta
                    cur += nxt
                    if not 0 <= cur < _LINES_PER_PAGE:
                        break
                    preds.append(page * _LINES_PER_PAGE + cur)
                    d = nxt
                self._pages[page] = (offset, delta)
            else:
                self._pages[page] = (offset, last_delta)
        else:
            self._pages[page] = (offset, 0)
        while len(self._pages) > self._max_pages:
            del self._pages[next(iter(self._pages))]
        return preds


class DistanceTLBPrefetcher:
    """Distance prefetching for TLB entries.

    On a TLB miss at ``vpn`` the distance from the previous missing vpn
    is computed; a table maps each observed distance to the distances
    that followed it, and the predicted vpns are prefetched into the TLB.
    """

    def __init__(self, degree: int = 2, table_size: int = 256) -> None:
        self.degree = degree
        self._last_vpn: int = -1
        self._last_distance: int = 0
        self._table: Dict[int, List[int]] = {}
        self._max_table = table_size

    def observe_miss(self, vpn: int) -> List[int]:
        preds: List[int] = []
        if self._last_vpn >= 0:
            distance = vpn - self._last_vpn
            if self._last_distance != 0:
                if len(self._table) >= self._max_table:
                    self._table.clear()
                followers = self._table.setdefault(self._last_distance, [])
                if distance not in followers:
                    followers.append(distance)
                    del followers[:-self.degree]
            for d in self._table.get(distance, ())[: self.degree]:
                preds.append(vpn + d)
            self._last_distance = distance
        self._last_vpn = vpn
        return preds
