"""Property-based tests on the memory substrate (hypothesis).

The caches, TLBs and STB keep their sets as plain insertion-ordered
dicts; the reference models below keep the ``OrderedDict`` idiom
(``move_to_end`` on a hit, ``popitem(last=False)`` on an eviction), and
every step must agree on hits, victims and the full set contents.
"""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.address_space import FrameAllocator
from repro.mem.cache import Cache
from repro.mem.page_table import (
    MAX_VPN,
    NUM_LEVELS,
    PTE_BYTES,
    PageTable,
)
from repro.mem.tlb import TLB
from repro.core.stb import STB
from repro.core.row import make_pte
from repro.params import PAGE_BYTES, CacheParams, TLBParams

lines = st.integers(0, 255)


class ReferenceLRU:
    """Textbook LRU set-associative cache to check the fast one against."""

    def __init__(self, sets, ways):
        self.sets = [OrderedDict() for _ in range(sets)]
        self.mask = sets - 1
        self.ways = ways

    def access(self, line):
        """Returns (hit, evicted line or None)."""
        s = self.sets[line & self.mask]
        if line in s:
            s.move_to_end(line)
            return True, None
        victim = None
        if len(s) >= self.ways:
            victim, _ = s.popitem(last=False)
        s[line] = None
        return False, victim


@settings(max_examples=60, deadline=None)
@given(st.lists(lines, max_size=400))
def test_cache_matches_reference_lru(accesses):
    cache = Cache(CacheParams("p", 8 * 2 * 64, 2, 1))  # 8 sets, 2 ways
    reference = ReferenceLRU(8, 2)
    for line in accesses:
        hit = cache.lookup(line)
        victim = None if hit else cache.insert(line)
        assert (hit, victim) == reference.access(line)
        index = line & 7
        assert cache.set_contents(index) == list(reference.sets[index])


class ReferenceTLB:
    """The TLB's LRU over modulo-indexed sets of vpn -> pfn."""

    def __init__(self, sets, ways):
        self.sets = [OrderedDict() for _ in range(sets)]
        self.ways = ways

    def lookup(self, vpn):
        s = self.sets[vpn % len(self.sets)]
        pfn = s.get(vpn)
        if pfn is not None:
            s.move_to_end(vpn)
        return pfn

    def insert(self, vpn, pfn):
        s = self.sets[vpn % len(self.sets)]
        if vpn in s:
            s[vpn] = pfn
            s.move_to_end(vpn)
            return None
        victim = None
        if len(s) >= self.ways:
            victim, _ = s.popitem(last=False)
        s[vpn] = pfn
        return victim


#: (is_insert, vpn, pfn): a narrow vpn range keeps the 3 sets full, so
#: hits, evictions and in-place updates of a resident vpn all happen
TLB_OPS = st.tuples(st.booleans(), st.integers(0, 23), st.integers(1, 4))


@settings(max_examples=60, deadline=None)
@given(st.lists(TLB_OPS, max_size=300))
def test_tlb_matches_reference_lru(ops):
    tlb = TLB(TLBParams("t", 6, 2, 1))  # 3 sets: modulo indexing
    reference = ReferenceTLB(3, 2)
    for is_insert, vpn, pfn in ops:
        if is_insert:
            assert tlb.insert(vpn, pfn) == reference.insert(vpn, pfn)
        else:
            assert tlb.lookup(vpn) == reference.lookup(vpn)
        assert [list(s.items()) for s in tlb._sets] == \
            [list(s.items()) for s in reference.sets]


def reference_walk_path(table, vpn):
    """The level loop ``PageTable.walk_path`` unrolled."""
    idx = table._indices(vpn)
    node = table.root
    paddrs = []
    for level in range(NUM_LEVELS - 1):
        paddrs.append(node.pfn * PAGE_BYTES + idx[level] * PTE_BYTES)
        child = node.entries.get(idx[level])
        if child is None:
            return None, paddrs
        node = child
    paddrs.append(node.pfn * PAGE_BYTES + idx[-1] * PTE_BYTES)
    return node.entries.get(idx[-1]), paddrs


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1 << 20), st.integers(1, 1 << 20)),
                max_size=150),
       st.lists(st.integers(0, MAX_VPN), max_size=30))
def test_page_table_matches_dict(mappings, probes):
    frames = FrameAllocator()
    table = PageTable(frames.alloc)
    model = {}
    for vpn, pfn in mappings:
        table.map(vpn, pfn)
        model[vpn] = pfn
    for vpn, pfn in model.items():
        assert table.lookup(vpn) == pfn
        walked, paddrs = table.walk_path(vpn)
        assert walked == pfn
        assert len(paddrs) == 4
        assert (walked, paddrs) == reference_walk_path(table, vpn)
    # unmapped vpns stop at the first missing level: partial walks
    near = [vpn ^ (1 << bit) for vpn in model for bit in (0, 9, 18)]
    for vpn in probes + near[:60]:
        assert table.walk_path(vpn) == reference_walk_path(table, vpn)
        assert table.walk_path(vpn)[0] == model.get(vpn)
    assert table.mapped_pages == len(model)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1 << 20), st.integers(1, 1 << 20)),
                min_size=1, max_size=100))
def test_page_table_unmap_removes_exactly_one(mappings):
    frames = FrameAllocator()
    table = PageTable(frames.alloc)
    model = {}
    for vpn, pfn in mappings:
        table.map(vpn, pfn)
        model[vpn] = pfn
    victim = mappings[0][0]
    table.unmap(victim)
    del model[victim]
    assert table.lookup(victim) is None
    for vpn, pfn in model.items():
        assert table.lookup(vpn) == pfn


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 63), max_size=200))
def test_stb_fifo_capacity_invariant(vpns):
    stb = STB(entries=8)
    model = OrderedDict()  # FIFO: a refresh keeps its slot
    for step, vpn in enumerate(vpns):
        pte = make_pte(vpn + step + 1)
        stb.insert(vpn, pte)
        if vpn not in model and len(model) >= 8:
            model.popitem(last=False)
        model[vpn] = pte
        assert len(stb) <= 8
        assert list(stb._buf.items()) == list(model.items())
    # the newest insert is always resident
    if vpns:
        assert stb.probe(vpns[-1]) == vpns[-1] + len(vpns)
