"""Property-based tests on the memory substrate (hypothesis).

The caches keep their sets as most-recently-used-first deques, the
TLBs and STB as plain insertion-ordered dicts; the reference models
below keep the ``OrderedDict`` idiom (``move_to_end`` on a hit,
``popitem(last=False)`` on an eviction), and every step must agree on
hits, victims and the full set contents.
"""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.address_space import AddressSpace, FrameAllocator
from repro.mem.cache import Cache
from repro.mem.hierarchy import MemorySystem
from repro.mem.page_table import (
    MAX_VPN,
    NUM_LEVELS,
    PTE_BYTES,
    PageTable,
)
from repro.mem.prefetch import StreamPrefetcher
from repro.mem.shared import SharedMemory
from repro.mem.tlb import TLB
from repro.mem.types import AccessKind, AccessResult
from repro.core.stb import STB
from repro.core.row import make_pte
from repro.params import (PAGE_BYTES, PAGE_SHIFT, CacheParams, TLBParams,
                          scaled_machine)

from tests.mem.test_page_table import RecordingMemory

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
    """The level loop that ``MemorySystem.walk`` unrolls: the pfn (None
    on a fault) and the PTE addresses in load order."""
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
    space = AddressSpace()
    table = space.page_table
    model = {}
    for vpn, pfn in mappings:
        table.map(vpn, pfn)
        model[vpn] = pfn
    mem = RecordingMemory(space)

    def timed_walk(vpn):
        mem.loaded.clear()
        walked, cycles = mem.walk(vpn)
        assert cycles == sum(1 + line % 7 for line in mem.loaded)
        return walked, list(mem.loaded)

    def reference(vpn):
        pfn, paddrs = reference_walk_path(table, vpn)
        return pfn, [paddr >> 6 for paddr in paddrs]

    for vpn, pfn in model.items():
        assert table.lookup(vpn) == pfn
        walked, lines = timed_walk(vpn)
        assert walked == pfn
        assert len(lines) == 4
        assert (walked, lines) == reference(vpn)
    # unmapped vpns stop at the first missing level: partial walks
    near = [vpn ^ (1 << bit) for vpn in model for bit in (0, 9, 18)]
    for vpn in probes + near[:60]:
        walked, lines = timed_walk(vpn)
        assert (walked, lines) == reference(vpn)
        assert walked == model.get(vpn)
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


def per_line_access(mem, vaddr, size, write, kind):
    """The reference for ``MemorySystem.access``: one line at a time,
    translating whenever a line's page differs from the previous
    line's, with the L1 and D-TLB probes on the structures' object
    face.  It counts as ``access`` does: one read or write, and a D-TLB
    or L1 hit here, the misses in ``_translate`` and ``_line_access``."""
    stats = mem.stats
    if write:
        stats.writes += 1
    else:
        stats.reads += 1
    dtlb = mem.tlbs.l1
    l1 = mem.l1
    first_line = vaddr >> 6
    last_line = (vaddr + max(size, 1) - 1) >> 6
    cycles = 0
    translation_cycles = 0
    tlb_hit = True
    stb_hit = False
    walked = False
    last_vpn = -1
    pfn = 0
    for line in range(first_line, last_line + 1):
        line_va = line << 6
        vpn = line_va >> PAGE_SHIFT
        if vpn != last_vpn:
            if dtlb.contains(vpn):
                pfn = dtlb.lookup(vpn)
                stats.dtlb_hits += 1
                t_cycles = dtlb.latency
            else:
                pfn, t_cycles, t_hit, t_walked = mem._translate(vpn)
                tlb_hit = tlb_hit and t_hit
                walked = walked or t_walked
                if not t_hit and not t_walked:
                    stb_hit = True
            cycles += t_cycles
            translation_cycles += t_cycles
            last_vpn = vpn
        paddr_line = ((pfn << PAGE_SHIFT)
                      | (line_va & (PAGE_BYTES - 1))) >> 6
        if l1.contains(paddr_line):
            l1.lookup(paddr_line)
            stats.l1_hits += 1
            cycles += l1.latency
        else:
            cycles += mem._line_access(paddr_line, True, mem.now + cycles)
    mem.now += cycles
    stats.total_cycles += cycles
    attr = mem.attr
    attr["translation"] = attr.get("translation", 0) + translation_cycles
    attr[kind.value] = attr.get(kind.value, 0) + cycles - translation_cycles
    return AccessResult(cycles, tlb_hit, stb_hit, walked,
                        last_line - first_line + 1)


#: pages of the scripted region; a span may cross into the next page
SCRIPT_PAGES = 24


def scripted_system():
    """A small machine over one mapped region, so the scripts miss in
    every cache and TLB level; an STB holds every third page and a
    stream prefetcher issues DRAM traffic behind demand misses."""
    space = AddressSpace()
    region = space.alloc_region(SCRIPT_PAGES * PAGE_BYTES)
    mem = MemorySystem(space, scaled_machine(64),
                       stream_prefetcher=StreamPrefetcher())
    stb = STB(entries=8)
    for page in range(0, SCRIPT_PAGES, 3):
        va = region + page * PAGE_BYTES
        stb.insert(va >> PAGE_SHIFT,
                   make_pte(space.translate(va) >> PAGE_SHIFT))
    mem.attach_stb(stb)
    return mem, region


def memory_state(mem):
    structures = (mem.l1, mem.l2, mem.l3, mem.tlbs.l1, mem.tlbs.l2)
    return (vars(mem.stats), mem.attr, mem.now,
            [s.flat_state() for s in structures],
            sorted(mem._prefetched_lines))


#: (page, offset, size, write, kind): offsets near a page's end make
#: spans that cross into the next page
ACCESS_STEPS = st.tuples(
    st.integers(0, SCRIPT_PAGES - 2),
    st.one_of(st.integers(0, PAGE_BYTES - 1),
              st.integers(PAGE_BYTES - 300, PAGE_BYTES - 1)),
    st.integers(1, 300),
    st.booleans(),
    st.sampled_from(list(AccessKind)),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(ACCESS_STEPS, max_size=120))
def test_access_matches_per_line_loop(steps):
    mem, region = scripted_system()
    reference, _ = scripted_system()
    for page, offset, size, write, kind in steps:
        vaddr = region + page * PAGE_BYTES + offset
        got = mem.access(vaddr, size, write, kind)
        want = per_line_access(reference, vaddr, size, write, kind)
        assert repr(got) == repr(want)
        assert memory_state(mem) == memory_state(reference)


def counted_core(space, machine, shared, core_id, **kwargs):
    """A core whose ``_translate`` and ``_line_access`` count their
    calls; a line access is classed by where the line sat before it."""
    mem = MemorySystem(space, machine, shared=shared, core_id=core_id,
                       **kwargs)
    calls = {"translate": 0, "line": 0, "past_l2": 0, "dram": 0}
    translate = mem._translate
    line_access = mem._line_access

    def counted_translate(vpn):
        calls["translate"] += 1
        return translate(vpn)

    def counted_line_access(line, demand=True, at=-1):
        calls["line"] += 1
        if not mem.l2.contains(line):
            calls["past_l2"] += 1
            if not mem.l3.contains(line):
                calls["dram"] += 1
        return line_access(line, demand, at)

    # instance attributes shadow the methods, so ``access``, the page
    # walk's PTE loads and ``physical_access`` all enter the wrappers
    mem._translate = counted_translate
    mem._line_access = counted_line_access
    return mem, calls


#: pages of the counted region: 24 of them fit the scaled STLB and
#: not the D-TLB, all of them fit neither
COUNT_PAGES = 96

#: (core, op, page, offset, size, write): ops 0-1 are ``access``, 2
#: ``physical_access`` and 3 a timed page walk; pages come from a hot
#: few, the warm 24 and the whole region, so TLB, L2 and L3 hits happen
#: as well as walks and DRAM misses
COUNT_STEPS = st.tuples(
    st.integers(0, 1),
    st.integers(0, 3),
    st.one_of(st.integers(0, 3), st.integers(0, 23),
              st.integers(0, COUNT_PAGES - 2)),
    st.integers(0, PAGE_BYTES - 1),
    st.integers(1, 200),
    st.booleans(),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(COUNT_STEPS, max_size=120))
def test_derived_counts_match_the_calls(steps):
    """Each derived count equals the events it stands for: accesses the
    calls of ``access`` and ``physical_access``, ``dtlb_misses`` the
    ``_translate`` calls, ``l1_misses`` the ``_line_access`` calls, and
    ``l2_misses`` and ``dram_accesses`` those that went past L2 and L3;
    the shared channel also carries the prefetches."""
    space = AddressSpace()
    machine = scaled_machine(64)
    shared = SharedMemory(machine)
    region = space.alloc_region(COUNT_PAGES * PAGE_BYTES)
    cores = [counted_core(space, machine, shared, 0),
             counted_core(space, machine, shared, 1,
                          stream_prefetcher=StreamPrefetcher())]
    accesses = [0, 0]
    for core, op, page, offset, size, write in steps:
        mem = cores[core][0]
        va = region + page * PAGE_BYTES + offset
        if op < 2:
            mem.access(va, size, write, AccessKind.RECORD)
            accesses[core] += 1
        elif op == 2:
            mem.physical_access(space.translate(va), size)
            accesses[core] += 1
        else:
            mem.walk(va >> PAGE_SHIFT)
        for (mem, calls), count in zip(cores, accesses):
            stats = mem.stats
            assert stats.accesses == count
            assert stats.dtlb_misses == calls["translate"]
            assert stats.l1_misses == calls["line"]
            assert stats.l2_misses == calls["past_l2"]
            assert stats.dram_accesses == calls["dram"]
        assert shared.dram.accesses == sum(
            mem.stats.dram_accesses + mem.stats.prefetches_issued
            for mem, _ in cores)
