"""Frozen memory-system golden: seeded access scripts on a 2-core machine.

Each scenario builds two :class:`~repro.mem.hierarchy.MemorySystem`
cores over one :class:`~repro.mem.shared.SharedMemory` and one address
space, then runs a seeded script through the public face of the memory
system: single-line, multi-line and page-crossing ``access`` calls of
every :class:`~repro.mem.types.AccessKind` (reads and writes),
``physical_access``, ``tick``, ``tlb_flush`` and OS page invalidations
(migrations, unmap + remap).  The scenarios differ in what hangs off the
miss path: nothing, an STB, each rival ``repro.accel`` resolver, or the
stream, VLDP and distance-TLB prefetchers.

``tests/data/golden_mem.json`` pins, per scenario:

* every ``AccessResult`` and ``physical_access`` latency, plus both
  cores' ``now`` at every block boundary (one digest per block of
  steps, so a drift names the block it starts in);
* each core's ``MemoryStats``, ``attr`` and ``now`` at the end;
* the shared ``DRAM.snapshot()`` and prefetch-tracking set;
* the ``flat_state()`` of every cache and TLB, and its hit and miss
  counts as the per-core stats record them (L3's summed over the
  cores);
* the STB and resolver counters.

Any change to the timed miss path must reproduce these records exactly.

Regenerate (only for a deliberate, documented change of simulated
results)::

    PYTHONPATH=src python -m tests.mem.test_miss_path_golden
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.accel.pcax import _PCAXResolver
from repro.accel.revelator import _RevelatorResolver
from repro.accel.victima import _VictimaResolver
from repro.core.row import make_pte
from repro.core.stb import STB
from repro.mem.address_space import AddressSpace
from repro.mem.hierarchy import MemorySystem
from repro.mem.kernels import state_digest
from repro.mem.prefetch import (
    DistanceTLBPrefetcher,
    StreamPrefetcher,
    VLDPPrefetcher,
)
from repro.mem.shared import SharedMemory
from repro.mem.types import AccessKind
from repro.params import DEFAULT_MACHINE, PAGE_BYTES, PAGE_SHIFT

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "data" / \
    "golden_mem.json"

SCENARIOS = ("plain", "stb", "victima", "pcax", "revelator", "prefetch")
STEPS = 1500
BLOCK = 100
SEED = 11

#: pages of the cold region: larger than the 1536-entry STLB and, at
#: 4 KiB a page, eight times the 2 MiB L3, so walks and DRAM misses fire
COLD_PAGES = 4096
#: pages of the hot region: within the 64-entry D-TLB
HOT_PAGES = 24
#: pages of the warm region: past the D-TLB, within the STLB
WARM_PAGES = 96
_KINDS = tuple(AccessKind)
_SIZES = (1, 4, 8, 8, 16, 24, 64, 100, 200, 300)
_TICK_ATTRS = (None, "hash", "command")


def _attach(name: str, mems) -> list:
    """Hang the scenario's extras off each core's miss path; returns
    the attached objects (STBs or resolvers) in core order."""
    out = []
    for mem in mems:
        if name == "stb":
            extra = STB()
            mem.attach_stb(extra)
        elif name == "victima":
            extra = _VictimaResolver(64, 4, probe_cycles=12, fill_cycles=12)
            mem.attach_accel(extra)
        elif name == "pcax":
            extra = _PCAXResolver(16, 4, probe_cycles=2)
            mem.attach_accel(extra)
        elif name == "revelator":
            extra = _RevelatorResolver(validate_cycles=4,
                                       mispredict_cycles=24)
            mem.attach_accel(extra)
        else:
            continue
        out.append(extra)
    return out


def _extra_counters(name: str, extra) -> dict:
    if name == "stb":
        return {"inserts": extra.inserts, "probes": extra.probes,
                "hits": extra.hits, "size": len(extra)}
    if name == "victima":
        return {"probes": extra.probes, "hits": extra.hits,
                "fills": extra.fills, "evictions": extra.table.evictions}
    if name == "pcax":
        return {"probes": extra.probes, "hits": extra.hits,
                "fills": extra.fills, "evictions": extra.evictions,
                "sites": sorted(extra._tables)}
    return {"spec_hits": extra.spec_hits, "spec_misses": extra.spec_misses,
            "spec_cold": extra.spec_cold}


def _structure(obj, hits: int, misses: int) -> dict:
    return {"flat": state_digest(obj.flat_state()),
            "hits": hits, "misses": misses}


def run_scenario(name: str, steps: int = STEPS, seed: int = SEED) -> dict:
    """Run one scenario's script and return its plain-data record."""
    rng = random.Random(f"{name}:{seed}")
    space = AddressSpace()
    shared = SharedMemory(DEFAULT_MACHINE)
    mems = []
    for core_id in range(2):
        kwargs = {}
        if name == "prefetch":
            kwargs = dict(stream_prefetcher=StreamPrefetcher(),
                          vldp_prefetcher=VLDPPrefetcher(),
                          tlb_prefetcher=DistanceTLBPrefetcher())
        mems.append(MemorySystem(space, DEFAULT_MACHINE, shared=shared,
                                 core_id=core_id, **kwargs))
    extras = _attach(name, mems)
    hot = space.alloc_region(HOT_PAGES * PAGE_BYTES)
    warm = space.alloc_region(WARM_PAGES * PAGE_BYTES)
    cold = space.alloc_region(COLD_PAGES * PAGE_BYTES)

    def pick_va() -> int:
        roll = rng.random()
        if roll < 0.45:
            return hot + rng.randrange(HOT_PAGES * PAGE_BYTES)
        if roll < 0.7:
            return warm + rng.randrange(WARM_PAGES * PAGE_BYTES)
        # a zipf-ish skew over the cold pages revisits some of them
        page = int(COLD_PAGES * rng.random() ** 2)
        return cold + page * PAGE_BYTES + rng.randrange(PAGE_BYTES)

    blocks = []
    block = []
    crossings = multi_line = 0
    for step in range(steps):
        core = rng.randrange(2)
        mem = mems[core]
        roll = rng.random()
        if roll < 0.72:
            size = rng.choice(_SIZES)
            va = pick_va()
            if rng.random() < 0.12:
                # straddle the end of the page
                va = (va | (PAGE_BYTES - 1)) - rng.randrange(min(size, 40))
            if (va >> PAGE_SHIFT) != ((va + size - 1) >> PAGE_SHIFT):
                crossings += 1
            kind = rng.choice(_KINDS)
            res = mem.access(va, size, write=rng.random() < 0.3, kind=kind)
            if res.lines_touched > 1:
                multi_line += 1
            out = [res.cycles, res.tlb_hit, res.stb_hit, res.walked,
                   res.lines_touched]
        elif roll < 0.80:
            pa = space.translate(pick_va())
            out = mem.physical_access(pa, rng.choice((8, 16, 64, 128)))
        elif roll < 0.88:
            mem.tick(rng.randrange(1, 300), attr=rng.choice(_TICK_ATTRS))
            out = None
        elif roll < 0.884:
            mem.tlb_flush()
            out = "flush"
        elif roll < 0.904:
            space.migrate_page(pick_va())
            out = "migrate"
        elif roll < 0.914:
            va = pick_va()
            space.unmap_page(va)
            space.remap_page(va)
            out = "remap"
        else:
            va = pick_va()
            if name == "stb":
                # a loadVA-style insert right before the access using it
                pfn = space.page_table.lookup(va >> PAGE_SHIFT)
                extras[core].insert(va >> PAGE_SHIFT, make_pte(pfn))
            res = mem.access(va, 8, kind=AccessKind.RECORD)
            out = [res.cycles, res.tlb_hit, res.stb_hit, res.walked,
                   res.lines_touched]
        block.append([core, out])
        if len(block) == BLOCK or step == steps - 1:
            block.append([mems[0].now, mems[1].now])
            blocks.append(hashlib.sha256(
                json.dumps(block).encode()).hexdigest()[:16])
            block = []

    record = {
        "blocks": blocks,
        "script": {"page_crossings": crossings, "multi_line": multi_line},
        "cores": [
            {
                "now": mem.now,
                "stats": mem.stats.to_dict(),
                "attr": dict(sorted(mem.attr.items())),
                "l1": _structure(mem.l1, mem.stats.l1_hits,
                                 mem.stats.l1_misses),
                "l2": _structure(mem.l2, mem.stats.l2_hits,
                                 mem.stats.l2_misses),
                "dtlb": _structure(mem.tlbs.l1, mem.stats.dtlb_hits,
                                   mem.stats.dtlb_misses),
                "stlb": _structure(mem.tlbs.l2, mem.stats.stlb_hits,
                                   mem.stats.stlb_misses),
                "prefetched_vpns": sorted(mem._prefetched_vpns),
            }
            for mem in mems
        ],
        "l3": _structure(shared.l3,
                         sum(mem.stats.l3_hits for mem in mems),
                         sum(mem.stats.l3_misses for mem in mems)),
        "dram": shared.dram.snapshot(),
        "prefetched_lines": state_digest(sorted(shared.prefetched_lines)),
        "extras": [_extra_counters(name, extra) for extra in extras],
    }
    # normalise through JSON like the file
    return json.loads(json.dumps(record))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", SCENARIOS)
def test_matches_frozen_golden(golden, name):
    got = run_scenario(name)
    want = golden[name]
    # name the first drifted block before the whole-record diff
    drifted = [i for i, (a, b) in enumerate(zip(got["blocks"],
                                                want["blocks"])) if a != b]
    assert not drifted, (f"{name}: first drifted block {drifted[0]} "
                         f"(steps {drifted[0] * BLOCK}+)")
    assert got == want


def test_scripts_exercise_the_miss_path(golden):
    """The records only guard the miss path if the mechanisms fired."""
    kinds = set()
    for name in SCENARIOS:
        rec = golden[name]
        assert rec["script"]["page_crossings"] > 0
        assert rec["script"]["multi_line"] > 0
        for core in rec["cores"]:
            stats = core["stats"]
            kinds.update(core["attr"])
            for field in ("dtlb_misses", "stlb_hits", "stlb_misses",
                          "l2_hits", "l3_hits", "l3_misses", "writes"):
                assert stats[field] > 0, (name, field)
            if name in ("plain", "stb", "prefetch"):
                assert stats["page_walks"] > 0, name
        assert rec["dram"]["queue_cycles"] > 0, name
        assert rec["dram"]["max_queue_cycles"] > 0, name
    assert {k.value for k in AccessKind} <= kinds
    assert {"translation", "stlt", "hash", "command"} <= kinds
    for core in golden["stb"]["cores"]:
        assert core["stats"]["stb_hits"] > 0
        assert core["stats"]["stb_misses"] > 0
    for extra in golden["victima"]["extras"] + golden["pcax"]["extras"]:
        assert extra["hits"] > 0 and extra["fills"] > 0
    for extra in golden["revelator"]["extras"]:
        # spec hits tick inside resolve: the case that pins re-reading
        # ``now`` after translation
        assert extra["spec_hits"] > 0 and extra["spec_misses"] > 0
    for core in golden["prefetch"]["cores"]:
        stats = core["stats"]
        assert stats["prefetches_issued"] > 0
        assert stats["prefetches_useful"] > 0
        assert stats["tlb_prefetches_issued"] > 0
        assert stats["tlb_prefetches_useful"] > 0


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(
        {name: run_scenario(name) for name in SCENARIOS},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
