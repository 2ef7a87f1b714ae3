"""The bulk chained-hash populate against the per-key store build.

``ChainedHashIndex.populate`` (the Redis dict and unordered_map) makes
every record and node allocation of a store in one
``BumpAllocator.alloc_rows`` pass.  The per-key loop it replaces is
kept here as the reference: each engine is built both ways and every
piece of state the allocation order decides is compared.
"""

import pytest

from repro.kvs.chained_hash import ChainedHashIndex
from repro.sim.config import RunConfig
from repro.sim.engine import Engine

#: enough keys that every size class of the build refills at least
#: twice (a 16-page run holds 2,730 24-byte nodes)
NUM_KEYS = 6000


def per_key_populate(index, keys, value_size, external=False):
    """The reference build: ``create`` (``create_external``) and
    ``build_insert``, one key at a time."""
    store = index.ctx.records
    create = store.create_external if external else store.create
    records = []
    for key in keys:
        record = create(key, value_size)
        index.build_insert(key, record)
        records.append(record)
    return records


def _page_table(page_table):
    """Every node of the radix tree (its path and frame) and every
    leaf entry, in tree order."""
    out = [page_table.mapped_pages]

    def walk(node, path):
        out.append((path, node.pfn))
        for index in sorted(node.entries):
            child = node.entries[index]
            if len(path) == 3:
                out.append((path + (index,), child))
            else:
                walk(child, path + (index,))

    walk(page_table.root, ())
    return out


def _runs_per_class(allocator):
    """Size class -> how many runs its live objects span."""
    by_class = {}
    for va, cls in allocator._size_of.items():
        by_class.setdefault(cls, []).append(va)
    runs = {}
    for cls, vas in by_class.items():
        vas.sort()
        # consecutive objects of one run are one class size apart
        runs[cls] = 1 + sum(b - a != cls for a, b in zip(vas, vas[1:]))
    return runs


def _state(engine):
    """What the allocation order decides, records named by position."""
    position = {id(record): i for i, record in enumerate(engine.records)}
    chains = []
    for head in engine.index._buckets:
        chain = []
        while head is not None:
            chain.append((head.va, head.hash, position[id(head.record)]))
            head = head.next
        chains.append(chain)
    alloc = engine.ctx.alloc
    space = engine.ctx.space
    return {
        "records": [(r.va, r.key, r.value_size, r.external_value_va)
                    for r in engine.records],
        "by_va": [(va, position[id(record)])
                  for va, record in engine.ctx.records.by_va.items()],
        "chains": chains,
        "size": engine.index.size,
        "allocator": (alloc._cursor, alloc._limit, alloc._free,
                      list(alloc._size_of.items()), alloc.bytes_allocated,
                      alloc.objects_live),
        "space": (space._next_user_va, space._next_kernel_va,
                  space.frames._next),
        "page_table": _page_table(space.page_table),
        "prefill_digest": engine.prefill_digest(),
    }


@pytest.mark.parametrize("program", ["redis", "unordered_map"])
def test_bulk_populate_matches_the_per_key_build(program, monkeypatch):
    config = RunConfig(program=program, frontend="stlt", num_keys=NUM_KEYS)
    inserts = []
    build_insert = ChainedHashIndex.build_insert
    monkeypatch.setattr(
        ChainedHashIndex, "build_insert",
        lambda index, key, record: (inserts.append(key),
                                    build_insert(index, key, record)))
    bulk = Engine(config)
    assert inserts == []
    assert min(_runs_per_class(bulk.ctx.alloc).values()) >= 3

    monkeypatch.setattr(ChainedHashIndex, "populate", per_key_populate)
    reference = Engine(config)
    assert len(inserts) == NUM_KEYS

    assert bulk.prefill_digest() is not None
    bulk_state = _state(bulk)
    reference_state = _state(reference)
    for part in reference_state:
        assert bulk_state[part] == reference_state[part], part
