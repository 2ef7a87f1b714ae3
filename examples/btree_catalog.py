#!/usr/bin/env python3
"""Ordered-index scenario: a product catalog on a B-tree, plus STLT.

The paper's Section III-F points out that STLT accelerates *any* index
with key -> record semantics, not just hash tables, and Fig. 13 shows
the tree structures gaining the most (up to ~13x) because every level of
a tree traversal is a dependent pointer chase through cold TLB entries.

This example builds a catalog keyed by zero-padded SKU strings on the
cpp-btree-style B-tree, then:

  1. compares point-lookup cost with and without STLT,
  2. shows the record-movement protocol: a product's description grows,
     the record reallocates, and one ``insertSTLT`` refreshes the row,
  3. demonstrates that ordered iteration (range scans) still bypasses
     STLT and works on the underlying structure.

Run:
    python examples/btree_catalog.py
"""

from repro import RunConfig, speedup
from repro.sim.engine import Engine

WORKLOAD = dict(
    program="btree",
    distribution="zipf",
    value_size=128,
    num_keys=20_000,
    measure_ops=4_000,
)


def main() -> None:
    print("Building the catalog twice (baseline and STLT)...")
    baseline_engine = Engine(RunConfig(frontend="baseline", **WORKLOAD))
    stlt_engine = Engine(RunConfig(frontend="stlt", **WORKLOAD))
    baseline = baseline_engine.run()
    accelerated = stlt_engine.run()

    print()
    print("1) Point lookups (zipfian SKU popularity):")
    print(f"   baseline: {baseline.cycles_per_op:9.1f} cycles/lookup "
          f"({baseline.tlb_misses} TLB misses)")
    print(f"   STLT    : {accelerated.cycles_per_op:9.1f} cycles/lookup "
          f"({accelerated.tlb_misses} TLB misses)")
    print(f"   speedup : {speedup(baseline, accelerated):.2f}x "
          "(trees gain the most — Fig. 13)")

    print()
    print("2) Record movement protocol (Sec. III-F):")
    ctx = stlt_engine.ctx
    frontend = stlt_engine.frontends[0]
    record = stlt_engine.records[7]
    key = record.key
    frontend.get(key)                      # row is hot
    hits_before = frontend.fast_hits
    stlt_engine.index.remove(key)
    old_va = ctx.records.move(record, new_value_size=512)
    stlt_engine.index.build_insert(key, record)
    frontend.on_record_moved(record, old_va)   # the one-line protocol
    result = frontend.get(key)
    assert result is record and result.value_size == 512
    print(f"   moved {key.decode()} from {old_va:#x} to {record.va:#x}; "
          f"fast path hit again: {frontend.fast_hits == hits_before + 1}")

    print()
    print("3) Range scan on the underlying B-tree (STLT-independent):")
    node = stlt_engine.index.root
    first_keys = []

    def leftmost(n):
        while n.children:
            n = n.children[0]
        return n

    leaf = leftmost(node)
    for k in leaf.keys[:5]:
        first_keys.append(k.decode())
    print(f"   first SKUs in order: {first_keys}")


if __name__ == "__main__":
    main()
