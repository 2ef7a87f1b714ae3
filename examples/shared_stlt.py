#!/usr/bin/env python3
"""Multi-index scenario: two stores sharing the process's single STLT.

A process gets exactly one STLT (Section III-F).  An application with a
user table *and* a session table must therefore share it — and because
both tables may use the same key bytes for different records, the
integers fed to loadVA/insertSTLT must be disambiguated by replacing the
low bits of the sub-integer with a per-table ID (Fig. 10).

The example demonstrates the failure without IDs (cross-table aliasing
returns the wrong record!) and the fix with them.

Run:
    python examples/shared_stlt.py
"""

from repro.core.multi_table import SharedSTLTNamespace
from repro.core.os_interface import OSInterface
from repro.core.stu import STU
from repro.hashes.registry import get_hash
from repro.kvs import make_index
from repro.kvs.base import SimContext
from repro.sim.frontend import STLTFrontend
from repro.workloads.keys import key_bytes

NUM_KEYS = 4_000


def build_store(ctx):
    """A store of ``NUM_KEYS`` records keyed ``key_bytes(0..NUM_KEYS-1)``.

    Both stores use the same key bytes, so aliasing shows as a lookup that
    returns the other store's record object.
    """
    index = make_index("unordered_map", ctx, expected_keys=NUM_KEYS)
    records = {}
    for i in range(NUM_KEYS):
        key = key_bytes(i)
        rec = ctx.records.create(key, 32)
        index.build_insert(key, rec)
        records[i] = rec
    return index, records


def run(with_ids: bool) -> int:
    ctx = SimContext.create(slow_hash="murmur")
    stu = STU(ctx.mem)
    OSInterface(ctx.space, ctx.mem, stu).stlt_alloc(1 << 14)
    fast = get_hash("xxh3")

    users_index, _ = build_store(ctx)
    sessions_index, sessions = build_store(ctx)

    if with_ids:
        ns = SharedSTLTNamespace(id_bits=1)
        uid, sid = ns.register(), ns.register()
        fe_users = STLTFrontend(
            ctx, users_index, stu, fast,
            integer_transform=lambda h: ns.transform(h, uid))
        fe_sessions = STLTFrontend(
            ctx, sessions_index, stu, fast,
            integer_transform=lambda h: ns.transform(h, sid))
    else:
        fe_users = STLTFrontend(ctx, users_index, stu, fast)
        fe_sessions = STLTFrontend(ctx, sessions_index, stu, fast)

    # interleaved traffic on the same key bytes
    for i in range(NUM_KEYS):
        fe_users.get(key_bytes(i))
    wrong = 0
    for i in range(NUM_KEYS):
        got = fe_sessions.get(key_bytes(i))
        if got is not sessions[i]:
            wrong += 1
    return wrong


def main() -> None:
    print("Two stores, same key bytes, one shared STLT.")
    print()
    wrong = run(with_ids=False)
    print(f"WITHOUT table IDs: {wrong} of {NUM_KEYS} session lookups "
          "returned the USER record (key aliasing, Fig. 10's hazard)")
    wrong = run(with_ids=True)
    print(f"WITH table IDs   : {wrong} of {NUM_KEYS} lookups wrong "
          "(the sub-integer manipulation keeps the tables apart)")


if __name__ == "__main__":
    main()
