"""The memory layer's hot objects stay below CPython's shared-keys cliff.

CPython 3.11 stores an instance's attributes in a compact values array
that shares its class's key table, and specialises attribute loads on
it.  A class's shared key table holds at most 30 names; an instance
that needs more gets its own dict and every attribute load on it takes
a slower path.  Measured on a shared 2-core x86_64 VM (Python 3.11): a
microbenchmark of attribute-heavy code read 63-98 ns/iter at 29 or
fewer attributes and 88-120 ns at 30 or more (two runs); hoisting seven
per-level tables onto ``MemorySystem`` (32 attributes) cost the e2e
``hot`` workload 5.2% of ``host_ops_per_s`` (0 of 8 pairs faster), and
padding it to exactly 30 cost 1.4% on ``hot`` and 2.8% on ``churn``.
So a new field on one of these classes that crosses the line fails
here, not as an unexplained slowdown (DESIGN.md section 11).
"""

import gc
import types
from collections import Counter

import pytest

from repro.core.stlt import STLT
from repro.core.stu import STU
from repro.mem.cache import Cache
from repro.mem.dram import DRAM
from repro.mem.hierarchy import MemorySystem
from repro.mem.stats import MemoryStats
from repro.mem.tlb import TLB
from repro.sim.config import RunConfig
from repro.sim.engine import Engine

#: attributes at which an instance stops sharing its class's keys
SHARED_KEYS_LIMIT = 30
BUDGETED = (MemorySystem, MemoryStats, STU, STLT, Cache, TLB, DRAM)

#: referents the walk does not follow: they lead out of the engine
_OUTSIDE = (type, types.ModuleType, types.FunctionType,
            types.BuiltinFunctionType, types.CodeType, types.FrameType)

SMALL = dict(num_keys=2_000, measure_ops=100, warmup_ops=100)
CONFIGS = {
    "stlt-2core-prefetch": RunConfig(
        frontend="stlt", num_cores=2,
        prefetchers=("stream", "vldp", "tlb_distance"), **SMALL),
    "stlt-churn": RunConfig(frontend="stlt", churn_rate=0.05, **SMALL),
    "redis-baseline": RunConfig(program="redis", frontend="baseline",
                                **SMALL),
    "btree-slb": RunConfig(program="btree", frontend="slb", **SMALL),
    "victima": RunConfig(frontend="victima", **SMALL),
}


def reachable(root):
    """Every object the engine reaches by reference."""
    seen = {id(root)}
    todo = [root]
    while todo:
        obj = todo.pop()
        yield obj
        for ref in gc.get_referents(obj):
            if id(ref) not in seen and not isinstance(ref, _OUTSIDE):
                seen.add(id(ref))
                todo.append(ref)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_memory_objects_share_their_class_keys(name):
    engine = Engine(CONFIGS[name])
    engine.run()  # attributes set lazily during a run count too
    found = Counter()
    for obj in reachable(engine):
        cls = type(obj)
        if cls in BUDGETED:
            found[cls.__name__] += 1
            count = len(getattr(obj, "__dict__", ()))
            assert count < SHARED_KEYS_LIMIT, (
                f"{name}: a {cls.__name__} has {count} instance "
                f"attributes; at {SHARED_KEYS_LIMIT} it stops sharing "
                f"its class's keys and every attribute load slows")
    # the walk reached the memory layer (STU and STLT need a front-end
    # that builds them)
    assert found["MemorySystem"] >= 1 and found["MemoryStats"] >= 1
    assert found["Cache"] >= 3 and found["TLB"] >= 2 and found["DRAM"] == 1
    if CONFIGS[name].frontend == "stlt":
        assert found["STU"] >= 1 and found["STLT"] >= 1
