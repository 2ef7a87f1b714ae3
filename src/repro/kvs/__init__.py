"""Key-value store substrates: records, index structures, Redis model.

Each index structure is a genuine implementation (chained hash table,
open-addressing hash table, red-black tree, B-tree) whose nodes live at
virtual addresses from the simulated allocator.  Lookups issue timed
memory accesses for every node they touch, so TLB and cache behaviour —
the paper's entire subject — emerge from real traversals.
"""

from .base import CoreContext, Index, SimContext
from .btree import BTreeIndex
from .chained_hash import ChainedHashIndex
from .open_hash import OpenHashIndex
from .rbtree import RBTreeIndex
from .records import Record, RecordStore
from .redis_model import RedisModel

__all__ = [
    "BTreeIndex",
    "ChainedHashIndex",
    "CoreContext",
    "Index",
    "OpenHashIndex",
    "RBTreeIndex",
    "Record",
    "RecordStore",
    "RedisModel",
    "SimContext",
]

#: Index classes keyed by the benchmark names of Table II.
INDEX_CLASSES = {
    "unordered_map": ChainedHashIndex,
    "dense_hash_map": OpenHashIndex,
    "ordered_map": RBTreeIndex,
    "btree": BTreeIndex,
}


def make_index(name: str, ctx: SimContext, expected_keys: int) -> Index:
    """Instantiate one of the Table II index structures by name."""
    from ..errors import ConfigError

    try:
        cls = INDEX_CLASSES[name]
    except KeyError:
        raise ConfigError(
            f"unknown index {name!r}; known: {sorted(INDEX_CLASSES)}"
        ) from None
    return cls(ctx, expected_keys=expected_keys)
