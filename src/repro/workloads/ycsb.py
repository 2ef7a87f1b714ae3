"""Workload specification and operation-stream generation (Section IV-A).

A workload is defined by a distribution, a value size, and the SET ratio.
Per the paper: *"The workloads are all GET operations except for
workloads with latest distribution, of which 5% of operations are SET
operations."*  SETs on the latest distribution insert fresh keys (that
is what makes "latest" meaningful), growing the keyspace as YCSB does.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from itertools import repeat
from typing import List, Optional, Tuple

from ..errors import ConfigError
from ..params import derive_seed
from .distributions import make_chooser


class Operation(enum.Enum):
    GET = "get"
    SET = "set"


@dataclass(frozen=True)
class WorkloadSpec:
    """One of the paper's nine (distribution x value size) workloads."""

    distribution: str = "zipf"
    value_size: int = 64
    set_fraction: float = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.value_size <= 0:
            raise ConfigError("value size must be positive")
        if self.set_fraction is None:
            # paper default: 5% SETs on latest, GET-only otherwise
            fraction = 0.05 if self.distribution == "latest" else 0.0
            object.__setattr__(self, "set_fraction", fraction)
        if not 0.0 <= self.set_fraction < 1.0:
            raise ConfigError("set fraction must be in [0, 1)")

    @property
    def label(self) -> str:
        return f"{self.distribution}-{self.value_size}B"


def generate_operations(
    spec: WorkloadSpec,
    num_keys: int,
    num_ops: int,
    seed: int = 1,
    first_new_id: Optional[int] = None,
    new_id_stride: int = 1,
) -> List[Tuple[Operation, int]]:
    """The stream's ``(operation, key_id)`` pairs, in order.

    SET operations carry a *new* key id (by default the current keyspace
    size); the consumer must create the record, and the chooser is
    notified so later GETs can draw the fresh key.

    On a multi-core machine each core streams its own workload against
    the shared store; ``first_new_id``/``new_id_stride`` give each stream
    a disjoint namespace of fresh key ids (core *i* of *N* uses
    ``num_keys + i, num_keys + i + N, ...``) so concurrent clients never
    collide on a newly inserted key.  The defaults reproduce the
    single-stream behaviour exactly.

    The stream is drawn in bulk: one pass of the op RNG places the
    SETs, and each run of GETs between two SETs is one
    :meth:`~repro.workloads.distributions.KeyChooser.choose_many`.  Both
    RNGs make the draws of a per-op loop, in its order.
    """
    if num_ops < 0:
        raise ConfigError("operation count cannot be negative")
    if new_id_stride < 1:
        raise ConfigError("new-key id stride must be positive")
    chooser = make_chooser(spec.distribution, num_keys, seed=seed)
    op_rng = random.Random(derive_seed(seed, "workload_ops"))
    base_new_id = num_keys if first_new_id is None else first_new_id
    set_fraction = spec.set_fraction
    draw = op_rng.random
    set_at = [i for i in range(num_ops) if draw() < set_fraction] \
        if set_fraction else []

    # The chooser works over *dense* logical ids [0, n); fresh keys map
    # to the stream's (possibly strided) external namespace.  With the
    # default namespace the mapping is the identity.
    ops: List[Tuple[Operation, int]] = []
    next_logical_id = num_keys
    start = 0
    for end in set_at + [num_ops]:
        key_ids = chooser.choose_many(end - start)
        if next_logical_id > num_keys:  # a GET can draw a fresh key
            key_ids = [k if k < num_keys
                       else base_new_id + (k - num_keys) * new_id_stride
                       for k in key_ids]
        ops.extend(zip(repeat(Operation.GET), key_ids))
        if end < num_ops:
            ops.append((Operation.SET, base_new_id
                        + (next_logical_id - num_keys) * new_id_stride))
            chooser.observe_insert(next_logical_id)
            next_logical_id += 1
        start = end + 1
    return ops
