"""repro.accel — the rival translation designs of the head-to-head.

Three designs from the related work (PAPERS.md), each run under the
*same* memory system, OS-churn paths and stale-translation oracle as
the paper's STLT:

* ``victima``   — TLB-reach extension in underutilized L2/L3 capacity;
* ``pcax``      — PC-indexed translation table over op-site pseudo-PCs;
* ``revelator`` — hash-based speculative translation with charged
  misspeculation.

Each is a ``RunConfig.frontend`` value like ``stlt``: the engine
builds the baseline program's front-ends through the design and
attaches its per-core resolvers below the TLBs.  ``repro sweep accel``
runs the five-design head-to-head (baseline, stlt and the three
rivals).  DESIGN.md section 12 documents the interface contract and
how to add a design.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import ConfigError
from .base import SetAssocTable, TranslationAccel
from .pcax import PCAXAccel
from .revelator import RevelatorAccel
from .victima import VictimaAccel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sim.engine import Engine

#: backend registry: frontend name -> TranslationAccel subclass
ACCEL_BACKENDS = {
    cls.name: cls for cls in (VictimaAccel, PCAXAccel, RevelatorAccel)
}

__all__ = [
    "ACCEL_BACKENDS",
    "PCAXAccel",
    "RevelatorAccel",
    "SetAssocTable",
    "TranslationAccel",
    "VictimaAccel",
    "make_accel",
]


def make_accel(name: str, engine: "Engine") -> TranslationAccel:
    """Instantiate the named backend bound to ``engine``."""
    try:
        cls = ACCEL_BACKENDS[name]
    except KeyError:
        raise ConfigError(
            f"unknown accel backend {name!r}; "
            f"choose one of {sorted(ACCEL_BACKENDS)!r}") from None
    return cls(engine)
