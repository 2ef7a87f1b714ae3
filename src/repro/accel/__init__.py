"""repro.accel — the pluggable translation-acceleration lab.

The paper's STLT/STB/SPTW fast path, refactored behind one
:class:`~repro.accel.base.TranslationAccel` interface, plus the
retrieved rival designs under the *same* memory system, OS-churn
paths, and stale-translation oracle:

* ``stlt``      — the paper's design (the ``frontend="stlt"`` object
  graph from the same engine builder; golden-pinned);
* ``victima``   — TLB-reach extension in underutilized L2/L3 capacity;
* ``pcax``      — PC-indexed translation table over op-site pseudo-PCs;
* ``revelator`` — hash-based speculative translation with charged
  misspeculation.

Select with ``RunConfig(accel=...)`` (requires the baseline frontend);
``repro sweep accel`` runs the five-design head-to-head.  DESIGN.md
section 12 documents the interface contract and how to add a backend.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import ConfigError
from .base import SetAssocTable, TranslationAccel
from .pcax import PCAXAccel
from .revelator import RevelatorAccel
from .stlt import StltAccel
from .victima import VictimaAccel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sim.engine import Engine

#: backend registry: ACCELS name -> TranslationAccel subclass
ACCEL_BACKENDS = {
    cls.name: cls
    for cls in (StltAccel, VictimaAccel, PCAXAccel, RevelatorAccel)
}

__all__ = [
    "ACCEL_BACKENDS",
    "PCAXAccel",
    "RevelatorAccel",
    "SetAssocTable",
    "StltAccel",
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
