"""The paper's STLT/STB/SPTW path as the first accel backend.

``accel=stlt`` is the ``frontend="stlt"`` machinery behind the
:class:`~repro.accel.base.TranslationAccel` interface: its
``build_frontends`` is one call to
:meth:`~repro.sim.engine.Engine.build_stlt_frontends`, the one place
the STLT object graph (shared IPB, per-core STUs, kernel
:class:`~repro.core.os_interface.OSInterface`, ``STLTalloc``) is built.
It therefore returns real ``STLTFrontend`` objects and sets
``engine.stus`` / ``engine.osi``, so prefill, the chaos injector's
``STLTresize`` events, the IPB/scrub telemetry and the batched fast path
work on an accelerated run unchanged.  The golden regression pins it
bit-identical to ``frontend="stlt"`` in both execution modes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from ..core.hwcost import HardwareCostReport, hardware_cost
from .base import TranslationAccel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sim.frontend import LookupFrontend


class StltAccel(TranslationAccel):
    """The STLT design point: key-level fast path + STB + SPTW."""

    name = "stlt"

    def build_frontends(self) -> "List[LookupFrontend]":
        return self.engine.build_stlt_frontends("stlt")

    def report(self) -> dict:
        engine = self.engine
        out = {"accel": self.name}
        if engine.osi is not None and engine.osi.stlt is not None:
            stlt = engine.osi.stlt
            out["stlt_rows"] = stlt.num_rows
            out["stlt_occupancy"] = stlt.occupancy
            out["scrubs"] = engine.osi.scrubs
        stus = [stu for stu in engine.stus if stu is not None]
        out["stb_probes"] = sum(stu.stb.probes for stu in stus)
        out["stb_hits"] = sum(stu.stb.hits for stu in stus)
        return out

    def hardware_cost(self) -> HardwareCostReport:
        return hardware_cost()
