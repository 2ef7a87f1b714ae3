"""Per-layer host-time attribution by wrapping each layer's public seams.

The benchmark never edits ``src/``: :class:`Tracer` replaces a fixed set
of public functions and methods (the *seams*, one or more per
``src/repro`` package) with timing wrappers, and restores them on
:meth:`Tracer.uninstall`.  Install it before any engine is built —
``sim.fastpath`` hoists bound methods when it is constructed, so a
wrapper installed later would be bypassed.

Bookkeeping stays bounded however hot a seam is:

* calls whose caller is the workload root (engine construction, engine
  runs, the service and cluster overlays) are kept as full spans
  ``(name, start_ns, end_ns, parent)``;
* every call is also folded into an aggregate keyed by
  ``(layer, function, parent layer)`` holding calls, inclusive ns and
  self ns.  Self time is a call's duration minus its wrapped children,
  so the self times of all layers partition the root's traced time;
  what the seams do not cover shows up as ``unattributed``.

The wrappers only observe: a traced run produces bit-identical
simulated results (the benchmark checks ``sim_digest``).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Callable, Dict, List, Tuple

from .spec import LAYERS

ROOT_LAYER = "workload"

#: (layer, module, qualified name) of every wrapped seam.  Methods of a
#: base class are wrapped on every subclass that overrides them too.
SEAMS: Tuple[Tuple[str, str, str], ...] = (
    ("workloads", "repro.workloads.ycsb", "generate_operations"),
    ("hashes", "repro.hashes.registry", "HashSpec.__call__"),
    ("kvs", "repro.kvs.base", "Index.lookup"),
    ("kvs", "repro.kvs.base", "Index.insert"),
    ("mem", "repro.mem.hierarchy", "MemorySystem.access"),
    ("mem", "repro.mem.hierarchy", "MemorySystem.physical_access"),
    ("mem", "repro.mem.hierarchy", "MemorySystem._translate"),
    ("mem", "repro.mem.page_table", "PageTableWalker.walk"),
    ("core", "repro.core.stu", "STU.load_va"),
    ("core", "repro.core.stu", "STU.insert_stlt"),
    ("chaos", "repro.chaos.injector", "ChaosInjector.after_op"),
    ("chaos", "repro.chaos.oracle", "StaleTranslationOracle.check_get"),
    ("svc", "repro.svc.service", "simulate_service"),
    ("cluster", "repro.cluster.service", "simulate_cluster"),
    ("cluster", "repro.cluster.network", "ClusterNetwork.one_way"),
    ("hetero", "repro.hetero.accel_node", "AccelNodeModel.install"),
    ("sim", "repro.sim.engine", "Engine.__init__"),
    ("sim", "repro.sim.multicore", "MultiCoreEngine.run"),
)


def _subclasses(cls) -> List[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


class Tracer:
    """Wraps the seams, aggregates calls, and folds them into layers."""

    def __init__(self) -> None:
        self._root = [ROOT_LAYER, 0]
        #: frames of the calls in progress: [layer, child ns]
        self._stack: List[list] = [self._root]
        #: (layer, function, parent layer) -> [calls, inclusive ns, self ns]
        self.calls: Dict[Tuple[str, str, str], List[int]] = {}
        #: top-level spans: (function, start ns, end ns, parent)
        self.spans: List[Tuple[str, int, int, str]] = []
        self.hash_memo_hits = 0
        self.ops_generated = 0
        self.wall_ns = 0
        self._patches: List[Tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _timed(self, layer: str, name: str, fn: Callable) -> Callable:
        stack = self._stack
        root = self._root
        calls = self.calls
        spans = self.spans
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [layer, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[1] += duration
                key = (layer, name, parent[0])
                row = calls.get(key)
                if row is None:
                    row = calls[key] = [0, 0, 0]
                row[0] += 1
                row[1] += duration
                row[2] += duration - frame[1]
                if parent is root:
                    spans.append((name, start, end, ROOT_LAYER))

        return functools.update_wrapper(traced, fn)

    def _observed(self, name: str, fn: Callable) -> Callable:
        """Seam-specific counters, taken before the timing wrapper."""
        tracer = self
        if name == "HashSpec.__call__":
            def hash_call(spec, data):
                if data in spec._cache:
                    tracer.hash_memo_hits += 1
                return fn(spec, data)
            return hash_call
        if name == "generate_operations":
            def materialised(*args, **kwargs):
                # a generator's work happens while it is consumed; the
                # engine consumes it at once (list()), so draining it
                # here moves no work in time and keeps it in the span
                ops = list(fn(*args, **kwargs))
                tracer.ops_generated += len(ops)
                return iter(ops)
            return materialised
        return fn

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every seam (call before any engine is built)."""
        importlib.import_module("repro.kvs")  # loads every Index subclass
        for layer, module_name, qualname in SEAMS:
            module = importlib.import_module(module_name)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                for cls in _subclasses(getattr(module, cls_name)):
                    if attr in cls.__dict__:
                        original = cls.__dict__[attr]
                        self._patch(cls, attr, self._timed(
                            layer, qualname, self._observed(qualname,
                                                            original)))
                continue
            original = getattr(module, qualname)
            wrapped = self._timed(layer, qualname,
                                  self._observed(qualname, original))
            # a function imported by name elsewhere is a separate
            # binding: rebind it in every loaded repro module
            for name, mod in list(sys.modules.items()):
                if (name == "repro" or name.startswith("repro.")) \
                        and mod.__dict__.get(qualname) is original:
                    self._patch(mod, qualname, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def run(self, fn: Callable, *args, **kwargs):
        """Call ``fn`` as the traced root and record its wall time."""
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self.wall_ns = time.perf_counter_ns() - start

    # -- folding ----------------------------------------------------------

    def call_count(self, *qualnames: str) -> int:
        return sum(row[0] for (_layer, name, _parent), row
                   in self.calls.items() if name in qualnames)

    def entries(self, layer: str) -> int:
        """Calls into ``layer`` from any other layer."""
        return sum(row[0] for (callee, _name, parent), row
                   in self.calls.items()
                   if callee == layer and parent != layer)

    def layer_self_s(self) -> Dict[str, float]:
        """Self seconds per layer, plus ``unattributed`` so the table
        sums to the traced wall."""
        self_ns = {layer: 0 for layer in LAYERS}
        for (layer, _name, _parent), row in self.calls.items():
            self_ns[layer] += row[2]
        out = {layer: ns / 1e9 for layer, ns in self_ns.items()}
        out["unattributed"] = (self.wall_ns - self._root[1]) / 1e9
        return out

    def to_dict(self) -> dict:
        """The trace file: spans, the call aggregate and the layer table."""
        return {
            "wall_s": self.wall_ns / 1e9,
            "layers": self.layer_self_s(),
            "spans": [{"name": name, "start_ns": start, "end_ns": end,
                       "parent": parent}
                      for name, start, end, parent in self.spans],
            "calls": [{"layer": layer, "function": name, "parent": parent,
                       "calls": row[0], "incl_s": row[1] / 1e9,
                       "self_s": row[2] / 1e9}
                      for (layer, name, parent), row
                      in sorted(self.calls.items(),
                                key=lambda kv: -kv[1][2])],
            "hash_memo_hits": self.hash_memo_hits,
            "ops_generated": self.ops_generated,
        }
