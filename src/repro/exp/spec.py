"""Declarative sweep specifications.

A :class:`SweepSpec` describes a *campaign* of runs: a base
:class:`~repro.sim.config.RunConfig` plus axes that vary.  Two kinds of
axes are supported, mirroring the two shapes every figure in the paper
uses:

* ``grid``  — a Cartesian product (Fig. 14's program x frontend x size);
* ``zipped`` — axes that advance together (paired parameter lists).

``expand()`` turns the spec into an ordered list of :class:`SweepPoint`
(label + ``RunConfig`` + the varying parameters), which is what the
:class:`~repro.exp.runner.SweepRunner` consumes.  Expansion order is
deterministic: grid axes iterate in declaration order with the last axis
fastest, like nested for-loops, so serial and parallel sweeps see the
same point sequence.

Specs round-trip through plain dicts (``to_dict``/``from_dict``) so they
can live in JSON files: ``repro sweep --spec campaign.json``.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import ConfigError
from ..sim.config import RunConfig

__all__ = [
    "SweepPoint",
    "SweepSpec",
    "builtin_sweeps",
    "get_sweep",
    "points_from_configs",
    "rows_for_ratio",
    "size_sweep_points",
    "sweep_descriptions",
    "CHURN_SWEEP_RATES",
    "CLUSTER_SWEEP_NODES",
    "CORE_SWEEP_COUNTS",
    "FAILOVER_SWEEP_PLAN",
    "FAILOVER_SWEEP_SEEDS",
    "HETERO_SWEEP_FLEETS",
    "HETERO_SWEEP_SEEDS",
    "LOAD_SWEEP_LOADS",
    "SIZE_SWEEP_RATIOS",
]


@dataclass(frozen=True)
class SweepPoint:
    """One run of a sweep: a label, its config, and the varying params."""

    label: str
    config: RunConfig
    params: Mapping[str, object] = field(default_factory=dict)

    @property
    def key(self) -> str:
        return self.config.content_hash


@dataclass
class SweepSpec:
    """A parameter sweep over :class:`RunConfig` fields.

    ``base`` holds RunConfig keyword arguments shared by every point;
    ``grid`` maps field names to value lists expanded as a Cartesian
    product; ``zipped`` maps field names to equal-length value lists that
    advance in lockstep.  A field may appear in at most one of the two.
    """

    name: str
    base: Dict[str, object] = field(default_factory=dict)
    grid: Dict[str, Sequence[object]] = field(default_factory=dict)
    zipped: Dict[str, Sequence[object]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        overlap = set(self.grid) & set(self.zipped)
        if overlap:
            raise ConfigError(
                f"sweep {self.name!r}: fields in both grid and zipped: "
                f"{sorted(overlap)!r}")
        lengths = {len(v) for v in self.zipped.values()}
        if len(lengths) > 1:
            raise ConfigError(
                f"sweep {self.name!r}: zipped axes must have equal "
                f"lengths, got {sorted(lengths)!r}")
        for axis, values in {**self.grid, **self.zipped}.items():
            if not values:
                raise ConfigError(
                    f"sweep {self.name!r}: axis {axis!r} is empty")

    # -- expansion --------------------------------------------------------

    def _zip_rows(self) -> List[Dict[str, object]]:
        if not self.zipped:
            return [{}]
        names = list(self.zipped)
        return [dict(zip(names, row))
                for row in zip(*(self.zipped[n] for n in names))]

    def expand(self) -> List[SweepPoint]:
        """All points, in deterministic declaration order."""
        grid_names = list(self.grid)
        grid_rows = [
            dict(zip(grid_names, combo))
            for combo in itertools.product(
                *(self.grid[n] for n in grid_names))
        ] if grid_names else [{}]

        points: List[SweepPoint] = []
        for grid_row in grid_rows:
            for zip_row in self._zip_rows():
                params = {**grid_row, **zip_row}
                try:
                    config = RunConfig(**{**self.base, **params})
                except TypeError as exc:
                    raise ConfigError(
                        f"sweep {self.name!r}: bad RunConfig field: {exc}"
                    ) from exc
                points.append(SweepPoint(
                    label=self._label_for(params),
                    config=config,
                    params=params,
                ))
        return points

    def _label_for(self, params: Mapping[str, object]) -> str:
        if not params:
            return self.name
        parts = ",".join(f"{k}={v}" for k, v in params.items())
        return f"{self.name}[{parts}]"

    # -- serialisation ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "base": dict(self.base),
            "grid": {k: list(v) for k, v in self.grid.items()},
            "zipped": {k: list(v) for k, v in self.zipped.items()},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SweepSpec":
        known = {"name", "base", "grid", "zipped"}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(
                f"unknown sweep-spec key(s): {sorted(unknown)!r}")
        if "name" not in data:
            raise ConfigError("sweep spec needs a 'name'")
        return cls(
            name=str(data["name"]),
            base=dict(data.get("base", {})),
            grid={k: list(v) for k, v in dict(data.get("grid", {})).items()},
            zipped={k: list(v)
                    for k, v in dict(data.get("zipped", {})).items()},
        )

    @classmethod
    def from_file(cls, path) -> "SweepSpec":
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read sweep spec {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"sweep spec {path} must be a JSON object")
        return cls.from_dict(data)


def points_from_configs(
    configs: Sequence[RunConfig],
    labels: Optional[Sequence[str]] = None,
) -> List[SweepPoint]:
    """Wrap explicit configs as sweep points (for hand-built campaigns).

    Duplicate configurations are allowed; the runner deduplicates by
    content hash so shared runs (e.g. one baseline reused across a size
    sweep) execute once.
    """
    if labels is not None and len(labels) != len(configs):
        raise ConfigError("labels and configs must have the same length")
    return [
        SweepPoint(
            label=labels[i] if labels is not None else config.label,
            config=config,
        )
        for i, config in enumerate(configs)
    ]


# ----------------------------------------------------------------------
# the paper's size sweep (Figs. 14/15/16), shared with the benchmarks
# ----------------------------------------------------------------------

#: rows-per-key ratios spanning the paper's 16 MB..512 MB STLT range
SIZE_SWEEP_RATIOS: Tuple[float, ...] = (0.125, 0.25, 0.5, 1.0, 2.0, 4.0)


def rows_for_ratio(ratio: float, num_keys: int) -> int:
    """STLT rows for a rows-per-key ratio, rounded up to a power of two."""
    target = int(num_keys * ratio)
    rows = 1
    while rows < target:
        rows <<= 1
    return max(rows, 1024)


def size_sweep_points(
    num_keys: int,
    measure_ops: int,
    programs: Sequence[str] = ("redis", "unordered_map", "dense_hash_map",
                               "ordered_map", "btree"),
    ratios: Sequence[float] = SIZE_SWEEP_RATIOS,
    **base,
) -> List[SweepPoint]:
    """The Fig. 14/15/16 campaign: {program} x {ratio} x {slb, stlt}
    plus one shared baseline per program.

    The baseline is emitted once per program (it has no fast-path table,
    so its result is size-independent); consumers re-associate it with
    every ratio via ``params``.
    """
    points: List[SweepPoint] = []
    for program in programs:
        base_config = RunConfig(program=program, frontend="baseline",
                                num_keys=num_keys,
                                measure_ops=measure_ops, **base)
        points.append(SweepPoint(
            label=f"size[{program},baseline]",
            config=base_config,
            params={"program": program, "frontend": "baseline"},
        ))
        for ratio in ratios:
            rows = rows_for_ratio(ratio, num_keys)
            for frontend in ("slb", "stlt"):
                config = RunConfig(program=program, frontend=frontend,
                                   num_keys=num_keys,
                                   measure_ops=measure_ops,
                                   stlt_rows=rows, **base)
                points.append(SweepPoint(
                    label=f"size[{program},{frontend},ratio={ratio}]",
                    config=config,
                    params={"program": program, "frontend": frontend,
                            "ratio": ratio, "stlt_rows": rows},
                ))
    return points


# ----------------------------------------------------------------------
# named sweeps for the CLI / CI
# ----------------------------------------------------------------------

def _smoke_points() -> List[SweepPoint]:
    spec = SweepSpec(
        name="smoke",
        base=dict(num_keys=200, measure_ops=60, warmup_ops=120),
        grid={
            "program": ["unordered_map", "btree"],
            "frontend": ["baseline", "slb", "stlt"],
        },
    )
    return spec.expand()


def _smoke_mc_points() -> List[SweepPoint]:
    """Two-core companion of ``smoke``: exercises the interleaver, the
    shared-STLT broadcast, and aggregate serialisation in seconds."""
    spec = SweepSpec(
        name="smoke_mc",
        base=dict(num_keys=200, measure_ops=60, warmup_ops=120,
                  num_cores=2),
        grid={
            "program": ["unordered_map"],
            "frontend": ["baseline", "stlt"],
        },
    )
    return spec.expand()


def _size_points() -> List[SweepPoint]:
    import os
    num_keys = int(os.environ.get("REPRO_BENCH_KEYS", "50000"))
    measure_ops = int(os.environ.get("REPRO_BENCH_OPS", "6000"))
    return size_sweep_points(num_keys, measure_ops)


#: core counts of the scalability sweep (the paper's machine has 8 OoO
#: cores, Table III)
CORE_SWEEP_COUNTS: Tuple[int, ...] = (1, 2, 4, 8)


def _cores_points() -> List[SweepPoint]:
    """Core-count scalability: baseline vs shared-STLT throughput.

    Each core streams its own workload, so total measured work scales
    with the core count while the store, STLT, L3 and the DRAM channel
    stay shared — aggregate throughput (ops/cycle) shows how far the
    shared levels carry, and the per-core payloads hold each core's
    shared-STLT hit rate.
    """
    import os
    num_keys = int(os.environ.get("REPRO_BENCH_KEYS", "20000"))
    measure_ops = int(os.environ.get("REPRO_BENCH_OPS", "2000"))
    spec = SweepSpec(
        name="cores",
        base=dict(num_keys=num_keys, measure_ops=measure_ops),
        grid={
            "frontend": ["baseline", "stlt"],
            "num_cores": list(CORE_SWEEP_COUNTS),
        },
    )
    return spec.expand()


#: offered loads of the throughput-latency sweep, as fractions of each
#: configuration's own closed-loop capacity; the top points sit close
#: enough to saturation that p99 visibly blows up
LOAD_SWEEP_LOADS: Tuple[float, ...] = (0.3, 0.5, 0.7, 0.85, 0.95)


def _load_points() -> List[SweepPoint]:
    """Throughput-latency curves: {baseline, slb, stlt} x offered load.

    Every point runs the same closed-loop measurement (per front-end)
    plus an open-loop Poisson service simulation at the given load over
    two cores.  The curves show the paper's per-op savings compounding:
    STLT's shorter service times keep p99 flat to much higher absolute
    request rates than the baseline's, so at any fixed p99 SLO the
    accelerated service sustains strictly more load
    (:func:`repro.exp.reporting.latency_table` prints the curves;
    ``benchmarks/bench_ext_latency.py`` pins the rate under an SLO).
    """
    import os
    num_keys = int(os.environ.get("REPRO_BENCH_KEYS", "20000"))
    measure_ops = int(os.environ.get("REPRO_BENCH_OPS", "2000"))
    spec = SweepSpec(
        name="load",
        base=dict(num_keys=num_keys, measure_ops=measure_ops,
                  num_cores=2, arrival_process="poisson"),
        grid={
            "frontend": ["baseline", "slb", "stlt"],
            "offered_load": list(LOAD_SWEEP_LOADS),
        },
    )
    return spec.expand()


#: churn intensities of the robustness sweep, per-(op, core) event
#: probabilities.  With a mean burst of ~4.5 pages per event, 0.005
#: already means one OS-level disturbance per ~100 ops per core — far
#: beyond steady-state churn on a real box — and the top end is an
#: adversarial compaction storm, deliberately past the point where the
#: acceleration should die: the sweep shows *where* it dies, not that
#: it never does
CHURN_SWEEP_RATES: Tuple[float, ...] = (
    0.0, 0.002, 0.005, 0.01, 0.02, 0.05)


def _churn_points() -> List[SweepPoint]:
    """Robustness under OS churn: {baseline, stlt} x churn intensity.

    Every point runs with the stale-translation oracle armed (it always
    is), so the sweep both *quantifies* graceful degradation — how much
    of the quiet-run STLT speedup survives each churn intensity
    (:func:`repro.exp.reporting.churn_table`) — and *proves* coherence:
    any stale fast-path read raises ``CoherenceError`` and fails the
    run rather than skewing its numbers.  Two cores, so migrations and
    scrubs hit a genuinely shared STLT/IPB.
    """
    import os
    num_keys = int(os.environ.get("REPRO_BENCH_KEYS", "20000"))
    measure_ops = int(os.environ.get("REPRO_BENCH_OPS", "1500"))
    spec = SweepSpec(
        name="churn",
        base=dict(num_keys=num_keys, measure_ops=measure_ops,
                  num_cores=2),
        grid={
            "frontend": ["baseline", "stlt"],
            "churn_rate": list(CHURN_SWEEP_RATES),
        },
    )
    return spec.expand()


#: node counts of the cluster scaling sweep — the pin is near-linear
#: aggregate throughput (>= 6x at 8 nodes under a uniform keyspace)
CLUSTER_SWEEP_NODES: Tuple[int, ...] = (1, 2, 4, 8)


def _scale_points() -> List[SweepPoint]:
    """Cluster throughput scaling: node count x {route cache on, off}.

    Every point runs the same per-node engines (stlt front-end, uniform
    keys so no shard is pathologically hot) behind the cluster overlay
    at a deliberately saturating offered load — achieved throughput then
    tracks aggregate capacity, so the nodes axis reads as a scaling
    curve (:func:`repro.exp.reporting.cluster_table`).  The network is
    *not* quiet (a real client/node RTT), so the route-cache axis shows
    the address-centric story at cluster scale: cached slot routes skip
    the MOVED bounce exactly like cached translations skip the page
    walk.  The nodes=1 point runs through the same overlay (one shard,
    same RTT) and anchors the scaling ratio.
    """
    import os
    num_keys = int(os.environ.get("REPRO_BENCH_KEYS", "8000"))
    measure_ops = int(os.environ.get("REPRO_BENCH_OPS", "1500"))
    spec = SweepSpec(
        name="scale",
        base=dict(num_keys=num_keys, measure_ops=measure_ops,
                  frontend="stlt", distribution="uniform",
                  num_cores=2, offered_load=2.0,
                  net_rtt_cycles=300.0),
        grid={
            "route_cache": [True, False],
            "nodes": list(CLUSTER_SWEEP_NODES),
        },
    )
    return spec.expand()


#: the crash-and-recover script of the ``failover`` sweep: one primary
#: dies at 35% of the run, restarts (empty, stealing a share back) at
#: 75% — long enough on both sides that availability and tail inflation
#: are measured in steady state, not inside the detection transient
FAILOVER_SWEEP_PLAN: Tuple[str, ...] = (
    "crash:node=1,at=0.35", "restart:node=1,at=0.75")

#: seeds of the failover sweep (determinism and the acked-write oracle
#: are re-proven per seed, not for one lucky stream)
FAILOVER_SWEEP_SEEDS: Tuple[int, ...] = (1, 2, 3)


def _failover_points() -> List[SweepPoint]:
    """Failover A/B: a scripted crash/restart under lazy vs eager repair.

    Three points per seed: the quiet baseline (no fault plan — the
    availability reference), the crash script under lazy repair (stale
    routes die by MOVED on next touch, the address-centric default),
    and the same script under eager repair (ownership changes broadcast
    into every client cache).  Replicas=1, so the acked-write oracle
    must hold exactly: any acknowledged write failing to survive the
    promotion raises ``FailoverError`` and fails the sweep.  The
    reporting layer folds the points into availability, p99 inflation,
    redirects-per-promotion and the lazy-vs-eager delta
    (:func:`repro.exp.reporting.failover_table`).
    """
    import os
    num_keys = int(os.environ.get("REPRO_BENCH_KEYS", "8000"))
    measure_ops = int(os.environ.get("REPRO_BENCH_OPS", "1500"))
    spec = SweepSpec(
        name="failover",
        base=dict(num_keys=num_keys, measure_ops=measure_ops,
                  frontend="stlt", distribution="uniform",
                  num_cores=2, offered_load=0.6,
                  nodes=3, replicas=1, net_rtt_cycles=300.0),
        grid={"seed": list(FAILOVER_SWEEP_SEEDS)},
        zipped={
            "node_fault_plan": [(), FAILOVER_SWEEP_PLAN,
                                FAILOVER_SWEEP_PLAN],
            "repair_policy": ["lazy", "lazy", "eager"],
        },
    )
    return spec.expand()


def _fastpath_points() -> List[SweepPoint]:
    """Batched-mode companion of ``smoke``: the same tiny configs run
    through the fused execution path, single- and two-core, so CI
    exercises the ExecutionMode seam end to end (sweep plumbing,
    aggregate serialisation, the shared-STLT interleave) in seconds.
    The differential suite separately pins batched == reference;
    this sweep proves the mode survives the full campaign machinery."""
    spec = SweepSpec(
        name="fastpath",
        base=dict(num_keys=200, measure_ops=60, warmup_ops=120,
                  exec_mode="batched"),
        grid={
            "program": ["unordered_map"],
            "frontend": ["stlt"],
            "num_cores": [1, 2],
        },
    )
    return spec.expand()


#: the five design points of the translation-accel head-to-head
#: ("Fig. 11 for five designs"): the baseline, the paper's STLT and the
#: three rival translation designs, each a ``frontend`` value, in the
#: display order of :func:`repro.exp.reporting.accel_table`
ACCEL_SWEEP_DESIGNS: Tuple[str, ...] = (
    "baseline", "stlt", "victima", "pcax", "revelator")


def _accel_points() -> List[SweepPoint]:
    """Translation-accel head-to-head: five designs, one workload.

    Every design point runs the *identical* seeded workload (same keys,
    same op stream, same memory system) through a different
    ``frontend`` — the comparison no single paper contains, under one
    simulator.  The footprint deliberately outgrows the L2 TLB's reach
    so the translation path is actually exercised: the STLT shows its
    key-level fast path, victima/pcax their walk elision, revelator its
    hidden walk latency.  The stale-translation oracle is armed in
    every run, so a backend that ever served a stale translation would
    fail the sweep, not skew it
    (:func:`repro.exp.reporting.accel_table`).
    """
    import os
    num_keys = int(os.environ.get("REPRO_BENCH_KEYS", "20000"))
    measure_ops = int(os.environ.get("REPRO_BENCH_OPS", "2000"))
    spec = SweepSpec(
        name="accel",
        base=dict(num_keys=num_keys, measure_ops=measure_ops,
                  program="redis"),
        grid={
            "frontend": list(ACCEL_SWEEP_DESIGNS),
        },
    )
    return spec.expand()


#: fleet mixes of the ``hetero`` sweep: the homogeneous reference and
#: the mixed fleet at the *same node count*, so the comparison is
#: accelerator-vs-full substitution, never extra hardware
HETERO_SWEEP_FLEETS: Tuple[str, ...] = ("3full", "2full+1accel")

#: seeds of the hetero sweep (dispatch determinism and the capability
#: oracle are re-proven per seed)
HETERO_SWEEP_SEEDS: Tuple[int, ...] = (1, 2, 3)


def _hetero_points() -> List[SweepPoint]:
    """Heterogeneous fleets: homogeneous vs mixed at equal node count.

    Two points per seed: an all-full 3-node fleet (which takes the
    exact pre-hetero code paths — ``node_types="3full"`` is pinned
    bit-identical to no spec at all) and a 2full+1accel fleet where
    the accelerator owns a third of the keyspace behind capability
    -aware dispatch.  Small keys and a GET-heavy zipf mix keep most
    traffic accelerator-eligible; the saturating offered load makes
    achieved throughput track fleet capacity, so the reporting layer
    reads the mixed/homogeneous ratio directly as speedup — raw and
    cost-normalized (an accel node costs 0.25 full-node units)
    (:func:`repro.exp.reporting.hetero_table`).  The capability oracle
    is armed in every run: any write served by an
    accelerator raises ``HeteroError`` and fails the sweep.
    """
    import os
    num_keys = int(os.environ.get("REPRO_BENCH_KEYS", "8000"))
    measure_ops = int(os.environ.get("REPRO_BENCH_OPS", "1500"))
    spec = SweepSpec(
        name="hetero",
        base=dict(num_keys=num_keys, measure_ops=measure_ops,
                  frontend="stlt", num_cores=2, offered_load=2.0,
                  nodes=3, replicas=1, net_rtt_cycles=300.0),
        grid={"seed": list(HETERO_SWEEP_SEEDS)},
        zipped={"node_types": list(HETERO_SWEEP_FLEETS)},
    )
    return spec.expand()


#: named campaigns runnable as ``repro sweep <name>``; each entry is
#: (point factory, one-line description for ``repro sweep --list``)
_BUILTIN: Dict[str, Tuple[Callable[[], List[SweepPoint]], str]] = {
    "smoke": (
        _smoke_points,
        "tiny CI campaign: 2 programs x 3 front-ends in seconds"),
    "smoke_mc": (
        _smoke_mc_points,
        "two-core smoke: interleaver, shared STLT, aggregate results"),
    "size": (
        _size_points,
        "Figs. 14-16: program x STLT/SLB size ratio, shared baselines"),
    "cores": (
        _cores_points,
        "core-count scalability: baseline vs shared-STLT throughput"),
    "load": (
        _load_points,
        "open-loop throughput-latency curves per front-end (p99 vs load)"),
    "churn": (
        _churn_points,
        "robustness under OS churn with the stale-translation oracle"),
    "scale": (
        _scale_points,
        "cluster node scaling x route cache on/off over a real RTT"),
    "failover": (
        _failover_points,
        "cluster crash/restart: lazy vs eager route repair, acked-write "
        "oracle"),
    "fastpath": (
        _fastpath_points,
        "batched-mode smoke: the fused execution path, 1 and 2 cores"),
    "accel": (
        _accel_points,
        "translation-accel head-to-head: baseline vs stlt/victima/"
        "pcax/revelator"),
    "hetero": (
        _hetero_points,
        "heterogeneous fleets: mixed full+accel vs homogeneous at "
        "equal node count, capability oracle armed"),
}


def builtin_sweeps() -> List[str]:
    return sorted(_BUILTIN)


def sweep_descriptions() -> Dict[str, str]:
    """Name -> one-line description, for ``repro sweep --list``."""
    return {name: _BUILTIN[name][1] for name in builtin_sweeps()}


def get_sweep(name: str) -> List[SweepPoint]:
    """Expand a named sweep; raises ``ConfigError`` for unknown names."""
    try:
        factory, _ = _BUILTIN[name]
    except KeyError:
        raise ConfigError(
            f"unknown sweep {name!r}; available: {builtin_sweeps()!r}"
        ) from None
    return factory()
