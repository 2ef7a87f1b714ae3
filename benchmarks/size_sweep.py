"""Shared size sweep backing Figs. 14, 15, and 16.

The paper sweeps the STLT from 16 MB to 512 MB over a 10 M-key store,
i.e. from ~0.1 to ~3.2 rows per key.  We sweep the same rows-per-key
ratios; the printed tables label each point with both the simulated table
size and the paper-equivalent size (ratio x 10 M keys x 16 B).

The campaign itself (program x ratio x {baseline, slb, stlt}) is defined
once in :func:`repro.exp.spec.size_sweep_points` and submitted through
the :mod:`repro.exp` runner: all runs fan out over ``REPRO_BENCH_JOBS``
worker processes, land in the shared durable store, and come back in
deterministic order — the three figures share one simulated sweep.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.exp.spec import SIZE_SWEEP_RATIOS, size_sweep_points
from repro.exp.spec import rows_for_ratio as _rows_for_ratio
from repro.sim.results import RunResult

from benchmarks.common import BENCH_KEYS, BENCH_OPS, run_many

#: rows-per-key ratios spanning the paper's 16 MB..512 MB range
ROW_RATIOS = SIZE_SWEEP_RATIOS

PROGRAMS = ("redis", "unordered_map", "dense_hash_map", "ordered_map",
            "btree")


def rows_for_ratio(ratio: float, num_keys: int = BENCH_KEYS) -> int:
    return _rows_for_ratio(ratio, num_keys)


def paper_equivalent_mb(ratio: float) -> int:
    """STLT bytes the same ratio implies at the paper's 10 M keys."""
    return int(ratio * 10_000_000 * 16 / (1 << 20))


def check_preconditions(
        runs: Dict[Tuple[str, float, str], RunResult]) -> None:
    """Every baseline must walk the page table and miss the TLBs, and
    every STLT point must hit its table; otherwise the speedups, miss
    rates and TLB reductions of Figs. 14-16 credit a translation the
    table never skipped."""
    for (program, ratio, frontend), run in runs.items():
        if frontend == "baseline":
            if run.page_walks <= 0 or run.tlb_misses <= 0:
                raise AssertionError(
                    f"precondition failed: the {program} baseline made "
                    f"{run.page_walks} page walks and "
                    f"{run.tlb_misses} TLB misses, so there is no "
                    f"miss to reduce; run more keys than the TLBs reach")
        elif frontend == "stlt":
            miss_rate = run.fast_miss_rate
            if miss_rate is None or miss_rate >= 1.0:
                raise AssertionError(
                    f"precondition failed: the {program} STLT at "
                    f"{ratio} rows/key hit its table on no GET (miss "
                    f"rate {miss_rate}), so it shortened no lookup")


def sweep(programs=PROGRAMS) -> Dict[Tuple[str, float, str], RunResult]:
    """Run {program} x {ratio} x {baseline, slb, stlt} via ``repro.exp``.

    One shared baseline per program is simulated once and fanned back
    out to every ratio, exactly as the serial harness did; the mapping
    from sweep points to ``(program, ratio, frontend)`` keys relies on
    each point's ``params``.  The result passes
    :func:`check_preconditions` before any figure reads it.
    """
    points = size_sweep_points(BENCH_KEYS, BENCH_OPS, programs=programs,
                               ratios=ROW_RATIOS)
    results = run_many([p.config for p in points])

    out: Dict[Tuple[str, float, str], RunResult] = {}
    for point, result in zip(points, results):
        program = point.params["program"]
        frontend = point.params["frontend"]
        if frontend == "baseline":
            for ratio in ROW_RATIOS:
                out[(program, ratio, "baseline")] = result
        else:
            out[(program, point.params["ratio"], frontend)] = result
    check_preconditions(out)
    return out


def ratio_labels() -> List[str]:
    return [f"{paper_equivalent_mb(r)}MB" for r in ROW_RATIOS]
