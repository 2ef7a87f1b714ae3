"""Fig. 12: TLB-miss and cache-miss reduction on Redis (128 B values).

Paper reference: STLT reduces TLB misses by 27-31% and data-cache misses
by 5-12%; SLB manages -2.6% to 10% (TLB) and -3% to 3.7% (cache).  The
shape: STLT's reductions are positive everywhere and clearly larger than
SLB's on every distribution.
"""

from benchmarks.common import bench_config, print_figure, run_keyed, run_once
from repro.sim.results import reduction

DISTRIBUTIONS = ("zipf", "latest", "uniform")
FRONTENDS = ("baseline", "slb", "stlt")


def check_preconditions(runs: dict) -> None:
    """Every baseline must walk the page table and miss the TLBs;
    otherwise the reductions divide by a miss path that never fired."""
    for dist, per_fe in runs.items():
        base = per_fe["baseline"]
        if base.page_walks <= 0 or base.tlb_misses <= 0:
            raise AssertionError(
                f"precondition failed: the {dist} baseline made "
                f"{base.page_walks} page walks and "
                f"{base.tlb_misses} TLB misses, so there is no miss "
                f"to reduce; run more keys than the TLBs reach")


def test_fig12_tlb_and_cache_miss_reduction(benchmark):
    def run_all():
        runs = run_keyed({
            (dist, fe): bench_config(program="redis", frontend=fe,
                                     distribution=dist, value_size=128)
            for dist in DISTRIBUTIONS for fe in FRONTENDS})
        return {dist: {fe: runs[(dist, fe)] for fe in FRONTENDS}
                for dist in DISTRIBUTIONS}

    runs = run_once(benchmark, run_all)
    check_preconditions(runs)
    rows = []
    for dist, per_fe in runs.items():
        base = per_fe["baseline"]
        rows.append([
            dist,
            f"{reduction(base.tlb_misses, per_fe['slb'].tlb_misses):+.1%}",
            f"{reduction(base.tlb_misses, per_fe['stlt'].tlb_misses):+.1%}",
            f"{reduction(base.cache_misses, per_fe['slb'].cache_misses):+.1%}",
            f"{reduction(base.cache_misses, per_fe['stlt'].cache_misses):+.1%}",
        ])
    print_figure(
        "Fig. 12 — TLB / cache miss reduction on Redis (128 B)",
        ["distribution", "SLB TLB", "STLT TLB", "SLB cache", "STLT cache"],
        rows,
        notes=["paper: STLT 27-31% TLB and 5-12% cache reduction, far"
               " above SLB"],
    )

    for dist, per_fe in runs.items():
        base = per_fe["baseline"]
        stlt_tlb = reduction(base.tlb_misses, per_fe["stlt"].tlb_misses)
        slb_tlb = reduction(base.tlb_misses, per_fe["slb"].tlb_misses)
        assert stlt_tlb > 0.10, f"STLT must cut TLB misses on {dist}"
        assert stlt_tlb > slb_tlb, f"STLT must beat SLB on {dist} TLB"
        stlt_cache = reduction(base.cache_misses,
                               per_fe["stlt"].cache_misses)
        assert stlt_cache > 0.0, f"STLT must cut cache misses on {dist}"
