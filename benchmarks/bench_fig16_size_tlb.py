"""Fig. 16: reduction in TLB misses by STLT versus table size.

Paper reference: TLB-miss reduction is positively correlated with the
speedups of Fig. 14 — it grows with table size and tracks the speedup
trend per benchmark.  Redis is the stated exception on magnitude (its
non-indexing work dilutes the speedup even when the TLB reduction is
large).
"""

from benchmarks.common import print_figure, run_once
from benchmarks.size_sweep import ROW_RATIOS, ratio_labels, sweep
from repro.sim.results import reduction


def test_fig16_tlb_reduction_vs_size(benchmark):
    all_runs = run_once(benchmark, sweep)

    programs = sorted({k[0] for k in all_runs})
    rows = []
    reductions = {}
    for program in programs:
        series = []
        for ratio in ROW_RATIOS:
            base = all_runs[(program, ratio, "baseline")]
            stlt = all_runs[(program, ratio, "stlt")]
            series.append(reduction(base.tlb_misses, stlt.tlb_misses))
        reductions[program] = series
        rows.append([program] + [f"{r:+.1%}" for r in series])
    print_figure(
        "Fig. 16 — reduction in TLB misses by STLT vs size",
        ["program"] + ratio_labels(),
        rows,
        notes=["paper: reduction grows with size and correlates with the"
               " Fig. 14 speedups"],
    )

    for program, series in reductions.items():
        assert series[-1] > series[0], (
            f"{program}: TLB reduction must grow with table size"
        )
        assert series[-1] > 0.3, (
            f"{program}: large tables must cut TLB misses substantially"
        )
