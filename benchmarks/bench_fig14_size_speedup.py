"""Fig. 14: speedup sensitivity to STLT space overhead.

Paper reference (zipf, 64 B): speedups climb quickly from 16 MB to
256 MB, then flatten; STLT achieves a larger speedup than SLB for the
same number of table entries at every size, and plateaus higher.
"""

from benchmarks.common import print_figure, run_once
from benchmarks.size_sweep import ROW_RATIOS, ratio_labels, sweep
from repro.sim.results import speedup


def test_fig14_speedup_vs_size(benchmark):
    all_runs = run_once(benchmark, sweep)

    programs = sorted({k[0] for k in all_runs})
    labels = ratio_labels()
    rows = []
    for program in programs:
        for frontend in ("slb", "stlt"):
            series = []
            for ratio in ROW_RATIOS:
                base = all_runs[(program, ratio, "baseline")]
                series.append(
                    speedup(base, all_runs[(program, ratio, frontend)])
                )
            rows.append([program, frontend] +
                        [f"{s:.2f}" for s in series])
    print_figure(
        "Fig. 14 — speedup vs table size (paper-equivalent sizes)",
        ["program", "frontend"] + labels,
        rows,
        notes=["paper: fast rise to ~256MB then flattening;"
               " STLT above SLB at matched entry counts"],
    )

    for program in programs:
        small = speedup(all_runs[(program, ROW_RATIOS[0], "baseline")],
                        all_runs[(program, ROW_RATIOS[0], "stlt")])
        big = speedup(all_runs[(program, ROW_RATIOS[-1], "baseline")],
                      all_runs[(program, ROW_RATIOS[-1], "stlt")])
        assert big > small, f"{program}: speedup must grow with size"
        # plateau comparison at the largest size: STLT above SLB
        slb_big = speedup(all_runs[(program, ROW_RATIOS[-1], "baseline")],
                          all_runs[(program, ROW_RATIOS[-1], "slb")])
        assert big > slb_big, f"{program}: STLT must plateau above SLB"
