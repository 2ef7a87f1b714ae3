"""Fig. 15: miss rates of the SLB cache table and STLT versus size.

Paper reference: as space grows the two tables' miss rates fall nearly
identically and approach zero by 512 MB — the conclusion being that
STLT's higher speedups (Fig. 14) come from faster address translation,
not from a lower miss rate.
"""

from benchmarks.common import print_figure, run_once
from benchmarks.size_sweep import ROW_RATIOS, ratio_labels, sweep


def test_fig15_missrate_vs_size(benchmark):
    all_runs = run_once(benchmark, sweep)

    programs = sorted({k[0] for k in all_runs})
    rows = []
    for program in programs:
        for frontend in ("slb", "stlt"):
            series = [
                all_runs[(program, ratio, frontend)].fast_miss_rate
                for ratio in ROW_RATIOS
            ]
            rows.append([program, frontend] +
                        [f"{m:.2%}" for m in series])
    print_figure(
        "Fig. 15 — fast-table miss rate vs size",
        ["program", "frontend"] + ratio_labels(),
        rows,
        notes=["paper: both curves fall with size and are near zero at"
               " the largest setting"],
    )

    for program in programs:
        for frontend in ("slb", "stlt"):
            small = all_runs[(program, ROW_RATIOS[0], frontend)].fast_miss_rate
            big = all_runs[(program, ROW_RATIOS[-1], frontend)].fast_miss_rate
            assert big < small, (
                f"{program}/{frontend}: miss rate must fall with size"
            )
            assert big < 0.05, (
                f"{program}/{frontend}: miss rate must be near zero at"
                " the largest size"
            )
