"""Fig. 17: speedup of 1-, 2-, 4- and 8-way associative STLT.

Paper reference (zipf, 64 B, four kernel benchmarks): 1-way is
competitive for small tables (cheaper scans), 8-way is competitive at
mid sizes (fewer conflicts) but pays scan overhead, and 4-way is the
most stable — first or second best for every benchmark at every size.
"""

from benchmarks.common import (
    bench_config,
    print_figure,
    run_keyed,
    run_once,
    speedup_of,
)
from benchmarks.size_sweep import rows_for_ratio

ASSOCIATIVITIES = (1, 2, 4, 8)
RATIOS = (0.25, 1.0, 4.0)
PROGRAMS = ("unordered_map", "dense_hash_map", "ordered_map", "btree")


def _sweep():
    configs = {}
    for program in PROGRAMS:
        configs[(program, "baseline")] = bench_config(
            program=program, frontend="baseline")
        for ratio in RATIOS:
            rows = rows_for_ratio(ratio)
            for ways in ASSOCIATIVITIES:
                configs[(program, ratio, ways)] = bench_config(
                    program=program, frontend="stlt", stlt_rows=rows,
                    stlt_ways=ways)
    return run_keyed(configs)


def test_fig17_associativity(benchmark):
    all_runs = run_once(benchmark, _sweep)

    rows = []
    ranks = {ways: 0 for ways in ASSOCIATIVITIES}
    cells = {}
    for program in PROGRAMS:
        base = all_runs[(program, "baseline")]
        for ratio in RATIOS:
            speeds = {
                ways: speedup_of(base, all_runs[(program, ratio, ways)])
                for ways in ASSOCIATIVITIES
            }
            cells[(program, ratio)] = speeds
            ordered = sorted(speeds, key=speeds.get, reverse=True)
            for place, ways in enumerate(ordered):
                if place < 2:
                    ranks[ways] += 1
            rows.append([program, f"{ratio:.2f} rows/key"] +
                        [f"{speeds[w]:.2f}" for w in ASSOCIATIVITIES])
    print_figure(
        "Fig. 17 — speedup of 1/2/4/8-way associative STLT",
        ["program", "size"] + [f"{w}-way" for w in ASSOCIATIVITIES],
        rows,
        notes=["paper: 4-way is first or second best everywhere",
               f"top-2 finishes per associativity: {ranks}"],
    )

    # shape: 4-way is the stablest choice — top-2 in (almost) every cell
    total_cells = len(PROGRAMS) * len(RATIOS)
    assert ranks[4] >= total_cells - 2, (
        f"4-way must be first or second nearly everywhere, got {ranks[4]}"
        f"/{total_cells}"
    )
    # shape: associativity matters more for small tables (conflicts);
    # at the smallest size the spread across ways is visible
    for program in PROGRAMS:
        speeds = cells[(program, RATIOS[0])]
        assert max(speeds.values()) > min(speeds.values()), program
