"""Fig. 11: speedups brought by STLT and SLB on Redis, nine workloads.

Paper reference (zipf/latest/uniform x 64/128/256 B values): STLT brings
1.38x on average (up to ~1.4x), consistently above SLB; gains are larger
on the low-locality distributions (uniform, zipf) than on latest.
"""

from benchmarks.common import (
    bench_config,
    print_figure,
    run_keyed,
    run_once,
)
from repro.sim.results import geomean, speedup

DISTRIBUTIONS = ("zipf", "latest", "uniform")
VALUE_SIZES = (64, 128, 256)
FRONTENDS = ("baseline", "slb", "stlt")


def _run_workloads(workloads):
    """Each (distribution, value size) workload's run per front-end,
    the whole sweep submitted as one batch."""
    runs = run_keyed({
        (dist, size, fe): bench_config(program="redis", frontend=fe,
                                       distribution=dist, value_size=size)
        for dist, size in workloads for fe in FRONTENDS})
    return {(dist, size): {fe: runs[(dist, size, fe)] for fe in FRONTENDS}
            for dist, size in workloads}


def check_preconditions(all_runs: dict) -> None:
    """Every baseline must walk the page table, and every SLB and STLT
    run must hit its fast table; otherwise a speedup credits a table
    that skipped no translation."""
    for (dist, size), runs in all_runs.items():
        walks = runs["baseline"].page_walks
        if walks <= 0:
            raise AssertionError(
                f"precondition failed: the {dist}-{size}B baseline made "
                f"{walks} page walks, so no speedup here comes from "
                f"translation; run more keys than the TLBs reach")
        for fe in ("slb", "stlt"):
            miss_rate = runs[fe].fast_miss_rate
            if miss_rate is None or miss_rate >= 1.0:
                raise AssertionError(
                    f"precondition failed: the {dist}-{size}B {fe} run "
                    f"hit its fast table on no GET (miss rate "
                    f"{miss_rate}), so it shortened no lookup")


def test_fig11_redis_speedups(benchmark):
    all_runs = run_once(benchmark, lambda: _run_workloads(
        [(d, v) for d in DISTRIBUTIONS for v in VALUE_SIZES]))
    check_preconditions(all_runs)

    rows = []
    stlt_speedups = []
    slb_speedups = []
    for (dist, size), runs in all_runs.items():
        slb = speedup(runs["baseline"], runs["slb"])
        stlt = speedup(runs["baseline"], runs["stlt"])
        slb_speedups.append(slb)
        stlt_speedups.append(stlt)
        rows.append([f"{dist}-{size}B", f"{slb:.2f}x", f"{stlt:.2f}x"])
    rows.append(["geomean", f"{geomean(slb_speedups):.2f}x",
                 f"{geomean(stlt_speedups):.2f}x"])
    print_figure(
        "Fig. 11 — Redis speedups by SLB and STLT (9 workloads)",
        ["workload", "SLB", "STLT"],
        rows,
        notes=[
            "paper: STLT avg 1.38x, always above SLB;"
            " largest gains on zipf/uniform",
        ],
    )

    # shape assertions
    for (dist, size), runs in all_runs.items():
        slb = speedup(runs["baseline"], runs["slb"])
        stlt = speedup(runs["baseline"], runs["stlt"])
        assert stlt > 1.0, f"STLT must speed up {dist}-{size}B"
        assert stlt > slb, f"STLT must beat SLB on {dist}-{size}B"
    mean = geomean(stlt_speedups)
    assert 1.1 < mean < 2.2, f"mean Redis speedup {mean:.2f} out of band"


def test_fig11_record_size_has_little_effect(benchmark):
    """Paper: 'Record size has little effect on both STLT and SLB.'"""

    runs = run_once(benchmark, lambda: _run_workloads(
        [("zipf", v) for v in VALUE_SIZES]))
    check_preconditions(runs)
    speedups = [speedup(runs[("zipf", v)]["baseline"],
                        runs[("zipf", v)]["stlt"])
                for v in VALUE_SIZES]
    spread = max(speedups) - min(speedups)
    print_figure(
        "Fig. 11 (detail) — value-size sensitivity of the STLT speedup",
        ["value size", "STLT speedup"],
        [[f"{v}B", f"{s:.2f}x"] for v, s in zip(VALUE_SIZES, speedups)],
        notes=[f"spread across sizes: {spread:.2f}"],
    )
    assert spread < 0.5, "record size must have only a modest effect"
