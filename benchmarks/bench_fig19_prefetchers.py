"""Fig. 19 (right): slowdown caused by hardware prefetchers (no STLT).

Paper reference: distance TLB prefetching is performance-neutral (its
accuracy collapses on these workloads); the two LLC data prefetchers —
a stride/stream scheme ("Simple") and VLDP — *hurt*, by 17.7% and 9.4%
on average, because inaccurate prefetches flood the memory channel and
pollute the cache without cutting demand misses.
"""

from benchmarks.common import (
    bench_config,
    print_figure,
    run_keyed,
    run_once,
)
from repro.sim.results import geomean

PROGRAMS = ("redis", "unordered_map", "dense_hash_map", "ordered_map",
            "btree")
PREFETCHERS = ("tlb_distance", "stream", "vldp")


def _sweep():
    configs = {}
    for program in PROGRAMS:
        configs[(program, "none")] = bench_config(program=program,
                                                  frontend="baseline")
        for pf in PREFETCHERS:
            configs[(program, pf)] = bench_config(
                program=program, frontend="baseline", prefetchers=(pf,))
    return run_keyed(configs)


def check_preconditions(all_runs: dict) -> None:
    """Every data-prefetcher run must issue prefetches; otherwise its
    slowdown is charged to a prefetcher that never fetched a line."""
    for program in PROGRAMS:
        for pf in ("stream", "vldp"):
            issued = all_runs[(program, pf)]["prefetches_issued"]
            if issued <= 0:
                raise AssertionError(
                    f"precondition failed: the {program} run with the "
                    f"{pf} prefetcher issued {issued} prefetches, so it "
                    f"cannot be what slowed the run; attach the "
                    f"prefetcher to the LLC miss path")


def test_fig19_right_prefetcher_slowdowns(benchmark):
    all_runs = run_once(benchmark, _sweep)
    check_preconditions(all_runs)

    rows = []
    slowdowns = {pf: [] for pf in PREFETCHERS}
    for program in PROGRAMS:
        base = all_runs[(program, "none")]["cycles_per_op"]
        line = [program]
        for pf in PREFETCHERS:
            run = all_runs[(program, pf)]
            ratio = run["cycles_per_op"] / base
            slowdowns[pf].append(ratio)
            line.append(f"{(ratio - 1):+.1%}")
        line.append(f"{all_runs[(program, 'vldp')]['prefetch_accuracy']:.1%}")
        rows.append(line)
    rows.append(["geomean"] +
                [f"{(geomean(slowdowns[pf]) - 1):+.1%}"
                 for pf in PREFETCHERS] + ["-"])
    print_figure(
        "Fig. 19 (right) — prefetcher-induced slowdown vs no prefetching",
        ["program", "TLB dist.", "stream", "VLDP", "VLDP accuracy"],
        rows,
        notes=["paper: TLB distance prefetching ~neutral; stream -17.7%,"
               " VLDP -9.4% on average"],
    )

    tlb = geomean(slowdowns["tlb_distance"])
    stream = geomean(slowdowns["stream"])
    vldp = geomean(slowdowns["vldp"])
    assert abs(tlb - 1.0) < 0.05, "TLB prefetching must be ~neutral"
    assert stream > 1.02, "stream prefetching must hurt"
    assert vldp > 1.02, "VLDP must hurt"
