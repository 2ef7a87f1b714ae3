"""Extension: core-count scalability over the shared store (PR 2).

The paper evaluates a single 8-core machine (Table III) but reports
per-core numbers; this extension sweeps the core count explicitly.  Each
core streams its own YCSB workload against one shared store — shared
index, record store, STLT, L3, and one DRAM channel — while keeping
private L1/L2, TLBs, and STB, so the sweep exposes exactly the effects
the private/shared split models:

* aggregate throughput (ops per wall-clock cycle) rises with cores but
  sub-linearly as the DRAM channel and L3 start to contend;
* the shared STLT keeps serving every core: per-core hit rates stay in
  family with the single-core run (the table is sized for the keyspace,
  not per core);
* DRAM channel pressure (busy fraction of the *wall clock*, max queueing
  delay) grows with the core count — the counters PR 2 added.

Expected shape: STLT beats baseline at every core count, and both scale
sub-linearly with the shared channel saturating first for the baseline
(it makes more memory traffic per op).
"""

from benchmarks.common import (
    bench_config,
    print_figure,
    run_many,
    run_once,
)

CORE_COUNTS = (1, 2, 4, 8)
FRONTENDS = ("baseline", "stlt")


def _sweep():
    configs = {
        (frontend, cores): bench_config(
            program="unordered_map", frontend=frontend, num_cores=cores)
        for frontend in FRONTENDS
        for cores in CORE_COUNTS
    }
    keys = list(configs)
    metrics = run_many([configs[k] for k in keys])
    return dict(zip(keys, metrics))


def check_preconditions(runs: dict) -> None:
    """Every multi-core run must queue deeper on the shared DRAM channel
    than its frontend's 1-core run, or the sweep never made the cores
    contend.  ``dram_max_queue_cycles`` is a run-lifetime gauge
    (``mem/stats.py``), so it is compared with the 1-core run, not 0."""
    for frontend in FRONTENDS:
        single = runs[(frontend, 1)]["dram_max_queue_cycles"]
        for cores in CORE_COUNTS[1:]:
            queue = runs[(frontend, cores)]["dram_max_queue_cycles"]
            if queue <= single:
                raise AssertionError(
                    f"precondition failed: {frontend} x{cores} queued at "
                    f"most {queue} cycles on the DRAM channel, no more "
                    f"than its 1-core run ({single}), so the cores never "
                    f"contended; run enough keys and ops to miss the "
                    f"shared L3")


def test_ext_multicore_scalability(benchmark):
    runs = run_once(benchmark, _sweep)
    check_preconditions(runs)
    rows = []
    for frontend in FRONTENDS:
        single = runs[(frontend, 1)]
        for cores in CORE_COUNTS:
            m = runs[(frontend, cores)]
            scaling = (m["throughput"] / single["throughput"]
                       if single["throughput"] else 0.0)
            fairness = ("-" if m["fairness"] is None
                        else f"{m['fairness']:.3f}")
            miss = ("-" if m["fast_miss_rate"] is None
                    else f"{m['fast_miss_rate']:.2%}")
            rows.append([
                frontend, str(cores),
                f"{m['throughput']:.4f}",
                f"{scaling:.2f}x",
                fairness,
                f"{m['dram_busy_fraction']:.1%}",
                str(m["dram_max_queue_cycles"]),
                miss,
            ])
    print_figure(
        "Extension — core-count scalability (shared store, shared STLT)",
        ["frontend", "cores", "ops/cycle", "scaling", "fairness",
         "DRAM busy", "max queue", "table miss"],
        rows,
        notes=[
            "scaling = aggregate throughput vs the 1-core run",
            "cores contend on one DRAM channel + shared L3; L1/L2/TLB/STB"
            " are private",
        ],
    )
    for frontend in FRONTENDS:
        single = runs[(frontend, 1)]
        for cores in CORE_COUNTS:
            m = runs[(frontend, cores)]
            assert m["num_cores"] == cores
            # more cores must never lower aggregate throughput at this
            # scale (the channel adds latency but each core still works)
            if cores > 1:
                assert m["throughput"] > single["throughput"] * 0.9, (
                    f"{frontend} x{cores}: throughput collapsed")
                assert m["fairness"] is not None
                assert 0.5 < m["fairness"] <= 1.0 + 1e-9
    for cores in CORE_COUNTS:
        base = runs[("baseline", cores)]
        stlt = runs[("stlt", cores)]
        assert stlt["throughput"] > base["throughput"], (
            f"x{cores}: STLT must out-run baseline")
