"""Extension: throughput-latency curves under open-loop load (PR 3).

The paper's headline is a *latency* story — STLT removes the addressing
cycles that dominate a Redis GET — but closed-loop measurement can only
show mean cycles/op.  This extension puts the measured service times
behind an open-loop arrival process (``repro.svc``): Poisson requests at
a swept offered load, round-robin over two cores, end-to-end latency =
queueing delay + measured per-op cycles.

Expected shape (classic queueing, now with simulated-microarchitecture
service times):

* p99 rises *superlinearly* as offered load approaches each front-end's
  closed-loop capacity — the hockey stick every production dashboard
  shows;
* STLT's shorter service times push the whole curve down and to the
  right: at a fixed p99 SLO (chosen as the baseline's mid-load p99),
  STLT sustains a strictly higher absolute request rate (ops/cycle)
  than the baseline — the per-op savings compound into *capacity*.
"""

from benchmarks.common import bench_config, print_figure, run_many, run_once

FRONTENDS = ("baseline", "slb", "stlt")
LOADS = (0.3, 0.5, 0.7, 0.85, 0.95)


def _sweep():
    configs = {
        (frontend, load): bench_config(
            program="unordered_map", frontend=frontend, num_cores=2,
            arrival_process="poisson", offered_load=load)
        for frontend in FRONTENDS
        for load in LOADS
    }
    keys = list(configs)
    metrics = run_many([configs[k] for k in keys])
    return dict(zip(keys, metrics))


def check_preconditions(runs: dict) -> None:
    """Every run must report its open-loop block (an offered rate and
    a measured p99); otherwise the curves chart closed-loop runs."""
    for (frontend, load), m in runs.items():
        if not (m["offered_rate"] or 0) > 0 or m["latency_p99"] is None:
            raise AssertionError(
                f"precondition failed: the {frontend} run at load "
                f"{load:.2f} reported offered rate {m['offered_rate']} "
                f"and p99 {m['latency_p99']}, so it ran no open loop; "
                f"give it an arrival process")


def test_ext_latency_under_load(benchmark):
    runs = run_once(benchmark, _sweep)
    check_preconditions(runs)
    rows = []
    for frontend in FRONTENDS:
        for load in LOADS:
            m = runs[(frontend, load)]
            rows.append([
                frontend,
                f"{load:.2f}",
                f"{m['offered_rate']:.5f}",
                f"{m['achieved_throughput']:.5f}",
                f"{m['latency_p50']:.0f}",
                f"{m['latency_p99']:.0f}",
                f"{m['latency_p999']:.0f}",
            ])
    print_figure(
        "Extension — open-loop tail latency vs offered load "
        "(2 cores, Poisson, round-robin)",
        ["frontend", "load", "offered ops/cyc", "achieved", "p50",
         "p99", "p99.9"],
        rows,
        notes=[
            "latency in cycles: queueing delay + measured per-op "
            "service cycles",
            "load is relative to each front-end's own closed-loop "
            "capacity; 'offered' is the absolute rate",
        ],
    )

    # the hockey stick: approaching saturation costs superlinear p99
    for frontend in FRONTENDS:
        low = runs[(frontend, 0.3)]["latency_p99"]
        mid = runs[(frontend, 0.7)]["latency_p99"]
        high = runs[(frontend, 0.95)]["latency_p99"]
        assert high > mid > low
        assert (high - mid) > (mid - low), (
            f"{frontend}: p99 growth towards saturation should be "
            f"superlinear")

    # capacity at SLO: STLT sustains strictly more absolute load than
    # the baseline at a fixed p99 objective
    slo = runs[("baseline", 0.5)]["latency_p99"]
    def max_rate(frontend):
        rates = [runs[(frontend, load)]["offered_rate"]
                 for load in LOADS
                 if runs[(frontend, load)]["latency_p99"] <= slo]
        return max(rates, default=0.0)
    assert max_rate("stlt") > max_rate("baseline") > 0.0
