"""Fig. 19 (left): STLT-SW / STLT-VA / STLT configurations versus SLB.

Paper reference: SLB outperforms the software-only STLT-SW (especially
on trees); the hardware-instruction STLT-VA slightly outperforms SLB;
and the full STLT — which also caches PTEs and feeds the STB — clearly
improves on all of them by skipping address translations.
"""

from benchmarks.common import (
    bench_config,
    print_figure,
    run_keyed,
    run_once,
)
from repro.sim.results import geomean

PROGRAMS = ("unordered_map", "dense_hash_map", "ordered_map", "btree")
VARIANTS = ("stlt_sw", "stlt_va", "stlt")


def _sweep():
    return run_keyed({
        (program, frontend): bench_config(program=program,
                                          frontend=frontend)
        for program in PROGRAMS for frontend in ("slb",) + VARIANTS})


def test_fig19_left_configuration_breakdown(benchmark):
    all_runs = run_once(benchmark, _sweep)

    rows = []
    improvements = {v: [] for v in VARIANTS}
    for program in PROGRAMS:
        slb_cpo = all_runs[(program, "slb")]["cycles_per_op"]
        line = [program]
        for variant in VARIANTS:
            ratio = slb_cpo / all_runs[(program, variant)]["cycles_per_op"]
            improvements[variant].append(ratio)
            line.append(f"{ratio:.2f}x")
        rows.append(line)
    rows.append(["geomean"] +
                [f"{geomean(improvements[v]):.2f}x" for v in VARIANTS])
    print_figure(
        "Fig. 19 (left) — improvement over SLB per STLT configuration",
        ["program", "STLT-SW", "STLT-VA", "STLT"],
        rows,
        notes=["paper: SLB > STLT-SW; STLT-VA slightly > SLB;"
               " full STLT clearly best"],
    )

    sw = geomean(improvements["stlt_sw"])
    va = geomean(improvements["stlt_va"])
    full = geomean(improvements["stlt"])
    assert sw < 1.05, "software-only STLT must not beat SLB meaningfully"
    assert va > sw, "hardware instructions must improve on the SW table"
    assert full > va, "PTE caching must improve on VA-only"
    assert full > 1.05, "full STLT must clearly beat SLB"
