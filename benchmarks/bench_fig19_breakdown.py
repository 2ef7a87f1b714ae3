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
from repro.sim.results import geomean, speedup

PROGRAMS = ("unordered_map", "dense_hash_map", "ordered_map", "btree")
VARIANTS = ("stlt_sw", "stlt_va", "stlt")


def _sweep():
    return run_keyed({
        (program, frontend): bench_config(program=program,
                                          frontend=frontend)
        for program in PROGRAMS for frontend in ("slb",) + VARIANTS})


def check_preconditions(all_runs: dict) -> None:
    """Every full-STLT run must hit its STB and no STLT-VA run may: the
    ``full > va`` shape credits the PTEs the full STLT caches for the
    STB, which STLT-VA does not have."""
    for program in PROGRAMS:
        full = all_runs[(program, "stlt")].mem.stb_hits
        va = all_runs[(program, "stlt_va")].mem.stb_hits
        if full <= 0:
            raise AssertionError(
                f"precondition failed: the {program} full-STLT run made "
                f"{full} STB hits, so it skipped no translation with a "
                f"cached PTE")
        if va != 0:
            raise AssertionError(
                f"precondition failed: the {program} STLT-VA run made "
                f"{va} STB hits, but STLT-VA caches no PTEs")


def test_fig19_left_configuration_breakdown(benchmark):
    all_runs = run_once(benchmark, _sweep)
    check_preconditions(all_runs)

    rows = []
    improvements = {v: [] for v in VARIANTS}
    for program in PROGRAMS:
        slb = all_runs[(program, "slb")]
        line = [program]
        for variant in VARIANTS:
            ratio = speedup(slb, all_runs[(program, variant)])
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
