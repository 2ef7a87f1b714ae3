"""Extension: the hardware hash unit of Section III-B.

The paper: *"We also considered adding hardware support for calculating
a fast hash function. A hardware hash gains performance at the expense
of flexibility."*  The ``hw_hash`` registry entry models such a unit — a
fixed 3-cycle functional latency regardless of key length, computing the
same xxh3 value (so table behaviour is identical to the software xxh3
fast path; only the compute cost changes).

Expected shape: a small additional speedup over software xxh3 on every
program, largest where lookups are cheapest (hash cost is a larger
fraction of a hash-table lookup than of a tree walk).
"""

from benchmarks.common import (
    bench_config,
    print_figure,
    run_keyed,
    run_once,
)
from repro.sim.results import speedup

PROGRAMS = ("redis", "unordered_map", "ordered_map")


def _sweep():
    configs = {}
    for program in PROGRAMS:
        configs[(program, "baseline")] = bench_config(
            program=program, frontend="baseline")
        for fast_hash in ("xxh3", "hw_hash"):
            configs[(program, fast_hash)] = bench_config(
                program=program, frontend="stlt", fast_hash=fast_hash)
    return run_keyed(configs)


def check_preconditions(runs: dict) -> None:
    """Each STLT run must take its fast path, and the hardware unit
    must charge fewer hash cycles than software xxh3; otherwise the
    comparison credits a hash the lookups never used (or a unit that
    costs what software does)."""
    for program in PROGRAMS:
        for fast_hash in ("xxh3", "hw_hash"):
            miss_rate = runs[(program, fast_hash)].fast_miss_rate
            if miss_rate is None or miss_rate >= 1.0:
                raise AssertionError(
                    f"precondition failed: the {program} STLT run with "
                    f"{fast_hash} hit its fast path on no GET (miss "
                    f"rate {miss_rate}), so its hash never shortened a "
                    f"lookup; run a frontend with a fast table")
        sw = runs[(program, "xxh3")].attr.get("hash", 0)
        hw = runs[(program, "hw_hash")].attr.get("hash", 0)
        if hw >= sw:
            raise AssertionError(
                f"precondition failed: the {program} hw_hash run charged "
                f"{hw} hash cycles against {sw} for xxh3, so the "
                f"hardware unit saved nothing; give hw_hash its fixed "
                f"functional latency")


def test_ext_hardware_hash_unit(benchmark):
    runs = run_once(benchmark, _sweep)
    check_preconditions(runs)
    rows = []
    for program in PROGRAMS:
        base = runs[(program, "baseline")]
        sw = speedup(base, runs[(program, "xxh3")])
        hw = speedup(base, runs[(program, "hw_hash")])
        rows.append([program, f"{sw:.3f}x", f"{hw:.3f}x",
                     f"{(hw / sw - 1):+.2%}"])
    print_figure(
        "Extension — hardware hash unit vs software xxh3 fast path",
        ["program", "STLT (sw xxh3)", "STLT (hw hash)", "hw gain"],
        rows,
        notes=["Sec. III-B: hardware hashing gains performance at the"
               " expense of flexibility"],
    )
    for program in PROGRAMS:
        base = runs[(program, "baseline")]
        sw = speedup(base, runs[(program, "xxh3")])
        hw = speedup(base, runs[(program, "hw_hash")])
        assert hw >= sw * 0.999, f"{program}: hw hash must not lose"
