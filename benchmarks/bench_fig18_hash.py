"""Fig. 18: STLT fast-path hash-function sensitivity on Redis.

Paper reference (zipf, 64 B): different fast-path hash functions change
performance by up to 19.4%.  sipHash has the *lowest* STLT miss rate but
also the lowest speedup (it is slow to compute); the cheap hashes win
despite slightly higher conflict rates.  The slow path keeps Redis's
original SipHash throughout.
"""

from benchmarks.common import (
    bench_config,
    print_figure,
    run_keyed,
    run_once,
)
from repro.sim.results import RunResult, speedup

FAST_HASHES = ("siphash", "murmur", "xxh64", "djb2", "xxh3")


def _sweep():
    runs = run_keyed({
        "baseline": bench_config(program="redis", frontend="baseline"),
        **{name: bench_config(program="redis", frontend="stlt",
                              fast_hash=name)
           for name in FAST_HASHES}})
    return runs.pop("baseline"), runs


def check_preconditions(baseline: RunResult, runs: dict) -> None:
    """The baseline must walk the page table, and each fast-hash STLT
    run must hit its table; otherwise the speedups compare hashes on a
    translation the baseline never paid or a path no GET took."""
    walks = baseline.page_walks
    if walks <= 0:
        raise AssertionError(
            f"precondition failed: the baseline made {walks} page walks, "
            f"so no speedup here comes from translation; run more keys "
            f"than the TLBs reach")
    for name in FAST_HASHES:
        miss_rate = runs[name].fast_miss_rate
        if miss_rate is None or miss_rate >= 1.0:
            raise AssertionError(
                f"precondition failed: the STLT run with {name} hit its "
                f"fast path on no GET (miss rate {miss_rate}), so its "
                f"hash never shortened a lookup")


def test_fig18_hash_sensitivity(benchmark):
    baseline, runs = run_once(benchmark, _sweep)
    check_preconditions(baseline, runs)

    speeds = {name: speedup(baseline, res) for name, res in runs.items()}
    rows = [
        [name, f"{speeds[name]:.3f}x", f"{runs[name].fast_miss_rate:.2%}"]
        for name in FAST_HASHES
    ]
    variation = (max(speeds.values()) - min(speeds.values())) \
        / min(speeds.values())
    print_figure(
        "Fig. 18 — STLT speedup and miss rate per fast-path hash (Redis)",
        ["fast hash", "speedup", "STLT miss rate"],
        rows,
        notes=[
            "paper: up to 19.4% performance variation; sipHash lowest"
            " miss rate but lowest speedup",
            f"measured variation: {variation:.1%}",
        ],
    )

    # shape: all variants still speed Redis up
    for name, s in speeds.items():
        assert s > 1.0, f"{name} fast path must still win"
    # shape: the expensive sipHash must not be the fastest option
    assert speeds["siphash"] < max(speeds.values()) - 1e-9
    # shape: the hash choice matters measurably
    assert variation > 0.02
    # shape: siphash's randomness gives it one of the lowest miss rates
    miss = {n: runs[n].fast_miss_rate for n in FAST_HASHES}
    assert miss["siphash"] <= min(miss.values()) + 0.005
