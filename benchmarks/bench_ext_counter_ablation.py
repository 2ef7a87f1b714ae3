"""Extension/ablation: the probabilistic 4-bit LFU counter (Sec. III-E).

The paper keeps a 4-bit probabilistically incremented frequency counter
per row so ``insertSTLT`` can evict the least frequently used way.  This
ablation disables the counter (all rows stay at 0, so the replacement
degenerates to fixed-way overwrite) and measures what the counter buys
on a *small* STLT, where replacement decisions matter most.

Expected shape: the LFU counter lowers the STLT miss rate (hot rows are
protected from churn) and yields equal-or-better performance; the effect
shrinks as the table grows and conflict pressure fades.
"""

from benchmarks.common import (
    bench_config,
    print_figure,
    run_once,
    speedup_of,
)
from benchmarks.size_sweep import rows_for_ratio
from repro.core.counters import ProbabilisticCounterPolicy
from repro.sim.engine import Engine


class _DisabledCounterPolicy(ProbabilisticCounterPolicy):
    """Ablation: counters never move, making LFU replacement blind."""

    def update(self, value: int) -> int:
        self.updates += 1
        return 0


def _run(ratio: float, disable_counter: bool) -> dict:
    config = bench_config(program="unordered_map", frontend="stlt",
                          stlt_rows=rows_for_ratio(ratio))
    engine = Engine(config)
    if disable_counter:
        stlt = engine.osi.stlt
        stlt.counter_policy = _DisabledCounterPolicy()
        stlt.clear()
        engine._prefill_fast_tables()
    result = engine.run()
    stlt = engine.osi.stlt
    return {
        "cycles_per_op": result.cycles_per_op,
        "fast_miss_rate": result.fast_miss_rate,
        "replacements": stlt.replacements,
        "increments": stlt.counter_policy.increments,
    }


def check_preconditions(runs: dict) -> None:
    """The LFU runs must evict by counter and move counters, and the
    blind runs must move none; otherwise the comparison credits a
    counter that never decided anything (or never was disabled)."""
    for (ratio, mode), run in runs.items():
        if mode == "lfu" and (run["replacements"] < 1
                              or run["increments"] < 1):
            raise AssertionError(
                f"precondition failed: the LFU run at {ratio:.2f} "
                f"rows/key made {run['replacements']} STLT "
                f"replacement(s) and {run['increments']} counter "
                f"increment(s), so no victim was chosen by counter; "
                f"size the table below the key set")
        if mode == "blind" and run["increments"] != 0:
            raise AssertionError(
                f"precondition failed: the blind run at {ratio:.2f} "
                f"rows/key incremented counters {run['increments']} "
                f"time(s), so the live STLT's counter was never "
                f"disabled")


def test_ext_counter_ablation(benchmark):
    ratios = (0.25, 0.5, 1.0)

    def sweep():
        out = {}
        for ratio in ratios:
            out[(ratio, "lfu")] = _run(ratio, disable_counter=False)
            out[(ratio, "blind")] = _run(ratio, disable_counter=True)
        return out

    runs = run_once(benchmark, sweep)
    check_preconditions(runs)
    rows = []
    for ratio in ratios:
        lfu = runs[(ratio, "lfu")]
        blind = runs[(ratio, "blind")]
        rows.append([
            f"{ratio:.2f} rows/key",
            f"{lfu['fast_miss_rate']:.2%}",
            f"{blind['fast_miss_rate']:.2%}",
            f"{speedup_of(blind, lfu):.3f}x",
        ])
    print_figure(
        "Ablation — probabilistic LFU counter vs blind replacement",
        ["STLT size", "miss (LFU)", "miss (blind)", "LFU speedup"],
        rows,
        notes=["design choice of Sec. III-E: the 4-bit counter guides"
               " insertSTLT's victim selection"],
    )

    # the counter must help (or at worst tie) at every pressure level
    wins = 0
    for ratio in ratios:
        lfu = runs[(ratio, "lfu")]
        blind = runs[(ratio, "blind")]
        assert lfu["fast_miss_rate"] <= blind["fast_miss_rate"] + 0.01
        if lfu["fast_miss_rate"] < blind["fast_miss_rate"]:
            wins += 1
    assert wins >= 1, "LFU must beat blind replacement somewhere"
