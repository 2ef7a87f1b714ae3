"""Table V: STLT and SLB miss rates per distribution (Redis workloads).

Paper reference: zipf SLB 1.42% / STLT 1.75%; latest 0.30% / 0.85%;
uniform SLB 7.47% / STLT 3.61%.  Shapes we hold: both tables run low
(single-digit percent) miss rates, SLB is at or below STLT on the
skewed distributions, and the 'latest' workload shows the lowest rates.

Known deviation (see EXPERIMENTS.md): at equal entry counts our honest
SLB model does not reproduce the paper's high uniform miss rate, because
admission contention never materialises when every key fits; the paper's
uniform SLB number appears to reflect log-table admission dynamics of
the authors' 10 GB configuration that they do not fully specify.
"""

from benchmarks.common import bench_config, print_figure, run_keyed, run_once

PAPER = {
    "zipf": (0.0142, 0.0175),
    "latest": (0.0030, 0.0085),
    "uniform": (0.0747, 0.0361),
}
FRONTENDS = ("slb", "stlt")


def check_preconditions(runs: dict) -> None:
    """Every run must report a fast-table miss rate below 1; otherwise
    the table compares tables that no GET ever hit."""
    for dist, per_fe in runs.items():
        for fe in FRONTENDS:
            miss_rate = per_fe[fe].fast_miss_rate
            if miss_rate is None or miss_rate >= 1.0:
                raise AssertionError(
                    f"precondition failed: the {dist} {fe} run reports "
                    f"a fast-table miss rate of {miss_rate}, so its "
                    f"table served no GET; run a frontend with a fast "
                    f"table")


def test_tab5_miss_rates(benchmark):
    def run_all():
        runs = run_keyed({
            (dist, fe): bench_config(program="redis", frontend=fe,
                                     distribution=dist)
            for dist in PAPER for fe in FRONTENDS})
        return {dist: {fe: runs[(dist, fe)] for fe in FRONTENDS}
                for dist in PAPER}

    runs = run_once(benchmark, run_all)
    check_preconditions(runs)
    rows = []
    for dist, per_fe in runs.items():
        paper_slb, paper_stlt = PAPER[dist]
        rows.append([
            dist,
            f"{paper_slb:.2%}", f"{per_fe['slb'].fast_miss_rate:.2%}",
            f"{paper_stlt:.2%}", f"{per_fe['stlt'].fast_miss_rate:.2%}",
        ])
    print_figure(
        "Table V — STLT and SLB miss rate",
        ["distribution", "SLB paper", "SLB meas.",
         "STLT paper", "STLT meas."],
        rows,
        notes=["both tables sized to the paper's rows-per-key ratio"],
    )

    for dist, per_fe in runs.items():
        for fe in ("slb", "stlt"):
            assert per_fe[fe].fast_miss_rate < 0.10, (
                f"{fe} miss rate on {dist} out of regime"
            )
    # skewed distributions: SLB's frequency-precise 7-way table is at or
    # below the 4-way partial-tag STLT, as in the paper
    for dist in ("zipf", "latest"):
        assert runs[dist]["slb"].fast_miss_rate <= \
            runs[dist]["stlt"].fast_miss_rate + 0.002
    # latest is the friendliest distribution for both tables
    assert runs["latest"]["stlt"].fast_miss_rate <= \
        runs["zipf"]["stlt"].fast_miss_rate + 0.002
