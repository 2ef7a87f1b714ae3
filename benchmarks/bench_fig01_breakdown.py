"""Fig. 1 (right): execution-time breakdown of baseline Redis.

Paper reference: translations and address finding take over 50% of the
overall time of Redis serving YCSB GETs (10 M keys, zipf, pipelined over
a local socket).  We regenerate the breakdown from the simulator's cycle
attribution and check the addressing share.
"""

from benchmarks.common import bench_config, print_figure, run_once
from repro.sim.breakdown import ADDRESSING_CATEGORIES, run_breakdown

#: the categories Fig. 1 calls out, with the paper's qualitative story
PAPER_CLAIM = "addressing (hash + lookup + translation) > 50%"


def test_fig01_redis_breakdown(benchmark):
    def run():
        return run_breakdown(bench_config(program="redis",
                                          frontend="baseline"))

    breakdown = run_once(benchmark, run)
    walks = breakdown.result.page_walks
    if walks <= 0:
        raise AssertionError(
            f"precondition failed: baseline Redis made {walks} page "
            f"walks, so its translation share comes from TLB hits "
            f"alone; run more keys than the TLBs reach")
    rows = [
        [category, f"{share:6.1%}",
         "addressing" if category in ADDRESSING_CATEGORIES else "other"]
        for category, share in breakdown.rows()
    ]
    print_figure(
        "Fig. 1 (right) — Redis execution-time breakdown (baseline)",
        ["category", "share", "group"],
        rows,
        notes=[
            f"paper: {PAPER_CLAIM}",
            f"measured addressing share: {breakdown.addressing_share:.1%}",
        ],
    )
    assert breakdown.addressing_share > 0.5, (
        "addressing must dominate baseline Redis as in Fig. 1"
    )
