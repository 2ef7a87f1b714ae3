"""Frozen sweep tables: every ``repro sweep`` table rendered from stored
records, pinned byte for byte.

``tests/data/golden_tables.json`` holds the records of a small subset of
the ten simulated named sweeps (one seed, fewer loads, core and node
counts) and the exact text of :func:`~repro.exp.reporting.summary_table`
and the eight record renderers, per sweep and over all records
together.  The test renders from the stored records, so it simulates
nothing: it pins the reporting layer alone, including the five tables
(scaling, latency, cluster, failover, hetero) that no other test reads
row by row.  A renderer with nothing to show is stored as ``null``.

Regenerate (only for a deliberate, documented change of the tables or
of simulated results; it simulates every point, about 10 s)::

    PYTHONPATH=src python -m tests.exp.test_golden_tables
"""

import json
import os
from pathlib import Path

import pytest

from repro.exp import ResultStore, SweepRunner, points_from_configs
from repro.exp.reporting import (
    accel_table,
    churn_table,
    cluster_table,
    failover_table,
    hetero_table,
    latency_table,
    scaling_table,
    speedup_table,
    summary_table,
)
from repro.sim.config import RunConfig

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "data" / \
    "golden_tables.json"

#: the record renderers of ``repro sweep``, in its print order
RENDERERS = {
    "speedup": speedup_table,
    "scaling": scaling_table,
    "latency": latency_table,
    "churn": churn_table,
    "cluster": cluster_table,
    "accel": accel_table,
    "failover": failover_table,
    "hetero": hetero_table,
}

#: scale of the captured sweeps (the sweeps read these variables)
CAPTURE_ENV = {"REPRO_BENCH_KEYS": "2000", "REPRO_BENCH_OPS": "200"}

#: sweeps captured at more keys: below the TLBs' reach no design walks,
#: and the accel table's reductions would all read +0%
CAPTURE_KEYS = {"accel": "20000"}

#: named sweep -> the points kept, as a predicate over the point's
#: config; each subset keeps a row in every table its sweep fills, and
#: the file stays near the size of ``golden_cluster.json``
SUBSETS = {
    "smoke": lambda c: True,
    "smoke_mc": lambda c: True,
    "fastpath": lambda c: True,
    "cores": lambda c: c.num_cores in (1, 2),
    "load": lambda c: (c.frontend != "slb"
                       and c.offered_load in (0.5, 0.95)),
    # the top rate is the first to overflow the IPB and scrub rows
    "churn": lambda c: c.churn_rate in (0.0, 0.05),
    # a cache-off curve without its nodes=1 anchor reads "-" scaling
    "scale": lambda c: (c.nodes, c.route_cache) in ((1, True), (2, False)),
    "failover": lambda c: c.seed == 1,
    "accel": lambda c: True,
    "hetero": lambda c: c.seed == 1,
}


def render(records, store_path) -> dict:
    """Every table of ``records``: the summary of a sweep that finds
    them all in the store, then each renderer (``None`` when empty)."""
    store = ResultStore(store_path)
    for record in records:
        store.put_record(record)
    points = points_from_configs(
        [RunConfig.from_dict(r["config"]) for r in records],
        labels=[r["label"] for r in records])
    report = SweepRunner(store=store, jobs=1, run_fn=_no_run).run(points)
    tables = {"summary": summary_table(report)}
    for name, renderer in RENDERERS.items():
        # an empty table is ""
        tables[name] = renderer(records) or None
    return tables


def _no_run(config):
    raise AssertionError(f"golden tables re-simulated {config.label}")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def _records(golden, name):
    if name == "all":
        return [r for sweep in sorted(golden["sweeps"])
                for r in golden["sweeps"][sweep]["records"]]
    return golden["sweeps"][name]["records"]


def _want(golden, name):
    if name == "all":
        return golden["all"]
    return golden["sweeps"][name]["tables"]


@pytest.mark.parametrize("name", sorted(SUBSETS) + ["all"])
def test_tables_match_frozen_text(golden, name, tmp_path):
    got = render(_records(golden, name), tmp_path / "store.jsonl")
    want = _want(golden, name)
    for table in want:
        assert got[table] == want[table], f"{name}: {table} table drifted"
    assert got == want


def test_every_table_has_rows(golden):
    """The golden only guards a renderer whose table it fills."""
    assert sorted(golden["sweeps"]) == sorted(SUBSETS)
    assert all(text is not None for text in golden["all"].values())
    filled = {table for sweep in golden["sweeps"].values()
              for table, text in sweep["tables"].items()
              if text is not None}
    assert filled == {"summary"} | set(RENDERERS)


def capture() -> dict:
    """Simulate each sweep's subset and render its tables."""
    import tempfile

    from repro.exp import get_sweep

    sweeps = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, keep in sorted(SUBSETS.items()):
            os.environ.update(CAPTURE_ENV)
            if name in CAPTURE_KEYS:
                os.environ["REPRO_BENCH_KEYS"] = CAPTURE_KEYS[name]
            points = [p for p in get_sweep(name) if keep(p.config)]
            report = SweepRunner(jobs=2).run(points)
            assert report.ok, report.summary()
            # drop the host-specific meta (pid, wall time, timestamp)
            records = [dict(o.record, meta={}) for o in report]
            sweeps[name] = {
                "records": records,
                "tables": render(records, Path(tmp) / f"{name}.jsonl"),
            }
        every = [r for name in sorted(sweeps)
                 for r in sweeps[name]["records"]]
        tables = render(every, Path(tmp) / "all.jsonl")
    return {"env": CAPTURE_ENV, "keys": CAPTURE_KEYS, "sweeps": sweeps,
            "all": tables}


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(capture(), sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
