"""Summaries, verdicts and the ``compare`` command.

A host metric's verdict follows the repository's measurement rules: a
gain is claimed only from at least ten pairs, when the change wins at
least nine tenths of them *and* the median gap exceeds the parent's
interquartile range; a metric whose parent spread is wider than its
bound is ``unresolved`` unless every change run is worse than every
parent run, which is ``worse``.  A simulated metric is deterministic
per seed, so any difference counts.
"""

from __future__ import annotations

import json
import statistics
from typing import List, Sequence

from .spec import LAYERS, METRICS_BY_NAME, Metric, host_bounds

#: paired runs a gain claim needs
MIN_PAIRS = 10


def summarize(values: Sequence[float]) -> dict:
    """Median, quartiles (``statistics.quantiles(n=4)``) and n."""
    values = list(values)
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "n": len(values)}


def _better(metric: Metric, candidate: float, reference: float) -> bool:
    if metric.better == "lower":
        return candidate < reference
    return candidate > reference


def verdict(metric: Metric, bound: float, parent: Sequence[float],
            change: Sequence[float]) -> str:
    """``better``, ``worse``, ``unchanged`` or ``unresolved``."""
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    if metric.kind == "sim":
        if c_med == p_med:
            return "unchanged"
        return "better" if _better(metric, c_med, p_med) else "worse"
    p = summarize(parent)
    iqr = p["q3"] - p["q1"]
    slack = max(bound * p_med, metric.abs_floor)
    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if _better(metric, b, a))
    if pairs and wins >= 0.9 * len(pairs) \
            and abs(c_med - p_med) > iqr and _better(metric, c_med, p_med):
        return "better" if len(pairs) >= MIN_PAIRS else "unresolved"
    if iqr > slack:
        dominated = all(_better(metric, a, b)
                        for a in parent for b in change)
        return "worse" if dominated else "unresolved"
    worse_by = c_med - p_med if metric.better == "lower" else p_med - c_med
    return "worse" if worse_by > slack else "unchanged"


def _fmt(value: float) -> str:
    if value == 0 or 1e-3 <= abs(value) < 1e6:
        return f"{value:.4g}" if abs(value) < 1e4 else f"{value:.0f}"
    return f"{value:.3e}"


def _spread(summary: dict) -> str:
    return (f"{_fmt(summary['median'])} "
            f"[{_fmt(summary['q1'])}, {_fmt(summary['q3'])}]")


def compare(parent: dict, change: dict) -> List[dict]:
    """One row per (workload, metric) present in both result files."""
    bounds = host_bounds()
    rows = []
    for workload, metrics in parent["metrics"].items():
        other = change["metrics"].get(workload)
        if other is None:
            continue
        for name, p in metrics.items():
            c = other.get(name)
            metric = METRICS_BY_NAME.get(name)
            if c is None or metric is None:
                continue
            rows.append({
                "workload": workload, "metric": name, "unit": metric.unit,
                "parent": {k: p[k] for k in ("median", "q1", "q3", "n")},
                "change": {k: c[k] for k in ("median", "q1", "q3", "n")},
                "verdict": verdict(metric, bounds.get(name, 0.0),
                                   p["values"], c["values"]),
            })
    return rows


def compare_main(parent_path: str, change_path: str) -> int:
    """``python -m benchmarks.e2e compare A.json B.json``; exits 1 when
    any metric got worse."""
    with open(parent_path, encoding="utf-8") as fh:
        parent = json.load(fh)
    with open(change_path, encoding="utf-8") as fh:
        change = json.load(fh)
    for workload, hashes in parent.get("content_hashes", {}).items():
        other = change.get("content_hashes", {}).get(workload)
        if other is not None and other != hashes:
            print(f"warning: {workload}: configs differ between the two "
                  f"files (content hashes {hashes} vs {other})")
    rows = compare(parent, change)
    print(f"{'workload':<9} {'metric':<17} {'unit':<9} "
          f"{'parent median [q1, q3]':<30} {'change median [q1, q3]':<30} "
          f"verdict")
    for row in rows:
        print(f"{row['workload']:<9} {row['metric']:<17} {row['unit']:<9} "
              f"{_spread(row['parent']):<30} {_spread(row['change']):<30} "
              f"{row['verdict']}")
    for workload, digest in parent.get("sim_digest", {}).items():
        other = change.get("sim_digest", {}).get(workload)
        if other is not None:
            same = "identical" if other == digest else "DIFFERENT"
            print(f"sim_digest {workload}: {same}")
    # where the time went: per-layer self time from the traced rounds
    for workload, layers in parent.get("layer_metrics", {}).items():
        other = change.get("layer_metrics", {}).get(workload, {})
        cells = []
        for layer in LAYERS + ("unattributed",):
            key = f"{layer}.self_s"
            if key in layers and key in other:
                cells.append(f"{layer} {_fmt(layers[key]['median'])}"
                             f"->{_fmt(other[key]['median'])}")
        if cells:
            print(f"self_s {workload}: " + "  ".join(cells))
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0
