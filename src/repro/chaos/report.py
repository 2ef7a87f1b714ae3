"""Fold chaos telemetry into the ``chaos`` payload of a RunResult.

The payload answers the headline questions of a churn run in one dict:

* how much adversity fired (injector event/page/record counters, fault
  cycles charged);
* how the lazy-coherence machinery reacted (IPB inserts/probes/hits,
  overflow scrubs, STLT rows scrubbed — Section III-D1);
* whether correctness held (the oracle verdict: checks performed,
  fast-path checks, violations — which must be zero, since a violation
  raises :class:`~repro.errors.CoherenceError` long before reporting).

Everything is plain JSON-native data, so the payload survives the
durable result store and the ``--json`` CLI output unchanged.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["build_chaos_report"]


def build_chaos_report(engine, injector) -> dict:
    """The ``chaos`` dict for one finished run of ``engine``."""
    config = engine.config
    report = {
        "churn_rate": config.churn_rate,
        "fault_plan": list(config.fault_plan),
        "oracle": engine.oracle.to_dict(),
    }
    report.update(injector.report())

    osi = engine.osi
    if osi is not None:
        ipb = osi.stus[0].ipb  # shared across cores
        report["ipb"] = {
            "inserts": ipb.inserts,
            "probes": ipb.probes,
            "hits": ipb.hits,
            "occupancy": len(ipb),
            "entries": ipb.entries,
        }
        report["ipb_overflows"] = osi.scrubs
        report["stlt_rows_scrubbed"] = osi.rows_scrubbed
    else:
        report["ipb"] = None
        report["ipb_overflows"] = 0
        report["stlt_rows_scrubbed"] = 0
    return report
