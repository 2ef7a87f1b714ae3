"""repro.svc — the open-loop service layer over the multi-core engine.

The closed-loop simulator (:mod:`repro.sim`) answers "how many cycles
does one operation take?"; this package answers "what happens when
requests *arrive on their own clock*?" — the question behind the
paper's motivation of serving heavy Redis traffic.  It models a
key-value *service*: timestamped request arrivals, dispatch onto the N
simulated cores, per-core FIFO queues, and end-to-end latency
accounting (queueing delay + the measured per-op service cycles the
engine captured), all deterministic per seed.

* :mod:`repro.svc.histogram` — mergeable log-bucketed latency
  histogram with bounded-relative-error quantiles;
* :mod:`repro.svc.arrival`   — arrival processes (Poisson, bursty
  MMPP-style modulated Poisson);
* :mod:`repro.svc.service`   — the queueing simulation itself, with
  its two dispatch policies (round-robin, join-shortest-queue), plus
  :class:`ServiceResult` (percentiles, offered vs achieved
  throughput, per-core queue statistics).

The layer rides on top of closed-loop measurement rather than inside
it: the engine's cycle numbers stay bit-identical whether or not the
per-op capture hook is armed, so every golden regression keeps holding.
"""

from .arrival import ARRIVAL_PROCESSES, make_arrivals
from .histogram import LatencyHistogram
from .service import (
    DISPATCH_POLICIES,
    Mitigation,
    ServiceResult,
    mitigation_from_config,
    service_from_config,
    simulate_service,
)

__all__ = [
    "ARRIVAL_PROCESSES",
    "DISPATCH_POLICIES",
    "LatencyHistogram",
    "ServiceResult",
    "make_arrivals",
    "Mitigation",
    "mitigation_from_config",
    "service_from_config",
    "simulate_service",
]
