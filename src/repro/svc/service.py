"""The open-loop queueing simulation and its result record.

The pipeline (``repro serve``, the ``load`` sweep):

1. the closed-loop :class:`~repro.sim.multicore.MultiCoreEngine` runs
   with the per-op capture hook armed, yielding each core's measured
   per-operation *service* cycles (the full microarchitectural truth:
   hashing, index walk, translation, STLT/SLB behaviour, DRAM
   contention) without perturbing a single simulated cycle;
2. an arrival process (:mod:`repro.svc.arrival`) stamps open-loop
   request arrival times at ``offered_load x closed-loop capacity``;
3. a dispatch policy (:mod:`repro.svc.dispatch`) assigns each request
   to a core; each core serves its FIFO queue one request at a time,
   charging the next captured service time from that core's sequence
   (cycled if the open-loop run is longer than the measured window);
4. every request's end-to-end latency = queueing delay + service
   cycles, recorded in a mergeable log-bucketed histogram
   (:mod:`repro.svc.histogram`).

:class:`ServiceResult` carries p50/p95/p99/p99.9, offered vs achieved
throughput (ops/cycle), and per-core queue statistics; it serialises
exactly through JSON, riding inside ``RunResult.service`` so the
``repro.exp`` store, runner, and reporting work unchanged.

Everything downstream of the captured service times is deterministic
per ``RunConfig.seed``: the arrival clock, the request key stream, and
every dispatch decision derive from seeded ``random.Random`` streams
(salted so they are independent of the workload generator's draws).
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, fields
from typing import Deque, Dict, List, Optional, Sequence

from ..errors import ConfigError, ReproError
from ..hashes.registry import get_hash
from ..params import derive_seed
from ..workloads.distributions import make_chooser
from ..workloads.keys import key_bytes
from .arrival import make_arrivals
from .dispatch import Dispatcher, make_dispatcher
from .histogram import DEFAULT_PRECISION, LatencyHistogram

__all__ = ["Mitigation", "ServiceResult", "mitigation_from_config",
           "simulate_service", "service_from_config"]


@dataclass(frozen=True)
class Mitigation:
    """Graceful-degradation knobs for the open-loop service model.

    All delays are in *cycles* (``service_from_config`` derives them
    from the config's mean-service-time multiples).  The whole policy
    is a pure function of the queue state, so a mitigated run is
    deterministic per seed — no extra randomness enters the model.

    * **timeout + bounded retry** — a client abandons an attempt whose
      queueing delay would exceed the attempt's budget
      (``timeout_cycles x backoff^attempt``) and re-dispatches to the
      currently least-backlogged core.  An abandoned attempt consumes
      *no* server cycles (the server skips dead requests at the queue
      head); the final attempt always runs to completion, so no
      request is ever lost.
    * **hedging** — a request still queued ``hedge_cycles`` after its
      dispatch gets a second copy on the least-loaded *other* core;
      both copies consume server time (the classic no-cancellation
      hedge) and the client takes the first completion.
    * **SLO-aware fallback** — at dispatch time, a request whose
      predicted wait on the picked core exceeds ``slo_cycles`` is
      rerouted to the least-backlogged core, routing around a
      slowed/failed core before any time is lost.
    """

    timeout_cycles: Optional[float] = None
    retries: int = 0
    backoff: float = 2.0
    hedge_cycles: Optional[float] = None
    fallback: bool = False
    #: predicted-wait budget the fallback reroutes around; required
    #: when ``fallback`` is set
    slo_cycles: Optional[float] = None

    def __post_init__(self) -> None:
        if self.timeout_cycles is not None and self.timeout_cycles <= 0:
            raise ConfigError("timeout must be positive")
        if self.retries < 0:
            raise ConfigError("retries cannot be negative")
        if self.backoff < 1.0:
            raise ConfigError("backoff multiplier must be >= 1")
        if self.hedge_cycles is not None and self.hedge_cycles <= 0:
            raise ConfigError("hedge delay must be positive")
        if self.fallback and self.slo_cycles is None:
            raise ConfigError("fallback needs an slo_cycles budget")
        if self.slo_cycles is not None and self.slo_cycles < 0:
            raise ConfigError("SLO budget cannot be negative")

    @property
    def enabled(self) -> bool:
        return (self.timeout_cycles is not None
                or self.hedge_cycles is not None
                or self.fallback)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Mitigation":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ReproError(
                f"unknown Mitigation field(s): {sorted(unknown)!r}")
        return cls(**data)


@dataclass
class ServiceResult:
    """Outcome of one open-loop service run (JSON-exact round trip)."""

    #: arrival process ("poisson" | "mmpp")
    process: str
    #: dispatch policy ("round_robin" | "key_hash" | "jsq")
    dispatch: str
    #: offered load as a fraction of closed-loop capacity
    offered_load: float
    #: offered arrival rate, ops/cycle (load x closed-loop throughput)
    arrival_rate: float
    #: the closed-loop capacity the load was scaled against, ops/cycle
    closed_loop_throughput: float
    #: open-loop requests simulated
    requests: int
    #: cycles from the arrival epoch (t = 0) to the last completion
    makespan: float
    #: requests / makespan, ops/cycle — sags below ``arrival_rate``
    #: when the service cannot keep up
    achieved_throughput: float
    mean_latency: float
    mean_queue_delay: float
    #: end-to-end latency percentiles, cycles: p50 / p95 / p99 / p999
    latency: Dict[str, float]
    #: the full log-bucketed latency distribution (mergeable)
    histogram: dict
    #: per-core queue statistics: requests, busy_fraction,
    #: max_queue_depth, mean_queue_depth
    per_core: List[dict]
    #: the active :class:`Mitigation` as a plain dict; None when no
    #: mitigation was enabled (every core a plain FIFO, counters zero)
    mitigation: Optional[dict] = None
    #: attempts abandoned on timeout (each one also counts a retry)
    timeouts: int = 0
    #: re-dispatches after a timeout
    retries: int = 0
    #: hedged (duplicated) requests issued
    hedges: int = 0
    #: hedges whose second copy finished first
    hedge_wins: int = 0
    #: requests rerouted by the SLO-aware fallback at dispatch time
    fallbacks: int = 0

    @property
    def num_cores(self) -> int:
        return len(self.per_core)

    @property
    def p50(self) -> float:
        return self.latency["p50"]

    @property
    def p99(self) -> float:
        return self.latency["p99"]

    def latency_histogram(self) -> LatencyHistogram:
        """Re-hydrate the full distribution (e.g. for merging runs)."""
        return LatencyHistogram.from_dict(self.histogram)

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> dict:
        """All fields as JSON-native data (exact round trip)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ServiceResult":
        """Inverse of :meth:`to_dict`; rejects unknown keys loudly."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ReproError(
                f"unknown ServiceResult field(s): {sorted(unknown)!r}")
        return cls(**data)


def simulate_service(
    service_cycles: Sequence[Sequence[int]],
    arrivals: Sequence[float],
    key_ids: Sequence[int],
    dispatcher: Dispatcher,
    *,
    process: str,
    offered_load: float,
    arrival_rate: float,
    closed_loop_throughput: float,
    precision: int = DEFAULT_PRECISION,
    mitigation: Optional[Mitigation] = None,
) -> ServiceResult:
    """Run the open-loop queueing simulation.

    ``service_cycles[c]`` is core ``c``'s measured per-op service-time
    sequence; request ``k`` of core ``c`` is charged entry ``k mod
    len`` of it, so service-time autocorrelation (cache warm-up runs,
    unlucky STLT conflict bursts) survives into the queueing model
    instead of being averaged away.

    ``mitigation`` arms timeout/retry, hedging and the SLO fallback
    (see :class:`Mitigation`); ``None`` means ``Mitigation()``, under
    which every core is a plain FIFO.  Everything is a pure function of
    the queue state (per-core ``free_at`` backlogs), so the timeline is
    deterministic per seed.  A timed-out attempt never touches the
    server: the abandonment condition (predicted wait exceeds the
    attempt's budget) is exactly "the server would reach this request
    after the client quit", so skipping the enqueue is equivalent to
    the server discarding a dead request at the queue head — no
    clairvoyance involved.
    """
    n = dispatcher.num_cores
    if len(service_cycles) != n:
        raise ConfigError(
            f"got {len(service_cycles)} service sequences for {n} cores")
    if any(not seq for seq in service_cycles):
        raise ConfigError("every core needs a non-empty service sequence")
    if len(arrivals) != len(key_ids):
        raise ConfigError("arrivals and key ids must align")
    if not arrivals:
        raise ConfigError("need at least one request")
    if any(b < a for a, b in zip(arrivals, arrivals[1:])):
        raise ConfigError("arrival times must be non-decreasing")

    m = mitigation if mitigation is not None else Mitigation()
    free_at = [0.0] * n
    in_flight: List[Deque[float]] = [deque() for _ in range(n)]
    served = [0] * n
    busy = [0.0] * n
    depth_sum = [0] * n
    depth_max = [0] * n
    histogram = LatencyHistogram(precision=precision)
    total_latency = 0.0
    total_queue_delay = 0.0
    timeouts = retries = hedges = hedge_wins = fallbacks = 0
    fallback = m.fallback and n > 1
    # the final attempt always enqueues, so no request is ever dropped
    retry_budgets = ([m.timeout_cycles * (m.backoff ** attempt)
                      for attempt in range(m.retries)]
                     if m.timeout_cycles is not None else [])
    hedge = m.hedge_cycles is not None and n > 1

    def serve(core: int, at: float) -> "tuple[float, float]":
        """Charge one service on ``core`` starting no earlier than ``at``."""
        sequence = service_cycles[core]
        service = sequence[served[core] % len(sequence)]
        served[core] += 1
        start = at if at > free_at[core] else free_at[core]
        completion = start + service
        free_at[core] = completion  # per-core completions stay sorted
        queue = in_flight[core]
        queue.append(completion)
        if len(queue) > depth_max[core]:
            depth_max[core] = len(queue)
        busy[core] += service
        return start, completion

    def least_backlogged(exclude: int = -1) -> int:
        choice, best = -1, None
        for core in range(n):
            if core == exclude:
                continue
            if best is None or free_at[core] < best:
                choice, best = core, free_at[core]
        return choice

    depths = [0] * n
    for index, (arrival, key_id) in enumerate(zip(arrivals, key_ids)):
        for core in range(n):
            queue = in_flight[core]
            while queue and queue[0] <= arrival:
                queue.popleft()
            depths[core] = len(queue)
            depth_sum[core] += len(queue)

        core = dispatcher.pick(index, key_id, depths)
        if not 0 <= core < n:
            raise ReproError(
                f"dispatcher {dispatcher.name!r} picked core {core} "
                f"of {n}")

        # SLO-aware fallback: a request predicted to blow its budget
        # on the picked core reroutes to the healthiest core up front
        if fallback:
            alt = least_backlogged(exclude=core)
            if (free_at[core] - arrival > m.slo_cycles
                    and free_at[alt] < free_at[core]):
                core = alt
                fallbacks += 1

        # timeout + bounded retry with exponential backoff
        t = arrival
        for budget in retry_budgets:
            if free_at[core] - t <= budget:
                break
            t += budget  # client waited the budget out, then quit
            timeouts += 1
            retries += 1
            core = least_backlogged()

        start, completion = serve(core, t)

        # hedge: still queued after the hedge delay -> duplicate to
        # the least-loaded other core; first completion wins, both
        # copies consume server time (no cancellation)
        if hedge and start - t > m.hedge_cycles:
            alt = least_backlogged(exclude=core)
            hedges += 1
            alt_start, alt_completion = serve(alt, t + m.hedge_cycles)
            if alt_completion < completion:
                hedge_wins += 1
                start, completion = alt_start, alt_completion

        latency = completion - arrival
        histogram.record(latency)
        total_latency += latency
        total_queue_delay += start - arrival

    requests = len(arrivals)
    # each core's completions are sorted, so its last one is free_at
    makespan = max(free_at)
    per_core = [
        {
            "core": core,
            "requests": served[core],
            "busy_fraction": busy[core] / makespan if makespan else 0.0,
            "max_queue_depth": depth_max[core],
            "mean_queue_depth": depth_sum[core] / requests,
        }
        for core in range(n)
    ]
    return ServiceResult(
        process=process,
        dispatch=dispatcher.name,
        offered_load=offered_load,
        arrival_rate=arrival_rate,
        closed_loop_throughput=closed_loop_throughput,
        requests=requests,
        makespan=makespan,
        achieved_throughput=requests / makespan if makespan else 0.0,
        mean_latency=total_latency / requests,
        mean_queue_delay=total_queue_delay / requests,
        latency=histogram.percentiles(),
        histogram=histogram.to_dict(),
        per_core=per_core,
        mitigation=m.to_dict() if m.enabled else None,
        timeouts=timeouts,
        retries=retries,
        hedges=hedges,
        hedge_wins=hedge_wins,
        fallbacks=fallbacks,
    )


def mitigation_from_config(config,
                           mean_service: float) -> Optional[Mitigation]:
    """Build the :class:`Mitigation` a config asks for, or ``None``.

    The config expresses delays as *multiples of the mean measured
    service time* (machine-independent); this converts them to cycles.
    The fallback's SLO budget reuses the timeout (or hedge) budget when
    one is set, else defaults to four mean service times.
    """
    if not config.mitigation_enabled:
        return None
    timeout = (config.svc_timeout * mean_service
               if config.svc_timeout is not None else None)
    hedge = (config.svc_hedge * mean_service
             if config.svc_hedge is not None else None)
    slo = None
    if config.svc_fallback:
        slo = timeout if timeout is not None else hedge
        if slo is None:
            slo = 4.0 * mean_service
    return Mitigation(
        timeout_cycles=timeout,
        retries=config.svc_retries,
        backoff=config.svc_backoff,
        hedge_cycles=hedge,
        fallback=config.svc_fallback,
        slo_cycles=slo,
    )


def service_from_config(config, service_cycles: Sequence[Sequence[int]],
                        closed_loop_throughput: float) -> ServiceResult:
    """Drive :func:`simulate_service` from a ``RunConfig``.

    ``config`` is a :class:`~repro.sim.config.RunConfig` with an open
    ``arrival_process``; ``service_cycles`` are the per-core per-op
    cycles the engine captured; ``closed_loop_throughput`` is the
    measured closed-loop capacity (aggregate ops/cycle) that
    ``offered_load`` scales against.
    """
    if config.arrival_process == "closed":
        raise ConfigError("closed-loop configs have no service model")
    if closed_loop_throughput <= 0.0:
        raise ConfigError("closed-loop throughput must be positive")
    rate = config.offered_load * closed_loop_throughput
    count = config.effective_service_requests
    # seed streams are namespaced (repro.params.derive_seed) so the
    # service layer's draws stay independent of the workload generator's
    arrivals = make_arrivals(config.arrival_process, rate, count,
                             seed=derive_seed(config.seed, "svc_arrival"))
    chooser = make_chooser(config.distribution, config.num_keys,
                           seed=derive_seed(config.seed, "svc_keystream"))
    key_ids = chooser.choose_many(count)
    fast_hash = get_hash(config.fast_hash)

    def key_hash(key_id: int) -> int:
        return fast_hash(key_bytes(key_id))

    dispatcher = make_dispatcher(config.dispatch_policy, config.num_cores,
                                 key_hash=key_hash)
    ops = sum(len(seq) for seq in service_cycles)
    mean_service = (
        sum(sum(seq) for seq in service_cycles) / ops if ops else 0.0)
    return simulate_service(
        service_cycles, arrivals, key_ids, dispatcher,
        process=config.arrival_process,
        offered_load=config.offered_load,
        arrival_rate=rate,
        closed_loop_throughput=closed_loop_throughput,
        mitigation=mitigation_from_config(config, mean_service),
    )
