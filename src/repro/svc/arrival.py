"""Open-loop request arrival processes (deterministic per seed).

A closed-loop client issues its next request only when the previous one
completes, which can never observe queueing; real services are *open
loop* — requests arrive on the users' clock regardless of how backed up
the server is (millions of independent Redis clients).  This module
generates the arrival timestamps, in simulated cycles:

* ``poisson`` — memoryless arrivals: i.i.d. exponential inter-arrival
  gaps with mean ``1 / rate``.  The classic steady-traffic model.
* ``mmpp``    — a bursty two-state Markov-modulated Poisson process:
  the instantaneous rate alternates between a *hot* and a *cold* state
  (rate ratio :data:`MMPP_BURSTINESS`, equal expected dwell times, so
  the long-run average rate is exactly ``rate``).  State residence is
  exponential with mean :data:`MMPP_DWELL_REQUESTS` mean-gap units;
  state transitions are evaluated at arrival granularity.  Bursty
  traffic is where tail latency lives — queues built during a hot
  dwell drain during the next cold one.

Both processes are driven by one ``random.Random(seed)``, so identical
seeds reproduce identical timestamp sequences bit for bit (the
determinism contract of the whole service layer) and different seeds
give different draws.  Each exponential gap is
``random.Random.expovariate``'s own formula, ``-log(1 - random()) /
rate``, written inline.
"""

from __future__ import annotations

import random
from math import inf, isfinite, log
from typing import List

from ..errors import ConfigError

__all__ = ["ARRIVAL_PROCESSES", "make_arrivals",
           "poisson_arrivals", "mmpp_arrivals"]

#: open-loop processes this module can generate ("closed" — no arrival
#: clock at all — is the RunConfig default handled by the engine)
ARRIVAL_PROCESSES = ("poisson", "mmpp")

#: MMPP hot-state rate over cold-state rate
MMPP_BURSTINESS = 4.0
#: expected state dwell, in units of the mean inter-arrival gap
MMPP_DWELL_REQUESTS = 64.0


def _check(rate: float, count: int) -> None:
    if not isfinite(rate):
        raise ConfigError("arrival rate must be finite")
    if rate <= 0.0:
        raise ConfigError("arrival rate must be positive")
    if count < 0:
        raise ConfigError("arrival count cannot be negative")


def poisson_arrivals(rate: float, count: int, seed: int = 1) -> List[float]:
    """``count`` Poisson arrival timestamps at ``rate`` requests/cycle."""
    _check(rate, count)
    random_ = random.Random(seed).random
    times: List[float] = []
    append = times.append
    now = 0.0
    for _ in range(count):
        now += -log(1.0 - random_()) / rate
        append(now)
    return times


def mmpp_arrivals(rate: float, count: int, seed: int = 1,
                  burstiness: float = MMPP_BURSTINESS,
                  dwell_requests: float = MMPP_DWELL_REQUESTS) -> List[float]:
    """``count`` bursty (two-state modulated Poisson) arrival timestamps.

    With rate ratio ``b`` and equal expected dwell times, the hot and
    cold rates are ``rate * 2b / (b + 1)`` and ``rate * 2 / (b + 1)``
    — their time-weighted mean is exactly ``rate``, so an MMPP run
    offers the same long-run load as the Poisson run it is compared
    against, just less politely.
    """
    _check(rate, count)
    if not isfinite(burstiness):
        raise ConfigError("burstiness must be finite")
    if burstiness < 1.0:
        raise ConfigError("burstiness must be >= 1")
    if not isfinite(dwell_requests):
        raise ConfigError("dwell must be finite")
    if dwell_requests <= 0.0:
        raise ConfigError("dwell must be positive")
    rng = random.Random(seed)
    random_ = rng.random
    hot_rate = rate * 2.0 * burstiness / (burstiness + 1.0)
    cold_rate = rate * 2.0 / (burstiness + 1.0)
    switch_rate = 1.0 / (dwell_requests / rate)
    if not all(0.0 < r < inf for r in (hot_rate, cold_rate, switch_rate)):
        # e.g. a dwell so short at so high a rate that the switch rate
        # overflows: every dwell would be 0 and the loop never ends
        raise ConfigError("rate, burstiness and dwell give an MMPP rate "
                          "outside the float range")

    times: List[float] = []
    append = times.append
    now = 0.0
    hot = bool(rng.getrandbits(1))
    next_switch = -log(1.0 - random_()) / switch_rate
    for _ in range(count):
        while now >= next_switch:
            hot = not hot
            next_switch += -log(1.0 - random_()) / switch_rate
        now += -log(1.0 - random_()) / (hot_rate if hot else cold_rate)
        append(now)
    return times


def make_arrivals(process: str, rate: float, count: int,
                  seed: int = 1) -> List[float]:
    """Generate ``count`` timestamps for a named arrival process."""
    if process == "poisson":
        return poisson_arrivals(rate, count, seed=seed)
    if process == "mmpp":
        return mmpp_arrivals(rate, count, seed=seed)
    raise ConfigError(
        f"unknown arrival process {process!r}; "
        f"known: {list(ARRIVAL_PROCESSES)!r}")
