"""Log-bucketed latency histogram (HdrHistogram-style, sparse).

Latency distributions are heavy-tailed — a p99.9 can sit orders of
magnitude above the median — so fixed-width buckets either waste memory
or destroy tail resolution.  This histogram buckets values
*geometrically*: each power-of-two octave is split into ``2**precision``
equal sub-buckets, so every bucket's width is at most ``value /
2**precision`` and any quantile is reported with bounded *relative*
error (``precision=7`` → under 0.8%).  Counts live in a sparse dict, so
an idle histogram costs nothing and a loaded one stays small.

Histograms **merge**: two histograms with the same precision combine by
adding bucket counts (plus exact count/total/min/max folds), which is
associative and commutative — per-core or per-worker recording folds
into one service-wide distribution in any order with identical results
(property-tested).  ``to_dict``/``from_dict`` round-trip exactly
through JSON, which is how latency distributions persist in the
``repro.exp`` result store.
"""

from __future__ import annotations

import math
from math import frexp
from typing import Dict, Iterable, Mapping, Optional

from ..errors import ConfigError, ReproError

__all__ = ["LatencyHistogram", "DEFAULT_PRECISION"]

#: sub-buckets per power-of-two octave = 2**DEFAULT_PRECISION (128),
#: i.e. quantiles within <0.8% relative error
DEFAULT_PRECISION = 7

#: the canonical quantiles the service layer reports
REPORTED_QUANTILES = (("p50", 0.50), ("p95", 0.95),
                      ("p99", 0.99), ("p999", 0.999))


class LatencyHistogram:
    """Sparse log-bucketed histogram over non-negative values."""

    __slots__ = ("precision", "_sub", "counts", "count", "total",
                 "min_value", "max_value")

    def __init__(self, precision: int = DEFAULT_PRECISION) -> None:
        if not 1 <= precision <= 20:
            raise ConfigError("histogram precision must be in [1, 20]")
        self.precision = precision
        self._sub = 1 << precision
        #: bucket index -> count (sparse)
        self.counts: Dict[int, int] = {}
        self.count = 0
        #: exact sum of recorded values (mean stays bucket-error-free)
        self.total = 0.0
        self.min_value: Optional[float] = None
        self.max_value: Optional[float] = None

    # -- bucketing ---------------------------------------------------------

    def bucket_index(self, value: float) -> int:
        """The bucket holding ``value``; bucket 0 is the ``[0, 1)`` floor.

        For ``value >= 1``: octave ``e = floor(log2 value)``, sub-bucket
        ``floor((value / 2**e - 1) * 2**precision)`` — index
        ``1 + e * 2**precision + sub``.  Buckets partition ``[0, inf)``;
        boundaries belong to the upper bucket.
        """
        if value < 0:
            raise ConfigError("latencies cannot be negative")
        if value < 1.0:
            return 0
        mantissa, exponent = math.frexp(value)  # value = mantissa * 2**e
        octave = exponent - 1                   # mantissa in [0.5, 1)
        sub = int((mantissa * 2.0 - 1.0) * self._sub)
        if sub >= self._sub:  # guard the mantissa == 1-ulp edge
            sub = self._sub - 1
        return 1 + octave * self._sub + sub

    def bucket_bounds(self, index: int) -> "tuple":
        """``[lower, upper)`` edges of bucket ``index``."""
        if index < 0:
            raise ConfigError("bucket index cannot be negative")
        if index == 0:
            return (0.0, 1.0)
        octave, sub = divmod(index - 1, self._sub)
        scale = float(1 << octave) if octave < 1024 else 2.0 ** octave
        lower = scale * (1.0 + sub / self._sub)
        upper = scale * (1.0 + (sub + 1) / self._sub)
        return (lower, upper)

    # -- recording ---------------------------------------------------------

    def record(self, value: float, count: int = 1) -> None:
        """Record ``count`` observations of ``value``.

        The bucket is :meth:`bucket_index`'s, computed inline: this is
        the per-request call of every service and cluster loop.
        """
        if count < 0:
            raise ConfigError("cannot record a negative count")
        if count == 0:
            return
        if value < 1.0:
            if value < 0:
                raise ConfigError("latencies cannot be negative")
            index = 0
        else:
            mantissa, exponent = frexp(value)
            sub_buckets = self._sub
            sub = int((mantissa * 2.0 - 1.0) * sub_buckets)
            if sub >= sub_buckets:
                sub = sub_buckets - 1
            index = 1 + (exponent - 1) * sub_buckets + sub
        counts = self.counts
        counts[index] = counts.get(index, 0) + count
        self.count += count
        self.total += value * count
        if self.min_value is None or value < self.min_value:
            self.min_value = value
        if self.max_value is None or value > self.max_value:
            self.max_value = value

    def record_many(self, values: Iterable[float]) -> None:
        for value in values:
            self.record(value)

    # -- merging -----------------------------------------------------------

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Fold ``other`` into ``self`` (in place); returns ``self``.

        Merging is associative and commutative: bucket counts add,
        ``count``/``total`` add, min/max fold — so any merge tree over
        the same recordings produces an identical histogram.
        """
        if other.precision != self.precision:
            raise ConfigError(
                f"cannot merge histograms of precision "
                f"{other.precision} into {self.precision}")
        for index, count in other.counts.items():
            self.counts[index] = self.counts.get(index, 0) + count
        self.count += other.count
        self.total += other.total
        if other.min_value is not None and (
                self.min_value is None or other.min_value < self.min_value):
            self.min_value = other.min_value
        if other.max_value is not None and (
                self.max_value is None or other.max_value > self.max_value):
            self.max_value = other.max_value
        return self

    # -- queries -----------------------------------------------------------

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The ``q``-quantile, within one bucket's relative error.

        Walks buckets in value order until the cumulative count reaches
        ``ceil(q * count)`` and returns that bucket's *upper* edge
        (clamped to the exact observed maximum), so the reported value
        is an upper bound no farther than one bucket width — i.e.
        relative error at most ``2**-precision`` — from the exact
        rank-``ceil(q*count)`` order statistic.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigError("quantile must be in [0, 1]")
        if not self.count:
            raise ReproError("quantile of an empty histogram")
        target = max(1, math.ceil(q * self.count))
        cumulative = 0
        for index in sorted(self.counts):
            cumulative += self.counts[index]
            if cumulative >= target:
                upper = self.bucket_bounds(index)[1]
                assert self.max_value is not None
                return min(upper, self.max_value)
        # unreachable: cumulative reaches self.count >= target
        raise AssertionError("histogram counts drifted")  # pragma: no cover

    def percentiles(self) -> Dict[str, float]:
        """The canonical report: p50 / p95 / p99 / p99.9."""
        return {name: self.quantile(q) for name, q in REPORTED_QUANTILES}

    def fraction_at_or_below(self, value: float) -> float:
        """The empirical CDF at ``value``: the fraction of observations
        at or below it, within one bucket's relative error (the bucket
        containing ``value`` counts fully).  This is the availability
        probe of the failover reports — "what fraction of fault-run
        requests still met the quiet-run p99 SLO".
        """
        if value < 0:
            raise ConfigError("latencies cannot be negative")
        if not self.count:
            raise ReproError("fraction of an empty histogram")
        limit = self.bucket_index(value)
        at_or_below = sum(count for index, count in self.counts.items()
                          if index <= limit)
        return at_or_below / self.count

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-native payload; exact round trip via :meth:`from_dict`.

        Bucket keys serialise as strings (JSON objects cannot carry
        integer keys), sorted order for stable output.
        """
        return {
            "precision": self.precision,
            "counts": {str(i): self.counts[i] for i in sorted(self.counts)},
            "count": self.count,
            "total": self.total,
            "min": self.min_value,
            "max": self.max_value,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "LatencyHistogram":
        known = {"precision", "counts", "count", "total", "min", "max"}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(
                f"unknown histogram field(s): {sorted(unknown)!r}")
        hist = cls(precision=int(data.get("precision", DEFAULT_PRECISION)))
        counts = data.get("counts", {})
        if not isinstance(counts, Mapping):
            raise ConfigError("histogram counts must be a mapping")
        hist.counts = {int(k): int(v) for k, v in counts.items()}
        hist.count = int(data.get("count", 0))
        hist.total = float(data.get("total", 0.0))
        hist.min_value = data.get("min")  # type: ignore[assignment]
        hist.max_value = data.get("max")  # type: ignore[assignment]
        return hist

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatencyHistogram):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"LatencyHistogram(count={self.count}, "
                f"mean={self.mean:.1f}, max={self.max_value})")
