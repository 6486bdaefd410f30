"""Measurement instruments: latency recorders, counters, time series.

These feed the benchmark harness that regenerates the paper's figures:
Figure 3/5 need CDFs of response times, Figure 4 needs throughput counters,
Figure 6 needs commit/abort counts, Figure 7 needs boxplot statistics, and
Figure 8 needs a time series of latencies around a failure event.

The instruments are pure data structures with no dependency on the
simulator or any transport backend — protocol roles count commits the
same way whether they run above the discrete-event loop or as real
processes over TCP.  (:mod:`repro.sim` re-exports the common names for
convenience.)
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "BoxplotStats",
    "Counter",
    "CounterSet",
    "LatencyRecorder",
    "TimeSeries",
    "percentile",
]


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile of an ascending sequence.

    ``fraction`` is in [0, 1].  Matches numpy's default ("linear") method so
    harness output is comparable with any external analysis.
    """
    if not sorted_values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction out of range: {fraction}")
    if len(sorted_values) == 1:
        return float(sorted_values[0])
    rank = fraction * (len(sorted_values) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return float(sorted_values[low])
    weight = rank - low
    return float(sorted_values[low] * (1.0 - weight) + sorted_values[high] * weight)


@dataclass
class BoxplotStats:
    """Five-number summary + mean, as drawn in Figure 7."""

    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    mean: float
    count: int


class LatencyRecorder:
    """Collects latency samples (ms) with optional timestamps.

    Samples are kept raw; summaries are computed on demand over a sorted
    copy that is cached until the next insertion.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._values: List[float] = []
        self._timestamps: List[Optional[float]] = []
        self._sorted_cache: Optional[List[float]] = None

    def add(self, value: float, timestamp: Optional[float] = None) -> None:
        """Record one sample; ``timestamp`` stays ``None`` when omitted.

        A sample taken at simulated time zero is a real data point, so
        "no timestamp" must not collapse onto ``t=0.0`` — time-series
        consumers (:attr:`timestamped`) skip untimed samples instead.
        """
        self._values.append(float(value))
        self._timestamps.append(None if timestamp is None else float(timestamp))
        self._sorted_cache = None

    def extend(
        self,
        values: Iterable[float],
        timestamps: Optional[Iterable[float]] = None,
    ) -> None:
        """Bulk-record samples, optionally with matching timestamps.

        Without ``timestamps`` every sample is untimed (it contributes to
        percentiles but not to :attr:`timestamped`).  With ``timestamps``
        the two iterables are paired positionally and must have the same
        length.
        """
        if timestamps is None:
            for value in values:
                self.add(value)
            return
        values = list(values)
        timestamps = list(timestamps)
        if len(values) != len(timestamps):
            raise ValueError(
                f"extend() got {len(values)} values but "
                f"{len(timestamps)} timestamps"
            )
        for value, timestamp in zip(values, timestamps):
            self.add(value, timestamp)

    def __len__(self) -> int:
        return len(self._values)

    @property
    def values(self) -> List[float]:
        return list(self._values)

    @property
    def timestamped(self) -> List[Tuple[float, float]]:
        """(timestamp, value) pairs in insertion order.

        Samples recorded without a timestamp are skipped — they have no
        place on a time axis; genuine ``t=0.0`` samples are kept.
        """
        return [
            (timestamp, value)
            for timestamp, value in zip(self._timestamps, self._values)
            if timestamp is not None
        ]

    def _sorted(self) -> List[float]:
        if self._sorted_cache is None:
            self._sorted_cache = sorted(self._values)
        return self._sorted_cache

    def percentile(self, fraction: float) -> float:
        return percentile(self._sorted(), fraction)

    @property
    def median(self) -> float:
        return self.percentile(0.5)

    @property
    def mean(self) -> float:
        if not self._values:
            raise ValueError("mean of empty recorder")
        return sum(self._values) / len(self._values)

    @property
    def minimum(self) -> float:
        return self._sorted()[0]

    @property
    def maximum(self) -> float:
        return self._sorted()[-1]

    def boxplot(self) -> BoxplotStats:
        return BoxplotStats(
            minimum=self.minimum,
            q1=self.percentile(0.25),
            median=self.median,
            q3=self.percentile(0.75),
            maximum=self.maximum,
            mean=self.mean,
            count=len(self),
        )

    def cdf_points(self, resolution: int = 100) -> List[Tuple[float, float]]:
        """(latency, cumulative fraction) pairs — the curves of Figures 3/5."""
        data = self._sorted()
        if not data:
            return []
        points: List[Tuple[float, float]] = []
        for step in range(resolution + 1):
            fraction = step / resolution
            points.append((percentile(data, fraction), fraction))
        return points

    def fraction_below(self, threshold: float) -> float:
        """Fraction of samples strictly below ``threshold``."""
        data = self._sorted()
        if not data:
            return 0.0
        return bisect.bisect_left(data, threshold) / len(data)

    def summary(self) -> Dict[str, float]:
        if not self._values:
            return {"count": 0}
        return {
            "count": len(self),
            "mean": self.mean,
            "p50": self.median,
            "p90": self.percentile(0.90),
            "p99": self.percentile(0.99),
            "min": self.minimum,
            "max": self.maximum,
        }


@dataclass
class Counter:
    """A single named monotonically increasing counter."""

    name: str
    value: int = 0

    def increment(self, amount: int = 1) -> None:
        self.value += amount


class CounterSet:
    """A bag of named counters (commits, aborts, collisions, rounds, ...)."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}

    def increment(self, name: str, amount: int = 1) -> None:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        counter.value += amount

    def get(self, name: str) -> int:
        counter = self._counters.get(name)
        return counter.value if counter else 0

    def as_dict(self) -> Dict[str, int]:
        return {name: counter.value for name, counter in sorted(self._counters.items())}

    def __contains__(self, name: str) -> bool:
        return name in self._counters


class TimeSeries:
    """Timestamped scalar samples bucketed into fixed windows.

    Used for Figure 8: per-transaction latencies over elapsed time around a
    simulated data center outage.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._points: List[Tuple[float, float]] = []

    def add(self, timestamp: float, value: float) -> None:
        self._points.append((float(timestamp), float(value)))

    def __len__(self) -> int:
        return len(self._points)

    @property
    def points(self) -> List[Tuple[float, float]]:
        return list(self._points)

    def bucket_means(self, bucket_ms: float) -> List[Tuple[float, float, int]]:
        """(bucket_start, mean_value, count) for each non-empty bucket."""
        buckets: Dict[int, List[float]] = {}
        for timestamp, value in self._points:
            buckets.setdefault(int(timestamp // bucket_ms), []).append(value)
        out = []
        for index in sorted(buckets):
            values = buckets[index]
            out.append((index * bucket_ms, sum(values) / len(values), len(values)))
        return out

    def mean_between(self, start: float, end: float) -> float:
        """Mean of samples whose timestamp lies in [start, end)."""
        values = [v for t, v in self._points if start <= t < end]
        if not values:
            raise ValueError(f"no samples in [{start}, {end})")
        return sum(values) / len(values)

    def bucket_counts(
        self, bucket_ms: float, start: float, end: float
    ) -> List[Tuple[float, int]]:
        """(bucket_start, sample_count) for EVERY bucket covering [start, end).

        Unlike :meth:`bucket_means`, empty buckets appear with count 0 —
        the chaos harness reads "zero commits landed in this window" as an
        unavailability verdict, so silence must be visible."""
        if bucket_ms <= 0:
            raise ValueError("bucket_ms must be positive")
        counts: Dict[int, int] = {}
        for timestamp, _value in self._points:
            if start <= timestamp < end:
                index = int((timestamp - start) // bucket_ms)
                counts[index] = counts.get(index, 0) + 1
        total = int(math.ceil((end - start) / bucket_ms))
        return [
            (start + index * bucket_ms, counts.get(index, 0))
            for index in range(total)
        ]
