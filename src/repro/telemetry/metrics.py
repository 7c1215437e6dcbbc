"""Deterministic, mergeable metric instruments.

Every instrument here is built for the campaign layer's determinism
contract: instruments accumulate plain numbers, carry no wall-clock
state, and merge associatively so that sharded accumulation folded in
spec order is bit-identical to serial accumulation.

* :class:`Counter` — monotone accumulator (integers add exactly).
* :class:`Gauge` — last-write-wins sample, ordered by a caller-supplied
  virtual timestamp so merges do not depend on fold order.
* :class:`LogBucketHistogram` — streaming histogram over *fixed*
  log-spaced buckets. The bucket geometry is a module constant, never a
  per-instance fit, so any two histograms of the same metric are
  merge-compatible and bucket counts (integers) combine exactly.
* :class:`TimeSeries` — per-virtual-time-bin aggregates (count, sum,
  min, max), the instrument behind "victim fraction over virtual time".
"""

from __future__ import annotations

import math
from math import floor as _floor, log10 as _log10
from typing import Dict, List, Optional, Tuple

# ----------------------------------------------------------------------
# Fixed histogram geometry (shared by every LogBucketHistogram).
# ----------------------------------------------------------------------

#: Buckets per decade: bucket ``i`` spans ``[10^(i/8), 10^((i+1)/8))``.
BUCKETS_PER_DECADE = 8

#: Bucket indices are clamped to this range (1e-9 .. 1e9 seconds/bytes —
#: far wider than anything the simulation produces).
MIN_BUCKET_INDEX = -9 * BUCKETS_PER_DECADE
MAX_BUCKET_INDEX = 9 * BUCKETS_PER_DECADE


#: The narrowest :class:`TimeSeries` bin (virtual seconds). A nanosecond
#: is far below any delay the simulation models, and keeps the bin
#: index ``when // bin_width`` a finite float for any virtual time under
#: 1e299 s; a 1e-307 s bin overflows it at a virtual time of 100 s.
MIN_BIN_WIDTH = 1e-9


def bucket_index(value: float) -> int:
    """The fixed log-spaced bucket a positive value falls into."""
    if value <= 0.0:
        raise ValueError(f"bucket_index needs a positive value, got {value}")
    index = math.floor(math.log10(value) * BUCKETS_PER_DECADE)
    return max(MIN_BUCKET_INDEX, min(MAX_BUCKET_INDEX, index))


def bucket_upper_edge(index: int) -> float:
    """Exclusive upper edge of bucket ``index``."""
    return 10.0 ** ((index + 1) / BUCKETS_PER_DECADE)


class Counter:
    """A monotone accumulator.

    >>> c = Counter()
    >>> c.inc(); c.inc(2)
    >>> c.value
    3
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self.value += amount

    def merge(self, other: "Counter") -> None:
        self.value += other.value

    def state(self):
        return self.value

    @classmethod
    def from_state(cls, state) -> "Counter":
        counter = cls()
        counter.value = int(state)
        return counter


class Gauge:
    """A last-write-wins sample ordered by virtual time.

    The timestamp makes the merge order-independent: whichever side
    observed later (in virtual time) wins, regardless of which registry
    shard is folded first. Ties keep the fold target's sample so serial
    and sharded folds agree.
    """

    __slots__ = ("value", "updated_at")

    def __init__(self) -> None:
        self.value = 0.0
        self.updated_at = -math.inf

    def set(self, value: float, at: float) -> None:
        """Record ``value`` observed at virtual time ``at``.

        The timestamp is mandatory: an implicit default would make a
        plain ``set(v)`` after any timestamped write a silent no-op.
        """
        if at >= self.updated_at:
            self.value = float(value)
            self.updated_at = at

    def merge(self, other: "Gauge") -> None:
        if other.updated_at > self.updated_at:
            self.value = other.value
            self.updated_at = other.updated_at

    def state(self):
        # A never-set gauge reports a null timestamp: -inf is only an
        # internal ordering sentinel and is not valid JSON.
        at = None if self.updated_at == -math.inf else self.updated_at
        return [at, self.value]

    @classmethod
    def from_state(cls, state) -> "Gauge":
        gauge = cls()
        at, value = state
        gauge.updated_at = -math.inf if at is None else at
        gauge.value = float(value)
        return gauge


class LogBucketHistogram:
    """Streaming histogram over the module's fixed log-spaced buckets.

    Values ``<= 0`` land in a dedicated ``underflow`` bucket (clock
    offsets of exactly zero are real observations). Because the bucket
    geometry is global and counts are integers, merging histograms is
    exact and associative; only the float ``total`` depends on fold
    order, which the campaign layer pins by folding in spec order.
    """

    __slots__ = ("count", "total", "minimum", "maximum", "underflow",
                 "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self.underflow = 0
        self.buckets: Dict[int, int] = {}

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if value <= 0.0:
            self.underflow += 1
            return
        # bucket_index(value), inline: this runs once per observation.
        index = _floor(_log10(value) * BUCKETS_PER_DECADE)
        if index < MIN_BUCKET_INDEX:
            index = MIN_BUCKET_INDEX
        elif index > MAX_BUCKET_INDEX:
            index = MAX_BUCKET_INDEX
        buckets = self.buckets
        buckets[index] = buckets.get(index, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile: the upper edge of the bucket the
        rank falls into (0.0 for ranks inside the underflow bucket)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = self.underflow
        if rank <= seen:
            return 0.0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if rank <= seen:
                # The bucket's edge, clamped so the estimate never
                # exceeds the largest value actually observed.
                return min(bucket_upper_edge(index), self.maximum)
        return self.maximum

    def merge(self, other: "LogBucketHistogram") -> None:
        self.count += other.count
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        self.underflow += other.underflow
        for index, count in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + count

    def state(self):
        return {
            "count": self.count,
            "total": self.total,
            "min": None if self.count == 0 else self.minimum,
            "max": None if self.count == 0 else self.maximum,
            "underflow": self.underflow,
            "buckets": {str(index): self.buckets[index]
                        for index in sorted(self.buckets)},
        }

    @classmethod
    def from_state(cls, state) -> "LogBucketHistogram":
        histogram = cls()
        histogram.count = int(state["count"])
        histogram.total = float(state["total"])
        if histogram.count:
            histogram.minimum = state["min"]
            histogram.maximum = state["max"]
        histogram.underflow = int(state["underflow"])
        histogram.buckets = {int(index): int(count)
                             for index, count in state["buckets"].items()}
        return histogram


class TimeSeries:
    """Per-virtual-time-bin aggregates of a sampled quantity.

    ``record(t, v)`` folds ``v`` into the bin ``floor(t / bin_width)``;
    each bin keeps (count, sum, min, max). The per-bin *mean* of a 0/1
    indicator is exactly "fraction of events in that window" — which is
    how the population layer reads victim fraction over virtual time.
    """

    __slots__ = ("bin_width", "bins")

    def __init__(self, bin_width: float = 1.0) -> None:
        if not bin_width >= MIN_BIN_WIDTH:
            raise ValueError(f"bin_width must be >= {MIN_BIN_WIDTH:g}, "
                             f"got {bin_width}")
        self.bin_width = float(bin_width)
        self.bins: Dict[int, List[float]] = {}

    def record(self, when: float, value: float) -> None:
        index = int(when // self.bin_width)
        value = float(value)
        entry = self.bins.get(index)
        if entry is None:
            self.bins[index] = [1, value, value, value]
            return
        entry[0] += 1
        entry[1] += value
        if value < entry[2]:
            entry[2] = value
        if value > entry[3]:
            entry[3] = value

    @property
    def count(self) -> int:
        return sum(int(entry[0]) for entry in self.bins.values())

    def mean(self) -> float:
        """Mean over every recorded sample (all bins pooled)."""
        count = self.count
        if not count:
            return 0.0
        return sum(entry[1] for _, entry in sorted(self.bins.items())) / count

    def series(self) -> List[Tuple[float, float]]:
        """``(bin start time, bin mean)`` pairs in time order."""
        return [(index * self.bin_width, entry[1] / entry[0])
                for index, entry in sorted(self.bins.items())]

    def merge(self, other: "TimeSeries") -> None:
        if other.bin_width != self.bin_width:
            raise ValueError(
                f"cannot merge series with bin widths "
                f"{self.bin_width} and {other.bin_width}")
        for index, entry in other.bins.items():
            mine = self.bins.get(index)
            if mine is None:
                self.bins[index] = list(entry)
                continue
            mine[0] += entry[0]
            mine[1] += entry[1]
            if entry[2] < mine[2]:
                mine[2] = entry[2]
            if entry[3] > mine[3]:
                mine[3] = entry[3]

    def state(self):
        return {
            "bin_width": self.bin_width,
            "bins": {str(index): list(entry)
                     for index, entry in sorted(self.bins.items())},
        }

    @classmethod
    def from_state(cls, state) -> "TimeSeries":
        series = cls(state["bin_width"])
        series.bins = {int(index): list(entry)
                       for index, entry in state["bins"].items()}
        return series
