"""Statistics primitives shared by the simulators.

These are intentionally simple, dependency-free accumulators: counters,
a scalar summary (mean/min/max), a fixed-bin histogram, and a time series
recorder used for the machine-activity plots (Figure 12 of the paper).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


class Counter:
    """A named monotonically increasing counter."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("Counter.add requires a non-negative amount")
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self.value})"


class Summary:
    """Streaming scalar summary: count, mean, min, max, variance."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> float:
        return self._mean if self.count else math.nan

    @property
    def variance(self) -> float:
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)


class Histogram:
    """Fixed-width binned histogram over [lo, hi)."""

    def __init__(self, lo: float, hi: float, bins: int, name: str = "") -> None:
        if hi <= lo:
            raise ValueError("Histogram requires hi > lo")
        if bins <= 0:
            raise ValueError("Histogram requires at least one bin")
        self.name = name
        self.lo = lo
        self.hi = hi
        self.bins = bins
        self.counts = [0] * bins
        self.underflow = 0
        self.overflow = 0

    @property
    def bin_width(self) -> float:
        return (self.hi - self.lo) / self.bins

    def observe(self, value: float) -> None:
        if value < self.lo:
            self.underflow += 1
        elif value >= self.hi:
            self.overflow += 1
        else:
            index = int((value - self.lo) / self.bin_width)
            self.counts[min(index, self.bins - 1)] += 1

    @property
    def total(self) -> int:
        return sum(self.counts) + self.underflow + self.overflow

    def bin_edges(self) -> List[float]:
        return [self.lo + i * self.bin_width for i in range(self.bins + 1)]

    def percentile(self, q: float) -> float:
        """Deterministic percentile from the binned counts.

        ``q`` is in ``[0, 100]`` (the :mod:`repro.analysis.aggregate`
        convention).  The target rank ``q/100 * total`` is located by a
        cumulative walk over the bins with linear interpolation inside
        the containing bin; mass in the underflow/overflow regions
        resolves to ``lo``/``hi`` (the histogram cannot know more).
        Returns ``nan`` for an empty histogram.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile requires q in [0, 100]")
        total = self.total
        if total == 0:
            return math.nan
        target = q / 100.0 * total
        cumulative = float(self.underflow)
        if target <= cumulative and self.underflow:
            return self.lo
        for index, count in enumerate(self.counts):
            if count and target <= cumulative + count:
                fraction = (target - cumulative) / count
                return self.lo + (index + fraction) * self.bin_width
            cumulative += count
        return self.hi


@dataclass
class Sample:
    time: float
    value: float


class TimeSeries:
    """Append-only (time, value) series with window aggregation."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.samples: List[Sample] = []

    def record(self, time: float, value: float) -> None:
        if self.samples and time < self.samples[-1].time:
            raise ValueError("TimeSeries requires non-decreasing time")
        self.samples.append(Sample(time, value))

    def __len__(self) -> int:
        return len(self.samples)

    def window_mean(self, start: float, end: float) -> float:
        values = [s.value for s in self.samples if start <= s.time < end]
        if not values:
            return 0.0
        return sum(values) / len(values)

    def rebin(self, start: float, end: float, bins: int) -> List[float]:
        """Average value per uniform time bin (empty bins are 0)."""
        if bins <= 0:
            raise ValueError("rebin requires bins >= 1")
        width = (end - start) / bins
        out = []
        for i in range(bins):
            out.append(self.window_mean(start + i * width,
                                        start + (i + 1) * width))
        return out


class StatsRegistry:
    """A flat namespace of named statistics objects."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._summaries: Dict[str, Summary] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._series: Dict[str, TimeSeries] = {}

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def summary(self, name: str) -> Summary:
        if name not in self._summaries:
            self._summaries[name] = Summary(name)
        return self._summaries[name]

    def histogram(self, name: str, lo: float = 0.0, hi: float = 1.0,
                  bins: int = 10) -> Histogram:
        """The named histogram, created on first use with these bounds.

        Later calls return the existing histogram and must agree on the
        binning — two call sites silently observing into differently
        shaped bins would corrupt every percentile.
        """
        existing = self._histograms.get(name)
        if existing is None:
            existing = self._histograms[name] = Histogram(lo, hi, bins, name)
        elif (existing.lo, existing.hi, existing.bins) != (lo, hi, bins):
            raise ValueError(
                f"histogram {name!r} already exists with bounds "
                f"({existing.lo}, {existing.hi}, {existing.bins}), "
                f"requested ({lo}, {hi}, {bins})")
        return existing

    def series(self, name: str) -> TimeSeries:
        if name not in self._series:
            self._series[name] = TimeSeries(name)
        return self._series[name]

    def counter_values(self) -> Dict[str, int]:
        return {name: c.value for name, c in sorted(self._counters.items())}

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """A deep, JSON-able copy of every registered statistic.

        Deterministic by construction (keys sorted, values copied), so
        two registries fed the same observations snapshot identically;
        empty summaries export ``None`` for mean/min/max to keep the
        payload strict-JSON (no NaN).
        """
        return {
            "counters": {name: counter.value
                         for name, counter in sorted(self._counters.items())},
            "summaries": {
                name: {
                    "count": summary.count,
                    "mean": summary.mean if summary.count else None,
                    "min": summary.min,
                    "max": summary.max,
                    "stddev": summary.stddev if summary.count else None,
                }
                for name, summary in sorted(self._summaries.items())
            },
            "histograms": {
                name: {
                    "lo": hist.lo,
                    "hi": hist.hi,
                    "bins": hist.bins,
                    "counts": list(hist.counts),
                    "underflow": hist.underflow,
                    "overflow": hist.overflow,
                }
                for name, hist in sorted(self._histograms.items())
            },
            "series": {
                name: {
                    "times": [sample.time for sample in series.samples],
                    "values": [sample.value for sample in series.samples],
                }
                for name, series in sorted(self._series.items())
            },
        }

    def reset(self) -> None:
        for counter in self._counters.values():
            counter.reset()
        self._summaries.clear()
        self._histograms.clear()
        self._series.clear()
