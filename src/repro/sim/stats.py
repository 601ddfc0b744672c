"""Online statistics used throughout the simulator.

Everything here is incremental: the simulator feeds observations as they
happen and the experiment harness reads summaries at the end (or at epoch
boundaries). Nothing stores the full event stream unless explicitly asked
to (:class:`LatencyRecorder` with ``keep_samples=True``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class OnlineStats:
    """Streaming count/mean/variance/min/max (Welford's algorithm)."""

    __slots__ = ("n", "mean", "_m2", "min", "max", "total")

    def __init__(self) -> None:
        self.n = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.total = 0.0

    def add(self, x: float) -> None:
        """Fold one observation into the summary."""
        self.n += 1
        self.total += x
        delta = x - self.mean
        self.mean += delta / self.n
        self._m2 += delta * (x - self.mean)
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    def add_all(self, values: list[float]) -> None:
        """Fold observations in order, bit-identical to :meth:`add` on each."""
        n, total, mean, m2 = self.n, self.total, self.mean, self._m2
        mn, mx = self.min, self.max
        for x in values:
            n += 1
            total += x
            delta = x - mean
            mean += delta / n
            m2 += delta * (x - mean)
            if x < mn:
                mn = x
            if x > mx:
                mx = x
        self.n, self.total, self.mean, self._m2 = n, total, mean, m2
        self.min, self.max = mn, mx

    @property
    def variance(self) -> float:
        """Population variance; 0.0 with fewer than two observations."""
        if self.n < 2:
            return 0.0
        return self._m2 / self.n

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)

    def merge(self, other: "OnlineStats") -> None:
        """Fold another summary into this one (parallel Welford merge)."""
        if other.n == 0:
            return
        if self.n == 0:
            self.n = other.n
            self.mean = other.mean
            self._m2 = other._m2
            self.min = other.min
            self.max = other.max
            self.total = other.total
            return
        n = self.n + other.n
        delta = other.mean - self.mean
        self._m2 += other._m2 + delta * delta * self.n * other.n / n
        self.mean = (self.mean * self.n + other.mean * other.n) / n
        self.n = n
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OnlineStats(n={self.n}, mean={self.mean:.6g}, stdev={self.stdev:.6g})"


class LatencyRecorder:
    """Latency accounting with optional percentile support.

    Always keeps streaming moments; when ``keep_samples`` is true it also
    retains every sample so exact percentiles can be computed afterwards.
    """

    def __init__(self, keep_samples: bool = True) -> None:
        self.stats = OnlineStats()
        self.keep_samples = keep_samples
        self._samples: list[float] = []

    def add(self, latency: float) -> None:
        self.stats.add(latency)
        if self.keep_samples:
            self._samples.append(latency)

    @property
    def n(self) -> int:
        return self.stats.n

    @property
    def mean(self) -> float:
        return self.stats.mean

    def percentile(self, q: float) -> float:
        """Exact percentile (q in [0, 100]); requires kept samples."""
        if not self.keep_samples:
            raise ValueError("percentiles need keep_samples=True")
        if not self._samples:
            raise ValueError("no samples recorded")
        return float(np.percentile(self._samples, q))

    def samples(self) -> np.ndarray:
        """Copy of the recorded samples (empty if not kept)."""
        return np.asarray(self._samples, dtype=float)


class TimeWeighted:
    """Integrates a piecewise-constant signal over simulated time.

    Used for utilization, queue length and power-state occupancy: call
    :meth:`update` whenever the signal changes and :meth:`finish` at the
    end of the run.
    """

    __slots__ = ("_value", "_last_time", "integral", "_started")

    def __init__(self, initial: float = 0.0, start_time: float = 0.0) -> None:
        self._value = initial
        self._last_time = start_time
        self.integral = 0.0
        self._started = start_time

    @property
    def value(self) -> float:
        return self._value

    def update(self, now: float, new_value: float) -> None:
        """Advance the integral to ``now`` and switch to ``new_value``."""
        if now < self._last_time:
            raise ValueError(f"time went backwards: {now} < {self._last_time}")
        self.integral += self._value * (now - self._last_time)
        self._last_time = now
        self._value = new_value

    def advance(self, now: float) -> None:
        """Advance the integral to ``now`` without changing the value."""
        self.update(now, self._value)

    def mean(self, now: float) -> float:
        """Time-average of the signal from the start through ``now``."""
        span = now - self._started
        if span <= 0:
            return self._value
        return (self.integral + self._value * (now - self._last_time)) / span


class DeficitTracker:
    """Running sum of (observation - goal), the boost trigger signal.

    Hibernator's performance guarantee keeps the *cumulative average*
    response time at or below the goal. Equivalently, the running sum of
    per-request overshoot ``latency - goal`` must be <= 0. This class
    tracks that sum; a positive :attr:`deficit` means the guarantee is
    currently violated and the array must be boosted to full speed.
    """

    __slots__ = ("goal", "deficit", "n")

    def __init__(self, goal: float) -> None:
        if goal <= 0:
            raise ValueError(f"goal must be positive, got {goal!r}")
        self.goal = goal
        self.deficit = 0.0
        self.n = 0

    def add(self, latency: float) -> None:
        self.deficit += latency - self.goal
        self.n += 1

    @property
    def violated(self) -> bool:
        """True when the cumulative average currently exceeds the goal."""
        return self.deficit > 0.0

    @property
    def cumulative_average(self) -> float:
        """Cumulative average response time implied by the deficit."""
        if self.n == 0:
            return 0.0
        return self.goal + self.deficit / self.n

    def headroom(self) -> float:
        """Slack (in latency-seconds) before the guarantee is violated."""
        return -self.deficit


@dataclass
class WindowAverage:
    """Fixed-duration tumbling-window mean, for time-series plots."""

    width: float
    _window_start: float = 0.0
    _sum: float = 0.0
    _count: int = 0
    points: list[tuple[float, float, int]] = field(default_factory=list)

    def add(self, now: float, value: float) -> None:
        """Record an observation, closing windows that ``now`` has passed."""
        self._roll(now)
        self._sum += value
        self._count += 1

    def _roll(self, now: float) -> None:
        while now >= self._window_start + self.width:
            if self._count:
                mean = self._sum / self._count
            else:
                # A window with no observations has no mean; 0.0 would be
                # indistinguishable from a genuine zero-latency window.
                mean = float("nan")
            self.points.append((self._window_start, mean, self._count))
            self._window_start += self.width
            self._sum = 0.0
            self._count = 0

    def finish(self, now: float) -> list[tuple[float, float, int]]:
        """Close the final window and return all (start, mean, n) points."""
        self._roll(now)
        if self._count:
            self.points.append((self._window_start, self._sum / self._count, self._count))
            self._sum = 0.0
            self._count = 0
        return self.points
