"""Power-state accounting.

Each disk owns an :class:`EnergyMeter`. The disk reports every power
change (state transition, speed change, service start/stop) as a
``(time, watts, label)`` update; the meter integrates watts over
simulated time and keeps a per-label breakdown so experiments can report
where the joules went (idle vs. active vs. transitions vs. standby).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class PowerBreakdown:
    """Energy (joules) by category, plus the time spent in each."""

    joules: dict[str, float] = field(default_factory=dict)
    seconds: dict[str, float] = field(default_factory=dict)

    def add(self, label: str, joules: float, seconds: float) -> None:
        self.joules[label] = self.joules.get(label, 0.0) + joules
        self.seconds[label] = self.seconds.get(label, 0.0) + seconds

    @property
    def total_joules(self) -> float:
        return sum(self.joules.values())

    def merge(self, other: "PowerBreakdown") -> None:
        for label, j in other.joules.items():
            self.joules[label] = self.joules.get(label, 0.0) + j
        for label, s in other.seconds.items():
            self.seconds[label] = self.seconds.get(label, 0.0) + s

    def fraction(self, label: str) -> float:
        """Share of total energy attributed to ``label``."""
        total = self.total_joules
        if total == 0.0:
            return 0.0
        return self.joules.get(label, 0.0) / total


class EnergyMeter:
    """Integrates a piecewise-constant power draw over simulated time.

    The meter is label-aware: the power level *and* its category label
    are set together, and the energy accumulated until the next update is
    attributed to that label.
    """

    __slots__ = ("_watts", "_label", "_last_time", "breakdown", "_impulse_joules")

    def __init__(self, start_time: float = 0.0, watts: float = 0.0, label: str = "init") -> None:
        self._watts = watts
        self._label = label
        self._last_time = start_time
        self.breakdown = PowerBreakdown()
        self._impulse_joules = 0.0

    @property
    def watts(self) -> float:
        """Current power draw."""
        return self._watts

    @property
    def label(self) -> str:
        """Current accounting category."""
        return self._label

    def update(self, now: float, watts: float, label: str) -> None:
        """Close the current interval and start drawing ``watts``."""
        last = self._last_time
        if now < last:
            raise ValueError(f"time went backwards: {now} < {last}")
        elapsed = now - last
        if elapsed > 0.0:
            # Inlined PowerBreakdown.add: this runs twice per physical op
            # (service start and completion) and the method hop showed up
            # in profiles. Same arithmetic, same accumulation order.
            breakdown = self.breakdown
            joules, seconds = breakdown.joules, breakdown.seconds
            current = self._label
            joules[current] = joules.get(current, 0.0) + self._watts * elapsed
            seconds[current] = seconds.get(current, 0.0) + elapsed
        self._last_time = now
        self._watts = watts
        self._label = label

    def add_impulse(self, joules: float, label: str) -> None:
        """Account a fixed energy cost not tied to a time interval.

        Used for transition energies specified as a lump sum (e.g.
        spin-up joules) on top of — not instead of — the baseline draw.
        """
        if joules < 0:
            raise ValueError(f"negative impulse energy: {joules}")
        self.breakdown.add(label, joules, 0.0)
        self._impulse_joules += joules

    def finish(self, now: float) -> float:
        """Close the final interval and return total joules."""
        self.update(now, self._watts, self._label)
        return self.total_joules

    @property
    def total_joules(self) -> float:
        return self.breakdown.total_joules

    @property
    def impulse_joules(self) -> float:
        """Lump-sum energy added via :meth:`add_impulse` (transition costs)."""
        return self._impulse_joules
