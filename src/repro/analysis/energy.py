"""Energy arithmetic helpers."""

from __future__ import annotations

JOULES_PER_KWH = 3.6e6


def joules_to_kwh(joules: float) -> float:
    """Convert joules to kilowatt-hours."""
    return joules / JOULES_PER_KWH


def savings_fraction(energy: float, baseline: float) -> float:
    """Fractional savings of ``energy`` vs ``baseline`` (1 - E/E0).

    Returns 0.0 for a non-positive baseline (no meaningful comparison).
    """
    if baseline <= 0:
        return 0.0
    return 1.0 - energy / baseline
