"""Dependency-free text plots for examples and CLI output.

Nothing here affects experiments — these are presentation helpers so the
examples can show time series and comparisons without matplotlib.
"""

from __future__ import annotations

from typing import Sequence

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float]) -> str:
    """One-line sparkline of a series (empty input -> empty string)."""
    values = list(values)
    if not values:
        return ""
    lo, hi = min(values), max(values)
    if hi == lo:
        return _SPARK_LEVELS[0] * len(values)
    span = hi - lo
    out = []
    for v in values:
        idx = int((v - lo) / span * (len(_SPARK_LEVELS) - 1))
        out.append(_SPARK_LEVELS[idx])
    return "".join(out)

