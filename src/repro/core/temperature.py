"""Per-extent access-heat tracking.

Hibernator decides *which* data belongs on *which speed* of disk from
each extent's recent access rate — its "temperature". The tracker counts
accesses within the current epoch and, at each epoch boundary, folds the
observed epoch rate into a smoothed heat estimate with exponential
averaging:

    heat = smoothing * heat_prev + (1 - smoothing) * rate_this_epoch

Smoothing makes tier assignments stable against one-epoch noise while
still following genuine working-set drift within a few epochs — the same
trade-off the paper's coarse-grained approach makes by design.
"""

from __future__ import annotations

import numpy as np


class HeatTracker:
    """Exponentially smoothed per-extent access rates.

    Args:
        num_extents: size of the logical address space.
        smoothing: weight of history at each epoch fold (0 = use only the
            last epoch, 1 = never update).
        write_weight: relative weight of writes vs. reads; RAID-5 arrays
            may weight writes higher because of their amplification.
    """

    def __init__(
        self,
        num_extents: int,
        smoothing: float = 0.5,
        write_weight: float = 1.0,
    ) -> None:
        if num_extents <= 0:
            raise ValueError(f"num_extents must be positive, got {num_extents!r}")
        if not 0.0 <= smoothing < 1.0:
            raise ValueError(f"smoothing must be in [0, 1), got {smoothing!r}")
        if write_weight <= 0:
            raise ValueError(f"write_weight must be positive, got {write_weight!r}")
        self.num_extents = num_extents
        self.smoothing = smoothing
        self.write_weight = write_weight
        self.heat = np.zeros(num_extents, dtype=np.float64)
        self._window_counts = np.zeros(num_extents, dtype=np.float64)
        self._epochs_folded = 0

    def record(self, extent: int, is_write: bool = False) -> None:
        """Count one access in the current epoch window."""
        self._window_counts[extent] += self.write_weight if is_write else 1.0

    def record_bulk(self, extents: np.ndarray, write_mask: np.ndarray | None = None) -> None:
        """Count many accesses at once; the counts are integer-valued,
        so the result equals :meth:`record` called in any order."""
        if write_mask is None:
            np.add.at(self._window_counts, extents, 1.0)
            return
        weights = np.where(write_mask, self.write_weight, 1.0)
        np.add.at(self._window_counts, extents, weights)

    def close_epoch(self, epoch_seconds: float) -> np.ndarray:
        """Fold the window into the smoothed heat; returns the new heat.

        The first fold seeds heat directly from the observed rate (there
        is no meaningful history to smooth against).
        """
        if epoch_seconds <= 0:
            raise ValueError(f"epoch_seconds must be positive, got {epoch_seconds!r}")
        rate = self._window_counts / epoch_seconds
        if self._epochs_folded == 0:
            self.heat = rate
        else:
            self.heat = self.smoothing * self.heat + (1.0 - self.smoothing) * rate
        self._window_counts = np.zeros(self.num_extents, dtype=np.float64)
        self._epochs_folded += 1
        return self.heat

    def hottest_first(self) -> np.ndarray:
        """Extent ids ordered from hottest to coldest (stable)."""
        # Stable sort on -heat keeps equal-heat extents in id order, which
        # keeps migration plans deterministic.
        return np.argsort(-self.heat, kind="stable")

    def prime(self, rates: np.ndarray) -> None:
        """Seed heat directly (e.g. from an offline trace analysis)."""
        rates = np.asarray(rates, dtype=np.float64)
        if rates.shape != (self.num_extents,):
            raise ValueError(f"expected shape ({self.num_extents},), got {rates.shape}")
        if np.any(rates < 0):
            raise ValueError("rates must be non-negative")
        self.heat = rates.copy()
        self._epochs_folded = max(self._epochs_folded, 1)
