"""Analytic response-time prediction.

The CR optimizer must predict, *before* committing an epoch, what the
average response time would be if ``n_k`` disks ran at each speed ``k``.
Hibernator uses an open queueing approximation: each disk is an M/G/1
queue fed by the load its tier's extents are predicted to generate,
with service-time moments from the mechanical disk model at the tier's
speed:

    R(rpm, lambda) = E[S] + lambda * E[S^2] / (2 * (1 - rho)),
    rho = lambda * E[S]

The array-level prediction is the load-weighted mean of tier responses —
exactly the quantity the response-time goal constrains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.disks.mechanics import DiskMechanics, ServiceMoments

#: Utilization above which the queue is treated as saturated (R = inf).
MAX_STABLE_UTILIZATION = 0.95


@dataclass(frozen=True)
class TierPrediction:
    """Predicted behaviour of one tier for one candidate configuration."""

    rpm: int
    num_disks: int
    tier_lambda: float
    per_disk_lambda: float
    utilization: float
    response_s: float


class MG1ResponseModel:
    """M/G/1 response-time and utilization predictions for one disk model.

    Args:
        mechanics: mechanical model supplying service moments.
        mean_request_bytes: average transfer size used for the moments.
        seek_probability: fraction of requests paying a seek.
        max_utilization: stability cutoff; above it the predicted
            response is infinite.
    """

    def __init__(
        self,
        mechanics: DiskMechanics,
        mean_request_bytes: float = 4096.0,
        seek_probability: float = 1.0,
        max_utilization: float = MAX_STABLE_UTILIZATION,
    ) -> None:
        if mean_request_bytes <= 0:
            raise ValueError("mean_request_bytes must be positive")
        if not 0.0 < max_utilization < 1.0:
            raise ValueError("max_utilization must be in (0, 1)")
        self.mechanics = mechanics
        self.mean_request_bytes = mean_request_bytes
        self.seek_probability = seek_probability
        self.max_utilization = max_utilization
        self._moments_cache: dict[int, ServiceMoments] = {}

    def moments(self, rpm: int) -> ServiceMoments:
        """Cached service moments at ``rpm``."""
        cached = self._moments_cache.get(rpm)
        if cached is None:
            cached = self.mechanics.service_moments(
                rpm, self.mean_request_bytes, self.seek_probability
            )
            self._moments_cache[rpm] = cached
        return cached

    def utilization(self, rpm: int, per_disk_lambda: float) -> float:
        """Offered utilization rho = lambda * E[S]."""
        if per_disk_lambda < 0:
            raise ValueError("arrival rate must be non-negative")
        return per_disk_lambda * self.moments(rpm).mean

    def response_time(self, rpm: int, per_disk_lambda: float) -> float:
        """Predicted mean response time of one disk (inf if saturated)."""
        m = self.moments(rpm)
        rho = per_disk_lambda * m.mean
        if rho >= self.max_utilization:
            return math.inf
        wait = per_disk_lambda * m.second / (2.0 * (1.0 - rho))
        return m.mean + wait

def predict_tier_response(
    model: MG1ResponseModel,
    rpm: int,
    num_disks: int,
    tier_lambda: float,
) -> TierPrediction:
    """Predict one tier, assuming its load spreads evenly over its disks.

    The even spread is what the randomized within-tier layout is *for*;
    the prediction and the layout are two halves of the same design
    decision.
    """
    if num_disks <= 0:
        raise ValueError("a tier must have at least one disk")
    per_disk = tier_lambda / num_disks
    return TierPrediction(
        rpm=rpm,
        num_disks=num_disks,
        tier_lambda=tier_lambda,
        per_disk_lambda=per_disk,
        utilization=model.utilization(rpm, per_disk),
        response_s=model.response_time(rpm, per_disk),
    )

