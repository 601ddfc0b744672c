"""Power-management policy interface.

A policy observes the request stream and controls the array: disk
speeds, spin-downs and data placement (migration). The runner calls the
hooks below; everything else a policy does (periodic ticks, idle timers)
it schedules itself on ``sim.engine``.

Policies must be stateless across runs: ``attach`` receives the
simulation and is the place to initialize per-run state, so one policy
instance can be reused for several runs.

Columnar hooks. The batch engine (:mod:`repro.sim.batch`) replays the
stretches between decision points a segment at a time instead of one
request at a time. A policy that overrides the per-request hooks stays
batchable when its class also overrides the columnar pair
:meth:`PowerPolicy.on_arrivals` / :meth:`PowerPolicy.on_completions`;
otherwise the batch engine runs it on the scalar event loop. The pump
calls the pair once per segment, with this contract:

* ``on_arrivals(start, stop)`` receives the trace rows ``[start, stop)``
  (``sim.trace`` columns) that arrived in the segment, in trace order.
  It must leave the policy exactly as ``on_request_arrival`` called on
  each row in turn would.
* ``on_completions(latencies)`` receives the response times of the
  segment's completions in delivery order, failed requests included
  (``on_request_complete`` sees those too). It folds them in order and
  stops *before* the first completion whose scalar
  ``on_request_complete`` would act on the simulation (schedule, change
  a speed, cancel migration), leaving that completion unfolded. It
  returns how many it folded. The pump then replays the segment up to
  that completion's instant and delivers it on the scalar path, so the
  action happens through ``on_request_complete`` itself.
* Arrival state and completion state must be independent: the pump
  folds a segment's completions before its arrivals.
"""

from __future__ import annotations

import abc
import typing

from repro.obs.metrics import MetricsRegistry
from repro.sim.request import Request

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.runner import ArraySimulation


class PowerPolicy(abc.ABC):
    """Base class for array power-management policies."""

    #: Human-readable name used in result tables.
    name: str = "policy"

    def __init__(self) -> None:
        self.sim: "ArraySimulation | None" = None
        #: Per-run named metrics; flattened into the result's ``extras``
        #: by :meth:`extras`. Recreated on every attach so a policy
        #: instance reused across runs cannot leak counts.
        self.metrics = MetricsRegistry()

    @abc.abstractmethod
    def attach(self, sim: "ArraySimulation") -> None:
        """Bind to a simulation run; initialize all per-run state here.

        Implementations must call ``super().attach(sim)`` equivalent
        behaviour by storing ``sim`` (the base class does it when called
        via ``PowerPolicy.attach(self, sim)``).
        """
        self.sim = sim
        self.metrics = MetricsRegistry()

    def on_request_arrival(self, request: Request) -> None:
        """Called just before a foreground request is submitted."""

    def on_request_complete(self, request: Request) -> None:
        """Called when a foreground request finishes."""

    def on_arrivals(self, start: int, stop: int) -> None:
        """Columnar :meth:`on_request_arrival` for trace rows
        ``[start, stop)`` (see the module docstring for the contract)."""

    def on_completions(self, latencies: list[float]) -> int:
        """Columnar :meth:`on_request_complete`: fold ``latencies`` in
        order, stopping before the first completion that would act;
        returns the number folded (see the module docstring)."""
        return len(latencies)

    def on_finish(self, now: float) -> None:
        """Called once after the trace has drained."""

    def on_disk_failed(self, disk: int, rebuild_active: bool = False) -> None:
        """Called when a disk fails (fault injection).

        ``rebuild_active`` is True when a rebuild is running (or about to
        start) for the failed disk's extents. Default: ignore — a policy
        that does nothing keeps working because the array itself routes
        around the failure; reacting (e.g. pinning speeds) is an
        optimization, not a correctness requirement.
        """

    def on_rebuild_complete(self) -> None:
        """Called when every extent of every failed disk is re-protected."""

    # -- online control hooks (repro serve) ----------------------------------

    def on_goal_changed(self, goal_s: float | None) -> None:
        """Called after the run's response-time goal changed mid-run.

        The simulation has already swapped its own deficit tracker by the
        time this fires (:meth:`ArraySimulation.set_goal`). Goal-aware
        policies react here — rebuild their guarantee machinery, re-plan
        at the next opportunity. Default: ignore, which is correct for
        goal-oblivious policies.
        """

    def force_boost(self, now: float) -> bool:
        """Operator-forced full-speed boost (serve ``force-boost``).

        Returns True when a boost was entered, False when the policy has
        no boost mechanism or is already boosted. Default: no mechanism.
        """
        return False

    def current_assignment(self) -> str | None:
        """One-line description of the current speed assignment, if the
        policy maintains one (serve ``status``). Default: None.
        """
        return None

    def describe(self) -> str:
        """One-line parameterization string for reports."""
        return self.name

    def extras(self) -> dict[str, float]:
        """Policy-specific scalar metrics merged into the run result.

        The default flattens :attr:`metrics`; policies that register
        instruments there need not override this at all.
        """
        return self.metrics.as_dict()
