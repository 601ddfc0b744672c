"""Batched simulation core: epoch advancement between decision points.

:class:`BatchArraySimulation` is a drop-in replacement for
:class:`~repro.sim.runner.ArraySimulation` selected with
``--engine batch``. Instead of one heap pop per arrival/completion, it
advances the run in *segments* between decision points — the next heap
event (sampler tick, injected failure, policy timer) or the next fault
window edge — and processes every request inside a segment data-parallel
per disk: seek/transfer math runs over numpy columns, rotational draws
come from bulk generator calls, and statistics fold through plain local
accumulators.

The contract is **byte identity**: a batch run must produce the exact
``result_digest`` the scalar engine produces for the same spec
(``tests/test_golden_identity.py`` and the cross-backend tests enforce
it on every perf scenario). That shapes the whole design:

* every floating-point chain (service time, Welford latency moments,
  energy-meter folds) replicates the scalar operation order bit for bit
  — numpy elementwise ops round identically to Python floats, and bulk
  ``Generator.uniform(0, r, n)`` draws the same stream as ``n`` scalar
  draws;
* a policy takes part through its columnar hook pair
  (:meth:`~repro.policies.base.PowerPolicy.on_arrivals` /
  :meth:`~repro.policies.base.PowerPolicy.on_completions`), called once
  per segment; the no-op defaults pair with the no-op per-request hooks.
  A policy class that overrides a per-request hook without its columnar
  counterpart, RAID-5, the write cache and non-FCFS scheduling run on
  the scalar event loop for the whole run;
* every other heap event (policy timer, speed transition, migration
  copy, injected failure) is a *reversible barrier*: the pump
  rehydrates its in-flight state into real heap events, and the scalar
  loop runs the event plus whatever stretch it starts. At the first
  instant every disk is idle, spinning at its requested speed with an
  empty queue and no migration slot reserved, the pump takes the run
  back;
* when a segment's completions would make the policy act (Hibernator's
  boost entry), the pump replays the segment from a checkpoint up to
  that completion's instant and delivers it on the scalar path, so the
  action happens at the same instant, through the same code;
* fault windows become segment boundaries: inside a window the pump
  runs a lean per-disk event loop that consults the real
  :class:`~repro.faults.injector.DiskFaultState` (same RNG, same draw
  sites), outside it the vectorized path never touches the fault RNG —
  exactly like the scalar fast path;
* an observed run pumps like an unobserved one. Every emit site but two
  runs on the scalar loop (at barriers, at a boost-entry cut, or once
  the pump is blocked for good); the lean loop makes the other two,
  ``op_retried`` and ``request_failed``, and the segment emits them in
  time order. Where one shares its instant with another service
  attempt's end, the segment is cut there like a boost entry, and the
  fallback schedules the ops it hands over in service-start order, so
  the scalar loop orders the tie as the scalar heap does.

Event/sequence accounting is kept consistent in bulk
(``engine.events_executed`` and the schedule sequence counter advance by
the same totals the scalar loop would accumulate), so ``runtime_events``
and event ordering against pre-scheduled heap entries are preserved.
The ``runtime_batched_requests``, ``runtime_segments``,
``runtime_barriers`` and ``runtime_resumes`` extras say how much of a
run the pump drove.

Ties are ordered by ``(time, seq)`` exactly as on the scalar heap. They
are common, not rare: ingested traces start at t=0 where the sampler's
first tick lands, and quantized timestamps keep hitting tick instants.
An arrival at a barrier's instant wins the tie when it was scheduled
first (lower seq); it then fires *and starts service* before the
barrier event runs, so the sampler reads the same watts the scalar
loop does. The residual: *absolute* sequence numbers assigned inside a
segment can differ from the scalar interleaving, which could only
matter if a service *completion* landed on a heap event's exact float.
Completion times are sums of seek, rotation and transfer times, so
arrival quantization does not produce such ties.
"""

from __future__ import annotations

import heapq
import math
import time
from bisect import bisect_left, bisect_right
from collections import Counter, deque
from operator import itemgetter
from typing import Any

import numpy as np

from repro.disks.disk import DiskState, MultiSpeedDisk
from repro.obs.events import OpRetried, RequestFailed, TraceEvent
from repro.policies.base import PowerPolicy
from repro.sim.request import DiskOp, Request, RequestClass
from repro.sim.runner import ArraySimulation, SimulationResult

_INF = math.inf


class _Lane:
    """Per-disk pump state: carries, meter mirror, counters.

    The lane mirrors exactly the mutable per-disk state the scalar event
    loop maintains through ``MultiSpeedDisk``; it is flushed back into
    the disk object at decision points (sampler barriers, fallback,
    drain) so every reader outside the pump sees scalar-identical state.
    """

    __slots__ = (
        "index", "free", "seek_prev", "head", "mlast", "infl", "queue", "resubs",
        "idle_w", "act_w", "idle_j", "idle_s", "act_j", "act_s",
        "folded_idle", "folded_act", "ops", "nbytes", "last_act",
        "op_errors", "op_retries", "fault", "fwin",
        "min_seek", "seek_span", "span", "rotation_s", "bps", "rng",
    )

    def __init__(self, disk: MultiSpeedDisk) -> None:
        meter = disk.meter
        self.index = disk.index
        self.free = 0.0
        self.seek_prev = disk.head_block
        self.head = disk.head_block
        self.mlast = meter._last_time
        #: In-flight op: ``(completion, start, rec)`` or None.
        self.infl: tuple[float, float, list] | None = None
        #: Queued op records ``[arrival, req, block, size, attempts]``.
        self.queue: deque[list] = deque()
        #: Pending retries: heap of ``(resubmit_time, tiebreak, rec)``.
        self.resubs: list[tuple[float, int, list]] = []
        rpm = disk.rpm
        self.idle_w = disk._idle_watts(rpm)
        self.act_w = disk._active_watts(rpm)
        joules, seconds = meter.breakdown.joules, meter.breakdown.seconds
        self.idle_j = joules.get("idle", 0.0)
        self.idle_s = seconds.get("idle", 0.0)
        self.act_j = joules.get("active", 0.0)
        self.act_s = seconds.get("active", 0.0)
        self.folded_idle = "idle" in joules
        self.folded_act = "active" in joules
        self.ops = disk.ops_completed
        self.nbytes = disk.bytes_transferred
        self.last_act = disk.last_activity_time
        self.op_errors = disk.op_errors
        self.op_retries = disk.op_retries
        self.fault = disk.fault_state
        # Merged (start, end) fault windows for segment-overlap tests.
        windows: list[tuple[float, float]] = []
        if self.fault is not None:
            for w in self.fault._transients:
                windows.append((w.start_s, w.end_s))
            for w in self.fault._slows:
                windows.append((w.start_s, w.end_s))
        self.fwin = windows
        # Service-time constants, identical to the scalar inlined math.
        mech = disk.mechanics
        self.min_seek = mech.min_seek_s
        self.seek_span = mech._seek_span
        span = disk.total_blocks - 1
        if span < 1:
            span = 1
        self.span = span
        cached = mech._rpm_cache.get(rpm)
        if cached is None:
            cached = mech._rpm_cache[rpm] = (
                mech.spec.rotation_s(rpm), mech.spec.transfer_bps(rpm),
            )
        self.rotation_s, self.bps = cached
        self.rng = disk.rng

    #: Fields a segment mutates (the rest are per-lane constants).
    _STATE = (
        "free", "seek_prev", "head", "mlast", "idle_j", "idle_s", "act_j",
        "act_s", "folded_idle", "folded_act", "ops", "nbytes", "last_act",
        "op_errors", "op_retries",
    )

    def save(self) -> tuple:
        """Snapshot for a segment replay: mutable fields, copies of the
        op records (the lean loop bumps attempt counts in place) and the
        disk's and fault state's generator states."""
        infl = self.infl
        generators = [] if self.rng is None else [self.rng]
        if self.fault is not None:
            generators.append(self.fault._rng)
        return (
            [getattr(self, name) for name in _Lane._STATE],
            None if infl is None else (infl[0], infl[1], list(infl[2])),
            [list(rec) for rec in self.queue],
            [(t, tb, list(rec)) for t, tb, rec in self.resubs],
            [(gen, gen.bit_generator.state) for gen in generators],
        )

    def restore(self, saved: tuple) -> None:
        fields, self.infl, queue, self.resubs, generators = saved
        for name, value in zip(_Lane._STATE, fields):
            setattr(self, name, value)
        self.queue = deque(queue)
        for gen, state in generators:
            gen.bit_generator.state = state


_HOOK_PAIRS = (
    ("on_request_arrival", "on_arrivals"),
    ("on_request_complete", "on_completions"),
)


def _owner(cls: type, name: str) -> type:
    """The class in ``cls``'s MRO that defines ``name``."""
    return next(k for k in cls.__mro__ if name in vars(k))


def _columnar_pair_covers(cls: type) -> bool:
    """Each per-request hook has a columnar counterpart defined at least
    as deep in the MRO (the no-op defaults pair with each other).

    Decided from the class, not the instance: a wrapper installed on an
    instance's per-request hooks (perfbench's traced run) must not move
    the run to another engine path.
    """
    return all(issubclass(_owner(cls, columnar), _owner(cls, scalar))
               for scalar, columnar in _HOOK_PAIRS)


class BatchArraySimulation(ArraySimulation):
    """Epoch-batched replay with scalar-identical results.

    Accepts exactly the ``ArraySimulation`` constructor signature except
    ``live`` (the serve daemon drives the scalar core). Runs the pump
    cannot accelerate at all — a policy class without columnar hooks,
    RAID-5, the write cache, non-FCFS scheduling, incremental driving —
    execute on the inherited scalar machinery for their whole length.
    Observability is not among them: it changes neither results nor the
    engine path. Every other run hands over to the scalar loop at
    each barrier event and takes the run back once the array is steady
    again; either way results are identical by construction.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        if kwargs.pop("live", False):
            raise ValueError("the batch engine does not support live mode; "
                             "use the scalar ArraySimulation")
        super().__init__(*args, **kwargs)
        cls = type(self.policy)
        config = self.array.config
        #: The pump never runs: decided here, or by incremental driving.
        self._static_scalar = not (
            _columnar_pair_covers(cls)
            and not config.raid5
            and not config.write_cache
            and config.scheduler == "fcfs"
        )
        #: True while the scalar event loop drives the run: for the whole
        #: run when static, else between a barrier and the next resume.
        self._scalar_mode = self._static_scalar
        #: The policy's columnar hooks do something (not the defaults).
        self._columnar = any(_owner(cls, columnar) is not PowerPolicy
                             for _, columnar in _HOOK_PAIRS)
        self._pending_arrival: tuple[float, int] | None = None
        self._pump_ready = False
        self._frontier = 0.0
        self._lanes: list[_Lane] = []
        self._deliveries: list[tuple[float, int, bool]] = []
        #: Trace events the lean loop produced this segment, as
        #: ``(time, event)``; emitted in time order when it folds.
        self._emits: list[tuple[float, TraceEvent]] = []
        self._fault_edges: list[float] = []
        self._resub_tiebreak = 0
        self._pending_scheds = 0
        # Engine telemetry (runtime_* extras, outside the digest).
        self._batched = 0
        self._segments = 0
        self._barriers = 0
        self._resumes = 0

    # -- arrival plumbing (virtual pending arrival) -----------------------

    def _schedule_next_arrival(self) -> None:
        if self._scalar_mode:
            super()._schedule_next_arrival()
            return
        i = self._next_index
        if i < self._trace_len:
            # Consume a real sequence number without a heap push: the
            # pending arrival is merged against heap entries on
            # (time, seq) exactly as if it had been scheduled.
            engine = self.engine
            seq = engine._seq
            engine._seq = seq + 1
            self._pending_arrival = (self._times[i], seq)
        else:
            self._pending_arrival = None

    # -- driving -----------------------------------------------------------

    def step(
        self,
        until: float | None = None,
        max_events: int | None = None,
        stop_on_drain: bool = True,
    ) -> int:
        if self._static_scalar:
            return super().step(until, max_events, stop_on_drain)
        if until is not None or max_events is not None or not stop_on_drain:
            # Incremental (serve-style) driving defeats segment batching;
            # hand the whole run to the scalar loop.
            self._ensure_pump()
            self._fallback_to_scalar()
            self._static_scalar = True
            return super().step(until, max_events, stop_on_drain)
        if self._drain_complete:
            return 0
        # repro: lint-ok[DET003] wall-clock instrumentation, not a result input
        wall_start = time.perf_counter()
        executed = self._pump()
        self._wall_s += time.perf_counter() - wall_start  # repro: lint-ok[DET003] instrumentation only
        if self._drained():
            self._drain_complete = True
        return executed

    # -- pump infrastructure ----------------------------------------------

    def _ensure_pump(self) -> None:
        if self._pump_ready:
            return
        self._pump_ready = True
        trace = self.trace
        self._times_np = trace.times
        self._sizes_np = np.asarray(trace.sizes)
        self._ext_np = np.asarray(trace.extents)
        self._mirror_array()
        edges: set[float] = set()
        for lane in self._lanes:
            for start, end in lane.fwin:
                edges.add(start)
                edges.add(end)
        self._fault_edges = sorted(edges)
        self._sampler_cb = self._sample_speeds

    def _mirror_array(self) -> None:
        """Fresh lanes and placement columns from the real array."""
        emap = self.array.extent_map
        self._diskmap_np = np.asarray(emap._disk, dtype=np.intp)
        self._slotmap_np = np.asarray(emap._slot, dtype=np.intp)
        self._lanes = [_Lane(d) for d in self.array.disks]

    def _blocked_for_good(self) -> bool:
        """The pump can never take the run back: failures do not heal,
        and a block redirect or per-disk idle/activity hooks stay
        installed. The trace hook is not one: the pump makes its
        per-op events itself."""
        array = self.array
        return array.redirect is not None or bool(array.failed_disks) or any(
            d.on_idle is not None or d.on_activity is not None for d in array.disks)

    def _probe_eligibility(self) -> bool:
        """Everything is in the exact steady state the vectorized math
        assumes: every disk idle at its requested speed with an empty
        queue, no migration slot reserved, nothing blocking for good.
        Checked after ``policy.attach`` and at every candidate resume
        instant."""
        array = self.array
        if any(array._reserved_slots) or self._blocked_for_good():
            return False
        for disk in array.disks:
            if disk.state is not DiskState.IDLE or disk.queue:
                return False
            if disk.rpm <= 0 or disk._requested_rpm != disk.rpm:
                return False
        return True

    def _peek_entry(self) -> tuple | None:
        """Next live heap entry, lazily dropping cancelled handles
        (mirrors the scalar loop's skip)."""
        heap = self.engine._heap
        while heap:
            entry = heap[0]
            if entry[2] is None and entry[3].cancelled:
                heapq.heappop(heap)
                continue
            return entry
        return None

    def _have_carries(self) -> bool:
        for lane in self._lanes:
            if lane.infl is not None or lane.queue or lane.resubs:
                return True
        return False

    def _next_fault_edge(self) -> float:
        edges = self._fault_edges
        i = bisect_right(edges, self._frontier)
        return edges[i] if i < len(edges) else _INF

    # -- the pump ----------------------------------------------------------

    def _pump(self) -> int:
        self._ensure_pump()
        engine = self.engine
        if self._drained():
            # Scalar semantics: run(stop=...) checks the predicate only
            # *after* a callback, so an already-drained run still
            # executes exactly one pending event (if any).
            self._fallback_to_scalar()
            return engine.run(stop=self._drained)
        executed = 0
        if not self._probe_eligibility():
            self._barrier()
        while True:
            if self._scalar_mode:
                if self._blocked_for_good():
                    return executed + engine.run(stop=self._drained)
                executed += engine.run(stop=self._stretch_done)
                if self._drained():
                    return executed
                self._resume()
            if self._pending_arrival is None and not self._have_carries():
                # Workload drained: the scalar loop stops at the
                # delivery that drained it; lingering timers never fire.
                break
            top = self._peek_entry()
            t_top = top[0] if top is not None else _INF
            edge = self._next_fault_edge()
            seg_end = edge if edge < t_top else t_top
            ran, cut = self._advance_segment(
                seg_end, top if seg_end == t_top else None)
            executed += ran
            if self._pending_arrival is None and not self._have_carries():
                # The workload drained inside the segment: the scalar
                # loop's stop predicate fires right after that delivery,
                # so the barrier event at seg_end never executes.
                break
            if cut is not None:
                # The completion due at `cut` needs the scalar loop:
                # the policy acts on it, or it ties another completion.
                self._frontier = cut
                self._barrier()
                continue
            if seg_end == _INF:
                continue
            self._frontier = seg_end
            if seg_end < t_top:
                continue  # internal fault-window edge, no event
            # The heap event at seg_end is due: all simulated work
            # strictly before it (plus tie-winning arrivals) is done.
            if top[2] is not None and top[2] == self._sampler_cb:
                # Light barrier: the sampler only reads meter watts and
                # rpms; flush the meters, fire it, keep batching.
                self._flush_meters()
                heapq.heappop(engine._heap)
                engine._live -= 1
                engine._now = seg_end
                top[2](*top[3])
                engine.events_executed += 1
                executed += 1
                continue
            # Any other decision point (policy timer, cancellable
            # handle, injected failure): the scalar loop runs it.
            self._barrier()
        self._flush_all()
        return executed

    def _stretch_done(self) -> bool:
        """Stop predicate of a scalar stretch: the workload drained, or
        the array is steady enough for the pump to take the run back."""
        return self._drained() or (
            self._outstanding == 0 and self._probe_eligibility())

    def _barrier(self) -> None:
        self._barriers += 1
        self._fallback_to_scalar()

    def _resume(self) -> None:
        """Take the run back from the scalar loop: no request is in
        flight, so fresh lanes (and placement columns, which migration
        may have changed) mirror the array exactly, and the next arrival
        leaves the heap to become the virtual pending one."""
        engine = self.engine
        self._pending_arrival = None
        if self._next_index < self._trace_len:
            heap = engine._heap
            arrive = self._arrive
            i = next(j for j, entry in enumerate(heap) if entry[2] == arrive)
            entry = heap[i]
            heap[i] = heap[-1]
            heap.pop()
            heapq.heapify(heap)
            engine._live -= 1
            self._pending_arrival = (entry[0], entry[1])
        self._mirror_array()
        self._frontier = engine._now
        self._scalar_mode = False
        self._resumes += 1

    def _advance_segment(self, seg_end: float, top: tuple | None) -> tuple[int, float | None]:
        """Process every event in ``[frontier, seg_end)`` and fold it
        into the statistics and the policy.

        Returns ``(events, cut)``. ``cut`` is None when the segment ran
        to ``seg_end``; otherwise the pump stopped at the instant
        ``cut``, with the completion due then still in flight, and the
        scalar loop must deliver it: the policy acts on it, it ties
        another completion under a columnar policy, or it ties a trace
        event the pump made (tied completions run in the scalar heap's
        sequence order, which the pump does not track).
        """
        deliveries = self._deliveries
        emits = self._emits
        i0 = self._next_index
        cut = None
        if not self._columnar and self.emit is None:
            ran = self._run_segment(seg_end, top)
        else:
            saved = self._checkpoint()
            ran = self._run_segment(seg_end, top)
            deliveries.sort()
            tie = self._emit_tie()
            limit = bisect_left(deliveries, (tie,))
            if self._columnar:
                for j in range(1, limit):
                    if deliveries[j][0] == deliveries[j - 1][0]:
                        limit = j - 1
                        break
                times = self._times
                folded = self.policy.on_completions(
                    [c - times[r] for c, r, _ in deliveries[:limit]])
            else:
                folded = limit
            if folded < len(deliveries) or tie < _INF:
                cut = min(deliveries[folded][0] if folded < len(deliveries) else _INF, tie)
                self._restore(saved)
                ran = self._run_segment(cut, None)
                assert len(deliveries) == folded, "replay diverged from the first pass"
            if self._columnar:
                self.policy.on_arrivals(i0, self._next_index)
        if self.emit is not None and emits:
            # No two are tied (the cut above), so time order is the
            # scalar heap's order.
            emits.sort(key=itemgetter(0))
            for _, event in emits:
                self.emit(event)
            emits.clear()
        if deliveries:
            self._fold_deliveries(deliveries)
        self._segments += 1
        self._batched += self._next_index - i0
        return ran, cut

    def _emit_tie(self) -> float:
        """Earliest instant at which an event the lean loop made shares
        its instant with another service attempt's end (a retry, a
        failure or a delivery), else infinity: each emit belongs to one
        attempt, so counting emits plus successful deliveries counts
        every attempt ending then."""
        if not self._emits:
            return _INF
        attempts = Counter(t for t, _ in self._emits)
        attempts.update(c for c, _, bad in self._deliveries if not bad and c in attempts)
        return min((t for t, n in attempts.items() if n > 1), default=_INF)

    def _checkpoint(self) -> tuple:
        engine = self.engine
        return (
            self._next_index, self._outstanding, self._pending_arrival,
            engine.events_executed, engine._seq, engine._now, self._resub_tiebreak,
            [lane.save() for lane in self._lanes],
        )

    def _restore(self, saved: tuple) -> None:
        engine = self.engine
        (self._next_index, self._outstanding, self._pending_arrival,
         engine.events_executed, engine._seq, engine._now, self._resub_tiebreak,
         lanes) = saved
        for lane, state in zip(self._lanes, lanes):
            lane.restore(state)
        self._deliveries.clear()
        self._emits.clear()

    def _run_segment(self, seg_end: float, top: tuple | None) -> int:
        """Run the lanes over every event in ``[frontier, seg_end)``,
        collecting completions in ``_deliveries`` without folding them;
        returns the number of events the scalar loop would have
        executed."""
        engine = self.engine
        i0 = self._next_index
        pa = self._pending_arrival
        i1 = i0
        if pa is not None:
            if seg_end == _INF:
                i1 = self._trace_len
            else:
                i1 = bisect_left(self._times, seg_end, i0)
                if (i1 == i0 and top is not None and pa[0] == seg_end
                        and pa[1] < top[1]):
                    # The pending arrival ties the heap event and was
                    # scheduled first: it fires before the barrier.
                    i1 = i0 + 1
        k = i1 - i0
        lanes = self._lanes
        num_disks = len(lanes)
        seg_start = self._frontier
        per_disk: list[tuple | None] = [None] * num_disks
        if k:
            ext = self._ext_np[i0:i1]
            if len(ext) and (ext.min() < 0 or ext.max() >= self.array._num_extents):
                for e in ext.tolist():
                    if not 0 <= e < self.array._num_extents:
                        raise ValueError(f"extent {e} out of range")
            dks = self._diskmap_np[ext]
            blks = self._slotmap_np[ext]
            tms = self._times_np[i0:i1]
            szs = self._sizes_np[i0:i1]
            order = np.argsort(dks, kind="stable")
            dks_sorted = dks[order]
            bounds = np.searchsorted(dks_sorted, np.arange(num_disks + 1))
            for d in range(num_disks):
                a, b = bounds[d], bounds[d + 1]
                if a == b:
                    continue
                idx = order[a:b]
                per_disk[d] = (tms[idx], blks[idx], szs[idx], (idx + i0).tolist())
            self._next_index = i1
            self._outstanding += k
        deliveries = self._deliveries
        starts = attempts = resub_events = 0
        last_event = -_INF
        if k:
            last_event = float(tms[-1])
        for d in range(num_disks):
            lane = lanes[d]
            grp = per_disk[d]
            if grp is None and lane.infl is None and not lane.queue and not lane.resubs:
                continue
            # A window opening exactly at seg_end counts: a tie-winning
            # arrival starts service at seg_end, inside it.
            if lane.fault is not None and (
                lane.resubs
                or any(s <= seg_end and e > seg_start for s, e in lane.fwin)
            ):
                s_n, a_n, r_n, last = self._run_lean(lane, grp, seg_end, deliveries)
                resub_events += r_n
            else:
                s_n, a_n, last = self._run_clean(lane, grp, seg_end, deliveries)
            starts += s_n
            attempts += a_n
            if last > last_event:
                last_event = last
        # Scalar sequence-number consumption inside the segment: one per
        # service start plus one per scheduled retry (_run_lean folds the
        # latter into _pending_scheds).
        engine.events_executed += k + attempts + resub_events
        engine._seq += starts + self._pending_scheds
        self._pending_scheds = 0
        if k:
            if i1 < self._trace_len:
                engine._seq += k
                self._pending_arrival = (self._times[i1], engine._seq - 1)
            else:
                engine._seq += k - 1
                self._pending_arrival = None
        if last_event > engine._now:
            engine._now = last_event
        return k + attempts + resub_events

    # -- clean segment: vectorized service math ---------------------------

    def _run_clean(
        self,
        lane: _Lane,
        grp: tuple | None,
        seg_end: float,
        deliveries: list,
    ) -> tuple[int, int, float]:
        """No fault window overlaps the segment and no retries are
        pending: the whole chain is one free-time recurrence over
        precomputed service components. Returns
        ``(service_starts, completion_attempts, last_event_time)``."""
        attempts = 0
        last_event = -_INF
        mlast = lane.mlast
        idle_w, act_w = lane.idle_w, lane.act_w
        idle_j, idle_s = lane.idle_j, lane.idle_s
        act_j, act_s = lane.act_j, lane.act_s
        folded_idle, folded_act = lane.folded_idle, lane.folded_act
        append = deliveries.append
        # 1) carried in-flight op.
        if lane.infl is not None:
            c0, s0, rec = lane.infl
            if c0 >= seg_end:
                # Busy past the horizon: arrivals can only queue.
                if grp is not None:
                    tms, blks, szs, reqs = grp
                    blk_l = blks.tolist()
                    siz_l = szs.tolist()
                    tms_l = tms.tolist()
                    q_append = lane.queue.append
                    for j in range(len(reqs)):
                        q_append([tms_l[j], reqs[j], blk_l[j], siz_l[j], 0])
                    if tms_l[-1] > lane.last_act:
                        lane.last_act = tms_l[-1]
                return 0, 0, last_event
            el = c0 - mlast
            if el > 0.0:
                act_j += act_w * el
                act_s += el
                folded_act = True
            mlast = c0
            lane.free = c0
            lane.head = rec[2]
            lane.ops += 1
            lane.nbytes += rec[3]
            if c0 > lane.last_act:
                lane.last_act = c0
            append((c0, rec[1], False))
            attempts += 1
            last_event = c0
            lane.infl = None
        # 2) candidates: carried queue, then this segment's arrivals.
        nq = len(lane.queue)
        if grp is not None:
            tms, blks, szs, reqs = grp
        else:
            tms = blks = szs = None
            reqs = []
        if nq:
            q = lane.queue
            qa = np.fromiter((r[0] for r in q), dtype=np.float64, count=nq)
            qb = np.fromiter((r[2] for r in q), dtype=np.int64, count=nq)
            qs = np.fromiter((r[3] for r in q), dtype=np.int64, count=nq)
            atts = [r[4] for r in q]
            req_l = [r[1] for r in q]
            if tms is not None:
                arrs = np.concatenate((qa, tms))
                blocks = np.concatenate((qb, blks))
                sizes = np.concatenate((qs, szs))
                atts += [0] * len(reqs)
                req_l += reqs
            else:
                arrs, blocks, sizes = qa, qb, qs
            lane.queue = deque()
        elif tms is not None:
            arrs, blocks, sizes = tms, blks, szs
            atts = None  # all zero
            req_l = reqs
        else:
            self._store_lane_folds(
                lane, mlast, idle_j, idle_s, act_j, act_s, folded_idle, folded_act)
            return 0, attempts, last_event
        n = len(blocks)
        # Service components, scalar operation order: dist = |Δblock| /
        # span, clamped; seek = 0 or min + span_coef * sqrt(dist);
        # service = (seek + rotation) + size / bps.
        prev = np.empty(n, dtype=blocks.dtype)
        prev[0] = lane.seek_prev
        if n > 1:
            prev[1:] = blocks[:-1]
        dist = np.abs(blocks - prev) / lane.span
        np.minimum(dist, 1.0, out=dist)
        seek = np.where(
            dist == 0.0, 0.0, lane.min_seek + lane.seek_span * np.sqrt(dist))
        xfer = sizes / lane.bps
        rng = lane.rng
        if rng is None:
            half = lane.rotation_s / 2.0
            svc_l = ((seek + half) + xfer).tolist()
            seek_l = xfer_l = None
        elif seg_end == _INF:
            # The whole chain runs to completion, so every candidate's
            # rotation is drawn — a bulk draw is the identical stream.
            rot = rng.uniform(0.0, lane.rotation_s, n)
            svc_l = ((seek + rot) + xfer).tolist()
            seek_l = xfer_l = None
        else:
            # Bounded horizon: only ops that actually start may draw.
            svc_l = None
            seek_l = seek.tolist()
            xfer_l = xfer.tolist()
            uniform = rng.uniform
            rotation_s = lane.rotation_s
        arr_l = arrs.tolist()
        blk_l = blocks.tolist()
        siz_l = sizes.tolist()
        free = lane.free
        seek_prev = lane.seek_prev
        head = lane.head
        ops = lane.ops
        nbytes = lane.nbytes
        last_act = lane.last_act
        starts = 0
        stop_at = n
        for j in range(n):
            a = arr_l[j]
            start = a if a > free else free
            # free < seg_end here, so start == seg_end only for the
            # tie-winning arrival: it starts before the barrier, as in
            # the scalar loop.
            if start > seg_end:
                stop_at = j
                break
            if svc_l is None:
                svc = (seek_l[j] + float(uniform(0.0, rotation_s))) + xfer_l[j]
            else:
                svc = svc_l[j]
            el = start - mlast
            if el > 0.0:
                idle_j += idle_w * el
                idle_s += el
                folded_idle = True
            mlast = start
            starts += 1
            seek_prev = blk_l[j]
            c = start + svc
            if c >= seg_end:
                lane.infl = (
                    c, start,
                    [a, req_l[j], blk_l[j], siz_l[j],
                     atts[j] if atts is not None else 0],
                )
                free = c
                stop_at = j + 1
                break
            el = c - start
            if el > 0.0:
                act_j += act_w * el
                act_s += el
                folded_act = True
            mlast = c
            free = c
            head = blk_l[j]
            ops += 1
            nbytes += siz_l[j]
            append((c, req_l[j], False))
            attempts += 1
            if c > last_event:
                last_event = c
            last_act = c
        if stop_at < n:
            q_append = lane.queue.append
            for j in range(stop_at, n):
                q_append([arr_l[j], req_l[j], blk_l[j], siz_l[j],
                          atts[j] if atts is not None else 0])
        if grp is not None:
            t_last = arr_l[-1] if nq == 0 else float(tms[-1])
            if t_last > last_act:
                last_act = t_last
        lane.free = free
        lane.seek_prev = seek_prev
        lane.head = head
        lane.ops = ops
        lane.nbytes = nbytes
        lane.last_act = last_act
        self._store_lane_folds(
            lane, mlast, idle_j, idle_s, act_j, act_s, folded_idle, folded_act)
        return starts, attempts, last_event

    # -- fault segment: lean per-disk event loop ---------------------------

    def _run_lean(
        self,
        lane: _Lane,
        grp: tuple | None,
        seg_end: float,
        deliveries: list,
    ) -> tuple[int, int, int, float]:
        """A fault window overlaps the segment (or retries are pending):
        run a per-disk event merge that consults the real fault state —
        same draw sites, same retry arithmetic as the scalar disk. When
        observed, the retries and failures it decides go to ``_emits``.
        Returns ``(starts, attempts, resub_events, last_event_time)``."""
        fault = lane.fault
        assert fault is not None
        retry = fault.retry
        rng = lane.rng
        min_seek, seek_span, span = lane.min_seek, lane.seek_span, lane.span
        rotation_s, bps = lane.rotation_s, lane.bps
        slow_factor = fault.slow_factor
        should_error = fault.should_error
        sqrt = math.sqrt
        if grp is not None:
            tms, blks, szs, reqs = grp
            arr_l = tms.tolist()
            blk_l = blks.tolist()
            siz_l = szs.tolist()
            n = len(reqs)
        else:
            arr_l = blk_l = siz_l = []
            reqs = []
            n = 0
        i = 0
        queue = lane.queue
        resubs = lane.resubs
        infl = lane.infl
        mlast = lane.mlast
        idle_w, act_w = lane.idle_w, lane.act_w
        idle_j, idle_s = lane.idle_j, lane.idle_s
        act_j, act_s = lane.act_j, lane.act_s
        folded_idle, folded_act = lane.folded_idle, lane.folded_act
        seek_prev = lane.seek_prev
        append = deliveries.append
        heappush, heappop = heapq.heappush, heapq.heappop
        starts = attempts = resub_events = scheds = 0
        last_event = -_INF
        max_attempts = retry.max_attempts
        emits = self._emits if self.emit is not None else None
        kinds = self._kinds
        while True:
            tc = infl[0] if infl is not None else _INF
            tr = resubs[0][0] if resubs else _INF
            ta = arr_l[i] if i < n else _INF
            t = tc if tc <= tr else tr
            if ta < t:
                t = ta
            # The tie-winning arrival at exactly seg_end still fires
            # (and starts service) before the barrier, as in the scalar
            # loop.
            if t >= seg_end and not (i < n and ta == seg_end):
                break
            if t == tc and tc <= tr:
                now, s0, rec = infl
                attempts += 1
                last_event = now
                el = now - mlast
                if el > 0.0:
                    act_j += act_w * el
                    act_s += el
                    folded_act = True
                mlast = now
                infl = None
                lane.head = rec[2]
                lane.last_act = now
                if should_error(now):
                    lane.op_errors += 1
                    rec[4] += 1
                    if rec[4] >= max_attempts:
                        append((now, rec[1], True))
                        if emits is not None:
                            req = rec[1]
                            emits.append((now, RequestFailed(
                                time=now, req_id=req, extent=self._extents[req],
                                op_kind=kinds[req].value,
                            )))
                    else:
                        lane.op_retries += 1
                        backoff = retry.backoff_for(rec[4])
                        if emits is not None:
                            emits.append((now, OpRetried(
                                time=now, disk=lane.index, attempt=rec[4],
                                op_kind=kinds[rec[1]].value, backoff_s=backoff,
                            )))
                        scheds += 1
                        self._resub_tiebreak += 1
                        heappush(resubs, (now + backoff, self._resub_tiebreak, rec))
                else:
                    lane.ops += 1
                    lane.nbytes += rec[3]
                    append((now, rec[1], False))
            elif t == tr:
                now, _, rec = heappop(resubs)
                resub_events += 1
                last_event = now
                queue.append(rec)
                lane.last_act = now
                if infl is not None:
                    continue
            else:
                now = ta
                queue.append([now, reqs[i], blk_l[i], siz_l[i], 0])
                i += 1
                lane.last_act = now
                if infl is not None:
                    continue
            if infl is None and queue:
                # Start the next service, scalar math inline.
                rec = queue.popleft()
                el = now - mlast
                if el > 0.0:
                    idle_j += idle_w * el
                    idle_s += el
                    folded_idle = True
                mlast = now
                blk = rec[2]
                distance = abs(blk - seek_prev) / span
                if distance > 1.0:
                    distance = 1.0
                seek = 0.0 if distance == 0.0 else min_seek + seek_span * sqrt(distance)
                rotation = rotation_s / 2.0 if rng is None else float(
                    rng.uniform(0.0, rotation_s))
                svc = seek + rotation + rec[3] / bps
                svc *= slow_factor(now)
                infl = (now + svc, now, rec)
                seek_prev = blk
                starts += 1
        lane.infl = infl
        lane.seek_prev = seek_prev
        self._pending_scheds += scheds
        self._store_lane_folds(
            lane, mlast, idle_j, idle_s, act_j, act_s, folded_idle, folded_act)
        return starts, attempts, resub_events, last_event

    def _store_lane_folds(
        self, lane: _Lane, mlast: float,
        idle_j: float, idle_s: float, act_j: float, act_s: float,
        folded_idle: bool, folded_act: bool,
    ) -> None:
        lane.mlast = mlast
        lane.idle_j = idle_j
        lane.idle_s = idle_s
        lane.act_j = act_j
        lane.act_s = act_s
        lane.folded_idle = folded_idle
        lane.folded_act = folded_act

    # -- delivery fold -----------------------------------------------------

    def _fold_deliveries(self, deliveries: list) -> None:
        """Deliver completions in global time order: latency Welford,
        deficit/window accounting, array counters — exactly the work
        ``runner._complete`` plus the array's ``_op_done`` do."""
        deliveries.sort()
        times = self._times
        st = self.latency.stats
        n, total, mean = st.n, st.total, st.mean
        m2, mn, mx = st._m2, st.min, st.max
        keep = self.latency.keep_samples
        samples_append = self.latency._samples.append
        deficit = self.deficit
        windows = self._latency_windows
        fg = failed_n = 0
        for c, req, bad in deliveries:
            if bad:
                failed_n += 1
                continue
            lat = c - times[req]
            n += 1
            total += lat
            delta = lat - mean
            mean += delta / n
            m2 += delta * (lat - mean)
            if lat < mn:
                mn = lat
            if lat > mx:
                mx = lat
            if keep:
                samples_append(lat)
            if deficit is not None:
                deficit.add(lat)
            if windows is not None:
                windows.add(c, lat)
            fg += 1
        st.n, st.total, st.mean = n, total, mean
        st._m2, st.min, st.max = m2, mn, mx
        array = self.array
        array.foreground_completed += fg
        if failed_n:
            array.failed_requests += failed_n
            self.failed_requests += failed_n
        self._outstanding -= fg + failed_n
        deliveries.clear()

    # -- flush & fallback --------------------------------------------------

    def _flush_meters(self) -> None:
        for lane, disk in zip(self._lanes, self.array.disks):
            meter = disk.meter
            joules, seconds = meter.breakdown.joules, meter.breakdown.seconds
            if lane.folded_idle:
                joules["idle"] = lane.idle_j
                seconds["idle"] = lane.idle_s
            if lane.folded_act:
                joules["active"] = lane.act_j
                seconds["active"] = lane.act_s
            meter._last_time = lane.mlast
            if lane.infl is not None:
                meter._watts = lane.act_w
                meter._label = "active"
            else:
                meter._watts = lane.idle_w
                meter._label = "idle"

    def _flush_all(self) -> None:
        self._flush_meters()
        for lane, disk in zip(self._lanes, self.array.disks):
            disk.head_block = lane.head
            disk.last_activity_time = lane.last_act
            disk.ops_completed = lane.ops
            disk.bytes_transferred = lane.nbytes
            disk.op_errors = lane.op_errors
            disk.op_retries = lane.op_retries

    def _make_op(self, rec: list, disk_index: int) -> DiskOp:
        """Rebuild the Request + DiskOp pair (with the array's
        completion closure) for a carried op during fallback."""
        arrival, req_idx, blk, size, att = rec
        request = Request(
            req_id=req_idx,
            arrival=self._times[req_idx],
            kind=self._kinds[req_idx],
            extent=self._extents[req_idx],
            offset=self._offsets[req_idx],
            size=self._sizes[req_idx],
        )
        request.ops_outstanding = 1
        array = self.array
        sim_complete = self._complete

        def _op_done(op: DiskOp, request: Request = request) -> None:
            if op.failed:
                request.failed = True
            request.ops_outstanding -= 1
            if request.ops_outstanding == 0:
                request.completion = array.engine.now
                if request.failed:
                    array.failed_requests += 1
                elif request.klass is RequestClass.FOREGROUND:
                    array.foreground_completed += 1
                sim_complete(request)

        op = DiskOp(
            request=request,
            kind=request.kind,
            disk_index=disk_index,
            block=blk,
            size=size,
            on_complete=_op_done,
        )
        op.enqueued = arrival
        op.attempts = att
        return op

    def _fallback_to_scalar(self) -> None:
        """Materialize pump state into real engine/disk state and hand
        the run to the inherited scalar event loop."""
        if self._scalar_mode:
            return
        engine = self.engine
        self._flush_all()
        in_flight = []
        for d, (lane, disk) in enumerate(zip(self._lanes, self.array.disks)):
            for rec in lane.queue:
                disk.queue.push(self._make_op(rec, d))
            lane.queue.clear()
            if lane.infl is not None:
                c, s0, rec = lane.infl
                op = self._make_op(rec, d)
                op.started = s0
                disk._in_flight = op
                disk.state = DiskState.ACTIVE
                in_flight.append((s0, rec[1], c, disk, op))
                lane.infl = None
        # Completions that tie (a cut hands them over) run in the order
        # the scalar loop scheduled them: by service start, and by
        # arrival order for ops that started at one instant.
        in_flight.sort(key=itemgetter(0, 1))
        for _, _, c, disk, op in in_flight:
            engine.schedule_fast(c, disk._complete, (op,))
        for d, (lane, disk) in enumerate(zip(self._lanes, self.array.disks)):
            for r, _, rec in lane.resubs:
                engine.schedule_fast(r, disk._resubmit, (self._make_op(rec, d),))
            lane.resubs = []
        pa = self._pending_arrival
        if pa is not None:
            # Re-insert with the sequence number reserved at allocation
            # time so its ordering against heap entries is preserved.
            heapq.heappush(engine._heap, (pa[0], pa[1], self._arrive, ()))
            engine._live += 1
            self._pending_arrival = None
        self._scalar_mode = True

    # -- result ------------------------------------------------------------

    def finalize(self) -> SimulationResult:
        for name, value in (
            ("runtime_batched_requests", self._batched),
            ("runtime_segments", self._segments),
            ("runtime_barriers", self._barriers),
            ("runtime_resumes", self._resumes),
        ):
            self.metrics.gauge(name).set(float(value))
        return super().finalize()
