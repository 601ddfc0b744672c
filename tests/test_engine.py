"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import pytest

from repro.sim.engine import Engine, SimulationError


def test_events_fire_in_time_order(engine):
    order = []
    engine.schedule(3.0, order.append, "c")
    engine.schedule(1.0, order.append, "a")
    engine.schedule(2.0, order.append, "b")
    engine.run()
    assert order == ["a", "b", "c"]


def test_equal_timestamps_fire_in_schedule_order(engine):
    order = []
    for tag in ("first", "second", "third"):
        engine.schedule(5.0, order.append, tag)
    engine.run()
    assert order == ["first", "second", "third"]


def test_clock_advances_to_event_time(engine):
    seen = []
    engine.schedule(4.5, lambda: seen.append(engine.now))
    engine.run()
    assert seen == [4.5]
    assert engine.now == 4.5


def test_schedule_in_past_raises(engine):
    engine.schedule(2.0, lambda: None)
    engine.run()
    with pytest.raises(SimulationError):
        engine.schedule(1.0, lambda: None)


def test_schedule_after_negative_delay_raises(engine):
    with pytest.raises(SimulationError):
        engine.schedule_after(-0.1, lambda: None)


def test_schedule_after_uses_current_time(engine):
    times = []
    def chain():
        times.append(engine.now)
        if len(times) < 3:
            engine.schedule_after(1.5, chain)
    engine.schedule(0.0, chain)
    engine.run()
    assert times == [0.0, 1.5, 3.0]


def test_cancelled_event_does_not_fire(engine):
    fired = []
    handle = engine.schedule(1.0, fired.append, "x")
    engine.schedule(2.0, fired.append, "y")
    handle.cancel()
    engine.run()
    assert fired == ["y"]


def test_cancel_is_idempotent(engine):
    handle = engine.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    assert engine.run() == 0


def test_cancel_releases_callback_references(engine):
    big = object()
    handle = engine.schedule(1.0, lambda x: None, big)
    handle.cancel()
    assert handle.args == ()


def test_run_until_stops_before_later_events(engine):
    fired = []
    engine.schedule(1.0, fired.append, "early")
    engine.schedule(10.0, fired.append, "late")
    engine.run(until=5.0)
    assert fired == ["early"]
    assert engine.now == 5.0  # clock advanced to the horizon
    engine.run()
    assert fired == ["early", "late"]


def test_stop_exit_does_not_fast_forward_to_until(engine):
    """Early exit via `stop` must leave the clock at the last executed
    event; fast-forwarding to `until` would stretch any window accounted
    from engine.now (regression test)."""
    fired = []
    for i in range(5):
        engine.schedule(float(i), fired.append, i)
    engine.run(until=100.0, stop=lambda: len(fired) >= 2)
    assert fired == [0, 1]
    assert engine.now == 1.0


def test_max_events_exit_does_not_fast_forward_to_until(engine):
    for i in range(5):
        engine.schedule(float(i), lambda: None)
    engine.run(until=100.0, max_events=3)
    assert engine.now == 2.0


def test_drained_run_still_advances_to_until(engine):
    """The legitimate fast-forward — queue drained before the horizon —
    must keep working."""
    engine.schedule(1.0, lambda: None)
    engine.run(until=10.0, stop=lambda: False)
    assert engine.now == 10.0


def test_events_executed_accumulates(engine):
    for i in range(3):
        engine.schedule(float(i), lambda: None)
    engine.run(max_events=2)
    assert engine.events_executed == 2
    engine.run()
    assert engine.events_executed == 3


def test_run_max_events(engine):
    fired = []
    for i in range(5):
        engine.schedule(float(i), fired.append, i)
    assert engine.run(max_events=2) == 2
    assert fired == [0, 1]


def test_run_stop_predicate(engine):
    fired = []
    for i in range(5):
        engine.schedule(float(i), fired.append, i)
    engine.run(stop=lambda: len(fired) >= 3)
    assert fired == [0, 1, 2]


def test_events_scheduled_during_run_execute(engine):
    order = []
    def outer():
        order.append("outer")
        engine.schedule_after(0.0, order.append, "inner")
    engine.schedule(1.0, outer)
    engine.run()
    assert order == ["outer", "inner"]


def test_pending_events_counts_live_only(engine):
    h1 = engine.schedule(1.0, lambda: None)
    engine.schedule(2.0, lambda: None)
    assert engine.pending_events == 2
    h1.cancel()
    assert engine.pending_events == 1


def test_pending_events_drops_to_zero_after_run(engine):
    for t in (1.0, 2.0, 3.0):
        engine.schedule(t, lambda: None)
    engine.run()
    assert engine.pending_events == 0


def test_pending_events_double_cancel_counts_once(engine):
    h = engine.schedule(1.0, lambda: None)
    engine.schedule(2.0, lambda: None)
    h.cancel()
    h.cancel()
    assert engine.pending_events == 1


def test_pending_events_tracks_mid_run_scheduling(engine):
    """The live counter stays consistent through executed pops,
    cancelled pops, and events scheduled from inside callbacks."""
    observed = []

    def first():
        observed.append(engine.pending_events)  # the later event remains
        engine.schedule_after(1.0, second)
        observed.append(engine.pending_events)

    def second():
        observed.append(engine.pending_events)

    engine.schedule(1.0, first)
    doomed = engine.schedule(1.5, lambda: None)
    doomed.cancel()
    engine.run()
    assert observed == [0, 1, 0]
    assert engine.pending_events == 0


def test_reentrant_run_raises(engine):
    def nested():
        engine.run()
    engine.schedule(1.0, nested)
    with pytest.raises(SimulationError):
        engine.run()


def test_run_returns_executed_count(engine):
    for i in range(4):
        engine.schedule(float(i), lambda: None)
    assert engine.run() == 4


# -- tuple fast path (schedule_fast / schedule_after_fast) -------------------


def test_fast_events_fire_in_time_order(engine):
    order = []
    engine.schedule_fast(3.0, order.append, ("c",))
    engine.schedule_fast(1.0, order.append, ("a",))
    engine.schedule_fast(2.0, order.append, ("b",))
    engine.run()
    assert order == ["a", "b", "c"]


def test_fast_returns_nothing(engine):
    assert engine.schedule_fast(1.0, lambda: None) is None
    assert engine.schedule_after_fast(1.0, lambda: None) is None


def test_fast_and_cancellable_interleave_in_schedule_order(engine):
    """Mixed entry kinds at one timestamp share the sequence counter, so
    they fire strictly in schedule order (and never compare a handle
    against a callback tuple)."""
    order = []
    engine.schedule(5.0, order.append, "cancellable-1")
    engine.schedule_fast(5.0, order.append, ("fast-1",))
    engine.schedule(5.0, order.append, "cancellable-2")
    engine.schedule_fast(5.0, order.append, ("fast-2",))
    engine.run()
    assert order == ["cancellable-1", "fast-1", "cancellable-2", "fast-2"]


def test_cancelled_handle_among_fast_events(engine):
    order = []
    engine.schedule_fast(1.0, order.append, ("a",))
    doomed = engine.schedule(1.0, order.append, "doomed")
    engine.schedule_fast(1.0, order.append, ("b",))
    doomed.cancel()
    engine.run()
    assert order == ["a", "b"]


def test_fast_schedule_in_past_raises(engine):
    engine.schedule_fast(2.0, lambda: None)
    engine.run()
    with pytest.raises(SimulationError):
        engine.schedule_fast(1.0, lambda: None)


def test_fast_schedule_after_negative_delay_raises(engine):
    with pytest.raises(SimulationError):
        engine.schedule_after_fast(-0.1, lambda: None)


def test_fast_schedule_after_uses_current_time(engine):
    fired = []
    engine.schedule(2.0, lambda: engine.schedule_after_fast(1.5, lambda: fired.append(engine.now)))
    engine.run()
    assert fired == [3.5]


def test_pending_events_counts_fast_entries(engine):
    engine.schedule_fast(1.0, lambda: None)
    handle = engine.schedule(2.0, lambda: None)
    assert engine.pending_events == 2
    handle.cancel()
    assert engine.pending_events == 1
    engine.run()
    assert engine.pending_events == 0


def test_fast_events_pass_args_tuple(engine):
    seen = []
    engine.schedule_fast(1.0, lambda a, b: seen.append((a, b)), (1, 2))
    engine.run()
    assert seen == [(1, 2)]


def test_cancel_after_fire_keeps_pending_events_exact(engine):
    """Cancelling a handle whose event already fired must not decrement
    the live counter again (regression: pending_events went negative)."""
    handle = engine.schedule(1.0, lambda: None)
    engine.schedule(2.0, lambda: None)
    engine.run(until=1.5)
    assert handle.fired
    assert engine.pending_events == 1
    handle.cancel()
    handle.cancel()
    assert engine.pending_events == 1
    engine.run()
    assert engine.pending_events == 0


def test_cancel_during_own_callback_keeps_count_exact(engine):
    """A handle that cancels itself from inside its callback is already
    consumed; the live count must stay exact."""
    handles = []
    handles.append(engine.schedule(1.0, lambda: handles[0].cancel()))
    engine.schedule(2.0, lambda: None)
    engine.run()
    assert engine.pending_events == 0


def test_cancel_releases_engine_reference(engine):
    handle = engine.schedule(1.0, lambda: None)
    handle.cancel()
    assert handle._engine is None


def test_fired_handle_releases_engine_reference(engine):
    handle = engine.schedule(1.0, lambda: None)
    engine.run()
    assert handle._engine is None
