"""Unit tests for heat tracking."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.temperature import HeatTracker


def test_first_epoch_seeds_directly():
    h = HeatTracker(4, smoothing=0.5)
    h.record(0)
    h.record(0)
    h.record(2)
    heat = h.close_epoch(2.0)
    assert heat[0] == pytest.approx(1.0)
    assert heat[2] == pytest.approx(0.5)
    assert heat[1] == 0.0


def test_smoothing_blends_history():
    h = HeatTracker(2, smoothing=0.5)
    h.record(0)
    h.close_epoch(1.0)   # heat[0] = 1.0
    h.record(1)
    heat = h.close_epoch(1.0)
    assert heat[0] == pytest.approx(0.5)       # decayed
    assert heat[1] == pytest.approx(0.5)       # half of new rate 1.0


def test_zero_smoothing_follows_last_epoch():
    h = HeatTracker(2, smoothing=0.0)
    h.record(0)
    h.close_epoch(1.0)
    h.record(1)
    heat = h.close_epoch(1.0)
    assert heat[0] == 0.0
    assert heat[1] == 1.0


def test_write_weight():
    h = HeatTracker(2, write_weight=2.0)
    h.record(0, is_write=True)
    h.record(1, is_write=False)
    heat = h.close_epoch(1.0)
    assert heat[0] == pytest.approx(2 * heat[1])


def test_record_bulk_matches_loop():
    a = HeatTracker(8)
    b = HeatTracker(8)
    extents = np.array([1, 1, 3, 5, 5, 5])
    writes = np.array([True, False, False, True, False, False])
    for e, w in zip(extents, writes):
        a.record(int(e), is_write=bool(w))
    b.record_bulk(extents, writes)
    assert np.allclose(a.close_epoch(1.0), b.close_epoch(1.0))


def test_record_bulk_without_mask():
    h = HeatTracker(4)
    h.record_bulk(np.array([0, 0, 3]))
    heat = h.close_epoch(1.0)
    assert heat[0] == 2.0 and heat[3] == 1.0


def test_hottest_first_order():
    h = HeatTracker(4)
    for _ in range(3):
        h.record(2)
    h.record(0)
    h.close_epoch(1.0)
    order = h.hottest_first()
    assert order[0] == 2
    assert order[1] == 0
    # Ties broken by id (stable).
    assert list(order[2:]) == [1, 3]


def test_prime():
    h = HeatTracker(3)
    h.prime(np.array([1.0, 2.0, 3.0]))
    assert list(h.hottest_first()) == [2, 1, 0]
    # Primed heat counts as history: the next fold smooths against it.
    assert list(h.close_epoch(1.0)) == [0.5, 1.0, 1.5]


def test_prime_validation():
    h = HeatTracker(3)
    with pytest.raises(ValueError):
        h.prime(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        h.prime(np.array([1.0, -2.0, 3.0]))


def test_constructor_validation():
    with pytest.raises(ValueError):
        HeatTracker(0)
    with pytest.raises(ValueError):
        HeatTracker(4, smoothing=1.0)
    with pytest.raises(ValueError):
        HeatTracker(4, write_weight=0.0)


def test_close_epoch_validation():
    with pytest.raises(ValueError):
        HeatTracker(4).close_epoch(0.0)


def test_window_reset_after_close():
    h = HeatTracker(2)
    h.record(0)
    h.close_epoch(1.0)
    heat = h.close_epoch(1.0)  # empty epoch halves the heat
    assert heat[0] == pytest.approx(0.5)
