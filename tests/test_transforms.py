"""Unit tests for trace transformations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.traces.transforms import concat, remap_extents, sample_fraction
from tests.conftest import make_trace


def test_concat_orders_phases():
    a = make_trace([0.0, 5.0], extents=[1, 2])
    b = make_trace([0.0, 3.0], extents=[3, 4])
    merged = concat([a, b], gap_s=2.0)
    assert list(merged.times) == [0.0, 5.0, 7.0, 10.0]
    assert list(merged.extents) == [1, 2, 3, 4]


def test_concat_empty_rejected():
    with pytest.raises(ValueError):
        concat([])


def test_concat_leading_idle_stays_in_component_span():
    """A component whose requests start at t>0 keeps that lead-in inside
    its span: the next component starts at cursor + duration + gap."""
    a = make_trace([0.0, 4.0])
    b = make_trace([3.0, 5.0])  # 3 s of leading idle
    merged = concat([a, b], gap_s=1.0)
    # b's span starts at 4 + 1 = 5, so its requests land at 8 and 10,
    # and a trailing component would start at 5 + 5 + 1 = 11.
    assert list(merged.times) == [0.0, 4.0, 8.0, 10.0]
    c = make_trace([0.0])
    assert list(concat([a, b, c], gap_s=1.0).times)[-1] == 11.0


def test_concat_skips_empty_components():
    """Empty components contribute no span and no gap (identity)."""
    a = make_trace([0.0, 2.0])
    b = make_trace([])
    c = make_trace([0.0, 1.0])
    with_empty = concat([a, b, c], gap_s=5.0)
    without = concat([a, c], gap_s=5.0)
    assert list(with_empty.times) == list(without.times) == [0.0, 2.0, 7.0, 8.0]
    # Leading and trailing empties are identities too.
    assert list(concat([b, a], gap_s=5.0).times) == [0.0, 2.0]
    assert list(concat([a, b], gap_s=5.0).times) == [0.0, 2.0]


def test_concat_all_empty_returns_empty_trace():
    merged = concat([make_trace([]), make_trace([])], gap_s=2.0, name="nothing")
    assert len(merged) == 0
    assert merged.name == "nothing"
    assert merged.num_extents == 80


def test_concat_negative_gap_eats_into_leading_idle():
    # A negative gap may consume a later component's lead-in, as long
    # as the combined times stay non-decreasing.
    a = make_trace([0.0, 4.0])
    b = make_trace([3.0, 5.0])
    merged = concat([a, b], gap_s=-2.0)
    assert list(merged.times) == [0.0, 4.0, 5.0, 7.0]
    # Reordering the timeline is rejected by Trace validation.
    with pytest.raises(ValueError, match="non-decreasing"):
        concat([a, make_trace([0.0, 1.0])], gap_s=-1.0)


def test_concat_takes_widest_address_space():
    a = make_trace([0.0], num_extents=10)
    b = make_trace([0.0], num_extents=40)
    assert concat([a, b]).num_extents == 40


def test_sample_fraction_thins():
    trace = make_trace([float(i) for i in range(1000)])
    thinned = sample_fraction(trace, 0.3, seed=1)
    assert 200 < len(thinned) < 400
    assert np.all(np.diff(thinned.times) >= 0)


def test_sample_fraction_full_keeps_everything():
    trace = make_trace([0.0, 1.0, 2.0])
    assert len(sample_fraction(trace, 1.0, seed=1)) == 3


def test_sample_fraction_validation():
    with pytest.raises(ValueError):
        sample_fraction(make_trace([0.0]), 0.0)


def test_sample_fraction_reproducible():
    trace = make_trace([float(i) for i in range(100)])
    a = sample_fraction(trace, 0.5, seed=7)
    b = sample_fraction(trace, 0.5, seed=7)
    assert np.array_equal(a.times, b.times)


def test_remap_extents():
    trace = make_trace([0.0, 1.0], extents=[2, 5], num_extents=10)
    mapping = np.arange(10)[::-1]  # reverse
    remapped = remap_extents(trace, mapping, num_extents=10)
    assert list(remapped.extents) == [7, 4]


def test_remap_fold_smaller_volume():
    trace = make_trace([0.0, 1.0, 2.0], extents=[0, 5, 9], num_extents=10)
    mapping = np.arange(10) % 4
    folded = remap_extents(trace, mapping, num_extents=4)
    assert folded.num_extents == 4
    assert list(folded.extents) == [0, 1, 1]


def test_remap_validation():
    trace = make_trace([0.0], extents=[0], num_extents=10)
    with pytest.raises(ValueError):
        remap_extents(trace, np.arange(5), num_extents=10)  # too short
    with pytest.raises(ValueError):
        remap_extents(trace, np.full(10, 99), num_extents=10)  # out of range
