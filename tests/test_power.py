"""Unit tests for energy metering."""

from __future__ import annotations

import pytest

from repro.disks.power import EnergyMeter, PowerBreakdown


class TestEnergyMeter:
    def test_integrates_piecewise_constant(self):
        m = EnergyMeter(start_time=0.0, watts=10.0, label="idle")
        m.update(5.0, 2.0, "standby")   # 10W x 5s
        m.update(8.0, 0.0, "off")       # 2W x 3s
        total = m.finish(10.0)          # 0W x 2s
        assert total == pytest.approx(56.0)
        assert m.breakdown.joules["idle"] == pytest.approx(50.0)
        assert m.breakdown.joules["standby"] == pytest.approx(6.0)
        assert m.breakdown.joules.get("off", 0.0) == 0.0

    def test_tracks_seconds_per_label(self):
        m = EnergyMeter(watts=1.0, label="a")
        m.update(2.0, 1.0, "b")
        m.finish(3.0)
        assert m.breakdown.seconds["a"] == pytest.approx(2.0)
        assert m.breakdown.seconds["b"] == pytest.approx(1.0)

    def test_impulse_energy(self):
        m = EnergyMeter(watts=0.0, label="idle")
        m.add_impulse(135.0, "transition")
        assert m.finish(10.0) == pytest.approx(135.0)
        assert m.breakdown.joules["transition"] == 135.0
        assert m.breakdown.seconds["transition"] == 0.0

    def test_impulse_joules_property(self):
        m = EnergyMeter(watts=3.0, label="idle")
        assert m.impulse_joules == 0.0
        m.add_impulse(100.0, "transition")
        m.add_impulse(35.0, "transition")
        m.finish(10.0)
        # The property exposes only the lump-sum part, not integrated power.
        assert m.impulse_joules == pytest.approx(135.0)
        assert m.impulse_joules == pytest.approx(m.breakdown.joules["transition"])

    def test_negative_impulse_raises(self):
        with pytest.raises(ValueError):
            EnergyMeter().add_impulse(-1.0, "x")

    def test_time_backwards_raises(self):
        m = EnergyMeter()
        m.update(5.0, 1.0, "a")
        with pytest.raises(ValueError):
            m.update(4.0, 1.0, "a")

    def test_same_label_accumulates(self):
        m = EnergyMeter(watts=2.0, label="idle")
        m.update(1.0, 3.0, "idle")
        m.finish(2.0)
        assert m.breakdown.joules["idle"] == pytest.approx(5.0)

    def test_current_state_properties(self):
        m = EnergyMeter(watts=4.2, label="active")
        assert m.watts == 4.2
        assert m.label == "active"


class TestPowerBreakdown:
    def test_merge(self):
        a = PowerBreakdown()
        a.add("idle", 10.0, 1.0)
        b = PowerBreakdown()
        b.add("idle", 5.0, 0.5)
        b.add("active", 2.0, 0.1)
        a.merge(b)
        assert a.joules == {"idle": 15.0, "active": 2.0}
        assert a.seconds == {"idle": 1.5, "active": 0.1}

    def test_fraction(self):
        b = PowerBreakdown()
        b.add("idle", 75.0, 1.0)
        b.add("active", 25.0, 1.0)
        assert b.fraction("idle") == pytest.approx(0.75)
        assert b.fraction("missing") == 0.0

    def test_fraction_of_empty(self):
        assert PowerBreakdown().fraction("idle") == 0.0

    def test_totals(self):
        b = PowerBreakdown()
        b.add("a", 1.0, 2.0)
        b.add("b", 3.0, 4.0)
        assert b.total_joules == 4.0
