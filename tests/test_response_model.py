"""Unit tests for the M/G/1 response-time predictor."""

from __future__ import annotations

import math

import pytest

from repro.core.response_model import MG1ResponseModel, predict_tier_response
from repro.disks.mechanics import DiskMechanics
from repro.disks.specs import ultrastar_36z15


@pytest.fixture
def model():
    return MG1ResponseModel(DiskMechanics(ultrastar_36z15()), mean_request_bytes=4096)


def test_zero_load_response_is_service_mean(model):
    assert model.response_time(15000, 0.0) == pytest.approx(model.moments(15000).mean)


def test_response_increases_with_load(model):
    r = [model.response_time(15000, lam) for lam in (10, 50, 100, 150)]
    assert r == sorted(r)


def test_response_increases_as_speed_drops(model):
    rs = [model.response_time(rpm, 20.0) for rpm in (15000, 9000, 3000)]
    assert rs == sorted(rs)


def test_saturation_gives_infinite_response(model):
    m = model.moments(3000)
    lam = 1.0 / m.mean  # rho = 1
    assert math.isinf(model.response_time(3000, lam))


def test_utilization(model):
    m = model.moments(15000)
    assert model.utilization(15000, 10.0) == pytest.approx(10.0 * m.mean)


def test_negative_lambda_raises(model):
    with pytest.raises(ValueError):
        model.utilization(15000, -1.0)


def test_mg1_formula_exact(model):
    """Hand-check the Pollaczek-Khinchine formula."""
    m = model.moments(15000)
    lam = 50.0
    rho = lam * m.mean
    expected = m.mean + lam * m.second / (2 * (1 - rho))
    assert model.response_time(15000, lam) == pytest.approx(expected)


def test_moments_cached(model):
    assert model.moments(9000) is model.moments(9000)


def test_constructor_validation():
    mech = DiskMechanics(ultrastar_36z15())
    with pytest.raises(ValueError):
        MG1ResponseModel(mech, mean_request_bytes=0)
    with pytest.raises(ValueError):
        MG1ResponseModel(mech, max_utilization=1.5)


class TestTierPrediction:
    def test_even_spread(self, model):
        p = predict_tier_response(model, 15000, num_disks=4, tier_lambda=100.0)
        assert p.per_disk_lambda == pytest.approx(25.0)
        assert p.response_s == pytest.approx(model.response_time(15000, 25.0))

    def test_empty_tier_rejected(self, model):
        with pytest.raises(ValueError):
            predict_tier_response(model, 15000, num_disks=0, tier_lambda=0.0)
