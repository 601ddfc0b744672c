"""Unit tests for the experiment harness and reporting helpers."""

from __future__ import annotations

import pytest

from repro.analysis.energy import joules_to_kwh, savings_fraction
from repro.analysis.experiments import (
    ComparisonResult,
    default_array_config,
    run_comparison,
    slack_goal,
)
from repro.analysis.parallel import PolicySpec, RunSpec, TraceSpec, comparison_specs, run_spec
from repro.analysis.report import format_kv, format_series, format_table
from repro.core.hibernator import HibernatorConfig
from tests.conftest import poisson_trace


def base_run(trace, config, **run_options):
    return run_spec(RunSpec(trace=TraceSpec.from_trace(trace), array=config,
                            policy=PolicySpec.named("base"), **run_options))


class TestEnergyHelpers:
    def test_joules_to_kwh(self):
        assert joules_to_kwh(3.6e6) == 1.0

    def test_savings_fraction(self):
        assert savings_fraction(50.0, 100.0) == pytest.approx(0.5)
        assert savings_fraction(150.0, 100.0) == pytest.approx(-0.5)
        assert savings_fraction(1.0, 0.0) == 0.0


class TestDefaultConfig:
    def test_paper_scale_defaults(self):
        cfg = default_array_config()
        assert cfg.num_disks == 24
        assert cfg.num_extents == 2400
        assert cfg.spec.num_levels == 5

    def test_capacity_multiple(self):
        cfg = default_array_config(num_disks=4, num_extents=80, capacity_multiple=4.0)
        assert cfg.slots_per_disk == 80

    def test_speed_levels_parameter(self):
        cfg = default_array_config(num_speed_levels=2)
        assert cfg.spec.rpm_levels == (7500, 15000)


class TestDeriveGoal:
    """The goal from Base: run Base through ``run_spec``, then ``slack_goal``."""

    def test_goal_is_slack_times_base(self, small_config):
        base = base_run(poisson_trace(rate=20.0, duration=30.0, seed=40), small_config)
        assert base.policy_name == "Base"
        assert slack_goal(2.0, base) == pytest.approx(2.0 * base.mean_response_s)

    def test_slack_below_one_rejected(self, small_config):
        with pytest.raises(ValueError, match="unmeetable"):
            slack_goal(0.9)
        base = base_run(poisson_trace(rate=20.0, duration=10.0, seed=40), small_config)
        with pytest.raises(ValueError, match="unmeetable"):
            slack_goal(0.9, base)

    def test_empty_trace_rejected(self, small_config):
        from repro.traces.model import TraceBuilder

        base = base_run(TraceBuilder("e", 80).build(), small_config)
        with pytest.raises(ValueError, match="no requests"):
            slack_goal(1.5, base)


class TestComparison:
    @pytest.fixture(scope="class")
    def comparison(self):
        config = default_array_config(num_disks=4, num_extents=80, seed=7)
        trace = poisson_trace(rate=30.0, duration=120.0, seed=41)
        return run_comparison(
            trace, config, slack=2.0,
            hibernator_config=HibernatorConfig(epoch_seconds=60.0),
        )

    def test_all_schemes_present(self, comparison):
        assert set(comparison.results) == {
            "Base", "TPM", "DRPM", "PDC", "MAID", "Hibernator",
        }

    def test_base_savings_zero(self, comparison):
        assert comparison.savings("Base") == pytest.approx(0.0)

    def test_rows_render(self, comparison):
        rows = comparison.rows()
        assert len(rows) == 6
        assert all(len(r) == len(ComparisonResult.HEADERS) for r in rows)

    def test_same_trace_same_requests(self, comparison):
        counts = {r.num_requests for r in comparison.results.values()}
        assert len(counts) == 1


def test_comparison_window_samples_every_scheme_base_included():
    config = default_array_config(num_disks=4, num_extents=80, seed=7)
    trace = poisson_trace(rate=30.0, duration=120.0, seed=41)
    comparison = run_comparison(trace, config, slack=2.0, window_s=10.0,
                                hibernator_config=HibernatorConfig(epoch_seconds=60.0))
    counts = {name: len(r.speed_samples) for name, r in comparison.results.items()}
    assert counts["Base"] > 0
    assert len(set(counts.values())) == 1, counts


def test_run_spec_passes_window(small_config):
    result = base_run(poisson_trace(rate=20.0, duration=30.0, seed=42), small_config,
                      window_s=10.0)
    assert result.latency_windows


def test_comparison_specs_shape(small_config):
    trace = poisson_trace(rate=10.0, duration=10.0, seed=43)
    specs = comparison_specs(TraceSpec.from_trace(trace), small_config, goal_s=0.05)
    built = [spec.policy.build(trace, spec.array) for spec in specs]
    assert [policy.name for policy, _ in built] == ["TPM", "DRPM", "PDC", "MAID", "Hibernator"]
    maid, maid_array = built[3]
    cache_disks = maid.config.num_cache_disks
    assert maid_array.initial_disks == tuple(range(cache_disks, small_config.num_disks))
    assert all(array is small_config for i, (_, array) in enumerate(built) if i != 3)


class TestReport:
    def test_format_table_aligns(self):
        out = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert all(len(line) <= len(max(lines, key=len)) for line in lines)

    def test_format_table_title(self):
        out = format_table(["x"], [["1"]], title="T1")
        assert out.splitlines()[0] == "T1"

    def test_format_table_ragged_raises(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["1"]])

    def test_format_series(self):
        out = format_series("F5", [(1.0, 2.0), (3.0, 4.0)], "slack", "savings")
        assert "slack" in out and "savings" in out
        assert len(out.splitlines()) == 5

    def test_format_kv(self):
        out = format_kv("Disk", [("rpm", "15000"), ("capacity", "36 GB")])
        assert "rpm" in out and "36 GB" in out

