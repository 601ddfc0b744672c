"""Tests for the fleet package: spec expansion, partitioning, correlated
faults, the sharded executor's determinism guarantees, and the CLI.

The two load-bearing guarantees (docs/fleet.md):

* ``run_fleet(spec, jobs=K)`` is byte-identical to ``jobs=1`` for any K
  (modulo the per-shard ``runtime_*`` wall-clock extras);
* an empty :class:`FleetFaultPlan` is byte-identical to ``faults=None``.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.analysis.cache import content_key
from repro.analysis.parallel import PolicySpec, TraceSpec
from repro.disks.specs import make_multispeed_spec
from repro.disks.array import ArrayConfig
from repro.faults.plan import DiskFailure, FaultPlan, TransientFault
from repro.fleet import (
    CorrelatedFailure,
    FleetFaultPlan,
    FleetSpec,
    fleet_fault_plan_from_dict,
    fleet_fault_plan_to_dict,
    partition_trace,
    run_fleet,
    spawn_seeds,
    trace_label,
)
from repro.traces.synthetic import SyntheticConfig, generate_synthetic

ARRAY_EXTENTS = 60


def _array() -> ArrayConfig:
    return ArrayConfig(
        num_disks=4, spec=make_multispeed_spec(num_levels=3),
        num_extents=ARRAY_EXTENTS,
    )


def _trace_spec(num_arrays: int, *, per_array: bool = False,
                seed: int = 3) -> TraceSpec:
    extents = ARRAY_EXTENTS if per_array else num_arrays * ARRAY_EXTENTS
    return TraceSpec.from_generator(
        "synthetic",
        SyntheticConfig(name="fleet-test", duration=20.0, rate=30.0,
                        num_extents=extents, seed=seed),
    )


def _fleet(num_arrays: int = 3, **kwargs) -> FleetSpec:
    defaults = dict(
        num_arrays=num_arrays,
        trace=_trace_spec(num_arrays,
                          per_array=kwargs.get("partitioner") == "replicate"),
        array=_array(),
        policy=PolicySpec.named("base"),
    )
    defaults.update(kwargs)
    return FleetSpec(**defaults)


def _canonical(fleet_result):
    """Everything deterministic in a fleet result, content-hashed."""
    stripped = [
        dataclasses.replace(r, extras={
            k: v for k, v in r.extras.items() if not k.startswith("runtime_")
        })
        for r in fleet_result.results
    ]
    return content_key({
        "results": stripped,
        "extras": fleet_result.extras,
        "events": fleet_result.events,
    })


class TestSpawnSeeds:
    def test_pure_function_of_seed_and_n(self):
        assert spawn_seeds(7, 5) == spawn_seeds(7, 5)

    def test_arrays_get_distinct_seeds(self):
        seeds = spawn_seeds(0, 16)
        assert len(set(seeds)) == 16

    def test_prefix_stable_under_widening(self):
        # SeedSequence spawning is sequential: growing the fleet keeps
        # existing arrays' seeds, so adding arrays never re-rolls old ones.
        assert spawn_seeds(5, 3) == spawn_seeds(5, 6)[:3]

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError, match="at least one"):
            spawn_seeds(1, 0)


class TestPartition:
    def _trace(self, num_arrays=3):
        return generate_synthetic(SyntheticConfig(
            name="part", duration=15.0, rate=40.0,
            num_extents=num_arrays * ARRAY_EXTENTS, seed=11))

    def test_block_routes_contiguous_ranges(self):
        trace = self._trace()
        shards = partition_trace(trace, 3, ARRAY_EXTENTS, "block")
        for i, shard in enumerate(shards):
            original = trace.extents[
                (trace.extents >= i * ARRAY_EXTENTS)
                & (trace.extents < (i + 1) * ARRAY_EXTENTS)
            ]
            assert np.array_equal(shard.extents, original - i * ARRAY_EXTENTS)
            assert shard.num_extents == ARRAY_EXTENTS

    def test_stripe_routes_round_robin(self):
        trace = self._trace()
        shards = partition_trace(trace, 3, ARRAY_EXTENTS, "stripe")
        for i, shard in enumerate(shards):
            original = trace.extents[trace.extents % 3 == i]
            assert np.array_equal(shard.extents, original // 3)

    @pytest.mark.parametrize("mode", ["block", "stripe"])
    def test_every_request_lands_in_exactly_one_shard(self, mode):
        trace = self._trace()
        shards = partition_trace(trace, 3, ARRAY_EXTENTS, mode)
        assert sum(len(s) for s in shards) == len(trace)
        # Arrival times are untouched and stay sorted within each shard.
        for shard in shards:
            assert np.all(np.diff(shard.times) >= 0)

    def test_shards_are_named_by_array(self):
        shards = partition_trace(self._trace(), 3, ARRAY_EXTENTS, "block")
        assert [s.name for s in shards] == ["part/a0", "part/a1", "part/a2"]

    def test_extent_space_mismatch_raises(self):
        with pytest.raises(ValueError, match="global space"):
            partition_trace(self._trace(3), 4, ARRAY_EXTENTS, "block")

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError, match="unknown partitioner"):
            partition_trace(self._trace(), 3, ARRAY_EXTENTS, "bogus")


class TestFleetSpec:
    def test_rejects_bad_width(self):
        with pytest.raises(ValueError, match="num_arrays"):
            _fleet(num_arrays=0)

    def test_rejects_unknown_partitioner(self):
        with pytest.raises(ValueError, match="unknown partitioner"):
            _fleet(partitioner="bogus")

    def test_replicate_requires_generator_trace(self):
        trace = generate_synthetic(SyntheticConfig(
            name="inline", duration=5.0, num_extents=ARRAY_EXTENTS))
        with pytest.raises(ValueError, match="generator-based"):
            _fleet(partitioner="replicate", trace=TraceSpec.from_trace(trace))

    def test_array_specs_expand_per_array(self):
        fleet = _fleet(3, goal_s=0.05, observe=True)
        specs = fleet.array_specs()
        assert len(specs) == 3
        seeds = {spec.array.seed for spec in specs}
        assert len(seeds) == 3, "arrays must not share a layout seed"
        assert all(spec.goal_s == 0.05 and spec.observe for spec in specs)
        assert all(spec.faults is None for spec in specs)

    def test_replicate_gives_each_array_its_own_workload_seed(self):
        fleet = _fleet(3, partitioner="replicate")
        specs = fleet.array_specs()
        seeds = {spec.trace.config.seed for spec in specs}
        assert len(seeds) == 3
        assert all(spec.trace.config.num_extents == ARRAY_EXTENTS
                   for spec in specs)

    def test_trace_label(self):
        assert trace_label(_fleet(2)) == "fleet-test"


class TestCorrelatedFailure:
    def test_targets_default_to_whole_fleet(self):
        event = CorrelatedFailure(time_s=5.0, disk=1)
        assert event.targets(4) == (0, 1, 2, 3)

    def test_out_of_range_target_raises(self):
        event = CorrelatedFailure(time_s=5.0, disk=1, arrays=(0, 5))
        with pytest.raises(ValueError, match="only 3"):
            event.targets(3)

    def test_duplicate_targets_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            CorrelatedFailure(time_s=5.0, disk=1, arrays=(2, 2))


class TestFleetFaultPlan:
    def test_empty_plan_expands_to_all_none(self):
        assert FleetFaultPlan().expand(3) == (None, None, None)
        assert FleetFaultPlan().empty

    def test_correlated_failures_stagger_across_targets(self):
        plan = FleetFaultPlan(correlated_failures=(
            CorrelatedFailure(time_s=10.0, disk=2, arrays=(0, 2), stagger_s=3.0),
        ))
        assert not plan.empty
        expanded = plan.expand(3)
        assert expanded[1] is None
        assert expanded[0].disk_failures == (DiskFailure(time_s=10.0, disk=2),)
        assert expanded[2].disk_failures == (DiskFailure(time_s=13.0, disk=2),)

    def test_common_plan_reaches_every_array(self):
        window = TransientFault(start_s=1.0, end_s=2.0, probability=0.1)
        plan = FleetFaultPlan(common=FaultPlan(transient_faults=(window,)))
        for sub in plan.expand(2):
            assert sub.transient_faults == (window,)

    def test_per_array_seeds_are_distinct(self):
        plan = FleetFaultPlan(common=FaultPlan(
            transient_faults=(TransientFault(start_s=1.0, end_s=2.0,
                                             probability=0.1),)))
        seeds = [sub.seed for sub in plan.expand(4)]
        assert len(set(seeds)) == 4

    def test_override_knobs_win_over_common(self):
        common = FaultPlan(rebuild_max_inflight=2)
        override = FaultPlan(
            disk_failures=(DiskFailure(time_s=4.0, disk=0),),
            rebuild_max_inflight=7,
        )
        plan = FleetFaultPlan(common=common, array_plans=((1, override),))
        expanded = plan.expand(2)
        assert expanded[0] is None  # common alone injects nothing
        assert expanded[1].rebuild_max_inflight == 7

    def test_conflicting_failures_raise_with_array_index(self):
        plan = FleetFaultPlan(
            array_plans=((1, FaultPlan(
                disk_failures=(DiskFailure(time_s=4.0, disk=0),)),),),
            correlated_failures=(CorrelatedFailure(time_s=8.0, disk=0),),
        )
        with pytest.raises(ValueError, match="array 1"):
            plan.expand(2)

    def test_out_of_range_array_plan_raises(self):
        plan = FleetFaultPlan(array_plans=((5, FaultPlan()),))
        with pytest.raises(ValueError, match="only 2"):
            plan.expand(2)

    def test_duplicate_array_plan_indices_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FleetFaultPlan(array_plans=((0, FaultPlan()), (0, FaultPlan())))

    def test_json_round_trip(self):
        plan = FleetFaultPlan(
            common=FaultPlan(transient_faults=(
                TransientFault(start_s=1.0, end_s=2.0, probability=0.1),)),
            array_plans=((1, FaultPlan(
                disk_failures=(DiskFailure(time_s=4.0, disk=3),)),),),
            correlated_failures=(
                CorrelatedFailure(time_s=9.0, disk=1, arrays=(0, 1),
                                  stagger_s=0.5),),
            seed=99,
        )
        data = json.loads(json.dumps(fleet_fault_plan_to_dict(plan)))
        assert fleet_fault_plan_from_dict(data) == plan

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown FleetFaultPlan keys"):
            fleet_fault_plan_from_dict({"correlated_failure": []})


class TestRunFleet:
    def test_jobs_do_not_change_the_bytes(self):
        fleet = _fleet(3, goal_s=0.05, observe=True, faults=FleetFaultPlan(
            correlated_failures=(
                CorrelatedFailure(time_s=5.0, disk=1, arrays=(0, 2)),),
        ))
        serial = run_fleet(fleet, jobs=1)
        sharded = run_fleet(fleet, jobs=2)
        assert _canonical(serial) == _canonical(sharded)

    def test_empty_fault_plan_is_byte_identical_to_none(self):
        with_empty = run_fleet(_fleet(2, faults=FleetFaultPlan()))
        without = run_fleet(_fleet(2, faults=None))
        assert _canonical(with_empty) == _canonical(without)

    def test_merge_matches_shard_sums(self):
        result = run_fleet(_fleet(3))
        assert result.num_requests == sum(r.num_requests for r in result.results)
        assert result.energy_joules == pytest.approx(
            sum(r.energy_joules for r in result.results))
        n = sum(r.num_requests for r in result.results)
        weighted = sum(r.num_requests * r.mean_response_s
                       for r in result.results) / n
        assert result.mean_response_s == pytest.approx(weighted)
        assert result.max_response_s == max(
            r.max_response_s for r in result.results)

    def test_availability_counts_failed_requests(self):
        fleet = _fleet(2, faults=FleetFaultPlan(correlated_failures=(
            CorrelatedFailure(time_s=2.0, disk=0),)))
        result = run_fleet(fleet)
        assert result.failed_requests > 0, (
            "non-raid5 disk death should fail some requests")
        offered = result.num_requests + result.failed_requests
        assert result.availability == pytest.approx(result.num_requests / offered)
        assert result.availability < 1.0

    def test_observed_fleet_tells_a_complete_story(self):
        result = run_fleet(_fleet(2, observe=True))
        kinds = [e.kind for e in result.events]
        assert kinds == ["fleet_run_start", "fleet_array_done",
                         "fleet_array_done", "fleet_run_end"]
        done = [e for e in result.events if e.kind == "fleet_array_done"]
        assert [e.array for e in done] == [0, 1]
        assert sum(e.num_requests for e in done) == result.num_requests
        end = result.events[-1]
        assert end.energy_joules == pytest.approx(result.energy_joules)
        assert result.extras["fleet_arrays_done"] == 2.0

    def test_unobserved_fleet_constructs_no_events(self):
        result = run_fleet(_fleet(2, observe=False))
        assert result.events == []
        assert all(r.events == [] for r in result.results)

    def test_extras_are_deterministic_merged_counters(self):
        result = run_fleet(_fleet(2))
        assert not any(k.startswith("runtime_") for k in result.extras)
        assert result.extras["fleet_events_executed"] == sum(
            r.extras["runtime_events"] for r in result.results)

    def test_cache_serves_identical_shards(self, tmp_path):
        from repro.analysis.cache import ResultCache

        fleet = _fleet(2)
        cache = ResultCache(tmp_path)
        first = run_fleet(fleet, cache=cache)
        second = run_fleet(fleet, cache=cache)
        assert cache.stats()["hits"] == 2
        assert _canonical(first) == _canonical(second)

    def test_partitioners_see_the_same_offered_load(self):
        block = run_fleet(_fleet(3, partitioner="block"))
        stripe = run_fleet(_fleet(3, partitioner="stripe"))
        total = block.num_requests + block.failed_requests
        assert stripe.num_requests + stripe.failed_requests == total


class TestFleetCli:
    def test_fleet_run_json(self, capsys):
        from repro.cli import main

        code = main([
            "fleet", "run", "--arrays", "3", "--kind", "synthetic",
            "--duration", "15", "--rate", "30", "--extents", "50",
            "--disks", "4", "--policy", "base", "--jobs", "2", "--json",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["num_arrays"] == 3
        assert len(doc["arrays"]) == 3
        assert doc["extras"]["fleet_arrays_done"] == 3.0

    def test_fleet_compare_runs(self, capsys):
        from repro.cli import main

        code = main([
            "fleet", "compare", "--arrays", "2", "--kind", "synthetic",
            "--duration", "10", "--rate", "20", "--extents", "40",
            "--disks", "4", "--policies", "base,hibernator", "--epoch", "5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fleet comparison" in out and "Hibernator" in out

    def test_fleet_compare_unknown_policy_is_usage_error(self, capsys):
        from repro.cli import main

        code = main([
            "fleet", "compare", "--arrays", "2", "--policies", "base,nope",
        ])
        assert code == 2
