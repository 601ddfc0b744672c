"""Cross-backend identity: the batch engine vs the scalar engine.

The batch core (:mod:`repro.sim.batch`) promises *byte-identical*
results to the scalar engine — same digests, same RNG stream, same
event ordering — for every spec, falling back to the scalar loop
whenever a feature it cannot vectorize is in play. These tests enforce
that promise three ways:

* the full perf-scenario matrix, serially and through the jobs=2
  executor, against scalar reference digests;
* the golden specs against the committed pin file (the same pins the
  scalar engine is held to);
* a hypothesis property test over randomized synthetic workloads
  (seed, burst shape, goal, a one-failure fault plan, and the inputs
  real traces produce: quantized timestamps with a first arrival at
  t=0, a sampler whose ticks land on them, and fault windows whose
  edges sit on arrival instants), under Base and under short-epoch
  Hibernator, on plain, deterministic-latency, RAID-5 and write-cache
  arrays; plus one pinned case where the boost enters mid-segment.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import default_array_config
from repro.analysis.parallel import (
    ENGINE_NAMES,
    PolicySpec,
    RunSpec,
    TraceSpec,
    execute,
    run_spec,
    simulation_class,
)
from repro.core.hibernator import HibernatorPolicy
from repro.faults.plan import DiskFailure, FaultPlan, SlowDiskFault, TransientFault
from repro.fleet.executor import run_fleet
from repro.fleet.spec import FleetSpec
from repro.perf.digest import fleet_result_digest, result_digest
from repro.perf.scenarios import PERF_SCENARIOS, golden_specs
from repro.policies.always_on import AlwaysOnPolicy
from repro.sim.batch import BatchArraySimulation
from repro.sim.runner import ArraySimulation
from repro.traces.model import Trace
from repro.traces.synthetic import SyntheticConfig, generate_synthetic

GOLDEN_PATH = Path(__file__).parent / "golden" / "golden_results.json"


def _digest(spec) -> str:
    if isinstance(spec, FleetSpec):
        return fleet_result_digest(run_fleet(spec))
    return result_digest(run_spec(spec))


@pytest.fixture(scope="module")
def scalar_reference():
    """Scalar digests for every perf scenario (computed once)."""
    return {s.name: _digest(s.spec("scalar")) for s in PERF_SCENARIOS}


class TestEngineSelector:
    def test_known_engines(self):
        assert ENGINE_NAMES == ("scalar", "batch")
        assert simulation_class("scalar") is ArraySimulation
        assert simulation_class("batch") is BatchArraySimulation

    def test_unknown_engine_raises(self):
        with pytest.raises(ValueError, match="unknown engine"):
            simulation_class("vectorized")

    def test_fleet_spec_validates_engine(self):
        spec = golden_specs()["golden-fleet"]
        with pytest.raises(ValueError, match="unknown engine"):
            dataclasses.replace(spec, engine="vectorized")

    def test_batch_rejects_live_mode(self):
        trace = generate_synthetic(SyntheticConfig(duration=1.0, rate=5.0,
                                                   num_extents=100))
        config = default_array_config(num_disks=2, num_extents=100)
        with pytest.raises(ValueError, match="live"):
            BatchArraySimulation(trace=trace, array_config=config,
                                 policy=AlwaysOnPolicy(), live=True)


_PUMP_TELEMETRY = {"runtime_batched_requests", "runtime_segments",
                   "runtime_barriers", "runtime_resumes"}


class TestEngineTelemetry:
    def test_pump_share_is_reported_outside_the_digest(self):
        scenario = next(s for s in PERF_SCENARIOS if s.name == "synth-hibernator")
        scalar, batch = (run_spec(scenario.spec(engine)) for engine in ENGINE_NAMES)
        assert not _PUMP_TELEMETRY & set(scalar.extras)
        assert set(batch.extras) - set(scalar.extras) == _PUMP_TELEMETRY
        assert result_digest(batch) == result_digest(scalar)
        extras = batch.extras
        assert 0 < extras["runtime_batched_requests"] <= len(scenario.spec().trace.build())
        assert extras["runtime_segments"] > 0
        # Every resume follows a barrier; the run may end in a stretch.
        assert 1 <= extras["runtime_resumes"] <= extras["runtime_barriers"]

    def test_statically_scalar_run_reports_zero_batched(self):
        trace, config, _ = _random_case(1, "flat", None)
        result = run_spec(RunSpec(
            trace=TraceSpec.from_trace(trace),
            array=dataclasses.replace(config, raid5=True),
            policy=PolicySpec.named("base"), engine="batch"))
        assert {k: result.extras[k] for k in _PUMP_TELEMETRY} == dict.fromkeys(
            _PUMP_TELEMETRY, 0.0)


class TestPerfMatrixIdentity:
    @pytest.mark.parametrize("name", [s.name for s in PERF_SCENARIOS])
    def test_serial_identity(self, name, scalar_reference):
        scenario = next(s for s in PERF_SCENARIOS if s.name == name)
        if scenario.fleet:
            digest = _digest(scenario.spec("batch"))
        else:
            result = run_spec(scenario.spec("batch"))
            digest = result_digest(result)
            # Hibernator scenarios included: none may silently run on
            # the scalar loop from start to end.
            assert result.extras["runtime_batched_requests"] > 0, name
        assert digest == scalar_reference[name], (
            f"{name}: batch engine produced different bytes than scalar"
        )

    def test_parallel_identity(self, scalar_reference):
        """jobs=2 batch runs must match the scalar reference too."""
        arrays = [s for s in PERF_SCENARIOS if not s.fleet]
        results = execute([s.spec("batch") for s in arrays], jobs=2)
        for scenario, result in zip(arrays, results):
            assert result_digest(result) == scalar_reference[scenario.name], (
                f"{scenario.name}: jobs=2 batch run produced different bytes"
            )
        for scenario in (s for s in PERF_SCENARIOS if s.fleet):
            fleet_result = run_fleet(scenario.spec("batch"), jobs=2)
            assert (fleet_result_digest(fleet_result)
                    == scalar_reference[scenario.name]), (
                f"{scenario.name}: sharded batch fleet produced different bytes"
            )


class TestGoldenIdentity:
    def test_batch_reproduces_the_golden_pins(self):
        pinned = json.loads(GOLDEN_PATH.read_text())["digests"]
        for name, spec in sorted(golden_specs().items()):
            batch_spec = dataclasses.replace(spec, engine="batch")
            assert _digest(batch_spec) == pinned[name], (
                f"{name}: batch engine diverged from the golden pin"
            )


# --- randomized property: batch == scalar on synthetic workloads --------

_RATE_SHAPES = {
    "flat": None,
    # Both callables stay within [0, peak_rate=60] as the thinning
    # sampler requires.
    "sine": lambda t: 30.0 + 25.0 * np.sin(2.0 * np.pi * t / 20.0),
    "square": lambda t: np.where((t % 15.0) < 5.0, 55.0, 8.0),
}


def _quantized(trace: Trace, quantum: float) -> Trace:
    """Timestamps rounded to ``quantum`` and rebased to a first arrival
    at t=0, as ingest leaves a real trace."""
    times = np.round(trace.times / quantum) * quantum
    return Trace(name=trace.name, num_extents=trace.num_extents,
                 times=times - times[0], kinds=trace.kinds,
                 extents=trace.extents, offsets=trace.offsets, sizes=trace.sizes)


def _random_case(seed: int, shape: str, fail_at: float | None,
                 quantum: float | None = None, windows_on_arrivals: bool = False):
    trace = generate_synthetic(SyntheticConfig(
        name=f"prop-{shape}-{seed}",
        duration=40.0,
        rate=60.0,
        num_extents=200,
        seed=seed,
        rate_fn=_RATE_SHAPES[shape],
    ))
    if quantum is not None:
        trace = _quantized(trace, quantum)
    config = default_array_config(num_disks=4, num_extents=200, seed=7)
    failures = () if fail_at is None else (DiskFailure(time_s=fail_at, disk=1),)
    transients = slows = ()
    if windows_on_arrivals:
        n = len(trace.times)
        start, end = float(trace.times[n // 3]), float(trace.times[2 * n // 3])
        transients = (TransientFault(start_s=start, end_s=end, probability=0.1),)
        slows = (SlowDiskFault(start_s=start, end_s=end, factor=2.0, disks=(2,)),)
    faults = None
    if failures or transients:
        faults = FaultPlan(disk_failures=failures, transient_faults=transients,
                           slow_disk_faults=slows)
    return trace, config, faults


#: Array variants; all but "plain" and "deterministic" run scalar on
#: both engines, which the property pins too.
_ARRAYS = {
    "plain": {},
    "deterministic": {"deterministic_latency": True},
    "raid5": {"raid5": True},
    "write_cache": {"write_cache": True},
}


def _policy(name: str, migration: str) -> PolicySpec:
    if name == "base":
        return PolicySpec.named("base")
    # Short epochs: a 40 s run crosses several boundaries, speed
    # transitions and migrations, each a barrier the pump resumes from.
    return PolicySpec.named("hibernator", epoch_seconds=5.0, migration=migration)


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    shape=st.sampled_from(sorted(_RATE_SHAPES)),
    # 8 ms puts Hibernator's boost entry inside steady stretches on
    # some draws; 0.25 s never boosts.
    goal=st.sampled_from([None, 0.008, 0.02, 0.25]),
    fail_at=st.one_of(st.none(), st.floats(min_value=1.0, max_value=35.0,
                                           allow_nan=False)),
    quantum=st.sampled_from([None, 0.01, 0.5, 1.0]),
    window=st.sampled_from([None, 0.5, 1.0, 10.0]),
    windows_on_arrivals=st.booleans(),
    policy=st.sampled_from(["base", "hibernator"]),
    migration=st.sampled_from(["shuffle", "none"]),
    array=st.sampled_from(sorted(_ARRAYS)),
    observe=st.booleans(),
)
# The pump itself must produce the retries a transient window causes.
@example(seed=0, shape="flat", goal=None, fail_at=None, quantum=None, window=None,
         windows_on_arrivals=True, policy="base", migration="shuffle",
         array="deterministic", observe=True)
# Two disks retry at one instant: the scalar loop orders them.
@example(seed=0, shape="flat", goal=None, fail_at=None, quantum=0.5, window=None,
         windows_on_arrivals=True, policy="base", migration="shuffle",
         array="deterministic", observe=True)
@settings(max_examples=40, deadline=None)
def test_property_batch_matches_scalar_serial(seed, shape, goal, fail_at, quantum,
                                              window, windows_on_arrivals, policy,
                                              migration, array, observe):
    trace, config, faults = _random_case(seed, shape, fail_at, quantum,
                                         windows_on_arrivals)
    config = dataclasses.replace(config, **_ARRAYS[array])
    digests = {
        engine: result_digest(run_spec(RunSpec(
            trace=TraceSpec.from_trace(trace), array=config,
            policy=_policy(policy, migration),
            goal_s=goal, window_s=window, faults=faults, observe=observe,
            engine=engine)))
        for engine in ENGINE_NAMES
    }
    assert digests["batch"] == digests["scalar"]


def test_boost_entering_mid_segment(monkeypatch):
    """A slow-disk window drives the deficit over the boost threshold
    between two barriers: the columnar fold stops at that completion,
    the pump replays the segment up to its instant and the scalar loop
    enters the boost. The result is byte-identical to the scalar run."""
    stops = []
    fold = HibernatorPolicy.on_completions

    def recording(self, latencies):
        folded = fold(self, latencies)
        if folded < len(latencies):
            stops.append(folded)
        return folded

    monkeypatch.setattr(HibernatorPolicy, "on_completions", recording)
    trace, config, faults = _random_case(2, "square", None, windows_on_arrivals=True)
    results = {
        engine: run_spec(RunSpec(
            trace=TraceSpec.from_trace(trace), array=config,
            policy=PolicySpec.named("hibernator", epoch_seconds=10.0),
            goal_s=0.008, faults=faults, engine=engine))
        for engine in ENGINE_NAMES
    }
    batch = results["batch"]
    assert stops, "the boost never entered inside a batched segment"
    assert batch.extras["boosts"] >= 1
    assert batch.extras["runtime_batched_requests"] > 0.5 * len(trace)
    assert result_digest(batch) == result_digest(results["scalar"])


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    shape=st.sampled_from(sorted(_RATE_SHAPES)),
    fail_at=st.one_of(st.none(), st.floats(min_value=1.0, max_value=35.0,
                                           allow_nan=False)),
)
@settings(max_examples=3, deadline=None)
def test_property_batch_matches_scalar_jobs2(seed, shape, fail_at):
    """The same property through the multiprocess executor."""
    trace, config, faults = _random_case(seed, shape, fail_at)
    trace_spec = TraceSpec.from_trace(trace)
    specs = [
        RunSpec(trace=trace_spec, array=config, policy=PolicySpec.named("base"),
                faults=faults, engine=engine)
        for engine in ENGINE_NAMES
    ]
    scalar_result, batch_result = execute(specs, jobs=2)
    assert result_digest(batch_result) == result_digest(scalar_result)
