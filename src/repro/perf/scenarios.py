"""The canonical benchmark scenario matrix.

Twelve scenarios cover the hot paths the simulator actually exercises:
{synthetic Poisson, cello-style diurnal} traces x {always-on,
Hibernator} policies x {fault-free, faulty}; ``fleet-small``, a
four-array fleet with a correlated batch failure that benchmarks the
:mod:`repro.fleet` expansion/partition/merge stack; ``imported-msr``,
which replays the packaged MSR-Cambridge-style fixture through the
whole :mod:`repro.traces.ingest` pipeline (parse, modernize, simulate);
and ``flashcrowd-hibernator`` / ``writeburst-base``, which exercise the
bursty scenario generators. Each scenario is expressed as a
:class:`~repro.analysis.parallel.RunSpec` (or
:class:`~repro.fleet.spec.FleetSpec`) recipe, so it runs through the
exact same stack as a real experiment (trace generated in place, policy
built fresh per run — policies are stateful).

Sizes are chosen so one scenario takes on the order of a second at the
pre-optimization throughput: big enough that per-event costs dominate
setup, small enough that ``repro perf`` stays a coffee-length command.

The smaller :func:`golden_specs` set anchors byte-identity: the results
of these runs are digest-pinned by ``tests/golden/golden_results.json``
and must survive any performance work unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.analysis.experiments import default_array_config
from repro.analysis.parallel import PolicySpec, RunSpec, TraceSpec
from repro.disks.array import ArrayConfig
from repro.faults.plan import FaultPlan, SlowDiskFault, TransientFault
from repro.fleet.faults import CorrelatedFailure, FleetFaultPlan
from repro.fleet.spec import FleetSpec
from repro.traces.cello import CelloConfig
from repro.traces.ingest import IngestOptions
from repro.traces.synthetic import FlashCrowdConfig, SyntheticConfig, WriteBurstConfig

#: Array shape shared by every scenario: small enough to generate
#: quickly, wide enough that placement/queueing behave like the paper's.
NUM_DISKS = 8
NUM_EXTENTS = 800

#: Fixed response-time goal for the Hibernator scenarios. A constant
#: (rather than a Base-derived goal) keeps each scenario self-contained
#: and its digest independent of any other run.
GOAL_S = 0.03

#: Short control epoch so Hibernator actually migrates and changes
#: speeds inside the benchmark window.
EPOCH_S = 60.0


def _array() -> ArrayConfig:
    return default_array_config(num_disks=NUM_DISKS, num_extents=NUM_EXTENTS)


def _synthetic() -> TraceSpec:
    return TraceSpec.from_generator(
        "synthetic",
        SyntheticConfig(
            name="perf-synth",
            duration=240.0,
            rate=150.0,
            num_extents=NUM_EXTENTS,
            zipf_theta=0.9,
            seed=11,
        ),
    )


def _cello() -> TraceSpec:
    return TraceSpec.from_generator(
        "cello",
        CelloConfig(
            days=1.0,
            day_length_s=1200.0,
            day_rate=60.0,
            night_rate=6.0,
            num_extents=NUM_EXTENTS,
            seed=7,
        ),
    )


def _synthetic_faults() -> FaultPlan:
    # Transient error window plus one sick-but-alive disk; no outright
    # disk deaths, so the fault path is exercised without the run's
    # length depending on rebuild scheduling.
    return FaultPlan(
        transient_faults=(TransientFault(start_s=40.0, end_s=120.0, probability=0.05),),
        slow_disk_faults=(SlowDiskFault(start_s=60.0, end_s=150.0, factor=3.0, disks=(1,)),),
    )


def _cello_faults() -> FaultPlan:
    return FaultPlan(
        transient_faults=(TransientFault(start_s=200.0, end_s=600.0, probability=0.05),),
        slow_disk_faults=(SlowDiskFault(start_s=300.0, end_s=750.0, factor=3.0, disks=(1,)),),
    )


#: Packaged MSR-Cambridge-style sample replayed by ``imported-msr``.
#: ~5900 requests over 120 s on a 2000-extent volume, deterministic by
#: construction (see docs/traces.md).
MSR_FIXTURE = Path(__file__).parent / "data" / "msr-sample.csv.gz"


def _imported() -> TraceSpec:
    # Modernize the fixture onto the benchmark array: fold 2000 source
    # extents onto NUM_EXTENTS, stretch to 240 s, and superpose to ~6x
    # the request count — the full ingest pipeline, every call.
    return TraceSpec.from_import(
        str(MSR_FIXTURE),
        "msr",
        IngestOptions(
            name="perf-imported",
            target_extents=NUM_EXTENTS,
            target_duration_s=240.0,
            intensity=6.0,
            seed=17,
        ),
    )


def _flashcrowd() -> TraceSpec:
    return TraceSpec.from_generator(
        "flashcrowd",
        FlashCrowdConfig(
            name="perf-flashcrowd",
            duration=240.0,
            base_rate=80.0,
            spike_factor=6.0,
            spike_start=120.0,
            spike_duration=60.0,
            num_extents=NUM_EXTENTS,
            seed=13,
        ),
    )


def _writeburst() -> TraceSpec:
    return TraceSpec.from_generator(
        "writeburst",
        WriteBurstConfig(
            name="perf-writeburst",
            duration=240.0,
            read_rate=120.0,
            checkpoint_period=60.0,
            sweep_rate=300.0,
            sweep_fraction=0.15,
            num_extents=NUM_EXTENTS,
            seed=19,
        ),
    )


_TRACES = {
    "synthetic": _synthetic,
    "cello": _cello,
    "imported": _imported,
    "flashcrowd": _flashcrowd,
    "writeburst": _writeburst,
}
_FAULTS = {"synthetic": _synthetic_faults, "cello": _cello_faults}

#: Fleet width of the ``fleet-small`` scenario.
FLEET_ARRAYS = 4


def _fleet_trace(num_arrays: int, duration: float, rate: float) -> TraceSpec:
    """Global trace addressing the whole fleet's extent space."""
    return TraceSpec.from_generator(
        "synthetic",
        SyntheticConfig(
            name="perf-fleet",
            duration=duration,
            rate=rate,
            num_extents=num_arrays * NUM_EXTENTS,
            zipf_theta=0.9,
            seed=31,
        ),
    )


def _fleet_faults() -> FleetFaultPlan:
    # One correlated batch failure plus the usual transient window via
    # the common plan, so the fleet fault path (expansion, merge, seeds)
    # is all on the benchmarked path.
    return FleetFaultPlan(
        common=FaultPlan(
            transient_faults=(
                TransientFault(start_s=30.0, end_s=90.0, probability=0.03),
            ),
        ),
        correlated_failures=(
            CorrelatedFailure(time_s=60.0, disk=2, arrays=(0, 2), stagger_s=5.0),
        ),
    )


def _fleet_spec(engine: str = "scalar") -> FleetSpec:
    return FleetSpec(
        num_arrays=FLEET_ARRAYS,
        trace=_fleet_trace(FLEET_ARRAYS, duration=120.0, rate=200.0),
        array=_array(),
        policy=PolicySpec.named("hibernator", epoch_seconds=EPOCH_S),
        partitioner="block",
        goal_s=GOAL_S,
        faults=_fleet_faults(),
        engine=engine,
    )


@dataclass(frozen=True)
class PerfScenario:
    """One canonical benchmark scenario.

    Attributes:
        name: stable identifier: the ``--scenario`` argument and the
            key of the scenario's record in :func:`run_benchmark` output.
        trace: ``"synthetic"`` or ``"cello"``.
        policy: ``"base"`` (always-on) or ``"hibernator"``.
        faults: inject the trace kind's fault plan.
        quick: member of the ``--quick`` subset (CI smoke).
        fleet: a fleet-scale scenario — ``spec()`` returns a
            :class:`FleetSpec` and the harness runs it through
            :func:`repro.fleet.executor.run_fleet` (``trace``/``policy``/
            ``faults`` are fixed by the fleet recipe).
    """

    name: str
    trace: str
    policy: str
    faults: bool
    quick: bool = False
    fleet: bool = False

    def spec(self, engine: str = "scalar") -> RunSpec | FleetSpec:
        """A fresh, fully self-contained run recipe for this scenario."""
        if self.fleet:
            return _fleet_spec(engine)
        if self.policy == "base":
            policy = PolicySpec.named("base")
            goal = None
        else:
            policy = PolicySpec.named("hibernator", epoch_seconds=EPOCH_S)
            goal = GOAL_S
        return RunSpec(
            trace=_TRACES[self.trace](),
            array=_array(),
            policy=policy,
            goal_s=goal,
            faults=_FAULTS[self.trace]() if self.faults else None,
            engine=engine,
        )


PERF_SCENARIOS: tuple[PerfScenario, ...] = (
    PerfScenario("synth-base", "synthetic", "base", faults=False, quick=True),
    PerfScenario("synth-hibernator", "synthetic", "hibernator", faults=False),
    PerfScenario("synth-base-faults", "synthetic", "base", faults=True),
    PerfScenario("synth-hibernator-faults", "synthetic", "hibernator", faults=True,
                 quick=True),
    PerfScenario("cello-base", "cello", "base", faults=False),
    PerfScenario("cello-hibernator", "cello", "hibernator", faults=False, quick=True),
    PerfScenario("cello-base-faults", "cello", "base", faults=True),
    PerfScenario("cello-hibernator-faults", "cello", "hibernator", faults=True),
    PerfScenario("fleet-small", "synthetic", "hibernator", faults=True,
                 quick=True, fleet=True),
    PerfScenario("imported-msr", "imported", "hibernator", faults=False, quick=True),
    PerfScenario("flashcrowd-hibernator", "flashcrowd", "hibernator", faults=False,
                 quick=True),
    PerfScenario("writeburst-base", "writeburst", "base", faults=False, quick=True),
)


def select_scenarios(
    names: list[str] | None = None, quick: bool = False
) -> tuple[PerfScenario, ...]:
    """Resolve a CLI selection to scenarios (ValueError on unknown names)."""
    if names:
        by_name = {s.name: s for s in PERF_SCENARIOS}
        unknown = sorted(set(names) - set(by_name))
        if unknown:
            raise ValueError(
                f"unknown scenario(s) {unknown}; known: {sorted(by_name)}"
            )
        return tuple(by_name[n] for n in names)
    if quick:
        return tuple(s for s in PERF_SCENARIOS if s.quick)
    return PERF_SCENARIOS


# -- golden (byte-identity) scenarios ---------------------------------------


def _golden_trace() -> TraceSpec:
    return TraceSpec.from_generator(
        "synthetic",
        SyntheticConfig(
            name="golden-synth",
            duration=60.0,
            rate=60.0,
            num_extents=NUM_EXTENTS,
            zipf_theta=0.9,
            seed=23,
        ),
    )


def golden_specs() -> dict[str, RunSpec | FleetSpec]:
    """The digest-pinned run recipes, by name.

    Small on purpose (they run inside the tier-1 test suite) but chosen
    to cover every accounting surface performance work touches: plain
    replay, Hibernator control flow, fault injection with retries, the
    time-series sampler (``window_s``), the no-retained-samples
    percentile path, (``golden-fleet``) the fleet
    expansion/partition/merge stack including correlated failures, and
    (``golden-imported`` / ``golden-flashcrowd`` / ``golden-writeburst``)
    the ingest pipeline and the bursty scenario generators.
    """
    return {
        "golden-base": RunSpec(
            trace=_golden_trace(),
            array=_array(),
            policy=PolicySpec.named("base"),
            window_s=10.0,
        ),
        "golden-hibernator": RunSpec(
            trace=_golden_trace(),
            array=_array(),
            policy=PolicySpec.named("hibernator", epoch_seconds=20.0),
            goal_s=GOAL_S,
            window_s=10.0,
        ),
        "golden-faults": RunSpec(
            trace=_golden_trace(),
            array=_array(),
            policy=PolicySpec.named("base"),
            faults=FaultPlan(
                transient_faults=(
                    TransientFault(start_s=10.0, end_s=30.0, probability=0.08),
                ),
                slow_disk_faults=(
                    SlowDiskFault(start_s=15.0, end_s=40.0, factor=2.5, disks=(2,)),
                ),
            ),
        ),
        "golden-nosamples": RunSpec(
            trace=_golden_trace(),
            array=_array(),
            policy=PolicySpec.named("base"),
            keep_latency_samples=False,
        ),
        "golden-fleet": FleetSpec(
            num_arrays=3,
            trace=_fleet_trace(3, duration=40.0, rate=90.0),
            array=_array(),
            policy=PolicySpec.named("base"),
            partitioner="stripe",
            faults=FleetFaultPlan(
                correlated_failures=(
                    CorrelatedFailure(time_s=15.0, disk=1, arrays=(0, 2),
                                      stagger_s=2.0),
                ),
            ),
            observe=True,
        ),
        "golden-imported": RunSpec(
            trace=TraceSpec.from_import(
                str(MSR_FIXTURE),
                "msr",
                IngestOptions(
                    name="golden-imported",
                    target_extents=NUM_EXTENTS,
                    target_duration_s=60.0,
                    seed=17,
                ),
            ),
            array=_array(),
            policy=PolicySpec.named("base"),
        ),
        "golden-flashcrowd": RunSpec(
            trace=TraceSpec.from_generator(
                "flashcrowd",
                FlashCrowdConfig(
                    name="golden-flashcrowd",
                    duration=60.0,
                    base_rate=40.0,
                    spike_factor=6.0,
                    spike_start=30.0,
                    spike_duration=15.0,
                    num_extents=NUM_EXTENTS,
                    seed=29,
                ),
            ),
            array=_array(),
            policy=PolicySpec.named("hibernator", epoch_seconds=20.0),
            goal_s=GOAL_S,
        ),
        "golden-writeburst": RunSpec(
            trace=TraceSpec.from_generator(
                "writeburst",
                WriteBurstConfig(
                    name="golden-writeburst",
                    duration=60.0,
                    read_rate=50.0,
                    checkpoint_period=20.0,
                    sweep_rate=200.0,
                    sweep_fraction=0.1,
                    num_extents=NUM_EXTENTS,
                    seed=37,
                ),
            ),
            array=_array(),
            policy=PolicySpec.named("base"),
        ),
    }
