"""The benchmark's workloads: inputs made from a seed, as run specs.

Every input is a pure function of the seed. The program under test only
ever sees the generated inputs (a trace recipe, a CSV file, a trace
file); the seed itself never reaches it except as the generator's seed.

Sizes follow one rule: about 95k foreground requests per run, so the
event loop dominates set-up, yet a run is short enough (1-3 s on a
2-core host) that each measurement window holds many runs and their
median is steady.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np

from repro.analysis.experiments import default_array_config
from repro.analysis.parallel import PolicySpec, RunSpec, TraceSpec
from repro.disks.array import ArrayConfig
from repro.faults.plan import FaultPlan, SlowDiskFault, TransientFault
from repro.traces.cello import CelloConfig
from repro.traces.ingest import IngestOptions

NUM_DISKS = 8
NUM_EXTENTS = 800

#: Sampler window for every in-process workload.
WINDOW_S = 10.0

#: Hibernator control epoch: short, so epochs, CR solves and migration
#: happen dozens of times per run.
EPOCH_S = 60.0

#: Response-time goal of the Hibernator workloads: the CR optimizer picks
#: slow configurations, and on the diurnal trace the boost still fires a
#: few times per run.
GOAL_S = 0.05

#: Two compressed days of a cello-style diurnal trace (~95k requests).
DIURNAL_DAYS = 2.0
DIURNAL_DAY_S = 1200.0

#: ingest-observed: the CSV the benchmark writes, then how it is
#: modernized. 64k rows over 1200 s on a 2000-extent source volume,
#: folded onto the array, stretched to 1600 s and superposed 1.5x
#: (~96k requests).
MSR_ROWS = 64_000
MSR_SOURCE_S = 1200.0
MSR_SOURCE_EXTENTS = 2000
MSR_EXTENT_BYTES = 1 << 20
MSR_TARGET_S = 1600.0
MSR_INTENSITY = 1.5
MSR_WRITE_FRACTION = 0.4
MSR_ZIPF_THETA = 1.0
#: Windows filetime of 2008-01-01, the era of the public MSR traces.
_MSR_EPOCH_TICKS = 128_436_768_000_000_000


def array_config() -> ArrayConfig:
    return default_array_config(num_disks=NUM_DISKS, num_extents=NUM_EXTENTS)


def cello_fault_plan() -> FaultPlan:
    """Transient errors plus one slow disk (the perf matrix's cello plan)."""
    return FaultPlan(
        transient_faults=(TransientFault(start_s=200.0, end_s=600.0, probability=0.05),),
        slow_disk_faults=(SlowDiskFault(start_s=300.0, end_s=750.0, factor=3.0, disks=(1,)),),
    )


def diurnal_trace(seed: int) -> TraceSpec:
    return TraceSpec.from_generator(
        "cello",
        CelloConfig(
            days=DIURNAL_DAYS,
            day_length_s=DIURNAL_DAY_S,
            day_rate=60.0,
            night_rate=6.0,
            num_extents=NUM_EXTENTS,
            seed=seed,
        ),
    )


def hibernator() -> PolicySpec:
    return PolicySpec.named("hibernator", epoch_seconds=EPOCH_S)


def diurnal_spec(seed: int, policy: str) -> RunSpec:
    hib = policy == "hibernator"
    return RunSpec(
        trace=diurnal_trace(seed),
        array=array_config(),
        policy=hibernator() if hib else PolicySpec.named("base"),
        goal_s=GOAL_S if hib else None,
        window_s=WINDOW_S,
        faults=cello_fault_plan(),
        engine="batch",
    )


def write_msr_csv(seed: int, path: Path) -> int:
    """Write an MSR-Cambridge-format CSV made from ``seed``; returns rows.

    Timestamps are Poisson arrivals quantized to 1 ms, so many requests
    share a timestamp, and the first row sits exactly at the trace start
    (t=0 once ingest rebases it). Offsets follow a Zipf popularity over
    the source volume's extents; about 40% of requests are writes.
    """
    rng = np.random.default_rng([seed, 0x4D5352])
    gaps = rng.exponential(MSR_SOURCE_S / MSR_ROWS, size=MSR_ROWS)
    times_ms = np.floor(np.cumsum(gaps) * 1000.0).astype(np.int64)
    times_ms -= times_ms[0]
    ranks = np.arange(1, MSR_SOURCE_EXTENTS + 1, dtype=np.float64)
    weights = ranks ** -MSR_ZIPF_THETA
    hot_order = rng.permutation(MSR_SOURCE_EXTENTS)
    extents = hot_order[rng.choice(MSR_SOURCE_EXTENTS, size=MSR_ROWS,
                                   p=weights / weights.sum())]
    sizes = rng.choice(np.array([4096, 8192, 16384, 65536]), size=MSR_ROWS,
                       p=[0.45, 0.25, 0.2, 0.1])
    slots = (MSR_EXTENT_BYTES - sizes) // 4096
    offsets = extents * MSR_EXTENT_BYTES + rng.integers(0, slots + 1) * 4096
    writes = rng.random(MSR_ROWS) < MSR_WRITE_FRACTION
    response = rng.integers(500, 20_000, size=MSR_ROWS)
    ticks = _MSR_EPOCH_TICKS + times_ms * 10_000
    kinds = np.where(writes, "Write", "Read")
    lines = [
        f"{t},benchhost,0,{k},{o},{s},{r}\n"
        for t, k, o, s, r in zip(ticks.tolist(), kinds.tolist(), offsets.tolist(),
                                 sizes.tolist(), response.tolist())
    ]
    path.write_text("".join(lines), encoding="ascii")
    return MSR_ROWS


def ingest_spec(csv_path: Path, seed: int, observe: bool = True,
                policy: str = "hibernator") -> RunSpec:
    """``ingest-observed``: import the CSV with every modernization
    transform, then Hibernator with the event trace on."""
    hib = policy == "hibernator"
    return RunSpec(
        trace=TraceSpec.from_import(
            str(csv_path),
            "msr",
            IngestOptions(
                name="bench-msr",
                extent_bytes=MSR_EXTENT_BYTES,
                target_extents=NUM_EXTENTS,
                target_duration_s=MSR_TARGET_S,
                intensity=MSR_INTENSITY,
                seed=seed,
            ),
        ),
        array=array_config(),
        policy=hibernator() if hib else PolicySpec.named("base"),
        goal_s=GOAL_S if hib else None,
        window_s=WINDOW_S,
        observe=observe,
        engine="batch",
    )


def canary_specs(csv_path: Path, seed: int) -> tuple[RunSpec, RunSpec]:
    """The scalar/batch identity canary: ``ingest-observed``'s inputs,
    unobserved, always-on, with the sampler, under both engines."""
    batch = ingest_spec(csv_path, seed, observe=False, policy="base")
    return dataclasses.replace(batch, engine="scalar"), batch


def serve_reference_spec(trace_path: Path) -> RunSpec:
    """What ``repro serve --replay`` builds from the serve-replay
    command line, as an in-process run: CLI array defaults, Hibernator
    primed from the trace, the goal, the event trace on, no sampler."""
    return RunSpec(
        trace=TraceSpec.from_file(str(trace_path)),
        array=default_array_config(num_disks=NUM_DISKS, num_extents=NUM_EXTENTS,
                                   num_speed_levels=5),
        policy=PolicySpec.named("hibernator", epoch_seconds=EPOCH_S,
                                migration="shuffle"),
        goal_s=GOAL_S,
        observe=True,
        engine="scalar",
    )


def serve_command(trace_path: str, control: str, trace_out: str) -> list[str]:
    """``repro serve`` arguments matching :func:`serve_reference_spec`."""
    return [
        "serve", "--replay", trace_path, "--accel", "0", "--control", control,
        "--disks", str(NUM_DISKS), "--speed-levels", "5",
        "--policy", "hibernator", "--epoch", f"{EPOCH_S:g}",
        "--migration", "shuffle", "--goal-ms", f"{GOAL_S * 1e3:g}",
        "--trace-out", trace_out, "--json",
    ]
