"""cProfile wrapper for the benchmark scenarios (``repro perf --profile``)."""

from __future__ import annotations

import cProfile
import io
import pstats
from typing import Iterable

from repro.analysis.parallel import RunSpec, run_spec
from repro.fleet.executor import run_fleet
from repro.fleet.spec import FleetSpec


def profile_specs(specs: Iterable[RunSpec | FleetSpec], top: int = 25) -> str:
    """Run the specs once each under one profiler; return the report.

    The caller builds the specs (``scenario.spec(engine)``), so the
    profile covers exactly the engine the benchmark would run. One
    shared profiler (rather than one per spec) answers the question the
    flag exists for — *where does the whole matrix spend its time* — and
    keeps rarely-hit paths from being drowned out by per-report noise
    floors. Fleet scenarios run serially (``jobs=1``) so their shard
    work is visible to the profiler instead of hiding in worker
    processes.
    """
    if top < 1:
        raise ValueError(f"top must be >= 1, got {top!r}")
    profiler = cProfile.Profile()
    for spec in specs:
        profiler.enable()
        if isinstance(spec, FleetSpec):
            run_fleet(spec)
        else:
            run_spec(spec)
        profiler.disable()
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("cumulative").print_stats(top)
    return stream.getvalue()
