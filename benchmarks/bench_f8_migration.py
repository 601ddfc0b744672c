"""F8 [reconstructed]: migration scheme comparison.

The randomized-shuffling claim (S4): across a multi-day file-server run
whose working set drifts day to day, shuffling moves a small fraction of
the data a full temperature-sorted re-layout moves, at equal or better
energy and response time; disabling migration entirely strands hot data
on slow tiers.
"""

from __future__ import annotations

import dataclasses

from common import (
    CELLO_EPOCH_S,
    SLACK,
    bench_array_config,
    bench_cache,
    bench_cello_trace,
    bench_hibernator_config,
    bench_jobs,
    emit,
)
from conftest import run_once

from repro.analysis.experiments import slack_goal
from repro.analysis.parallel import PolicySpec, RunSpec, TraceSpec, execute
from repro.analysis.report import format_table

SCHEMES = ["shuffle", "sorted", "none"]


def run_all():
    # Two compressed days with a fast-drifting working set.
    trace = TraceSpec.from_trace(bench_cello_trace(days=2.0, seed=75))
    config = bench_array_config()
    cache = bench_cache()
    [base] = execute([RunSpec(trace, config, PolicySpec.named("base"))], cache=cache)
    goal = slack_goal(SLACK, base)
    results = execute([
        RunSpec(trace, config, PolicySpec.named("hibernator", config=dataclasses.replace(
            bench_hibernator_config(epoch_seconds=CELLO_EPOCH_S), migration=scheme,
        )), goal_s=goal)
        for scheme in SCHEMES
    ], jobs=bench_jobs(), cache=cache)
    return base, goal, dict(zip(SCHEMES, results))


def test_f8_migration(benchmark):
    base, goal, results = run_once(benchmark, run_all)
    rows = [
        [
            scheme,
            f"{results[scheme].migration_extents}",
            f"{results[scheme].migration_bytes >> 20} MiB",
            f"{100.0 * results[scheme].energy_savings_vs(base):.1f} %",
            f"{results[scheme].mean_response_s * 1e3:.2f} ms",
        ]
        for scheme in SCHEMES
    ]
    emit("F8", format_table(
        ["migration", "extents moved", "data moved", "savings", "mean RT"],
        rows,
        title="Cello, 2 drifting days: migration scheme comparison",
    ))
    shuffle, full_sort, none = results["shuffle"], results["sorted"], results["none"]
    # S4: shuffling moves a fraction of what sorting moves.
    assert 0 < shuffle.migration_extents < 0.5 * full_sort.migration_extents
    # Shuffling is no worse on energy than sorting (it does less work).
    assert shuffle.energy_joules <= full_sort.energy_joules * 1.05
    # Migration must pay for itself versus doing nothing: with drift,
    # no-migration serves hot data from slow tiers.
    assert none.migration_extents == 0
    assert shuffle.mean_response_s <= none.mean_response_s * 1.05