"""A6 [extension]: the oracle gap.

How close does Hibernator get to an unbeatable offline scheme with
perfect future knowledge and free migration? The gap decomposes the
remaining opportunity: prediction error (the oracle configures each
epoch from the *actual* upcoming rates) plus reconfiguration overhead
(the oracle's migration is free).
"""

from __future__ import annotations

from common import (
    EPOCH_S,
    SLACK,
    bench_array_config,
    bench_cache,
    bench_hibernator_config,
    bench_jobs,
    bench_oltp_trace,
    emit,
)
from conftest import run_once

from repro.analysis.experiments import slack_goal
from repro.analysis.parallel import PolicySpec, RunSpec, TraceSpec, execute
from repro.analysis.report import format_table


def run_all():
    trace = TraceSpec.from_trace(bench_oltp_trace())
    config = bench_array_config()
    cache = bench_cache()
    [base] = execute([RunSpec(trace, config, PolicySpec.named("base"))], cache=cache)
    goal = slack_goal(SLACK, base)
    hibernator, oracle = execute([
        RunSpec(trace, config, PolicySpec.named("hibernator", config=bench_hibernator_config()),
                goal_s=goal),
        RunSpec(trace, config, PolicySpec.named("oracle", epoch_seconds=EPOCH_S), goal_s=goal),
    ], jobs=bench_jobs(), cache=cache)
    return base, goal, hibernator, oracle


def test_a6_oracle_gap(benchmark):
    base, goal, hibernator, oracle = run_once(benchmark, run_all)
    rows = [
        ["Base", "0.0 %", f"{base.mean_response_s * 1e3:.2f}", "-"],
        [
            "Hibernator",
            f"{100.0 * hibernator.energy_savings_vs(base):.1f} %",
            f"{hibernator.mean_response_s * 1e3:.2f}",
            f"{hibernator.migration_extents}",
        ],
        [
            "Oracle (offline bound)",
            f"{100.0 * oracle.energy_savings_vs(base):.1f} %",
            f"{oracle.mean_response_s * 1e3:.2f}",
            "free",
        ],
    ]
    emit("A6", format_table(
        ["scheme", "savings", "mean RT ms", "migration"],
        rows,
        title=f"OLTP: how close is Hibernator to the offline bound? (goal {goal * 1e3:.2f} ms)",
    ))
    # The bound is a bound.
    assert oracle.energy_joules <= hibernator.energy_joules * 1.02
    # Both respect the goal.
    assert oracle.mean_response_s <= goal
    assert hibernator.mean_response_s <= goal
    # And Hibernator captures most of the clairvoyant opportunity on a
    # steady workload (the paper's online-vs-offline gap is small).
    assert hibernator.energy_savings_vs(base) > 0.8 * oracle.energy_savings_vs(base)