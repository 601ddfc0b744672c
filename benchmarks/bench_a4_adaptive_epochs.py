"""A4 [extension]: adaptive epoch length.

Beyond the paper: F6 shows short epochs thrash and long epochs react
slowly, so let the epoch *adapt* — double it while boundaries keep
choosing the same configuration, reset it when something changes (a new
configuration or a boost). On a steady workload the adaptive controller
should converge to long epochs (fewer reconfigurations, same or better
energy than the short fixed epoch it started from).
"""

from __future__ import annotations

import dataclasses

from common import (
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

BASE_EPOCH_S = 150.0


def run_all():
    trace = TraceSpec.from_trace(bench_oltp_trace())
    config = bench_array_config()
    cache = bench_cache()
    [base] = execute([RunSpec(trace, config, PolicySpec.named("base"))], cache=cache)
    goal = slack_goal(SLACK, base)
    modes = (False, True)
    specs = [
        RunSpec(trace, config, PolicySpec.named("hibernator", config=dataclasses.replace(
            bench_hibernator_config(epoch_seconds=BASE_EPOCH_S), adaptive_epochs=adaptive,
        )), goal_s=goal)
        for adaptive in modes
    ]
    results = dict(zip(modes, execute(specs, jobs=bench_jobs(), cache=cache)))
    return base, goal, results


def test_a4_adaptive_epochs(benchmark):
    base, goal, results = run_once(benchmark, run_all)
    rows = [
        [
            "adaptive" if adaptive else f"fixed {BASE_EPOCH_S:.0f}s",
            f"{result.extras['epochs']:.0f}",
            f"{result.extras['final_epoch_s']:.0f}s",
            f"{100.0 * result.energy_savings_vs(base):.1f} %",
            f"{result.mean_response_s * 1e3:.2f} ms",
        ]
        for adaptive, result in results.items()
    ]
    emit("A4", format_table(
        ["epochs", "boundaries", "final epoch", "savings", "mean RT"],
        rows,
        title="OLTP (steady): fixed vs adaptive epoch length",
    ))
    fixed, adaptive = results[False], results[True]
    # The adaptive run stretches its epoch and reconfigures less often.
    assert adaptive.extras["final_epoch_s"] > BASE_EPOCH_S
    assert adaptive.extras["epochs"] < fixed.extras["epochs"]
    # At no cost in energy or the goal.
    assert adaptive.energy_savings_vs(base) >= fixed.energy_savings_vs(base) - 0.03
    assert adaptive.mean_response_s <= goal