"""A3 [ablation]: what the queueing model buys — CR vs utilization
targeting.

Both setters are coarse-grained and epoch-based; they differ only in how
they pick speeds. The naive setter caps average utilization; CR
constrains *predicted response time against the operator's goal*.

Utilization is the wrong control variable because it does not see the
goal: a fixed target that happens to land near one goal (a low target
can luck into high savings just inside a loose goal) fails the moment
the goal tightens — the configuration it picks is goal-independent. A
high target under-spins, the boost takes over, and the savings die. CR
adapts to whichever goal it is given. The bench runs every setter at two
goal levels and checks that no fixed target matches CR at both.
"""

from __future__ import annotations

import dataclasses

from common import (
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

UTIL_TARGETS = [0.3, 0.6]
SLACKS = [1.35, 2.0]


def run_all():
    trace = TraceSpec.from_trace(bench_oltp_trace())
    config = bench_array_config()
    cache = bench_cache()
    [base] = execute([RunSpec(trace, config, PolicySpec.named("base"))], cache=cache)
    setters = {"CR": bench_hibernator_config()}
    for target in UTIL_TARGETS:
        setters[f"util<={target:g}"] = dataclasses.replace(
            bench_hibernator_config(), speed_setter="utilization", util_target=target,
        )
    keys = [(setter, slack) for slack in SLACKS for setter in setters]
    specs = [
        RunSpec(trace, config, PolicySpec.named("hibernator", config=setters[setter]),
                goal_s=slack_goal(slack, base))
        for setter, slack in keys
    ]
    results = dict(zip(keys, execute(specs, jobs=bench_jobs(), cache=cache)))
    return base, results


def test_a3_speed_setter(benchmark):
    base, results = run_once(benchmark, run_all)
    rows = [
        [
            setter,
            f"{slack:g}x",
            f"{100.0 * result.energy_savings_vs(base):.1f} %",
            f"{result.mean_response_s * 1e3:.2f}",
            f"{result.extras.get('boosts', 0):.0f}",
            "yes" if result.mean_response_s <= slack_goal(slack, base) else "NO",
        ]
        for (setter, slack), result in results.items()
    ]
    emit("A3", format_table(
        ["setter", "goal slack", "savings", "mean RT ms", "boosts", "meets goal"],
        rows,
        title="OLTP: CR vs utilization targeting, two goal levels",
    ))

    def ok(setter, slack):
        result = results[(setter, slack)]
        return result.mean_response_s <= slack_goal(slack, base), result.energy_savings_vs(base)

    # CR meets both goals; it saves when the goal has room (2x) and
    # correctly degenerates to ~Base when it does not (1.35x) — never
    # negative, never violating.
    for slack in SLACKS:
        meets, savings = ok("CR", slack)
        assert meets
        assert savings > -0.02
    assert ok("CR", 2.0)[1] > 0.1
    # No fixed utilization target matches CR at *both* goal levels:
    # at each level it either misses the goal outright or (after the
    # boost rescues it) saves materially less than CR.
    for target in UTIL_TARGETS:
        wins_both = True
        for slack in SLACKS:
            meets, savings = ok(f"util<={target:g}", slack)
            _, cr_savings = ok("CR", slack)
            if not meets or savings < cr_savings - 0.02:
                wins_both = False
        assert not wins_both, f"util<={target} matched CR at every goal"