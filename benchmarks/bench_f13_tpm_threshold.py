"""F13 [reconstructed]: TPM spin-down threshold sensitivity.

The classic trade-off the fixed-threshold scheme cannot escape: a short
threshold sleeps eagerly (more savings, more spin-up stalls and more
round-trip transition energy), a long one barely sleeps. The bench
sweeps the threshold as multiples of the break-even time on the
file-server day and shows that no point on the curve touches what
Hibernator gets at the same response-time goal (F3/F4).
"""

from __future__ import annotations

from common import SLACK, bench_array_config, bench_cache, bench_cello_trace, bench_jobs, emit
from conftest import run_once

from repro.analysis.experiments import slack_goal
from repro.analysis.parallel import PolicySpec, RunSpec, TraceSpec, execute
from repro.analysis.report import format_table
from repro.policies.tpm import breakeven_seconds

MULTIPLES = [0.25, 0.5, 1.0, 2.0, 4.0]


def run_sweep():
    trace = TraceSpec.from_trace(bench_cello_trace())
    config = bench_array_config()
    cache = bench_cache()
    [base] = execute([RunSpec(trace, config, PolicySpec.named("base"))], cache=cache)
    goal = slack_goal(SLACK, base)
    results = execute([
        RunSpec(trace, config, PolicySpec.named("tpm", threshold_multiple=multiple), goal_s=goal)
        for multiple in MULTIPLES
    ], jobs=bench_jobs(), cache=cache)
    rows = [
        (multiple, result.energy_savings_vs(base), result.mean_response_s, result.spinups)
        for multiple, result in zip(MULTIPLES, results)
    ]
    return base, goal, rows


def test_f13_tpm_threshold(benchmark):
    base, goal, rows = run_once(benchmark, run_sweep)
    breakeven = breakeven_seconds(bench_array_config().spec)
    emit("F13", format_table(
        ["threshold (x break-even)", "threshold s", "savings %", "mean RT ms", "spin-ups"],
        [
            [f"{m:g}", f"{m * breakeven:.0f}", f"{100 * sav:.1f}",
             f"{rt * 1e3:.1f}", f"{spinups}"]
            for m, sav, rt, spinups in rows
        ],
        title="Cello: TPM spin-down threshold sweep",
    ))
    by_multiple = {m: (sav, rt, spinups) for m, sav, rt, spinups in rows}
    # Eager thresholds sleep more (more spin-ups, more savings).
    assert by_multiple[0.25][2] > by_multiple[4.0][2]
    assert by_multiple[0.25][0] > by_multiple[4.0][0]
    # But every threshold that saves anything blows the goal by an order
    # of magnitude — the fixed-threshold scheme has no goal-respecting
    # operating point on this workload.
    for m, (sav, rt, spinups) in by_multiple.items():
        if sav > 0.05:
            assert rt > 2.0 * goal, f"threshold {m} saved energy within the goal"