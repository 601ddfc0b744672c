"""A5 [ablation]: per-disk queue scheduling under Hibernator.

The paper assumes FCFS queues (so does the CR optimizer's M/G/1 model).
Seek-aware disciplines (SSTF, SCAN) shorten service times when queues
are deep — which is mostly on Hibernator's slow tiers — so they give
the response-time budget back a little headroom at no energy cost. This
bench quantifies that interaction and checks that FCFS-based planning
is *conservative*: real response times under seek-aware scheduling are
never worse than the FCFS-planned ones.
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

SCHEDULERS = ["fcfs", "sstf", "scan"]


def run_all():
    trace = TraceSpec.from_trace(bench_oltp_trace())
    configs = [dataclasses.replace(bench_array_config(), scheduler=scheduler)
               for scheduler in SCHEDULERS]
    jobs, cache = bench_jobs(), bench_cache()
    bases = execute([RunSpec(trace, config, PolicySpec.named("base")) for config in configs],
                    jobs=jobs, cache=cache)
    # Every scheduler is held to the FCFS Base's goal.
    goal = slack_goal(SLACK, bases[0])
    hib = PolicySpec.named("hibernator", config=bench_hibernator_config())
    hibs = execute([RunSpec(trace, config, hib, goal_s=goal) for config in configs],
                   jobs=jobs, cache=cache)
    return bases[0], goal, dict(zip(SCHEDULERS, zip(bases, hibs)))


def test_a5_scheduler(benchmark):
    goal_base, goal, results = run_once(benchmark, run_all)
    rows = [
        [
            scheduler,
            f"{base.mean_response_s * 1e3:.2f}",
            f"{hib.mean_response_s * 1e3:.2f}",
            f"{100.0 * hib.energy_savings_vs(goal_base):.1f} %",
            "yes" if hib.mean_response_s <= goal else "NO",
        ]
        for scheduler, (base, hib) in results.items()
    ]
    emit("A5", format_table(
        ["scheduler", "Base RT ms", "Hibernator RT ms", "savings", "meets goal"],
        rows,
        title=f"OLTP: queue discipline ablation (goal {goal * 1e3:.2f} ms)",
    ))
    fcfs = results["fcfs"][1]
    for scheduler in ("sstf", "scan"):
        hib = results[scheduler][1]
        # Seek-aware scheduling never hurts the planned outcome...
        assert hib.mean_response_s <= fcfs.mean_response_s * 1.05
        # ...and energy stays in the same band (scheduling moves seek
        # time, not spindle speed).
        assert abs(hib.energy_joules - fcfs.energy_joules) < 0.1 * fcfs.energy_joules
        assert hib.mean_response_s <= goal