"""A7 [extension]: controller write-back cache (NVRAM).

Arrays of the paper's era shipped NVRAM write caches: writes acknowledge
at controller latency and destage in the background. That removes write
latency from the goal accounting (reads still pay the spindle), so
Hibernator can run slower tiers within the same goal — the cache and
the energy manager compound.
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

MODES = (False, True)


def run_all():
    trace = TraceSpec.from_trace(bench_oltp_trace())
    configs = [dataclasses.replace(bench_array_config(), write_cache=cached)
               for cached in MODES]
    jobs, cache = bench_jobs(), bench_cache()
    bases = execute([RunSpec(trace, config, PolicySpec.named("base")) for config in configs],
                    jobs=jobs, cache=cache)
    goals = [slack_goal(SLACK, base) for base in bases]
    hib = PolicySpec.named("hibernator", config=bench_hibernator_config())
    hibs = execute([RunSpec(trace, config, hib, goal_s=goal)
                    for config, goal in zip(configs, goals)], jobs=jobs, cache=cache)
    return dict(zip(MODES, zip(bases, goals, hibs)))


def test_a7_write_cache(benchmark):
    results = run_once(benchmark, run_all)
    rows = []
    for cached, (base, goal, hib) in results.items():
        rows.append([
            "NVRAM write-back" if cached else "write-through",
            f"{base.mean_response_s * 1e3:.2f}",
            f"{hib.mean_response_s * 1e3:.2f}",
            f"{100.0 * hib.energy_savings_vs(base):.1f} %",
            "yes" if hib.mean_response_s <= goal else "NO",
        ])
    emit("A7", format_table(
        ["controller", "Base RT ms", "Hibernator RT ms", "savings", "meets goal"],
        rows,
        title="OLTP: write-back cache x Hibernator",
    ))
    plain_base, plain_goal, plain_hib = results[False]
    cached_base, cached_goal, cached_hib = results[True]
    # The cache alone speeds up the baseline (writes at controller latency).
    assert cached_base.mean_response_s < plain_base.mean_response_s
    # Hibernator still meets its goal with the cache, saving at least as
    # much as without it.
    assert cached_hib.mean_response_s <= cached_goal
    assert cached_hib.energy_savings_vs(cached_base) >= \
        plain_hib.energy_savings_vs(plain_base) - 0.03