"""F11 [reconstructed]: OLTP on RAID-5.

The paper's OLTP volume was RAID-5, where every logical write costs four
physical I/Os (read-modify-write on data + parity). The extra physical
load shrinks the slack CR can convert into slow tiers, so savings drop
versus the striped volume — but the ranking and the goal guarantee must
survive.
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
from repro.traces.tracestats import per_extent_rates

MODES = (False, True)


def run_all():
    trace = bench_oltp_trace()
    trace_spec = TraceSpec.from_trace(trace)
    configs = [dataclasses.replace(bench_array_config(), raid5=raid5) for raid5 in MODES]
    jobs, cache = bench_jobs(), bench_cache()
    bases = execute([RunSpec(trace_spec, config, PolicySpec.named("base")) for config in configs],
                    jobs=jobs, cache=cache)
    goals = [slack_goal(SLACK, base) for base in bases]
    # RAID-5 heat is primed in physical ops: each logical write costs four.
    hib_configs = [
        dataclasses.replace(bench_hibernator_config(),
                            prime_rates=per_extent_rates(trace, write_weight=4.0))
        if raid5 else bench_hibernator_config()
        for raid5 in MODES
    ]
    hibs = execute([
        RunSpec(trace_spec, config, PolicySpec.named("hibernator", config=hib_config), goal_s=goal)
        for config, hib_config, goal in zip(configs, hib_configs, goals)
    ], jobs=jobs, cache=cache)
    return dict(zip(MODES, zip(bases, goals, hibs)))


def test_f11_raid5(benchmark):
    results = run_once(benchmark, run_all)
    rows = []
    for raid5, (base, goal, hib) in results.items():
        rows.append([
            "RAID-5" if raid5 else "striped",
            f"{base.mean_response_s * 1e3:.2f}",
            f"{hib.mean_response_s * 1e3:.2f}",
            f"{100.0 * hib.energy_savings_vs(base):.1f} %",
            "yes" if hib.mean_response_s <= goal else "NO",
        ])
    emit("F11", format_table(
        ["volume", "Base RT ms", "Hibernator RT ms", "savings", "meets goal"],
        rows,
        title="OLTP: striped vs RAID-5 volume",
    ))
    striped_base, striped_goal, striped_hib = results[False]
    raid_base, raid_goal, raid_hib = results[True]
    # Write amplification slows the baseline itself.
    assert raid_base.mean_response_s > striped_base.mean_response_s
    # Hibernator still saves real energy and meets the goal on RAID-5.
    assert raid_hib.energy_savings_vs(raid_base) > 0.15
    assert raid_hib.mean_response_s <= raid_goal
    # But the extra physical load costs savings versus the striped volume.
    assert raid_hib.energy_savings_vs(raid_base) <= striped_hib.energy_savings_vs(striped_base) + 0.02