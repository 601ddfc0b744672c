"""F10 [reconstructed]: scaling with array size.

The paper's scaling result: Hibernator's relative savings hold (or grow)
as the array widens, because the CR optimizer gets finer-grained control
over how many disks run at each speed. We scale the workload with the
array so per-disk load stays constant.
"""

from __future__ import annotations

from common import OLTP_EXTENTS, SLACK, bench_cache, bench_hibernator_config, bench_jobs, emit
from conftest import run_once

from repro.analysis.experiments import default_array_config, slack_goal
from repro.analysis.parallel import PolicySpec, RunSpec, TraceSpec, execute
from repro.analysis.report import format_series
from repro.traces.oltp import OltpConfig, generate_oltp

SIZES = [4, 8, 16]
RATE_PER_DISK = 25.0


def run_sweep():
    runs = [
        (TraceSpec.from_trace(generate_oltp(OltpConfig(
            duration=1200.0,
            rate=RATE_PER_DISK * num_disks,
            num_extents=OLTP_EXTENTS,
            seed=83,
        ))), default_array_config(num_disks=num_disks, num_extents=OLTP_EXTENTS, seed=84))
        for num_disks in SIZES
    ]
    jobs, cache = bench_jobs(), bench_cache()
    bases = execute([RunSpec(trace, config, PolicySpec.named("base")) for trace, config in runs],
                    jobs=jobs, cache=cache)
    goals = [slack_goal(SLACK, base) for base in bases]
    hib = PolicySpec.named("hibernator", config=bench_hibernator_config())
    results = execute([RunSpec(trace, config, hib, goal_s=goal)
                       for (trace, config), goal in zip(runs, goals)], jobs=jobs, cache=cache)
    return [
        (num_disks, result.energy_savings_vs(base), result.mean_response_s <= goal)
        for num_disks, base, goal, result in zip(SIZES, bases, goals, results)
    ]


def test_f10_array_size(benchmark):
    points = run_once(benchmark, run_sweep)
    emit("F10", format_series(
        "OLTP (constant per-disk load): Hibernator savings vs array size",
        [(n, 100.0 * sav) for n, sav, _ in points],
        x_label="disks", y_label="savings %",
    ))
    savings = {n: sav for n, sav, _ in points}
    # Substantial savings at every size, goal met everywhere.
    assert all(sav > 0.3 for sav in savings.values())
    assert all(meets for _, _, meets in points)
    # Wider arrays give CR finer control: savings do not degrade.
    assert savings[16] >= savings[4] - 0.05