"""F12 [extension]: RAID-5 degraded mode under a failure sweep.

Beyond the paper: what disk failures do to the energy/performance
picture. Reads of a dead disk's data reconstruct from all survivors
(N-1 physical reads), writes degrade to parity-only updates, and the
dead spindle burns nothing. The fault plan schedules whole-disk
failures mid-run and the array rebuilds onto distributed spare slots.
One failure loses nothing. A second failure — even long after the
first rebuild finished — briefly loses requests: parity stripes span
the full array width, so reconstructing the newly dead disk's data
needs a read on *every* other disk, and one of them is permanently
gone. Only the second exposure window (failure until rebuild
re-protects the extent) is affected, so losses stay a tiny fraction of
the trace.

Hibernator keeps operating throughout: on each failure it cancels
in-flight migration, re-solves speed assignment over the survivors and
pins them at full speed until the rebuild completes, so the degraded
rows trade back some savings for the repair.
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
from repro.faults.plan import DiskFailure, FaultPlan
from repro.traces.tracestats import per_extent_rates

#: Failure schedule for the sweep: the second failure lands well after
#: the first rebuild completes, so each exposure window is single-disk.
FAILURE_TIMES = (300.0, 900.0)


def _plan(num_failures: int) -> FaultPlan | None:
    if num_failures == 0:
        return None
    return FaultPlan(disk_failures=tuple(
        DiskFailure(time_s=FAILURE_TIMES[i], disk=i)
        for i in range(num_failures)
    ))


FAILURES = (0, 1, 2)


def run_all():
    trace = bench_oltp_trace()
    trace_spec = TraceSpec.from_trace(trace)
    config = dataclasses.replace(bench_array_config(), raid5=True)
    jobs, cache = bench_jobs(), bench_cache()
    base = dict(zip(FAILURES, execute([
        RunSpec(trace_spec, config, PolicySpec.named("base"), faults=_plan(n))
        for n in FAILURES
    ], jobs=jobs, cache=cache)))
    goal = slack_goal(SLACK, base[0])
    # RAID-5 heat is primed in physical ops: each logical write costs four.
    hib_policy = PolicySpec.named("hibernator", config=dataclasses.replace(
        bench_hibernator_config(),
        prime_rates=per_extent_rates(trace, write_weight=4.0),
    ))
    hib = dict(zip(FAILURES, execute([
        RunSpec(trace_spec, config, hib_policy, goal_s=goal, faults=_plan(n))
        for n in FAILURES
    ], jobs=jobs, cache=cache)))
    return base, hib, goal


def _row(label, result, goal=None):
    rebuilt = result.extras.get("fault_rebuilt_extents", 0)
    unplaced = result.extras.get("fault_unplaced_extents", 0)
    return [
        label,
        f"{result.mean_response_s * 1e3:.2f}",
        f"{result.energy_joules / 1e3:.1f}",
        f"{result.failed_requests}",
        f"{rebuilt:g}/{unplaced:g}",
        "-" if goal is None else ("yes" if result.mean_response_s <= goal else "NO"),
    ]


def test_f12_degraded(benchmark):
    base, hib, goal = run_once(benchmark, run_all)
    rows = []
    for n in (0, 1, 2):
        tag = "healthy" if n == 0 else f"{n} disk(s) failed"
        rows.append(_row(f"Base, {tag}", base[n]))
    for n in (0, 1, 2):
        tag = "healthy" if n == 0 else f"{n} disk(s) failed"
        rows.append(_row(f"Hibernator, {tag}", hib[n], goal=goal))
    emit("F12", format_table(
        ["configuration", "mean RT ms", "energy kJ", "lost requests",
         "rebuilt/unplaced", "meets goal"],
        rows,
        title=f"OLTP on RAID-5: failure sweep with rebuild "
              f"(goal {goal * 1e3:.2f} ms)",
    ))
    trace_len = base[0].num_requests + base[0].failed_requests
    for n in (1, 2):
        # Every failed disk's extents found spare slots.
        assert base[n].extras["fault_unplaced_extents"] == 0
        assert hib[n].extras["fault_unplaced_extents"] == 0
        assert base[n].extras["fault_failures_injected"] == n
    # RAID-5 plus rebuild loses nothing to a single failure.
    assert base[1].failed_requests == 0
    assert hib[1].failed_requests == 0
    # A second failure breaks full-width stripes whose data sat on the
    # newly dead disk, but only until the rebuild re-protects them:
    # losses stay a sliver of the trace.
    for result in (base[2], hib[2]):
        assert 0 < result.failed_requests < 0.005 * trace_len
    # Reconstruction amplification slows the degraded baseline.
    assert base[1].mean_response_s > base[0].mean_response_s
    # Dead spindles stop burning power; reconstruction adds load but the
    # net stays below healthy.
    assert base[2].energy_joules < base[1].energy_joules < base[0].energy_joules
    # Hibernator still operates and saves energy in every configuration.
    for n in (0, 1, 2):
        assert hib[n].energy_joules < base[n].energy_joules
