#!/usr/bin/env python3
"""File-server day: watching Hibernator follow the diurnal rhythm.

Simulates a (time-compressed) file-server day with a deep overnight
valley and shows, hour by hour, the load, the array's mean spindle speed
and the windowed response time: the array slows down through the valley
and speeds back up for the daytime peak, epoch by epoch.

Run:  python examples/fileserver_diurnal.py
"""

from repro import (
    CelloConfig,
    HibernatorConfig,
    HibernatorPolicy,
    default_array_config,
    generate_cello,
)
from repro.analysis import PolicySpec, RunSpec, TraceSpec, run_spec, slack_goal
from repro.analysis.report import format_table
from repro.sim.runner import ArraySimulation
from repro.traces.tracestats import per_extent_rates

DAY_S = 4 * 3600.0  # one diurnal period compressed into 4 simulated hours


def main() -> None:
    trace = generate_cello(CelloConfig(
        days=1.0, day_length_s=DAY_S,
        day_rate=60.0, night_rate=3.0,
        burst_period_s=300.0, num_extents=800, seed=3,
    ))
    config = default_array_config(num_disks=8, num_extents=800)

    base = run_spec(RunSpec(TraceSpec.from_trace(trace), config, PolicySpec.named("base")))
    goal = slack_goal(2.0, base)

    # Built directly (not through a RunSpec) to read the policy's epoch
    # decisions after the run.
    policy = HibernatorPolicy(HibernatorConfig(
        epoch_seconds=DAY_S / 12.0,
        prime_rates=per_extent_rates(trace),
    ))
    sim = ArraySimulation(trace, config, policy, goal_s=goal,
                          window_s=DAY_S / 24.0)
    result = sim.run()

    speeds = {round(t): (rpm, spinning) for t, rpm, spinning in result.speed_samples}
    rows = []
    for t, rt, n in result.latency_windows:
        rpm, spinning = speeds.get(round(t), (float("nan"), 0))
        hour = 24.0 * t / DAY_S
        rows.append([
            f"{hour:04.1f}", f"{n / (DAY_S / 24.0):.1f}",
            f"{rpm:.0f}", f"{rt * 1e3:.2f}" if n else "-",
        ])
    print(format_table(
        ["hour", "req/s", "mean rpm", "window RT ms"], rows,
        title="file-server day, hour by hour",
    ))
    print()
    print(f"baseline energy: {base.energy_joules / 1e3:.1f} kJ")
    print(f"hibernator energy: {result.energy_joules / 1e3:.1f} kJ "
          f"({100 * result.energy_savings_vs(base):.1f} % saved)")
    print(f"mean response: {result.mean_response_s * 1e3:.2f} ms "
          f"(goal {goal * 1e3:.2f} ms, "
          f"{'met' if result.mean_response_s <= goal else 'VIOLATED'})")
    print()
    print("epoch decisions:")
    for record in policy.epochs:
        print(f"  t={record.time:7.0f}s  {record.configuration:<28} "
              f"predicted RT {record.predicted_response_s * 1e3:5.2f} ms  "
              f"moves {record.planned_moves}")


if __name__ == "__main__":
    main()
