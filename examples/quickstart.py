#!/usr/bin/env python3
"""Quickstart: save disk-array energy under a response-time goal.

Generates a small OLTP-like workload, runs the always-on baseline to
define the response-time goal, then runs Hibernator and reports the
energy saved and whether the goal held.

Run:  python examples/quickstart.py
"""

from repro import (
    ArraySimulation,
    HibernatorConfig,
    HibernatorPolicy,
    OltpConfig,
    default_array_config,
    generate_oltp,
)
from repro.analysis import PolicySpec, RunSpec, TraceSpec, run_spec, slack_goal
from repro.traces.tracestats import per_extent_rates


def main() -> None:
    # A 10-minute OLTP-like trace: steady small random I/O, skewed
    # popularity, on an 8-disk multi-speed array.
    trace = generate_oltp(OltpConfig(duration=600.0, rate=160.0,
                                     num_extents=800, seed=1))
    config = default_array_config(num_disks=8, num_extents=800)

    # 1. Baseline: every disk at full speed. Its mean response time
    #    defines the performance contract.
    base = run_spec(RunSpec(TraceSpec.from_trace(trace), config, PolicySpec.named("base")))
    goal = slack_goal(2.0, base)
    print(f"baseline: {base.energy_joules / 1e3:.1f} kJ, "
          f"mean response {base.mean_response_s * 1e3:.2f} ms")
    print(f"goal: {goal * 1e3:.2f} ms (2x baseline)")

    # 2. Hibernator: coarse-grained speed tiers + migration + boost.
    #    Priming with the trace's access rates starts it in steady state
    #    (as if it had been running before the measurement window). The
    #    simulation is built directly to read the policy's epoch log after.
    policy = HibernatorPolicy(HibernatorConfig(
        epoch_seconds=300.0,
        prime_rates=per_extent_rates(trace),
    ))
    result = ArraySimulation(trace, config, policy, goal_s=goal).run()

    savings = result.energy_savings_vs(base)
    print(f"hibernator: {result.energy_joules / 1e3:.1f} kJ, "
          f"mean response {result.mean_response_s * 1e3:.2f} ms")
    print(f"energy saved: {100 * savings:.1f} %")
    print(f"goal met: {'yes' if result.mean_response_s <= goal else 'NO'}")
    print(f"tier configuration: {policy.epochs[-1].configuration}"
          f" (epochs: {len(policy.epochs)})")


if __name__ == "__main__":
    main()
