"""Benchmark execution: best-of-N wall time and the repeat-digest check.

:func:`run_benchmark` returns ``{scenario: record}`` where each record is::

    {"events": 71234, "requests": 35617, "wall_s": 1.04,
     "events_per_s": 68494.2, "requests_per_s": 34247.1,
     "digest": "<sha256 of the runtime-stripped result>"}

Nothing is written to disk and nothing is compared against earlier runs:
throughput numbers are only meaningful against the parent commit on the
same host, which is what the repo benchmark (``BENCHMARK.json`` +
``perfbench/``) measures.

Wall time per scenario is the **best of N repeats** — the minimum is the
standard estimator for "the code's cost" because every source of noise
(scheduler, turbo, page cache) only ever adds time.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Callable

from repro.analysis.atomicio import atomic_write
from repro.analysis.cache import CODE_VERSION
from repro.analysis.parallel import run_spec
from repro.fleet.executor import run_fleet
from repro.fleet.spec import FleetSpec
from repro.perf.digest import DIGEST_VERSION, fleet_result_digest, result_digest
from repro.perf.scenarios import PerfScenario, golden_specs


def _measure(spec: Any) -> tuple[str, int, int, float]:
    """Run one spec (single-array or fleet) and digest the result.

    Returns ``(digest, events, requests, wall_s)``.
    """
    start = time.perf_counter()
    if isinstance(spec, FleetSpec):
        fleet_result = run_fleet(spec)
        wall = time.perf_counter() - start
        return (
            fleet_result_digest(fleet_result),
            int(fleet_result.extras["fleet_events_executed"]),
            fleet_result.num_requests + fleet_result.failed_requests,
            wall,
        )
    result = run_spec(spec)
    wall = time.perf_counter() - start
    return (
        result_digest(result),
        int(result.extras["runtime_events"]),
        result.num_requests + result.failed_requests,
        wall,
    )


def _run_one(
    scenario: PerfScenario, repeats: int, engine: str = "scalar"
) -> tuple[dict[str, Any], int]:
    """Run ``scenario`` ``repeats`` times; record best wall time.

    Returns ``(record, distinct_digests)``. The digest count is the
    caller's determinism canary: it must be 1, but the verdict is left
    to :func:`run_benchmark` so a full matrix run reports *every*
    nondeterministic scenario at once instead of aborting on the first.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats!r}")
    best_wall = float("inf")
    digests: set[str] = set()
    events = requests = 0
    for _ in range(repeats):
        # Fresh spec per repeat: policies are stateful.
        spec = scenario.spec(engine)
        digest, events, requests, wall = _measure(spec)
        best_wall = min(best_wall, wall)
        digests.add(digest)
    record = {
        "events": events,
        "requests": requests,
        "wall_s": best_wall,
        "events_per_s": events / best_wall,
        "requests_per_s": requests / best_wall,
        "digest": min(digests),
    }
    return record, len(digests)


def run_benchmark(
    scenarios: tuple[PerfScenario, ...],
    repeats: int = 3,
    log: Callable[[str], None] | None = None,
    engine: str = "scalar",
) -> dict[str, dict[str, Any]]:
    """Run the scenarios; return ``{scenario name: record}``.

    ``log``, when given, receives one events/s line per scenario as it
    finishes.

    Repeats of one spec must be byte-identical (modulo ``runtime_*``
    extras); any scenario whose repeats disagree means the simulator
    leaked nondeterminism. All such scenarios are collected and reported
    in a single :class:`RuntimeError` after the whole matrix has run, so
    one flaky scenario cannot hide another.
    """
    records: dict[str, dict[str, Any]] = {}
    nondeterministic: list[str] = []
    for scenario in scenarios:
        record, distinct = _run_one(scenario, repeats, engine)
        records[scenario.name] = record
        if distinct != 1:
            nondeterministic.append(scenario.name)
            if log is not None:
                log(f"  {scenario.name:<28} NONDETERMINISTIC "
                    f"({distinct} distinct digests)")
            continue
        if log is not None:
            log(
                f"  {scenario.name:<28} {record['events']:>8} events  "
                f"{record['wall_s']:.3f} s  {record['events_per_s']:>10,.0f} ev/s"
            )
    if nondeterministic:
        raise RuntimeError(
            "scenario(s) produced multiple distinct result digests across "
            f"repeats: {', '.join(nondeterministic)}; the simulator leaked "
            "nondeterminism"
        )
    return records


def write_golden(path: str | Path) -> dict[str, str]:
    """Run the golden scenarios and write their digests to ``path``.

    This is how ``tests/golden/golden_results.json`` is (re)generated —
    only legitimate when a change *intends* to alter results, in which
    case ``CODE_VERSION`` must be bumped too (CACHE002 enforces that).
    """
    digests = {name: _measure(spec)[0] for name, spec in sorted(golden_specs().items())}
    doc = {
        "schema": 1,
        "digest_version": DIGEST_VERSION,
        "code_version": CODE_VERSION,
        "digests": digests,
    }
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with atomic_write(out) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return digests
