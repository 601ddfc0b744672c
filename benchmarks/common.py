"""Shared infrastructure for the experiment benchmarks.

Each benchmark regenerates one table or figure of the paper (see
DESIGN.md's per-experiment index) at *bench scale*: the same array
architecture and workload shapes, scaled down so the whole suite runs in
minutes on a laptop instead of simulating a 24-hour data-center trace.
Absolute joules therefore differ from the paper; the *shape* assertions
(who wins, by roughly what factor) are what each bench checks.

Results are printed and also written to ``benchmarks/results/<id>.txt``
so they survive pytest's output capture.

Every simulation is a :class:`~repro.analysis.parallel.RunSpec` run by
``execute(specs, jobs=bench_jobs(), cache=bench_cache())`` (F1–F4 through
``run_comparison``), Base first because ``slack_goal`` sets the goal from
it. Only A1 and F9, which read the live policy after the run, build
``ArraySimulation`` directly.
"""

from __future__ import annotations

import functools
import os
from pathlib import Path

from repro.analysis.cache import ResultCache
from repro.analysis.experiments import ComparisonResult, default_array_config, run_comparison
from repro.analysis.report import format_table
from repro.core.hibernator import HibernatorConfig
from repro.traces.cello import CelloConfig, generate_cello
from repro.traces.oltp import OltpConfig, generate_oltp

RESULTS_DIR = Path(__file__).parent / "results"

# Bench scale: 8 disks, 30 simulated minutes of OLTP / 1 simulated day of
# file serving, 10-minute epochs.
OLTP_DISKS = 8
OLTP_EXTENTS = 800
OLTP_RATE = 200.0
OLTP_DURATION = 1800.0
EPOCH_S = 600.0
SLACK = 2.0

CELLO_DAY_RATE = 60.0
CELLO_NIGHT_RATE = 3.0
# The diurnal "day" is compressed to 4 simulated hours so the full
# comparison runs in about a minute; the day/night shape is preserved.
CELLO_DAY_LENGTH_S = 4 * 3600.0
CELLO_EPOCH_S = CELLO_DAY_LENGTH_S / 12.0


def bench_jobs() -> int:
    """Worker processes per ``execute`` call (``REPRO_BENCH_JOBS``, default 1).

    Results are identical for any value (runs are pure functions of
    their specs); only wall-clock time changes.
    """
    return max(1, int(os.environ.get("REPRO_BENCH_JOBS", "1")))


def bench_cache() -> ResultCache | None:
    """On-disk result cache shared by the suite (``REPRO_BENCH_CACHE``).

    Point the variable at a directory to make repeated suite runs skip
    already-simulated (trace, array, policy, goal) configurations.
    Unset (the default) disables caching.
    """
    path = os.environ.get("REPRO_BENCH_CACHE", "")
    return ResultCache(path) if path else None


def bench_oltp_trace():
    return generate_oltp(OltpConfig(
        duration=OLTP_DURATION, rate=OLTP_RATE,
        num_extents=OLTP_EXTENTS, seed=71,
    ))


def bench_cello_trace(days: float = 1.0, seed: int = 72):
    return generate_cello(CelloConfig(
        days=days, day_rate=CELLO_DAY_RATE, night_rate=CELLO_NIGHT_RATE,
        day_length_s=CELLO_DAY_LENGTH_S, burst_period_s=300.0,
        num_extents=OLTP_EXTENTS, seed=seed,
    ))


def bench_array_config(num_disks: int = OLTP_DISKS, num_speed_levels: int = 5,
                       seed: int = 73):
    return default_array_config(
        num_disks=num_disks,
        num_extents=OLTP_EXTENTS,
        num_speed_levels=num_speed_levels,
        seed=seed,
    )


def bench_hibernator_config(epoch_seconds: float = EPOCH_S, **kwargs):
    return HibernatorConfig(epoch_seconds=epoch_seconds, **kwargs)


@functools.lru_cache(maxsize=1)
def oltp_comparison() -> ComparisonResult:
    """The shared OLTP comparison behind F1 and F2."""
    return run_comparison(
        bench_oltp_trace(), bench_array_config(), slack=SLACK,
        hibernator_config=bench_hibernator_config(),
        jobs=bench_jobs(), cache=bench_cache(),
    )


@functools.lru_cache(maxsize=1)
def cello_comparison() -> ComparisonResult:
    """The shared file-server comparison behind F3 and F4.

    Epochs are 1/12 of the (compressed) day — the same epochs-per-day
    ratio as the paper's 2-hour epochs.
    """
    return run_comparison(
        bench_cello_trace(), bench_array_config(), slack=SLACK,
        hibernator_config=bench_hibernator_config(epoch_seconds=CELLO_EPOCH_S),
        jobs=bench_jobs(), cache=bench_cache(),
    )


def emit(experiment_id: str, text: str) -> str:
    """Print a result block and persist it under benchmarks/results/."""
    banner = f"=== {experiment_id} ==="
    block = f"{banner}\n{text}\n"
    print(block)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{experiment_id.lower()}.txt").write_text(block, encoding="utf-8")
    return block


def comparison_table(comparison: ComparisonResult, title: str) -> str:
    return format_table(ComparisonResult.HEADERS, comparison.rows(), title=title)
