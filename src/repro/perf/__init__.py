"""Performance harness: canonical benchmark scenarios and determinism checks.

``repro perf`` runs a fixed scenario matrix (trace kind x policy x
faults) through the real experiment stack and prints each scenario's
best-of-N events/s. It writes no file and keeps no baseline: speed
comparisons against the parent commit belong to the repo benchmark
(``BENCHMARK.json`` + ``perfbench/``), which runs both trees on one host.

The same scenarios double as the determinism anchor: every repeat of a
scenario must produce the same content digest of its (runtime-stripped)
result, or ``repro perf`` exits nonzero, and the smaller golden set is
pinned byte-for-byte by ``tests/test_golden_identity.py``, so "faster"
can never silently mean "different".
"""

from repro.perf.digest import DIGEST_VERSION, result_digest, strip_runtime
from repro.perf.harness import run_benchmark, write_golden
from repro.perf.profiling import profile_specs
from repro.perf.scenarios import (
    PERF_SCENARIOS,
    PerfScenario,
    golden_specs,
    select_scenarios,
)

__all__ = [
    "DIGEST_VERSION",
    "PERF_SCENARIOS",
    "PerfScenario",
    "golden_specs",
    "profile_specs",
    "result_digest",
    "run_benchmark",
    "select_scenarios",
    "strip_runtime",
    "write_golden",
]
