#!/usr/bin/env python3
"""Benchmark of the Hibernator reproduction: four workloads, end to end
and layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload diurnal-base --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` is the separate traced run that reports the per-layer
metrics (spans are recorded from this directory's files, around the
calls into each layer; nothing under ``src/`` is changed). Metric names,
units and the workloads are declared in ``BENCHMARK.json`` at the root;
``perfbench/provenance.json`` records why each workload exists, which
layers it loads and which it bypasses.

Every timed run is checked: a simulation result must have the digest
the scalar engine (the reference) gives for the same inputs, and a
``repro serve`` result must equal the same trace run in-process. A
mismatch, crash, refused or timed-out command counts as a failed
operation. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Scratch files
(sockets, generated inputs, span dumps) go under ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

DEFAULT_SEED = 1


def _load_program() -> None:
    """Put the checkout's ``src/`` first on the path, or exit 2.

    The benchmark measures the source next to it and nothing else: with
    no ``src/repro`` here it refuses to run rather than pick up some
    other installed copy.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'repro'}; "
              "run from the root of a checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)


def _git_commit() -> str:
    """HEAD of the checkout, read without running git (``unknown`` in
    an exported tree)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="ascii").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="ascii").strip()
        return ref
    except OSError:
        return "unknown"


def environment() -> dict[str, object]:
    """Host stamp: comparisons must not mix hosts."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "machine": platform.machine(),
    }


def _declared(section: str) -> dict[str, str]:
    """``name -> unit`` for one metric section of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measurement budget per run (default 10)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = traced run reporting per-layer metrics")
    args = parser.parse_args(argv)
    _load_program()
    os.chdir(ROOT)  # serve sockets use short paths relative to the root

    from bench import WORKLOADS, BenchError
    from tracing import write_spans

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    section = "per_layer" if args.trace else "end_to_end"
    units = _declared(section)
    workdir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    try:
        outcome = WORKLOADS[args.workload](
            seed=args.seed, seconds=args.seconds, traced=bool(args.trace),
            workdir=workdir,
        )
    except BenchError as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    if set(units) != set(outcome.metrics):
        print(f"perfbench: {args.workload} measured {sorted(outcome.metrics)}, "
              f"BENCHMARK.json declares {sorted(units)}", file=sys.stderr)
        return 1
    for line in outcome.notes:
        print(line)
    width = max(len(n) for n in units)
    for name, unit in units.items():
        print(f"  {name:<{width}}  {outcome.metrics[name]:>16.6g} {unit}")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": outcome.metrics,
        "extra": outcome.extra,
        "notes": outcome.notes,
    }
    if outcome.tracers:
        write_spans(outcome.tracers, workdir / "spans.jsonl")
    (workdir / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True),
                                         encoding="utf-8")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
