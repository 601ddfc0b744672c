"""Workload runners: timed runs, correctness checks, traced runs.

An in-process workload run is what :func:`repro.analysis.parallel.run_spec`
does, phase by phase, through the same public calls: ``TraceSpec.build``,
``PolicySpec.build``, the simulation constructor, ``begin``, ``step``,
``finalize`` (plus ``write_jsonl`` where the workload writes its event
trace). Set-up is everything before ``step``. The serve workload drives
``python -m repro serve`` in a child process over its control socket.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

import repro.core.hibernator as hibernator_module
import repro.traces.ingest as ingest_module
import workloads as W
from repro.analysis.atomicio import atomic_write
from repro.analysis.export import result_to_dict
from repro.analysis.parallel import RunSpec, run_spec, simulation_class
from repro.disks.array import DiskArray
from repro.obs.tracelog import write_jsonl
from repro.perf.digest import result_digest
from repro.serve.client import ServeClient
from repro.serve.protocol import ProtocolError
from repro.traces.io import save_trace
from tracing import Tracer, patched

_clock = time.perf_counter

#: Set-up is sampled at least this many times per run (extra set-up-only
#: runs fill up after the timed runs); its median is reported.
SETUP_SAMPLES = 5

#: serve-replay: one client, open loop, ``status`` at this fixed rate.
#: Below the backlog point (the daemon answers about once per 4096-event
#: replay chunk).
CTL_RATE_HZ = 10.0
#: A ``status`` with no answer after this long counts as failed.
CTL_TIMEOUT_S = 10.0
#: Daemon exit after ``shutdown``, and a whole serve session.
EXIT_TIMEOUT_S = 30.0
SESSION_TIMEOUT_S = 90.0

#: Energy-meter labels reported per state.
POWER_STATES = ("idle", "active", "standby", "transition")


class BenchError(Exception):
    """The workload could not produce a measurement at all."""


@dataclass
class Outcome:
    """What one benchmark invocation measured."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    notes: list[str] = field(default_factory=list)
    extra: dict[str, Any] = field(default_factory=dict)
    #: Span recorders of the traced runs, written out when the benchmark ends.
    tracers: list[Tracer] = field(default_factory=list)


# -- in-process runs ---------------------------------------------------------


@dataclass
class Rep:
    """One workload run, reduced to what the benchmark keeps."""

    setup_s: float
    total_s: float = 0.0
    requests: int = 0
    served: int = 0
    loop_events: int = 0
    digest: str = ""
    summary: dict[str, Any] = field(default_factory=dict)
    jsonl_bytes: int = 0
    events: int = 0
    scalar_mode: Any = None

    @property
    def requests_per_s(self) -> float:
        return self.served / self.total_s


def _no_span(name: str) -> contextlib.AbstractContextManager[None]:
    return contextlib.nullcontext()


@contextlib.contextmanager
def _instrumented(tracer: Tracer) -> Iterator[None]:
    """Wrap the public functions the program calls back into.

    Module-level names are patched where the caller looks them up
    (``repro.traces.ingest`` for the transforms, ``repro.core.hibernator``
    for the solver and the planner); ``DiskArray.submit`` on the class,
    since the array is built inside the simulation constructor.
    """
    with contextlib.ExitStack() as stack:
        for name in ("rescale_extents", "rescale_time", "scale_intensity"):
            stack.enter_context(patched(
                ingest_module, name,
                tracer.spanned("traces.modernize", getattr(ingest_module, name))))
        stack.enter_context(patched(
            hibernator_module, "solve_speed_assignment",
            tracer.spanned("core.cr_solve", hibernator_module.solve_speed_assignment)))
        stack.enter_context(patched(
            hibernator_module, "plan_shuffle_migration",
            tracer.spanned("core.migration_plan", hibernator_module.plan_shuffle_migration)))
        stack.enter_context(patched(
            DiskArray, "submit", tracer.counted("disks.submit", DiskArray.submit)))
        yield


def run_rep(
    spec: RunSpec,
    *,
    jsonl_path: Path | None = None,
    tracer: Tracer | None = None,
    setup_only: bool = False,
) -> Rep:
    """One run of ``spec``, timed phase by phase (``run_spec``'s steps)."""
    gc.collect()
    span = tracer.span if tracer is not None else _no_span
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(_instrumented(tracer))
            stack.enter_context(tracer.span("bench.run"))
        start = _clock()
        with span("traces.ingest" if spec.trace.format else "traces.build"):
            trace = spec.trace.build()
        with span("policy.build"):
            policy, array_config = spec.policy.build(trace, spec.array)
        if tracer is not None:
            # On the instance: BatchArraySimulation decides whether it can
            # vectorize from the *class's* hooks, so the traced run takes
            # the untraced run's engine path.
            policy.on_request_arrival = tracer.counted(  # type: ignore[method-assign]
                "policy.hook", policy.on_request_arrival)
            policy.on_request_complete = tracer.counted(  # type: ignore[method-assign]
                "policy.hook", policy.on_request_complete)
        with span("sim.init"):
            sim = simulation_class(spec.engine)(
                trace=trace,
                array_config=array_config,
                policy=policy,
                goal_s=spec.goal_s,
                window_s=spec.window_s,
                keep_latency_samples=spec.keep_latency_samples,
                observe=spec.observe,
                faults=spec.faults,
            )
        with span("sim.begin"):
            sim.begin()
        setup_s = _clock() - start
        if setup_only:
            return Rep(setup_s=setup_s)
        with span("sim.loop"):
            loop_events = sim.step()
        with span("sim.finalize"):
            result = sim.finalize()
        if jsonl_path is not None:
            with span("obs.write"), atomic_write(jsonl_path) as fh:
                write_jsonl(result.events, fh)
        total_s = _clock() - start
    return Rep(
        setup_s=setup_s,
        total_s=total_s,
        requests=len(trace),
        served=result.num_requests,
        loop_events=loop_events,
        digest=result_digest(result),
        summary=result_to_dict(result),
        jsonl_bytes=jsonl_path.stat().st_size if jsonl_path is not None else 0,
        events=len(result.events),
        # Which engine path ran; compared between traced and untraced runs.
        scalar_mode=getattr(sim, "_scalar_mode", None),
    )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_reps(
    seconds: float, run: Callable[[], Any], traced_run: Callable[[], Any] | None = None,
) -> tuple[list[Any], list[Any]]:
    """Repeat ``run`` (alternating with ``traced_run``) while the next
    round is expected to fit in ``seconds``; at least one round."""
    reps: list[Any] = []
    traced: list[Any] = []
    start = _clock()
    while True:
        round_start = _clock()
        reps.append(run())
        if traced_run is not None:
            traced.append(traced_run())
        elapsed = _clock() - start
        if elapsed + (_clock() - round_start) > seconds:
            return reps, traced


def end_to_end(setups: list[float], rps: list[float], peak_mb: float) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "requests_per_s": statistics.median(rps),
        "peak_rss_mb": peak_mb,
    }


def simulated_note(name: str, summary: dict[str, Any]) -> str:
    """The run's simulated outcome (exact for a seed; an unvalidated
    model, so no error figure)."""
    return (f"simulated {name}: energy {summary['energy_joules'] / 1e3:.6f} kJ, "
            f"mean response {summary['mean_response_s'] * 1e3:.6f} ms, "
            f"{summary['num_requests']} requests served")


def result_counts(summary: dict[str, Any]) -> dict[str, float]:
    """Exact per-layer counts from a ``result_to_dict`` summary."""
    extras = summary["extras"]
    joules = summary["energy_breakdown_joules"]
    unknown = sorted(set(joules) - set(POWER_STATES))
    if unknown:
        raise BenchError(f"energy breakdown has unreported states {unknown}")
    counts = {
        "sim.energy_kj": summary["energy_joules"] / 1e3,
        "sim.mean_response_ms": summary["mean_response_s"] * 1e3,
        "core.migration_extents": float(summary["migration_extents"]),
        "core.boosts": float(extras.get("boosts", 0.0)),
        "core.boost_seconds": float(extras.get("boost_seconds", 0.0)),
        "disks.speed_changes": float(summary["speed_changes"]),
        "disks.spinups": float(summary["spinups"]),
        "faults.op_errors": float(extras.get("fault_op_errors", 0.0)),
        "faults.op_retries": float(extras.get("fault_op_retries", 0.0)),
        "sim.failed_requests": float(summary["failed_requests"]),
    }
    for state in POWER_STATES:
        counts[f"disks.energy_{state}_kj"] = joules.get(state, 0.0) / 1e3
    return counts


#: Per-layer metrics only the serve workload measures, zero elsewhere.
SERVE_METRICS = (
    "serve.commands", "serve.command_errors", "serve.generator_late_ms",
    "serve.loop_share", "serve.trace_lines", "serve.ctl_rtt_p50_ms",
    "serve.ctl_rtt_p90_ms", "serve.ctl_rtt_samples",
)


#: Per-layer metrics timed inside this process; the serve workload's
#: daemon runs elsewhere, so they read zero there.
IN_PROCESS_ONLY = (
    "traces.build_s", "traces.ingest_s", "traces.modernize_s", "traces.self_s",
    "policy.build_s", "policy.hook_s", "policy.hook_calls", "policy.self_s",
    "core.cr_solve_s", "core.cr_solves", "core.migration_plan_s",
    "core.migration_plans", "core.self_s", "sim.init_s", "sim.begin_s",
    "sim.finalize_s", "sim.loop_self_s", "sim.self_s", "sim.scalar_request_share",
    "disks.submit_s", "disks.submits", "disks.self_s", "obs.write_s", "obs.self_s",
    "obs.loop_ratio", "bench.trace_overhead_requests_per_s",
)


def traced_layers(tracer: Tracer, rep: Rep) -> dict[str, float]:
    """Per-layer metrics of one traced in-process run."""
    t = tracer
    loop_s = t.total_s("sim.loop")
    submits = t.calls("disks.submit")
    metrics = {
        "traces.build_s": t.total_s("traces.build"),
        "traces.ingest_s": t.total_s("traces.ingest"),
        "traces.modernize_s": t.total_s("traces.modernize"),
        "traces.requests": float(rep.requests),
        "traces.self_s": t.self_s("traces."),
        "policy.build_s": t.total_s("policy.build"),
        "policy.hook_s": t.total_s("policy.hook"),
        "policy.hook_calls": float(t.calls("policy.hook")),
        "policy.self_s": t.self_s("policy."),
        "core.cr_solve_s": t.total_s("core.cr_solve"),
        "core.cr_solves": float(t.calls("core.cr_solve")),
        "core.migration_plan_s": t.total_s("core.migration_plan"),
        "core.migration_plans": float(t.calls("core.migration_plan")),
        "core.self_s": t.self_s("core."),
        "sim.init_s": t.total_s("sim.init"),
        "sim.begin_s": t.total_s("sim.begin"),
        "sim.loop_s": loop_s,
        "sim.finalize_s": t.total_s("sim.finalize"),
        "sim.loop_events": float(rep.loop_events),
        "sim.loop_events_per_s": rep.loop_events / loop_s,
        "sim.loop_self_s": t.self_s("sim.loop"),
        "sim.self_s": t.self_s("sim."),
        "sim.scalar_request_share": submits / rep.requests,
        "disks.submit_s": t.total_s("disks.submit"),
        "disks.submits": float(submits),
        "disks.self_s": t.self_s("disks."),
        "obs.events": float(rep.events),
        "obs.write_s": t.total_s("obs.write"),
        "obs.jsonl_bytes": float(rep.jsonl_bytes),
        "obs.self_s": t.self_s("obs."),
    }
    metrics.update(result_counts(rep.summary))
    return metrics


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def run_inprocess(
    spec: RunSpec,
    *,
    seconds: float,
    traced: bool,
    workdir: Path,
    seed: int,
    name: str,
    jsonl: bool = False,
) -> Outcome:
    """Time ``spec`` end to end (or traced), then check every run
    against the scalar engine's digest for the same inputs."""
    jsonl_path = workdir / "events.jsonl" if jsonl else None
    tracers: list[Tracer] = []
    crashes: list[str] = []

    def guarded(tracer: Tracer | None = None) -> Rep | None:
        # A crash is a failed operation, not the end of the measurement.
        try:
            return run_rep(spec, jsonl_path=jsonl_path, tracer=tracer)
        except Exception as exc:  # noqa: BLE001 - reported and counted below
            crashes.append(f"{type(exc).__name__}: {exc}")
            return None

    def traced_run() -> tuple[Rep | None, Tracer]:
        tracer = Tracer(f"{name}-s{seed}-{len(tracers)}")
        tracers.append(tracer)
        return guarded(tracer), tracer

    all_reps, all_traced = timed_reps(seconds, guarded, traced_run if traced else None)
    reps = [r for r in all_reps if r is not None]
    traced_pairs = [(r, t) for r, t in all_traced if r is not None]
    if not reps or (traced and not traced_pairs):
        raise BenchError(f"every run crashed: {crashes[0]}")
    peak_mb = peak_rss_mb()
    setups = [r.setup_s for r in reps]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_rep(spec, setup_only=True).setup_s)

    reference = result_digest(run_spec(dataclasses.replace(spec, engine="scalar")))
    checked = reps + [rep for rep, _ in traced_pairs]
    mismatches = [r.digest for r in checked if r.digest != reference]
    # The traced run must take the untraced run's engine path.
    paths = {repr(r.scalar_mode) for r in checked}
    failed = len(mismatches) + (len(paths) - 1) + len(crashes)
    notes = [f"check {name}: {len(checked) - len(mismatches)}/{len(checked)} run(s) "
             f"match the scalar reference digest {reference[:12]}"]
    notes += [f"check {name}: run crashed: {c}" for c in crashes]
    if len(paths) > 1:
        notes.append(f"check {name}: traced and untraced runs took different engine "
                     f"paths {sorted(paths)}")
    untraced_rps = statistics.median(r.requests_per_s for r in reps)
    metrics = end_to_end(setups, [r.requests_per_s for r in reps], peak_mb)
    notes.append(simulated_note(name, reps[0].summary))
    extra: dict[str, Any] = {"reps": len(reps), "trace_requests": reps[0].requests,
                             "setup_samples": setups, "reference_digest": reference}
    if traced:
        layer = median_metrics([traced_layers(t, rep) for rep, t in traced_pairs])
        traced_rps = statistics.median(rep.requests_per_s for rep, _ in traced_pairs)
        layer.update({
            "bench.untraced_requests_per_s": untraced_rps,
            "bench.traced_requests_per_s": traced_rps,
            "bench.trace_overhead_requests_per_s": untraced_rps - traced_rps,
            "obs.loop_ratio": 0.0,
        })
        layer.update(dict.fromkeys(SERVE_METRICS, 0.0))
        metrics = layer
        extra["traced_reps"] = len(traced_pairs)
    return Outcome(metrics=metrics, attempted=len(checked) + len(crashes), failed=failed,
                   notes=notes, extra=extra, tracers=tracers)


# -- workloads -----------------------------------------------------------------


def diurnal_base(seed: int, seconds: float, traced: bool, workdir: Path) -> Outcome:
    return run_inprocess(W.diurnal_spec(seed, "base"), seconds=seconds, traced=traced,
                         workdir=workdir, seed=seed, name="diurnal-base")


def diurnal_hibernator(seed: int, seconds: float, traced: bool, workdir: Path) -> Outcome:
    return run_inprocess(W.diurnal_spec(seed, "hibernator"), seconds=seconds,
                         traced=traced, workdir=workdir, seed=seed,
                         name="diurnal-hibernator")


def identity_canary(csv_path: Path, seed: int) -> tuple[str, dict[str, Any]]:
    """Scalar vs batch digest on ingest-observed's inputs, unobserved,
    always-on, sampler on: the known tie defect (a sampler tick at the
    same instant as an arrival) shows here. Reported, never skipped."""
    scalar_spec, batch_spec = W.canary_specs(csv_path, seed)
    scalar = result_digest(run_spec(scalar_spec))
    batch = result_digest(run_spec(batch_spec))
    verdict = "PASS" if scalar == batch else "FAIL"
    line = (f"canary scalar-batch-identity/ingest-observed-unobserved-base: {verdict} "
            f"(scalar {scalar[:12]}, batch {batch[:12]})")
    return line, {"name": "scalar-batch-identity/ingest-observed-unobserved-base",
                  "verdict": verdict, "scalar_digest": scalar, "batch_digest": batch}


def ingest_observed(seed: int, seconds: float, traced: bool, workdir: Path) -> Outcome:
    csv_path = workdir / "msr.csv"
    W.write_msr_csv(seed, csv_path)
    spec = W.ingest_spec(csv_path, seed)
    outcome = run_inprocess(spec, seconds=seconds, traced=traced, workdir=workdir,
                            seed=seed, name="ingest-observed", jsonl=True)
    if traced:
        observed = outcome.metrics["sim.loop_s"]
        tracer = Tracer(f"ingest-observed-s{seed}-unobserved")
        run_rep(dataclasses.replace(spec, observe=False), tracer=tracer)
        outcome.tracers.append(tracer)
        outcome.metrics["obs.loop_ratio"] = observed / tracer.total_s("sim.loop")
    line, canary = identity_canary(csv_path, seed)
    outcome.notes.append(line)
    outcome.extra["canary"] = canary
    csv_path.unlink()
    (workdir / "events.jsonl").unlink(missing_ok=True)
    return outcome


# -- serve-replay ----------------------------------------------------------------


@dataclass
class Session:
    """One ``repro serve`` daemon, spawn to exit."""

    setup_s: float = math.nan
    lifetime_s: float = math.nan
    rtts: list[float] = field(default_factory=list)
    late: list[float] = field(default_factory=list)
    commands: int = 0
    command_errors: int = 0
    peak_rss_mb: float = math.nan
    result: dict[str, Any] | None = None
    trace_lines: int = 0
    trace_bytes: int = 0
    error: str = ""


def _vm_hwm_mb(pid: int) -> float:
    """Peak resident set of a live process, from /proc."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def _connect(proc: subprocess.Popen, control: str, deadline: float) -> ServeClient:
    while True:
        if proc.poll() is not None:
            raise BenchError(f"daemon exited with {proc.returncode} before listening")
        try:
            return ServeClient(control, timeout_s=CTL_TIMEOUT_S)
        except (FileNotFoundError, ConnectionRefusedError):
            if _clock() > deadline:
                raise BenchError("daemon never opened its control socket") from None
            time.sleep(0.005)


def _open_loop(client: ServeClient, session: Session, deadline: float) -> None:
    """``status`` at CTL_RATE_HZ until the replay drains. Each command
    is timed from when it was due; a late send is recorded as lateness."""
    period = 1.0 / CTL_RATE_HZ
    start = _clock()
    k = 0
    while True:
        due = start + k * period
        now = _clock()
        if now < due:
            time.sleep(due - now)
        sent = _clock()
        session.late.append(sent - due)
        session.commands += 1
        try:
            response = client.request({"cmd": "status"})
        except (OSError, ProtocolError, ValueError) as exc:
            # A timed-out or broken command: the connection's state is
            # unknown, so the session stops here.
            session.command_errors += 1
            session.rtts.append(math.inf)
            session.error = f"status failed: {exc!r}"
            return
        answered = _clock()
        if not response.get("ok"):
            session.command_errors += 1
            session.rtts.append(math.inf)
        else:
            session.rtts.append(answered - due)
            if response["data"].get("drained"):
                return
        if answered > deadline:
            session.error = "replay did not drain in time"
            return
        k += 1


def serve_session(argv: list[str], control: str, trace_out: Path, stdout_path: Path,
                  drive: bool) -> Session:
    """Spawn the daemon, time spawn→first ``ping``, optionally drive the
    open loop to drain, then ``shutdown`` and wait for a clean exit."""
    session = Session()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path("src").resolve()),
                                                      env.get("PYTHONPATH")]))
    start = _clock()
    with open(stdout_path, "w", encoding="utf-8") as out, \
            open(stdout_path.with_suffix(".log"), "w", encoding="utf-8") as err:
        proc = subprocess.Popen([sys.executable, "-m", "repro", *argv],
                                stdout=out, stderr=err, env=env)
    try:
        deadline = start + SESSION_TIMEOUT_S
        client = _connect(proc, control, deadline)
        with client:
            client.ping()
            session.setup_s = _clock() - start
            if drive:
                _open_loop(client, session, deadline)
                session.peak_rss_mb = _vm_hwm_mb(proc.pid)
            client.shutdown()
        try:
            proc.wait(timeout=EXIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            session.error = session.error or "daemon did not exit after shutdown"
            return session
        session.lifetime_s = _clock() - start
        if proc.returncode != 0:
            session.error = session.error or f"daemon exited with {proc.returncode}"
            return session
        session.result = json.loads(stdout_path.read_text(encoding="utf-8"))
        with open(trace_out, encoding="utf-8") as fh:
            session.trace_lines = sum(1 for _ in fh)
        session.trace_bytes = trace_out.stat().st_size
    except (OSError, ProtocolError, ValueError, BenchError) as exc:
        session.error = session.error or f"{type(exc).__name__}: {exc}"
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        Path(control).unlink(missing_ok=True)
    return session


def _strip_runtime(summary: dict[str, Any]) -> dict[str, Any]:
    out = dict(summary)
    out["extras"] = {k: v for k, v in summary["extras"].items()
                     if not k.startswith("runtime_")}
    return out


def serve_replay(seed: int, seconds: float, traced: bool, workdir: Path) -> Outcome:
    trace = W.diurnal_trace(seed).build()
    trace_path = workdir / "diurnal.trace"
    save_trace(trace, trace_path)
    # Short paths relative to the checkout root (AF_UNIX paths are capped
    # near 100 bytes; the root itself may be deep).
    rel = Path(os.path.relpath(workdir, Path.cwd()))
    trace_out = rel / "serve-events.jsonl"

    def session(i: int, drive: bool) -> Session:
        control = str(rel / f"ctl{i}.sock")
        argv = W.serve_command(str(rel / "diurnal.trace"), control, str(trace_out))
        return serve_session(argv, control, trace_out, workdir / f"serve{i}.json", drive)

    numbers = itertools.count()
    full, _ = timed_reps(seconds, lambda: session(next(numbers), True))
    setup_only = [session(100 + i, False) for i in range(max(0, SETUP_SAMPLES - len(full)))]

    reference = json.loads(json.dumps(_strip_runtime(result_to_dict(
        run_spec(W.serve_reference_spec(trace_path)))), allow_nan=False))
    failed = 0
    notes = []
    matched = 0
    for i, s in enumerate(full):
        if s.error:
            failed += 1
            notes.append(f"check serve-replay session {i}: {s.error}")
        elif _strip_runtime(s.result) != reference:
            failed += 1
            notes.append(f"check serve-replay session {i}: daemon result differs "
                         "from the in-process run")
        else:
            matched += 1
        failed += s.command_errors
    for s in setup_only:
        if s.error:
            failed += 1
            notes.append(f"check serve-replay set-up session: {s.error}")
    attempted = len(full) + len(setup_only) + sum(s.commands for s in full)
    # Mismatched sessions still ran the workload: they are measured and
    # counted as failed; sessions that broke off are not measured.
    finished = [s for s in full if not s.error]
    if not finished:
        raise BenchError("; ".join(notes) or "no serve session finished")
    rtts = [r for s in full for r in s.rtts]
    notes.append(f"check serve-replay: {matched}/{len(full)} session(s) equal the "
                 f"in-process run; {len(rtts)} status command(s) at "
                 f"{CTL_RATE_HZ:g}/s open loop")
    summary = finished[0].result
    metrics = end_to_end(
        [s.setup_s for s in full + setup_only if not math.isnan(s.setup_s)],
        [s.result["num_requests"] / s.lifetime_s for s in finished],
        statistics.median(s.peak_rss_mb for s in finished),
    )
    notes.append(simulated_note("serve-replay", summary))
    rtt_ms = np.array(rtts) * 1e3
    serve_metrics = {
        "serve.commands": float(sum(s.commands for s in full)),
        "serve.command_errors": float(sum(s.command_errors for s in full)),
        "serve.generator_late_ms": 1e3 * max(x for s in full for x in s.late),
        "serve.loop_share": statistics.median(
            s.result["extras"]["runtime_wall_s"] / s.lifetime_s for s in finished),
        "serve.trace_lines": float(finished[0].trace_lines),
        "serve.ctl_rtt_p50_ms": float(np.percentile(rtt_ms, 50)),
        "serve.ctl_rtt_p90_ms": float(np.percentile(rtt_ms, 90)),
        "serve.ctl_rtt_samples": float(len(rtt_ms)),
    }
    notes.append("serve-replay control RTT: p50 {:.2f} ms, p90 {:.2f} ms over {} "
                 "samples; generator at most {:.2f} ms late".format(
                     serve_metrics["serve.ctl_rtt_p50_ms"],
                     serve_metrics["serve.ctl_rtt_p90_ms"], len(rtt_ms),
                     serve_metrics["serve.generator_late_ms"]))
    extra = {"sessions": len(full), "setup_only_sessions": len(setup_only),
             "trace_requests": len(trace), "serve": serve_metrics}
    if traced:
        # The daemon is another process: its layers are read from its
        # --json result, the serve layer from this client.
        rps = metrics["requests_per_s"]
        layer = dict.fromkeys(IN_PROCESS_ONLY, 0.0)
        layer.update(result_counts(summary))
        layer.update(serve_metrics)
        runtime = statistics.median(s.result["extras"]["runtime_wall_s"] for s in finished)
        events = summary["extras"]["runtime_events"]
        layer.update({
            "traces.requests": float(len(trace)),
            "sim.loop_s": runtime,
            "sim.loop_events": events,
            "sim.loop_events_per_s": events / runtime,
            "obs.events": float(finished[0].trace_lines),
            "obs.jsonl_bytes": float(finished[0].trace_bytes),
            "bench.untraced_requests_per_s": rps,
            "bench.traced_requests_per_s": rps,
        })
        metrics = layer
    trace_path.unlink()
    return Outcome(metrics=metrics, attempted=attempted, failed=failed, notes=notes,
                   extra=extra)


WORKLOADS: dict[str, Callable[..., Outcome]] = {
    "diurnal-base": diurnal_base,
    "diurnal-hibernator": diurnal_hibernator,
    "ingest-observed": ingest_observed,
    "serve-replay": serve_replay,
}
