"""In-memory spans recorded from outside the program.

The benchmark times the calls *into* each layer's public functions: it
opens a span around a call it makes itself (``TraceSpec.build``,
``PolicySpec.build``, the simulation constructor, ``begin``, ``step``,
``finalize``, ``write_jsonl``) and wraps the public functions the
program calls back into (policy hooks, ``DiskArray.submit``, the CR
solver, migration planning, the modernization transforms). Nothing in
``src/`` is edited.

Per-request calls (hooks, ``submit``) would swamp memory as one span
each, so :meth:`Tracer.counted` keeps a call count and a total time
under the enclosing span instead. Every span and counter shares the
tracer's ``run_id``; the workload run is the root span. Spans stay in
memory until :func:`write_spans` at the end of the benchmark.

Self time is a span's duration minus the time its direct children
(spans and counted calls) cover, so nested layers are never counted
twice.
"""

from __future__ import annotations

import contextlib
import json
import time
from pathlib import Path
from typing import Any, Callable, Iterator

_clock = time.perf_counter


class Tracer:
    """Spans and per-call counters for one traced workload run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: Finished spans, in end order.
        self.spans: list[dict[str, Any]] = []
        #: Open frames: ``[span_id, name, child_s]``. Counted calls push a
        #: frame carrying their parent's span id, so calls nested inside
        #: them are charged to the same span but excluded from their
        #: caller's self time.
        self._stack: list[list[Any]] = []
        #: One ``(name, {parent span id: [calls, total_s, child_s]})`` per
        #: counted function.
        self._counters: list[tuple[str, dict[int | None, list[float]]]] = []
        self._next_id = 0

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around the enclosed block."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        frame: list[Any] = [span_id, name, 0.0]
        self._stack.append(frame)
        start = _clock()
        try:
            yield
        finally:
            end = _clock()
            self._stack.pop()
            duration = end - start
            if parent is not None:
                parent[2] += duration
            self.spans.append({
                "run_id": self.run_id,
                "span_id": span_id,
                "parent_id": parent[0] if parent is not None else None,
                "name": name,
                "start_s": start,
                "end_s": end,
                "self_s": duration - frame[2],
            })

    def spanned(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with one span per call (for calls made a few times a run)."""
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def counted(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with a call count and total time under the current span."""
        # Called hundreds of thousands of times a run: locals only.
        push, pop = self._stack.append, self._stack.pop
        stack, clock = self._stack, _clock
        entries: dict[int | None, list[float]] = {}
        self._counters.append((name, entries))

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1]
            frame = [parent[0], name, 0.0]
            push(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                pop()
                parent[2] += duration
                entry = entries.get(parent[0])
                if entry is None:
                    entry = entries[parent[0]] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += frame[2]
        return wrapper

    # -- read-out ------------------------------------------------------------

    def counter_records(self) -> list[dict[str, Any]]:
        """One record per counted function and parent span."""
        return [
            {"run_id": self.run_id, "parent_id": parent_id, "name": name,
             "calls": int(count), "total_s": total, "self_s": total - child}
            for name, entries in self._counters
            for parent_id, (count, total, child) in entries.items()
        ]

    def total_s(self, name: str) -> float:
        """Wall time inside every span and counted call called ``name``."""
        spans = sum(s["end_s"] - s["start_s"] for s in self.spans if s["name"] == name)
        return spans + sum(c["total_s"] for c in self.counter_records() if c["name"] == name)

    def calls(self, name: str) -> int:
        """Spans plus counted calls called ``name``."""
        spans = sum(1 for s in self.spans if s["name"] == name)
        return spans + sum(c["calls"] for c in self.counter_records() if c["name"] == name)

    def self_s(self, prefix: str) -> float:
        """Self time of every span and counted call whose name starts
        with ``prefix`` (a layer such as ``"sim."`` or one name)."""
        records = self.spans + self.counter_records()
        return sum(r["self_s"] for r in records if r["name"].startswith(prefix))

    def records(self) -> list[dict[str, Any]]:
        """Spans followed by the counter records."""
        return self.spans + self.counter_records()


def write_spans(tracers: list[Tracer], path: Path) -> None:
    """Write every tracer's records, one JSON object per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for tracer in tracers:
            for record in tracer.records():
                fh.write(json.dumps(record, sort_keys=True))
                fh.write("\n")


@contextlib.contextmanager
def patched(owner: Any, attr: str, replacement: Any) -> Iterator[None]:
    """Set ``owner.attr`` for the enclosed block, then put it back."""
    original = getattr(owner, attr)
    setattr(owner, attr, replacement)
    try:
        yield
    finally:
        setattr(owner, attr, original)
