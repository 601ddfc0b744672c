"""Trace transformations.

Utilities for composing experiment workloads out of existing traces:
concatenate phases, thin to a sampled fraction, remap the address
space. All transforms are pure — they return new :class:`Trace`
objects and never mutate their inputs.
"""

from __future__ import annotations

import numpy as np

from repro.traces.model import Trace


def concat(traces: list[Trace], gap_s: float = 0.0, name: str = "concat") -> Trace:
    """Play traces back to back (each shifted after the previous one).

    Cursor semantics (span-based advance): each non-empty component
    occupies the span ``[cursor, cursor + t.duration]`` on the combined
    timeline, where ``t.duration`` is the component's last request time
    measured from *its own* t=0 origin — a component with leading idle
    keeps that idle inside its span, so the silence before its first
    request is ``gap_s`` plus the component's own lead-in. The cursor
    then advances past the span plus ``gap_s``. Empty components
    contribute no requests, no span, and no gap — concatenating with an
    empty trace is an identity on the timeline.

    Args:
        gap_s: idle time inserted after each non-empty component's span
            (may be negative to overlap phases, as long as the combined
            times stay non-decreasing).
    """
    if not traces:
        raise ValueError("need at least one trace")
    num_extents = max(t.num_extents for t in traces)
    columns = {"times": [], "kinds": [], "extents": [], "offsets": [], "sizes": []}
    cursor = 0.0
    for t in traces:
        if len(t) == 0:
            continue
        columns["times"].append(t.times + cursor)
        columns["kinds"].append(t.kinds)
        columns["extents"].append(t.extents)
        columns["offsets"].append(t.offsets)
        columns["sizes"].append(t.sizes)
        cursor += t.duration + gap_s
    if not columns["times"]:
        return Trace(
            name=name,
            num_extents=num_extents,
            times=np.empty(0, dtype=np.float64),
            kinds=np.empty(0, dtype=np.int8),
            extents=np.empty(0, dtype=np.int64),
            offsets=np.empty(0, dtype=np.int64),
            sizes=np.empty(0, dtype=np.int64),
        )
    return Trace(
        name=name,
        num_extents=num_extents,
        times=np.concatenate(columns["times"]),
        kinds=np.concatenate(columns["kinds"]),
        extents=np.concatenate(columns["extents"]),
        offsets=np.concatenate(columns["offsets"]),
        sizes=np.concatenate(columns["sizes"]),
    )


def sample_fraction(trace: Trace, fraction: float, seed: int = 0) -> Trace:
    """Keep a uniformly random ``fraction`` of requests (thinning).

    Thinning a Poisson-ish arrival process by p yields the same process
    at p times the rate, so this is the standard way to de-intensify a
    trace without changing its structure.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction!r}")
    rng = np.random.default_rng(seed)
    keep = rng.random(len(trace)) < fraction
    return Trace(
        name=f"{trace.name}~{fraction:g}",
        num_extents=trace.num_extents,
        times=trace.times[keep],
        kinds=trace.kinds[keep],
        extents=trace.extents[keep],
        offsets=trace.offsets[keep],
        sizes=trace.sizes[keep],
    )


def remap_extents(
    trace: Trace,
    mapping: np.ndarray,
    num_extents: int,
    name: str | None = None,
) -> Trace:
    """Rewrite extent ids through ``mapping`` (old id -> new id).

    Used to retarget a trace at a different volume layout or to fold a
    large address space onto a smaller array.
    """
    mapping = np.asarray(mapping, dtype=np.int64)
    if len(mapping) < trace.num_extents:
        raise ValueError(
            f"mapping covers {len(mapping)} extents, trace uses {trace.num_extents}"
        )
    new_extents = mapping[trace.extents]
    if len(new_extents) and (new_extents.min() < 0 or new_extents.max() >= num_extents):
        raise ValueError("mapping produced extents outside the target volume")
    return Trace(
        name=name or f"{trace.name}:remap",
        num_extents=num_extents,
        times=trace.times.copy(),
        kinds=trace.kinds.copy(),
        extents=new_extents,
        offsets=trace.offsets.copy(),
        sizes=trace.sizes.copy(),
    )

