"""Performance fast-path rules (PERF00x).

The engine's tuple fast path (:meth:`Engine.schedule_fast` /
:meth:`Engine.schedule_after_fast`) exists to skip the
:class:`EventHandle` allocation for events that are never cancelled — so
by construction it returns ``None``. A call site that *uses* the return
value (assigns it, passes it on, compares it) almost certainly wanted
the cancellable :meth:`Engine.schedule` variant and would store ``None``
where it expects a handle, turning a later ``handle.cancel()`` into an
``AttributeError`` — or worse, a silent no-op cancel guard.

PERF001 flags every use of a ``schedule_fast``/``schedule_after_fast``
call in value position. The rule matches on method name rather than
receiver type (static analysis cannot resolve the receiver), which is
exactly the strictness we want: any API named like the fast path should
honour its returns-nothing contract.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import FileContext, ProjectContext, bare_call_name
from repro.lint.findings import Severity
from repro.lint.registry import Rule, register

_FAST_SCHEDULE_NAMES = ("schedule_fast", "schedule_after_fast")


def check_fast_schedule_return(
    ctx: FileContext, project: ProjectContext
) -> Iterator[tuple[int, int, str]]:
    """PERF001: using the (always-``None``) result of a fast schedule."""
    statement_calls = {
        id(node.value)
        for node in ast.walk(ctx.tree)
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
    }
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = bare_call_name(node)
        if name not in _FAST_SCHEDULE_NAMES:
            continue
        if id(node) in statement_calls:
            continue
        yield (node.lineno, node.col_offset,
               f"{name}() always returns None (the event cannot be "
               "cancelled); use schedule()/schedule_after() when the "
               "caller needs an EventHandle")


register(Rule(
    rule_id="PERF001",
    name="fast-schedule-return-used",
    description="schedule_fast/schedule_after_fast return None; call sites must not use the value",
    severity=Severity.ERROR,
    scopes=(),  # the contract holds everywhere, CLI and tests included
    check=check_fast_schedule_return,
))
