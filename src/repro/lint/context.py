"""Per-file and per-project analysis context handed to rules.

A :class:`FileContext` owns one parsed module: source text, AST, the
dotted module name derived from the path, and lazily-built helpers
(parent links, the import table) that several rules share. A
:class:`ProjectContext` owns every file the engine loaded — the files
being linted plus, when those files belong to an installed ``repro``
package tree, the *rest* of that tree as analysis context. The
determinism rules read the project to chase a call through package
``__init__`` re-exports to the module that defines it; findings are
only ever reported against the files actually selected for linting.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator


def bare_call_name(node: ast.Call) -> str | None:
    """The rightmost identifier a call dispatches on (``x.y.z()`` → ``z``)."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def module_name_for_path(path: Path) -> str:
    """Dotted module name of ``path``, anchored at the ``repro`` package.

    ``src/repro/sim/runner.py`` maps to ``repro.sim.runner``. Files that
    do not live under a ``repro`` directory (rule fixtures, scratch
    files) map to their bare stem — the engine treats such modules as
    in-scope for every rule, which is what makes fixture files exercise
    scoped rules without faking a package layout.
    """
    parts = list(path.with_suffix("").parts)
    if "repro" in parts:
        anchor = len(parts) - 1 - parts[::-1].index("repro")
        parts = parts[anchor:]
    else:
        parts = parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else path.stem


class FileContext:
    """One parsed source file plus shared per-file analysis helpers."""

    def __init__(self, path: Path, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.module = module_name_for_path(path)
        self._parents: dict[ast.AST, ast.AST] | None = None
        self._imports: dict[str, str] | None = None

    @property
    def in_repro(self) -> bool:
        """Whether this file resolved to a module under the repro package."""
        return self.module == "repro" or self.module.startswith("repro.")

    def parents(self) -> dict[ast.AST, ast.AST]:
        """Child -> parent links over the whole tree (built once)."""
        if self._parents is None:
            links: dict[ast.AST, ast.AST] = {}
            for parent in ast.walk(self.tree):
                for child in ast.iter_child_nodes(parent):
                    links[child] = parent
            self._parents = links
        return self._parents

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Ancestors of ``node``, nearest first."""
        links = self.parents()
        current = links.get(node)
        while current is not None:
            yield current
            current = links.get(current)

    def imports(self) -> dict[str, str]:
        """Local alias -> fully-qualified imported name.

        ``import numpy as np`` maps ``np -> numpy``; ``from time import
        time as now`` maps ``now -> time.time``. Used by rules to resolve
        call sites back to the module they actually reach.
        """
        if self._imports is None:
            table: dict[str, str] = {}
            for node in ast.walk(self.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        if alias.asname is not None:
                            table[alias.asname] = alias.name
                        else:
                            # ``import a.b.c`` binds the name ``a`` to
                            # the top-level module ``a``.
                            top = alias.name.split(".")[0]
                            table[top] = top
                elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                    for alias in node.names:
                        if alias.name == "*":
                            continue
                        table[alias.asname or alias.name] = f"{node.module}.{alias.name}"
            self._imports = table
        return self._imports

    def qualified_call_name(self, func: ast.expr) -> str | None:
        """Fully-qualified dotted name a call expression resolves to.

        Follows the file's import table one step: ``np.random.default_rng``
        resolves to ``numpy.random.default_rng`` under ``import numpy as
        np``. Returns None for calls on computed expressions.
        """
        parts: list[str] = []
        node: ast.expr = func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(node.id)
        parts.reverse()
        head = self.imports().get(parts[0], parts[0])
        return ".".join([head, *parts[1:]])

    def enclosing_function(
        self, node: ast.AST
    ) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        """Nearest function definition containing ``node``, if any."""
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return ancestor
        return None


class ProjectContext:
    """Every file loaded for this lint run.

    ``files`` holds the files selected for linting; ``context_files``
    additionally holds package siblings loaded purely as analysis
    context. Both feed the re-export alias map: ``from X import Y as Z``
    inside module ``M`` records ``M.Z -> X.Y``, so a name imported
    through package ``__init__`` hops resolves to its defining module.
    """

    def __init__(
        self,
        files: list[FileContext],
        context_files: list[FileContext] | None = None,
    ) -> None:
        self.files = files
        self.context_files = context_files if context_files is not None else []
        self._aliases: dict[str, str] | None = None

    def _alias_map(self) -> dict[str, str]:
        """The project-wide re-export alias map (built once per lint run)."""
        if self._aliases is None:
            table: dict[str, str] = {}
            for ctx in [*self.files, *self.context_files]:
                for alias, target in ctx.imports().items():
                    if "." in target:
                        table.setdefault(f"{ctx.module}.{alias}", target)
            self._aliases = table
        return self._aliases

    def resolve(self, dotted: str) -> str:
        """Canonical dotted name of ``dotted``, following re-export chains.

        ``repro.obs.JsonlWriter.write`` resolves through the package
        ``__init__`` alias to ``repro.obs.tracelog.JsonlWriter.write``.
        Unknown names come back unchanged; alias cycles terminate.
        """
        aliases = self._alias_map()
        seen: set[str] = set()
        while dotted not in seen:
            seen.add(dotted)
            if dotted in aliases:
                dotted = aliases[dotted]
                continue
            parts = dotted.split(".")
            for cut in range(len(parts) - 1, 0, -1):
                prefix = ".".join(parts[:cut])
                if prefix in aliases:
                    dotted = ".".join([aliases[prefix], *parts[cut:]])
                    break
            else:
                break
        return dotted

    def resolve_call(self, ctx: FileContext, func: ast.expr) -> str | None:
        """Canonical dotted name a call resolves to, project-wide.

        One step past :meth:`FileContext.qualified_call_name`: the
        import-table resolution is chased through the re-export
        aliases, so ``from repro.obs import JsonlWriter`` call sites
        resolve to ``repro.obs.tracelog.JsonlWriter``.
        """
        dotted = ctx.qualified_call_name(func)
        if dotted is None:
            return None
        return self.resolve(dotted)
