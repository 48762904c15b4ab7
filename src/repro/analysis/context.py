"""Per-module analysis context shared by every rule.

One :class:`ModuleContext` is built per analysed file and handed to each rule
instance.  It owns the parsed AST plus the derived structure rules keep
needing:

* a **parent map** (``parent_of``) so visitors can ask what syntactic position
  a node occupies — e.g. "is this ``set(...)`` the iterable of a ``for``?";
* the **import alias table** and :meth:`resolve_call`, which canonicalises a
  call's dotted target (``np.random.default_rng`` -> ``numpy.random.default_rng``
  whatever the import spelling);
* the **suppression table** parsed from ``# repro: allow[RULE-ID]`` comments
  (comma-separated ids, ``*`` for all rules, effective on their own line).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

#: ``# repro: allow[REP001]`` / ``# repro: allow[REP001, REP003]`` / ``allow[*]``.
_ALLOW = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9*,\s-]+)\]")


class ModuleContext:
    """Parsed source of one module plus the lookups rules share."""

    def __init__(self, path: "str | Path", source: str, tree: "ast.Module | None" = None) -> None:
        self.path = str(path)
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree if tree is not None else ast.parse(source, filename=self.path)
        self.suppressions = _parse_suppressions(self.lines)
        self._parents: dict[ast.AST, ast.AST] = {}
        self._aliases: dict[str, str] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent
        self._collect_aliases()

    # ------------------------------------------------------------------ #
    # Structure lookups
    # ------------------------------------------------------------------ #
    def parent_of(self, node: ast.AST) -> "ast.AST | None":
        """The syntactic parent of ``node`` (None for the module itself)."""
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> "list[ast.AST]":
        """Parents of ``node`` from innermost to the module node."""
        chain: list[ast.AST] = []
        current = self._parents.get(node)
        while current is not None:
            chain.append(current)
            current = self._parents.get(current)
        return chain

    def enclosing_class(self, node: ast.AST) -> "ast.ClassDef | None":
        """The innermost class definition containing ``node``, if any."""
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, ast.ClassDef):
                return ancestor
        return None

    def source_line(self, lineno: int) -> str:
        """The 1-indexed source line (empty string when out of range)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    # ------------------------------------------------------------------ #
    # Import resolution
    # ------------------------------------------------------------------ #
    def _collect_aliases(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self._aliases[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
                    if alias.asname:
                        self._aliases[alias.asname] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    self._aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"

    def resolve_name(self, name: str) -> str:
        """Canonical dotted path of a bare name, through the import table."""
        return self._aliases.get(name, name)

    def resolve_call(self, func: ast.expr) -> "str | None":
        """Canonical dotted target of a call's ``func`` expression.

        ``np.random.default_rng`` resolves to ``numpy.random.default_rng``
        under ``import numpy as np``; ``default_rng`` resolves the same way
        under ``from numpy.random import default_rng``.  Returns ``None`` for
        targets whose root is not a plain name (subscripts, calls, ...).
        """
        parts: list[str] = []
        node = func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(self.resolve_name(node.id))
        return ".".join(reversed(parts))


def _parse_suppressions(lines: "list[str]") -> "dict[int, set[str]]":
    """Map of 1-indexed line number -> rule ids allowed on that line."""
    table: dict[int, set[str]] = {}
    for lineno, line in enumerate(lines, start=1):
        match = _ALLOW.search(line)
        if match is None:
            continue
        ids = {part.strip() for part in match.group(1).split(",") if part.strip()}
        if ids:
            table.setdefault(lineno, set()).update(ids)
    return table
