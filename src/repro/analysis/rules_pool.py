"""REP005 — pool-boundary hygiene: only module-level callables cross the pool.

Campaign cells fan out over a ``ProcessPoolExecutor``; everything submitted
must be picklable by reference.  Lambdas, closures and locally-defined
functions pickle either not at all or — worse, with helpers like cloudpickle
— by value, silently shipping captured state whose identity differs per
worker.  Every worker must run exactly the callable the parent named, so
the boundary is enforced statically:

* ``pool.submit(fn, ...)`` / ``pool.map(fn, ...)`` where ``fn`` is a lambda,
  a function defined inside another function, or ``functools.partial`` over
  either, is flagged;
* a *pool* is a name bound from ``ProcessPoolExecutor(...)`` (``with ... as
  pool``, assignment, annotation) or any receiver whose name contains
  ``pool`` or ``executor`` — covering helper methods like ``_worker_pool()``.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING

from repro.analysis.findings import Severity
from repro.analysis.rules import Rule, RuleMeta, register

if TYPE_CHECKING:  # circular-at-runtime helper types
    from repro.analysis.context import ModuleContext
    from repro.analysis.index import ProjectIndex

_POOLISH = ("pool", "executor")


def _name_looks_poolish(name: str) -> bool:
    lowered = name.lower()
    return any(token in lowered for token in _POOLISH)


@register
class PoolBoundaryRule(Rule):
    meta = RuleMeta(
        id="REP005",
        name="pool-boundary",
        summary="non-module-level callable submitted to a process pool",
        rationale=(
            "Process-pool tasks must be picklable by reference; lambdas and "
            "local functions are not, and by-value fallbacks smuggle "
            "unpicklable or divergent state across the boundary."
        ),
        severity=Severity.ERROR,
    )

    def __init__(self, context: "ModuleContext", index: "ProjectIndex") -> None:
        super().__init__(context, index)
        self._pool_names: set[str] = set()
        self._local_functions: set[str] = set()
        self._collect()

    def _collect(self) -> None:
        """Pre-pass: pool-bound names and locally-defined function names."""
        for node in ast.walk(self.context.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for child in ast.walk(node):
                    if (
                        isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and child is not node
                    ):
                        self._local_functions.add(child.name)
            if isinstance(node, ast.withitem) and self._is_pool_call(node.context_expr):
                if isinstance(node.optional_vars, ast.Name):
                    self._pool_names.add(node.optional_vars.id)
            if isinstance(node, ast.Assign) and self._is_pool_call(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self._pool_names.add(target.id)
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                annotation = ast.unparse(node.annotation) if node.annotation else ""
                if "ProcessPoolExecutor" in annotation:
                    self._pool_names.add(node.target.id)

    def _is_pool_call(self, node: "ast.expr | None") -> bool:
        if not isinstance(node, ast.Call):
            return False
        resolved = self.context.resolve_call(node.func)
        return resolved is not None and resolved.rsplit(".", 1)[-1] == "ProcessPoolExecutor"

    # ------------------------------------------------------------------ #
    def _is_pool_receiver(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self._pool_names or _name_looks_poolish(node.id)
        if isinstance(node, ast.Call):
            # e.g. self._worker_pool(n).map(...): the factory names the pool.
            resolved = self.context.resolve_call(node.func)
            return resolved is not None and _name_looks_poolish(resolved.rsplit(".", 1)[-1])
        if isinstance(node, ast.Attribute):
            return _name_looks_poolish(node.attr)
        return False

    def _check_submitted(self, call: ast.Call, fn: ast.expr) -> None:
        if isinstance(fn, ast.Lambda):
            self.report(fn, "lambda submitted to a process pool is not picklable")
            return
        if isinstance(fn, ast.Name) and fn.id in self._local_functions:
            self.report(
                fn,
                f"locally-defined function {fn.id!r} submitted to a process "
                "pool; move it to module level so it pickles by reference",
            )
            return
        if isinstance(fn, ast.Call):
            resolved = self.context.resolve_call(fn.func)
            if resolved is not None and resolved.rsplit(".", 1)[-1] == "partial" and fn.args:
                self._check_submitted(call, fn.args[0])

    def visit_Call(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in {"submit", "map"}
            and node.args
            and self._is_pool_receiver(node.func.value)
        ):
            self._check_submitted(node, node.args[0])
        self.generic_visit(node)
