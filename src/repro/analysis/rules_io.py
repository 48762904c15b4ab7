"""REP006 — durable-write protocol for campaign directories.

A campaign directory is the single source of truth for resume and
post-mortems.  Its integrity rests on exactly two
write primitives: :func:`repro.utils.serialization.write_json_atomic`
(temp file + ``os.replace``; a shard either parses or does not exist) and
:class:`repro.study.event_log.EventLogWriter` (single-``write`` ``O_APPEND``
lines).  A bare ``open(..., "w")`` / ``json.dump`` / ``Path.write_text``
under a campaign directory can be torn by a kill and then *looks complete* to
the resume logic — the silent-corruption failure mode the protocol exists to
prevent.

Statically, a write is "under a campaign directory" when the target path
expression mentions a campaign-ish name: ``output_dir``, ``campaign``,
``manifest``, ``shard``, ``rollup``, ``events`` or ``event_log``.  Writers
*implementing* the protocol (the temp-file halves of atomic writers) opt out
per line with ``# repro: allow[REP006]``.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Severity
from repro.analysis.rules import Rule, RuleMeta, register

#: Identifiers marking a path expression as campaign-directory territory.
_CAMPAIGN_TOKENS = (
    "output_dir",
    "campaign",
    "manifest",
    "shard",
    "rollup",
    "events",
    "event_log",
)

#: ``open`` modes that create or truncate files.
_WRITE_MODES = frozenset("wax")


def _mentions_campaign_path(node: ast.expr) -> bool:
    text = ast.unparse(node).lower()
    return any(token in text for token in _CAMPAIGN_TOKENS)


def _open_mode(node: ast.Call) -> "str | None":
    if len(node.args) >= 2 and isinstance(node.args[1], ast.Constant):
        value = node.args[1].value
        return value if isinstance(value, str) else None
    for keyword in node.keywords:
        if keyword.arg == "mode" and isinstance(keyword.value, ast.Constant):
            value = keyword.value.value
            return value if isinstance(value, str) else None
    return "r"


@register
class DurableWriteRule(Rule):
    meta = RuleMeta(
        id="REP006",
        name="durable-write",
        summary="bare write under a campaign directory bypasses the atomic protocol",
        rationale=(
            "Campaign files must be written via write_json_atomic or "
            "EventLogWriter; a torn bare write looks complete to resume "
            "logic and corrupts the directory silently."
        ),
        severity=Severity.ERROR,
    )

    def visit_Call(self, node: ast.Call) -> None:
        resolved = self.context.resolve_call(node.func)
        if resolved == "open" and node.args:
            mode = _open_mode(node)
            if mode is not None and set(mode) & _WRITE_MODES:
                if _mentions_campaign_path(node.args[0]):
                    self.report(
                        node,
                        f"open(..., {mode!r}) under a campaign directory; use "
                        "write_json_atomic or EventLogWriter for durable files",
                    )
        elif resolved == "json.dump" and any(
            _mentions_campaign_path(arg) for arg in node.args
        ):
            self.report(
                node,
                "json.dump to a campaign-directory handle; use "
                "write_json_atomic so the file can never be half-written",
            )
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in {"write_text", "write_bytes"}
            and _mentions_campaign_path(node.func.value)
        ):
            self.report(
                node,
                f"Path.{node.func.attr} under a campaign directory; use "
                "write_json_atomic or EventLogWriter for durable files",
            )
        self.generic_visit(node)
