"""The study layer: unified front-door API for runs, comparisons and campaigns.

* :mod:`repro.study.registry` — the :class:`OptimizerRegistry` every dispatch
  path resolves algorithm names through; third-party optimisers plug in via
  :func:`register_optimizer`.
* :mod:`repro.study.optimizers` — the five baseline specs (self-registered).
* :mod:`repro.study.events` — the :class:`StudyEvent` streaming-progress
  protocol emitted by optimisers, campaigns and studies.
* :mod:`repro.study.event_log` — the durable JSONL event log that carries
  those events across the campaign process-pool boundary (writer + tailer).
* :mod:`repro.study.study` — the :class:`Study` façade (fluent or declarative
  TOML/JSON construction); it returns a :class:`StudyResult`, re-exported
  here from :mod:`repro.experiments.tables`.

Heavy submodules are re-exported lazily (PEP 562): :mod:`repro.moo.base`
imports :mod:`repro.study.events` from far below this layer, so this
``__init__`` must stay import-light.
"""

from __future__ import annotations

from repro.study.events import EVENT_KINDS, EventCallback, StudyEvent

__all__ = [
    "EVENT_KINDS",
    "EVENT_LOG_NAME",
    "EventCallback",
    "EventLogReader",
    "EventLogWriter",
    "EventRecord",
    "OptimizerRegistry",
    "OptimizerSpec",
    "Study",
    "StudyEvent",
    "StudyResult",
    "canonical_key",
    "default_registry",
    "read_event_log",
    "register_optimizer",
]

_LAZY = {
    "EVENT_LOG_NAME": ("repro.study.event_log", "EVENT_LOG_NAME"),
    "EventLogReader": ("repro.study.event_log", "EventLogReader"),
    "EventLogWriter": ("repro.study.event_log", "EventLogWriter"),
    "EventRecord": ("repro.study.event_log", "EventRecord"),
    "read_event_log": ("repro.study.event_log", "read_event_log"),
    "OptimizerRegistry": ("repro.study.registry", "OptimizerRegistry"),
    "OptimizerSpec": ("repro.study.registry", "OptimizerSpec"),
    "canonical_key": ("repro.study.registry", "canonical_key"),
    "default_registry": ("repro.study.registry", "default_registry"),
    "register_optimizer": ("repro.study.registry", "register_optimizer"),
    "Study": ("repro.study.study", "Study"),
    "StudyResult": ("repro.experiments.tables", "StudyResult"),
}


def __getattr__(name: str):
    try:
        module_name, attribute = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    return getattr(import_module(module_name), attribute)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
