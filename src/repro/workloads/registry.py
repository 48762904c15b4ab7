"""Workload registry: named, cached access to application workloads."""

from __future__ import annotations

from typing import Callable

from repro.noc.platform import PlatformConfig
from repro.utils.registry import NamedRegistry
from repro.workloads.rodinia import RODINIA_APPLICATIONS, generate_rodinia_workload
from repro.workloads.workload import Workload

WorkloadFactory = Callable[[PlatformConfig, int], Workload]


class WorkloadRegistry:
    """Registry of workload generators keyed by application name.

    The registry starts pre-populated with the seven Rodinia applications of
    the paper; users can register additional applications (e.g. custom traces)
    with :meth:`register`.
    Generated workloads are cached per ``(application, platform, seed)``.

    Name normalisation (upper-case canonical keys) and the duplicate/unknown
    error contract are shared with the scenario registry through
    :class:`~repro.utils.registry.NamedRegistry`.
    """

    def __init__(self) -> None:
        self._factories: NamedRegistry[WorkloadFactory] = NamedRegistry(
            "application", normalize=str.upper
        )
        self._cache: dict[tuple[str, str, int, int, int], Workload] = {}
        for app in RODINIA_APPLICATIONS:
            self._factories.register(app, self._make_rodinia_factory(app))

    @staticmethod
    def _make_rodinia_factory(app: str) -> WorkloadFactory:
        def factory(config: PlatformConfig, seed: int) -> Workload:
            return generate_rodinia_workload(app, config, seed=seed)

        return factory

    def register(self, name: str, factory: WorkloadFactory, overwrite: bool = False) -> None:
        """Register a new application workload factory."""
        self._factories.register(name, factory, overwrite=overwrite)

    def applications(self) -> list[str]:
        """Names of all registered applications."""
        return self._factories.names()

    def get(self, name: str, config: PlatformConfig, seed: int = 0) -> Workload:
        """Return (and cache) the workload for one application on one platform."""
        factory = self._factories.get(name)
        key = self._factories.canonical(name)
        cache_key = (key, config.name, config.n, config.layers, int(seed))
        if cache_key not in self._cache:
            self._cache[cache_key] = factory(config, int(seed))
        return self._cache[cache_key]


_DEFAULT_REGISTRY = WorkloadRegistry()


def get_workload(name: str, config: PlatformConfig, seed: int = 0) -> Workload:
    """Fetch an application workload from the default registry."""
    return _DEFAULT_REGISTRY.get(name, config, seed=seed)
