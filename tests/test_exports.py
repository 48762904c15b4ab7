"""Every package's ``__all__`` names real attributes, each once.

A deletion that leaves a name behind in ``__all__`` (or a re-export that
lists it twice) is caught here rather than by the first ``import *``.
"""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.") if info.ispkg
)


@pytest.mark.parametrize("name", PACKAGES)
def test_all_resolves_without_duplicates(name):
    package = importlib.import_module(name)
    exported = package.__all__
    assert len(exported) == len(set(exported)), sorted(n for n in exported if exported.count(n) > 1)
    assert [n for n in exported if not hasattr(package, n)] == []
