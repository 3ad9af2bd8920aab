"""Every name a ``repro`` package exports in ``__all__`` must resolve.

A class deleted from a module but left in its package's export list
breaks ``from repro.<pkg> import *`` only when someone runs it; this
catches it on every test run.
"""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    f"repro.{m.name}" for m in pkgutil.iter_modules(repro.__path__)
    if m.ispkg)


@pytest.mark.parametrize("name", PACKAGES)
def test_all_names_resolve(name):
    pkg = importlib.import_module(name)
    exported = getattr(pkg, "__all__", [])
    assert len(exported) == len(set(exported)), f"{name}: duplicate names"
    missing = [n for n in exported if not hasattr(pkg, n)]
    assert missing == [], f"{name}.__all__ names what it lacks: {missing}"
