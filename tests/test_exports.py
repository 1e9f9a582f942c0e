"""Every name a dehnkit module exports resolves.

A helper deleted from a module but left in its `__all__` would make
`from dehnkit.<module> import *` fail; this catches it.
"""

import importlib
import pkgutil

import pytest

import dehnkit

MODULES = ["dehnkit"] + [
    f"dehnkit.{info.name}" for info in pkgutil.iter_modules(dehnkit.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, missing
