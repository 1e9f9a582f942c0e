"""Every name a dehnkit module exports, or the bench tracer wraps, resolves.

A helper deleted from a module but left in its `__all__` would make
`from dehnkit.<module> import *` fail; this catches it.  A renamed or
deleted function that `bench/tracer.py` still lists in TARGETS would stop
the traced bench runs; this catches that too, without running the bench.
"""

import importlib
import pkgutil

import pytest

import dehnkit
from bench_modules import load_bench_module

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


@pytest.mark.parametrize("target", load_bench_module("tracer").TARGETS,
                         ids=lambda t: t.name)
def test_every_traced_name_resolves(target):
    assert hasattr(importlib.import_module(target.module), target.attr)
