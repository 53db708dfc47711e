"""Consistency of the public API: each module's __all__, its definitions,
and the package-level re-exports agree."""

from __future__ import annotations

import importlib
import inspect

import pytest

import ddcodes

MODULES = ["gf2m", "gf2", "cyclic", "derivative", "parity", "decoders",
           "ddcodec", "sim"]


def _module(name):
    return importlib.import_module(f"ddcodes.{name}")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    mod = _module(name)
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing


@pytest.mark.parametrize("name", MODULES)
def test_package_reexports_the_module_api(name):
    mod = _module(name)
    absent = [n for n in mod.__all__
              if getattr(ddcodes, n, None) is not getattr(mod, n, object())]
    assert not absent


@pytest.mark.parametrize("name", MODULES)
def test_every_public_definition_is_exported(name):
    mod = _module(name)
    defined = [n for n, obj in vars(mod).items()
               if not n.startswith("_")
               and (inspect.isclass(obj) or inspect.isfunction(obj))
               and obj.__module__ == mod.__name__]
    assert sorted(set(defined) - set(mod.__all__)) == []
