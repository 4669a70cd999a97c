"""Every name a ``fairplug`` module lists in ``__all__`` exists and is listed once."""

import importlib
import pkgutil

import pytest

import fairplug

MODULES = [
    module
    for module in (
        importlib.import_module(f"fairplug.{info.name}")
        for info in pkgutil.iter_modules(fairplug.__path__)
    )
    if hasattr(module, "__all__")
]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_public_names_resolve_once(module):
    names = list(module.__all__)
    assert names, "an empty __all__ exports nothing"
    duplicates = sorted({name for name in names if names.count(name) > 1})
    assert not duplicates, f"listed more than once: {duplicates}"
    missing = [name for name in names if not hasattr(module, name)]
    assert not missing, f"listed but not defined: {missing}"
