"""The package's public export lists."""
import importlib
import pkgutil

import pytest

import gstft

SUBMODULES = [
    importlib.import_module(f"gstft.{info.name}")
    for info in pkgutil.iter_modules(gstft.__path__)
    if info.name != "__main__"
]


def test_all_names_resolve_without_duplicates():
    assert len(gstft.__all__) == len(set(gstft.__all__))
    assert [name for name in gstft.__all__ if not hasattr(gstft, name)] == []


@pytest.mark.parametrize(
    "module", [m for m in SUBMODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__
)
def test_submodule_export_list(module):
    assert len(module.__all__) == len(set(module.__all__))
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
