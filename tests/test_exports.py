"""The package's public export lists."""
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import gstft

# The library modules whose __all__ the package re-exports; cli, formats and __main__ are not among them.
LIBRARY_MODULES = ["graphs", "spectral", "heat", "gabor", "classical"]

SUBMODULES = [
    importlib.import_module(f"gstft.{info.name}")
    for info in pkgutil.iter_modules(gstft.__path__)
    if info.name != "__main__"
]


PUBLIC_NAMES = [
    "FrameReport", "Graph", "GstftCoefficients", "HeatKernel", "SpectralDecomposition",
    "SrgParameters", "TightnessSweep", "__version__", "as_signal", "boxcar_window",
    "build_from_edge_list", "complete_graph", "decompose", "deserialize",
    "detect_srg_parameters", "dft", "dstft", "fiedler_eigenspace_mass",
    "frame_report", "full_gabor_system", "graph_from_edge_list_text", "gstft", "heat_kernel",
    "hypercube_graph", "inverse_gstft", "laplacian",
    "petersen_graph", "piecewise_cosine", "random_regular_graph", "ring_graph", "serialize",
    "shrikhande_graph", "spectrogram", "srg_eigenspace_mass",
    "tightness_sweep",
]


def test_public_names_are_pinned():
    # adding or removing a public name is a deliberate, visible edit here
    assert sorted(gstft.__all__) == PUBLIC_NAMES


def test_all_names_resolve_without_duplicates():
    assert len(gstft.__all__) == len(set(gstft.__all__))
    assert [name for name in gstft.__all__ if not hasattr(gstft, name)] == []


@pytest.mark.parametrize(
    "module", [m for m in SUBMODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__
)
def test_submodule_export_list(module):
    assert len(module.__all__) == len(set(module.__all__))
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_package_exports_exactly_the_module_lists():
    # each public name is declared once, in one library module's __all__
    lists = [importlib.import_module(f"gstft.{name}").__all__ for name in LIBRARY_MODULES]
    declared = [name for names in lists for name in names]
    assert len(declared) == len(set(declared))
    assert gstft.__all__ == ["__version__", *declared]


def test_package_imports_no_name_individually():
    # a name imported one by one would be a second declaration; a module
    # without __all__ would leak np and annotations through "import *"
    tree = ast.parse(Path(gstft.__file__).read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert all(isinstance(node, ast.ImportFrom) for node in imports)
    assert [(node.level, node.module) for node in imports] == [(1, name) for name in LIBRARY_MODULES]
    assert all([alias.name for alias in node.names] == ["*"] for node in imports)
