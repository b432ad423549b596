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


PUBLIC_NAMES = [
    "FrameReport", "Graph", "GstftCoefficients", "HeatKernel", "SpectralDecomposition",
    "SrgParameters", "TightnessSweep", "__version__", "as_signal", "boxcar_window",
    "build_from_edge_list", "complete_graph", "decompose", "deserialize",
    "detect_srg_parameters", "dft", "dstft", "fiedler_eigenspace_mass", "frame_operator",
    "frame_report", "full_gabor_system", "graph_from_edge_list_text", "gstft", "heat_kernel",
    "hypercube_graph", "inverse_gstft", "laplacian", "permutation_commutator",
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
