"""Heat-windowed short-time Fourier analysis on finite graphs.

The package builds the transform stack bottom-up:

- :mod:`gstft.graphs` -- simple connected graphs, algebraic families
  (rings, hypercubes, Petersen, Shrikhande, random regular), strongly-regular
  parameter detection, JSON/edge-list serialization.
- :mod:`gstft.spectral` -- Laplacian eigendecomposition (LAPACK ``eigh`` with
  a deterministic sign convention).
- :mod:`gstft.heat` -- the heat semigroup H_t = exp(-tL) used as the window.
- :mod:`gstft.gabor` -- the windowed transform, frame operator spectra,
  exact inversion, and tightness certification.
- :mod:`gstft.classical` -- the matching transforms on C^N (DFT, windowed
  transform, spectrogram, full Gabor systems), which the graph machinery
  reduces to on ring graphs.
- :mod:`gstft.cli` -- the ``gstft`` command-line tool.
"""

from .classical import (
    boxcar_window,
    dft,
    dstft,
    full_gabor_system,
    piecewise_cosine,
    spectrogram,
)
from .gabor import (
    FrameReport,
    GstftCoefficients,
    TightnessSweep,
    fiedler_eigenspace_mass,
    frame_operator,
    frame_report,
    gstft,
    inverse_gstft,
    permutation_commutator,
    srg_eigenspace_mass,
    tightness_sweep,
)
from .graphs import (
    Graph,
    SrgParameters,
    build_from_edge_list,
    complete_graph,
    deserialize,
    detect_srg_parameters,
    graph_from_edge_list_text,
    hypercube_graph,
    petersen_graph,
    random_regular_graph,
    ring_graph,
    serialize,
    shrikhande_graph,
)
from .heat import HeatKernel, heat_kernel
from .spectral import (
    SpectralDecomposition,
    as_signal,
    decompose,
    laplacian,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # graphs
    "Graph",
    "SrgParameters",
    "build_from_edge_list",
    "ring_graph",
    "complete_graph",
    "hypercube_graph",
    "petersen_graph",
    "shrikhande_graph",
    "random_regular_graph",
    "detect_srg_parameters",
    "serialize",
    "deserialize",
    "graph_from_edge_list_text",
    # spectral
    "SpectralDecomposition",
    "as_signal",
    "laplacian",
    "decompose",
    # heat
    "HeatKernel",
    "heat_kernel",
    # gabor
    "GstftCoefficients",
    "FrameReport",
    "TightnessSweep",
    "gstft",
    "frame_operator",
    "frame_report",
    "inverse_gstft",
    "tightness_sweep",
    "permutation_commutator",
    "fiedler_eigenspace_mass",
    "srg_eigenspace_mass",
    # classical
    "dft",
    "full_gabor_system",
    "dstft",
    "spectrogram",
    "piecewise_cosine",
    "boxcar_window",
]
