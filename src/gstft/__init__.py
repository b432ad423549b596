"""Heat-windowed short-time Fourier analysis on finite graphs.

The package builds the transform stack bottom-up:

- :mod:`gstft.graphs` -- simple connected graphs, algebraic families
  (rings, hypercubes, Petersen, Shrikhande, random regular), strongly-regular
  parameter detection, JSON/edge-list serialization.
- :mod:`gstft.spectral` -- Laplacian eigendecomposition (LAPACK ``eigh`` with
  a deterministic sign convention) and the graph Fourier transform.
- :mod:`gstft.heat` -- the heat semigroup H_t = exp(-tL) used as the window.
- :mod:`gstft.gabor` -- the windowed transform, its Gabor atom system, frame
  operator spectra, exact inversion, and tightness certification.
- :mod:`gstft.classical` -- the matching transforms on C^N (DFT, windowed
  transform, full Gabor systems), which the graph machinery reduces to on
  ring graphs.
- :mod:`gstft.cli` -- the ``gstft`` command-line tool.
"""

from .classical import (
    boxcar_window,
    delta_window,
    dft,
    dft_matrix,
    dstft,
    dstft_reconstruct,
    full_gabor_system,
    idft,
    modulate,
    piecewise_cosine,
    spectrogram,
    time_frequency_shift,
    translate,
)
from .gabor import (
    FrameReport,
    GstftCoefficients,
    ShumanComparison,
    TightnessSweep,
    atom_matrix,
    fiedler_eigenspace_mass,
    frame_inequality_check,
    frame_operator,
    frame_operator_gram,
    frame_report,
    gstft,
    inverse_gstft,
    permutation_commutator,
    shuman_crosscheck,
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
    parse_edge_list,
    petersen_graph,
    random_regular_graph,
    ring_graph,
    serialize,
    shrikhande_graph,
)
from .heat import HeatKernel, heat_kernel, spectral_column_norms_sq
from .spectral import (
    SpectralDecomposition,
    as_signal,
    decompose,
    eigenspace_projectors,
    gft,
    igft,
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
    "parse_edge_list",
    "graph_from_edge_list_text",
    # spectral
    "SpectralDecomposition",
    "as_signal",
    "laplacian",
    "decompose",
    "gft",
    "igft",
    "eigenspace_projectors",
    # heat
    "HeatKernel",
    "heat_kernel",
    "spectral_column_norms_sq",
    # gabor
    "GstftCoefficients",
    "FrameReport",
    "TightnessSweep",
    "ShumanComparison",
    "gstft",
    "atom_matrix",
    "frame_operator",
    "frame_operator_gram",
    "frame_report",
    "inverse_gstft",
    "frame_inequality_check",
    "tightness_sweep",
    "shuman_crosscheck",
    "permutation_commutator",
    "fiedler_eigenspace_mass",
    "srg_eigenspace_mass",
    # classical
    "dft_matrix",
    "dft",
    "idft",
    "translate",
    "modulate",
    "time_frequency_shift",
    "full_gabor_system",
    "dstft",
    "dstft_reconstruct",
    "spectrogram",
    "piecewise_cosine",
    "boxcar_window",
    "delta_window",
]
