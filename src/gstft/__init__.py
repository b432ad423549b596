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

Each library module declares its public names in its own ``__all__``; the
package re-exports exactly those.
"""

from .graphs import *
from .spectral import *
from .heat import *
from .gabor import *
from .classical import *

__version__ = "0.1.0"

# Importing a submodule binds its name here, so each module's list is in reach.
__all__ = [
    "__version__", *graphs.__all__, *spectral.__all__, *heat.__all__, *gabor.__all__, *classical.__all__
]
