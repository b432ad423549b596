"""Graph Laplacian eigenanalysis.

The Laplacian L = D - A of a connected graph is symmetric positive
semidefinite with a simple zero eigenvalue whose unit eigenvector is the
constant vector 1/sqrt(N). Its orthonormal eigenvectors are the frequencies
of the windowed transform in :mod:`gstft.gabor`; on ring graphs each
eigenspace is spanned by classical DFT harmonics.

Signals are complex-valued length-n vectors; plain numpy arrays are used
throughout, with :func:`as_signal` validating shape, dtype and finiteness at
the API boundary.

Eigenpairs come from LAPACK's symmetric solver (``numpy.linalg.eigh``).
Heat kernels and the frame spectrum
``gamma_j(t) = sum_l exp(-2 lambda_l t) |phi_l(v_j)|^2`` depend only on the
eigenvalues and eigenspaces, not on the basis chosen inside an eigenspace;
transform coefficients do depend on that basis, which the sign convention of
:func:`decompose` pins for a given input, platform and BLAS thread count.
Cyclic Jacobi would give higher relative accuracy for tiny eigenvalues
(Demmel & Veselic, 1992); that does not matter for integer Laplacians of
connected graphs, whose ``lambda_2`` is bounded away from zero. At
``graphs.MAX_VERTICES`` (n = 4096, random 3-regular) one decomposition took
22-23 s of CPU on one BLAS thread, with 704 MiB peak RSS for the whole process
(numpy 2.4.6, OpenBLAS 0.3.31, 2-vCPU x86-64 host).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graphs import Graph

__all__ = ["SpectralDecomposition", "as_signal", "laplacian", "decompose"]

# Consecutive eigenvalues closer than this belong to one eigenspace.
CLUSTER_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvector matrix of a symmetric matrix.

    ``eigenvectors[:, j]`` is the unit eigenvector for ``eigenvalues[j]``.
    For a connected-graph Laplacian the first eigenvalue is zero and
    ``fiedler_value`` (the second) is strictly positive. Construction raises
    ValueError for NaN or infinite entries, then for eigenvalues that are not
    an ``(n,)`` non-decreasing array or eigenvectors that are not ``(n, n)``,
    then when ``orthonormality_residual = max|Phi Phi^T - I|`` exceeds
    ``64 n eps`` (Higham, *Accuracy and Stability*, section 3) or is NaN.
    ``eigenspaces`` holds the ascending start offset of each eigenspace, the
    zero eigenspace first: consecutive eigenvalues closer than ``CLUSTER_TOL`` share one.
    Equality and hashing go by identity, the key of heat-kernel reuse.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    orthonormality_residual: float = field(init=False)
    eigenspaces: np.ndarray = field(init=False)

    def __post_init__(self):
        w, v = self.eigenvalues, self.eigenvectors
        if not (np.isfinite(w).all() and np.isfinite(v).all()):
            raise ValueError("decomposition contains NaN or infinite entries")
        if w.ndim != 1 or v.shape != (w.size, w.size):
            raise ValueError(f"expected (n,) eigenvalues and (n, n) eigenvectors, got {w.shape} and {v.shape}")
        if (np.diff(w) < 0).any():
            raise ValueError("eigenvalues must be in non-decreasing order")
        with np.errstate(all="ignore"):  # an overflowing product is refused below, not warned about
            gram = v @ v.T
            gram[np.diag_indices(w.size)] -= 1.0
            residual = float(np.abs(gram, out=gram).max(initial=0.0))
        bound = 64 * w.size * np.finfo(np.float64).eps
        if not residual <= bound:
            raise ValueError(f"eigenvectors are not orthonormal: max|Phi Phi^T - I| = {residual:.3e} exceeds {bound:.3e}")
        object.__setattr__(self, "orthonormality_residual", residual)
        object.__setattr__(self, "eigenspaces", np.flatnonzero(np.diff(w, prepend=-np.inf) > CLUSTER_TOL))
        for array in (w, v, self.eigenspaces):
            array.setflags(write=False)

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def fiedler_value(self) -> float:
        if self.n < 2:
            raise ValueError("Fiedler value is undefined for a single-vertex graph")
        return float(self.eigenvalues[1])


def as_signal(values, n: int) -> np.ndarray:
    """Coerce to a 1-D finite complex128 vertex signal of length ``n``."""
    signal = np.asarray(values, dtype=np.complex128)
    if signal.ndim != 1:
        raise ValueError(f"signal must be one-dimensional, got shape {signal.shape}")
    if signal.shape[0] != n:
        raise ValueError(f"signal length {signal.shape[0]} does not match n={n}")
    if not np.isfinite(signal).all():
        raise ValueError("signal contains NaN or infinite entries")
    return signal


def laplacian(g: Graph) -> np.ndarray:
    """Graph Laplacian L = D - A as a dense float64 matrix (rows sum to zero)."""
    return np.diag(g.degrees.astype(np.float64)) - g.adjacency


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip each column so its first entry larger than 1e-12 in magnitude is positive."""
    if vectors.size:
        pivots = np.argmax(np.abs(vectors) > 1e-12, axis=0)
        vectors[:, vectors[pivots, np.arange(vectors.shape[1])] < 0] *= -1
    return vectors


def decompose(matrix: np.ndarray) -> SpectralDecomposition:
    """Full eigendecomposition A = Phi diag(lambda) Phi^T of a real symmetric matrix.

    Raises ValueError for non-square, non-finite or non-symmetric input
    (asymmetry above ``1e-12 * max(max|A|, 1)``); the checked matrix itself
    goes to LAPACK, which reads only its lower triangle (no symmetrized copy).
    Eigenvalues are ascending and each eigenvector is sign-fixed so its first
    nonzero coordinate is positive. Output is deterministic for identical
    input on one platform and BLAS thread count.
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix contains NaN or infinite entries")
    scale = float(np.abs(a).max(initial=0.0))
    if np.abs(a - a.T).max(initial=0.0) > 1e-12 * max(scale, 1.0):
        raise ValueError("matrix is not symmetric")
    w, v = np.linalg.eigh(a)
    return SpectralDecomposition(eigenvalues=w, eigenvectors=_fix_signs(v))

