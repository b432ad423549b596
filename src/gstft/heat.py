"""The graph heat semigroup H_t = exp(-tL), used as the transform window.

H_t is computed through the already-available Laplacian eigendecomposition,
H_t = Phi exp(-t Lambda) Phi^T, rather than by series or scaling-and-squaring.
The product is formed as H_t = X X^T with X = Phi exp(-t Lambda / 2), which
numpy hands to BLAS ``syrk``: half the flops of a general product, and
symmetric by construction (``X X^T``), so no symmetrizing pass is needed.
The squared column norms are the frame-operator eigenvalues of
:mod:`gstft.gabor`, which also computes them from the spectrum.

On a connected graph H_t is symmetric, row-stochastic, entrywise positive for
t > 0, and H_0 is the identity exactly by construction.

Reuse. A caller streaming signals over a known graph asks for the same few
windows again and again, so :func:`heat_kernel` keeps a validated kernel once
the same decomposition has asked for the same ``t`` a second time, and hands
that one object to every later request (its arrays are read-only, so callers
can share it). Each decomposition has four slots, each holding a kept kernel
or a "seen once" marker for a time asked for only once; a new time takes a
slot and the oldest slot is dropped first. A run of distinct times, such as a
tightness sweep, therefore keeps no kernel. With the 16 n^2-byte workspace
that :mod:`gstft.gabor` lends the transform, the worst case is
4 * 8 n^2 + 16 n^2 bytes per live decomposition (768 MiB at n = 4096). The
slots are keyed weakly by decomposition identity, so they are freed when the
decomposition is collected. A lock guards them and kernels are built outside
it, so threads may share a decomposition.
"""
from __future__ import annotations

import math
import threading
import weakref
from dataclasses import dataclass, field

import numpy as np

from .spectral import SpectralDecomposition

# Entries of H_t are nonnegative in exact arithmetic; tiny negative values are
# roundoff from the eigenexpansion at small t.
ENTRY_FLOOR = -1e-12
ROW_SUM_TOL = 1e-10

# Times remembered per decomposition, kept kernels and "seen once" markers alike.
_REUSE_SLOTS = 4
_SEEN_ONCE = object()
_slots: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_slots_lock = threading.Lock()


@dataclass(frozen=True, eq=False)
class HeatKernel:
    """Heat kernel at a fixed time: t, the dense matrix H_t, and its squared column norms.

    Construction stores ``t`` as a float and raises ValueError unless it is
    finite and nonnegative, the matrix is square and nonempty, every entry is
    above ``ENTRY_FLOOR`` and every row sums to one within ``ROW_SUM_TOL``
    (a NaN fails both).
    ``column_norms_sq[j]`` is computed at construction as the direct sum over
    entries of column j; :func:`gstft.gabor.frame_report` gives the spectral
    sum for the same norms. ``matrix[:, i]`` is the window h_t(v_i) = H_t(., v_i).
    """

    t: float
    matrix: np.ndarray
    column_norms_sq: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "t", _window_time(self.t))
        if self.matrix.ndim != 2 or not 0 < self.matrix.shape[0] == self.matrix.shape[1]:
            raise ValueError(f"heat kernel must be a nonempty square matrix, got shape {self.matrix.shape}")
        min_entry = float(self.matrix.min())
        if not min_entry > ENTRY_FLOOR:
            raise ValueError(f"heat kernel entry {min_entry:.3e} below {ENTRY_FLOOR:g}")
        row_sum_err = float(np.abs(self.matrix.sum(axis=1) - 1.0).max())
        if not row_sum_err <= ROW_SUM_TOL:
            raise ValueError(f"heat kernel rows deviate from stochasticity by {row_sum_err:.3e}")
        object.__setattr__(self, "column_norms_sq", (self.matrix * self.matrix).sum(axis=0))
        self.matrix.setflags(write=False)
        self.column_norms_sq.setflags(write=False)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def _clamped_eigenvalues(dec: SpectralDecomposition) -> np.ndarray:
    """Laplacian eigenvalues with roundoff negatives clamped to zero."""
    w = dec.eigenvalues
    if w.size and w.min() < -1e-8 * max(1.0, float(np.abs(w).max())):
        raise ValueError(
            f"spectrum has a genuinely negative eigenvalue ({w.min():.3e}); "
            "not a graph Laplacian"
        )
    return np.maximum(w, 0.0)


def _window_time(t) -> float:
    """``t`` as a float; NaN, infinite and negative times are rejected."""
    t = float(t)
    if math.isnan(t):
        raise ValueError("t must not be NaN")
    if math.isinf(t):
        raise ValueError(f"t must be finite, got {t}")
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    return t


def heat_kernel(dec: SpectralDecomposition, t: float) -> HeatKernel:
    """Heat kernel H_t = Phi exp(-t Lambda) Phi^T for finite t >= 0.

    H_0 is returned as the exact identity. For t > 0 the matrix is symmetric
    by construction (``X X^T`` with X = Phi exp(-t Lambda / 2)); it is
    validated once, by :class:`HeatKernel`. Rejects negative, NaN or
    infinite t and decompositions that are not Laplacian-like. From the
    second request for the same ``(dec, t)`` on, the same object is returned
    while it stays in the reuse slots (see the module docstring).
    """
    t = _window_time(t)
    with _slots_lock:
        kept = _slots.get(dec, {}).get(t)
    if isinstance(kept, HeatKernel):
        return kept

    hk = _build(dec, t)
    with _slots_lock:
        times = _slots.setdefault(dec, {})
        kept = times.get(t)
        if isinstance(kept, HeatKernel):  # another thread kept one while this one built
            return kept
        # Keep only on the second request, so times asked for once cost no memory.
        times[t] = _SEEN_ONCE if kept is None else hk
        while len(times) > _REUSE_SLOTS:
            del times[next(iter(times))]
    return hk


def _build(dec: SpectralDecomposition, t: float) -> HeatKernel:
    """Compute H_t; ``t`` has passed :func:`_window_time`."""
    w = _clamped_eigenvalues(dec)
    if t == 0.0:
        return HeatKernel(t=t, matrix=np.eye(dec.n))
    half = dec.eigenvectors * np.exp(-0.5 * t * w)
    return HeatKernel(t=t, matrix=half @ half.T)
