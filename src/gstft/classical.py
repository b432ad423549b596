"""Classical finite-dimensional Fourier analysis on C^N.

Reference implementations of the DFT, the windowed (short-time) transform
and its spectrogram, and the full Gabor system of all N^2 time-frequency
shifts pi(k, l) g = M_l T_k g of a window (cyclic translation by k, then
modulation by l). The full system is always a tight frame with bound
N ||g||^2.

On a ring graph the Laplacian eigenvectors are the DFT harmonics, so these
operators are the specialization of the graph transforms in
:mod:`gstft.gabor`; tests and demos use that correspondence as a cross-check.

The DFT and the windowed transform run on ``numpy.fft`` (pocketfft), in
O(N log N) per transform. pocketfft is single-threaded, so identical input on
one platform gives identical output bits. ``numpy.fft`` is reached only
inside the functions, so importing this module does not load it.
"""
from __future__ import annotations

import numpy as np

from .graphs import _check_integer

__all__ = ["dft", "full_gabor_system", "dstft", "spectrogram", "piecewise_cosine", "boxcar_window"]


def _as_vector(f) -> np.ndarray:
    f = np.asarray(f, dtype=np.complex128)
    if f.ndim != 1 or f.size == 0:
        raise ValueError(f"expected a nonempty one-dimensional vector, got shape {f.shape}")
    return f


def dft(f) -> np.ndarray:
    """Unitary discrete Fourier transform f_hat(l) = (1/sqrt(N)) sum_n f(n) e^(-2 pi i l n / N)."""
    f = _as_vector(f)
    return np.fft.fft(f, norm="ortho")


def _shifted_windows(g: np.ndarray) -> np.ndarray:
    """Matrix with row k equal to T_k g: entry [k, m] is g((m - k) mod N)."""
    r = np.arange(g.size)
    return g[(r[None, :] - r[:, None]) % g.size]


def _harmonics(n: int) -> np.ndarray:
    """Matrix with entry [l, m] = exp(2 pi i l m / N)."""
    r = np.arange(n)
    return np.exp(2j * np.pi * np.outer(r, r) / n)


def full_gabor_system(g) -> np.ndarray:
    """All N^2 time-frequency shifts of a nonzero window: row ``k * N + l`` is pi(k, l) g."""
    g = _as_vector(g)
    if np.linalg.norm(g) == 0.0:
        raise ValueError("window must be nonzero")
    shifted = _shifted_windows(g)
    harmonics = _harmonics(g.size)
    return np.einsum("lm,km->klm", harmonics, shifted).reshape(g.size**2, g.size)


def dstft(f, g) -> np.ndarray:
    """Windowed transform V_g f(k, l) = <f, pi(k, l) g> = sum_n f(n) conj(g(n-k)) e^(-2 pi i l n / N)."""
    f = _as_vector(f)
    g = _as_vector(g)
    if f.size != g.size:
        raise ValueError(f"signal length {f.size} does not match window length {g.size}")
    if np.linalg.norm(g) == 0.0:
        raise ValueError("window must be nonzero")
    return np.fft.fft(f[None, :] * _shifted_windows(g).conj(), axis=1)


def spectrogram(f, g) -> np.ndarray:
    """Squared-magnitude windowed transform |V_g f(k, l)|^2."""
    v = dstft(f, g)
    return (v * v.conj()).real


def piecewise_cosine(n: int) -> np.ndarray:
    """Test signal: cos at DFT bin 8 on the first half, cos at bin 32 on the second.

    Frequencies are exact DFT bins of the full length, so the spectrum peaks
    at known indices and spectrograms show the switch at the midpoint.
    """
    _check_integer(n, "signal length")
    if n < 2:
        raise ValueError(f"signal length must be >= 2, got {n}")
    m = np.arange(n)
    first = np.cos(2 * np.pi * 8 * m / n)
    second = np.cos(2 * np.pi * 32 * m / n)
    return np.where(m < n // 2, first, second).astype(np.float64)


def boxcar_window(n: int, width: int) -> np.ndarray:
    """Indicator window of the first ``width`` samples; width 1 is the unit impulse."""
    _check_integer(n, "signal length")
    _check_integer(width, "window width")
    if not 1 <= width <= n:
        raise ValueError(f"window width must be in 1..{n}, got {width}")
    g = np.zeros(n)
    g[:width] = 1.0
    return g

