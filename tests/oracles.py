"""Reference constructions the test suite checks the library against.

Each oracle builds a quantity the library computes in closed form, but by an
independent route: the frame operator from all n^2 explicit atoms (O(n^4)),
frame bounds by sampling random signals, the transform from Shuman's
spectral-window formulation, the graph Fourier transform pair, eigenspace
projectors, the classical DFT matrix, shift, modulation and tight-frame
reconstruction on C^N, and CSV text written one entry at a time. The library
itself never calls them. Tolerances are the library's own
(``gabor.TIGHT_TOL``, ``spectral.CLUSTER_TOL``), so each is defined once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from gstft.classical import _as_vector, _harmonics, _shifted_windows
from gstft.formats import meta_line
from gstft.gabor import TIGHT_TOL, _check_same_graph, gstft
from gstft.heat import HeatKernel, heat_kernel
from gstft.spectral import CLUSTER_TOL, SpectralDecomposition, as_signal

# The n^2-atom Gram oracle is O(n^4) time and memory; refuse above this size.
GRAM_ORACLE_MAX_N = 64


# --- graph transform (gstft.gabor) ---------------------------------------


@dataclass(frozen=True)
class ShumanComparison:
    """Outcome of comparing the transform against the spectral-window formulation.

    ``kappa`` is the fitted proportionality constant, ``expected_kappa`` its
    analytic value N*C (C normalizes the spectral window to unit norm), and
    ``deviation`` the largest entrywise difference after scaling.
    """

    kappa: float
    expected_kappa: float
    deviation: float


def atom_matrix(dec: SpectralDecomposition, hk: HeatKernel) -> np.ndarray:
    """All n^2 atoms stacked as rows: row ``i * n + j`` is psi_ij(t) = D_i(t) phi_j."""
    _check_same_graph(dec, hk)
    n = dec.n
    stacked = np.einsum("ki,kj->ijk", hk.matrix, dec.eigenvectors)
    return stacked.reshape(n * n, n).astype(np.complex128)


def frame_operator_gram(dec: SpectralDecomposition, hk: HeatKernel) -> np.ndarray:
    """Frame operator from the explicit atoms: S(t) = A(t)* A(t).

    The analysis operator A(t) has the conjugated atoms as rows, so S(t) is
    the sum of atom outer products. This is the O(n^4) certification oracle
    for :func:`gstft.gabor.frame_operator`; sizes above ``GRAM_ORACLE_MAX_N``
    are refused.
    """
    _check_same_graph(dec, hk)
    if dec.n > GRAM_ORACLE_MAX_N:
        raise ValueError(f"Gram oracle limited to n <= {GRAM_ORACLE_MAX_N}, got n={dec.n}")
    rows = atom_matrix(dec, hk)
    return rows.T @ rows.conj()


def frame_inequality_check(
    dec: SpectralDecomposition, hk: HeatKernel, trials: int, seed: int
) -> tuple[float, float]:
    """Sample the frame inequality with random unit-norm complex signals.

    For each trial, sum_ij |<f, psi_ij(t)>|^2 is evaluated as the squared
    Frobenius norm of the transform (independent of the frame operator) and
    the min/max over trials is returned. Both must land inside the closed-form
    bounds [A - TIGHT_TOL, B + TIGHT_TOL]; an excursion raises, since it would
    falsify the frame bounds themselves.
    """
    _check_same_graph(dec, hk)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    lo, hi = math.inf, -math.inf
    for _ in range(trials):
        f = rng.standard_normal(dec.n) + 1j * rng.standard_normal(dec.n)
        f /= np.linalg.norm(f)
        energy = float(np.linalg.norm(gstft(dec, hk, f).matrix) ** 2)
        lo = min(lo, energy)
        hi = max(hi, energy)
    gammas = hk.column_norms_sq
    if lo < gammas.min() - TIGHT_TOL or hi > gammas.max() + TIGHT_TOL:
        raise ValueError(
            f"sampled energies [{lo:.12g}, {hi:.12g}] escape the frame bounds "
            f"[{gammas.min():.12g}, {gammas.max():.12g}]"
        )
    return lo, hi


def shuman_crosscheck(dec: SpectralDecomposition, f, tau: float) -> ShumanComparison:
    """Compare the transform against the spectral-window vertex-frequency form.

    The alternative construction modulates by sqrt(N) phi_j and translates by
    convolution against a spectral window g_hat(lambda_l) = C exp(-tau
    lambda_l), C chosen so ||g|| = 1:

        Sf(v_i, lambda_j) = N sum_k f(v_k) phi_j(v_k)
                            [sum_l C exp(-tau lambda_l) phi_l(v_i) phi_l(v_k)].

    For real signals this is proportional to V_tau f with constant N*C (the
    window here is the unnormalized heat kernel). A single scalar is fitted
    and the residual must fall below ``TIGHT_TOL``, else ValueError.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    f = as_signal(f, dec.n)
    if np.abs(f.imag).max() != 0.0:
        raise ValueError("cross-check is defined for real-valued signals")
    f = f.real

    n = dec.n
    w = np.maximum(dec.eigenvalues, 0.0)
    weights = np.exp(-tau * w)
    c = 1.0 / math.sqrt(float(np.sum(weights**2)))
    phi = dec.eigenvectors
    translation = c * (phi * weights) @ phi.T
    windowed = n * (translation @ (f[:, None] * phi))

    reference = gstft(dec, heat_kernel(dec, tau), f).matrix.real
    denom = float(np.sum(reference * reference))
    if denom == 0.0:
        kappa = n * c
    else:
        kappa = float(np.sum(windowed * reference) / denom)
    deviation = float(np.abs(windowed - kappa * reference).max())
    if deviation > TIGHT_TOL:
        raise ValueError(
            f"transforms are not proportional: residual {deviation:.3e} exceeds {TIGHT_TOL:g}"
        )
    return ShumanComparison(kappa=kappa, expected_kappa=n * c, deviation=deviation)


# --- graph Fourier transform (gstft.spectral) ----------------------------


def gft(dec: SpectralDecomposition, f) -> np.ndarray:
    """Graph Fourier transform f_hat = Phi* f (coefficients in eigenvalue order)."""
    f = as_signal(f, dec.n)
    return dec.eigenvectors.conj().T @ f


def igft(dec: SpectralDecomposition, f_hat) -> np.ndarray:
    """Inverse graph Fourier transform f = Phi f_hat."""
    f_hat = as_signal(f_hat, dec.n)
    return dec.eigenvectors.astype(np.complex128) @ f_hat


def eigenspace_projectors(dec: SpectralDecomposition) -> list[tuple[float, np.ndarray]]:
    """Orthogonal projectors onto eigenspaces, grouping eigenvalues within CLUSTER_TOL.

    Consecutive eigenvalues closer than ``CLUSTER_TOL`` share a cluster; each
    cluster yields ``(representative eigenvalue, P)`` with ``P`` the sum of
    outer products of its eigenvectors. The projectors are basis-independent
    under eigenvalue multiplicity and sum to the identity.
    """
    w = dec.eigenvalues
    v = dec.eigenvectors
    projectors = []
    start = 0
    for stop in range(1, dec.n + 1):
        if stop == dec.n or w[stop] - w[stop - 1] > CLUSTER_TOL:
            block = v[:, start:stop]
            projectors.append((float(w[start:stop].mean()), block @ block.T))
            start = stop
    return projectors


# --- classical analysis on C^N (gstft.classical) -------------------------


def dft_matrix(n: int) -> np.ndarray:
    """Unitary Fourier matrix W_N with entries (1/sqrt(N)) omega^(-rs), omega = exp(2 pi i / N)."""
    if n < 1:
        raise ValueError(f"size must be >= 1, got {n}")
    r = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(r, r) / n) / np.sqrt(n)


def idft(f_hat) -> np.ndarray:
    """Inverse DFT f = W_N* f_hat."""
    f_hat = _as_vector(f_hat)
    return dft_matrix(f_hat.size).conj().T @ f_hat


def translate(f, k: int) -> np.ndarray:
    """Cyclic translation (T_k f)(n) = f(n - k)."""
    f = _as_vector(f)
    if not 0 <= k < f.size:
        raise ValueError(f"translation index {k} out of range for N={f.size}")
    return np.roll(f, k)


def modulate(f, l: int) -> np.ndarray:
    """Modulation (M_l f)(n) = exp(2 pi i l n / N) f(n)."""
    f = _as_vector(f)
    if not 0 <= l < f.size:
        raise ValueError(f"modulation index {l} out of range for N={f.size}")
    return f * np.exp(2j * np.pi * l * np.arange(f.size) / f.size)


def time_frequency_shift(g, k: int, l: int) -> np.ndarray:
    """The Gabor atom pi(k, l) g = M_l T_k g."""
    return modulate(translate(g, k), l)


def dstft_reconstruct(coefficients, g) -> np.ndarray:
    """Exact inversion f = (1 / (N ||g||^2)) sum_kl V_g f(k, l) pi(k, l) g.

    This is the adjoint-based tight-frame reconstruction; note the synthesis
    harmonics carry the positive exponent e^(+2 pi i l n / N), the conjugate
    of the analysis phase, which is what makes the round trip exact.
    """
    g = _as_vector(g)
    if np.linalg.norm(g) == 0.0:
        raise ValueError("window must be nonzero")
    v = np.asarray(coefficients, dtype=np.complex128)
    n = g.size
    if v.shape != (n, n):
        raise ValueError(f"coefficients must be shape ({n}, {n}), got {v.shape}")
    synthesis = (v @ _harmonics(n)) * _shifted_windows(g)
    return synthesis.sum(axis=0) / (n * float(np.linalg.norm(g) ** 2))


# --- CSV text (gstft.formats) --------------------------------------------


def format_entry(x) -> str:
    """One CSV entry, formatted on its own: 17 significant digits; a complex
    entry is "re", then "+" if its imaginary part is >= 0 (else "-", so NaN
    gets "-"), then abs(imaginary part) and "j"."""
    if isinstance(x, complex):
        sign = "+" if x.imag >= 0 else "-"
        return f"{format(x.real, '.17g')}{sign}{format(abs(x.imag), '.17g')}j"
    return format(float(x), ".17g")


def matrix_to_csv(matrix, meta: dict | None = None) -> str:
    """Reference for :func:`gstft.formats.matrix_to_csv`, one entry at a time."""
    matrix = np.atleast_2d(np.asarray(matrix))
    lines = [] if meta is None else [meta_line(meta)]
    lines.extend(",".join(format_entry(x) for x in row.tolist()) for row in matrix)
    return "\n".join(lines) + "\n"


def signal_to_csv(values) -> str:
    """Reference for :func:`gstft.formats.signal_to_csv`: one "re,im" line per value."""
    values = np.asarray(values, dtype=np.complex128)
    return "\n".join(f"{format_entry(z.real)},{format_entry(z.imag)}" for z in values.tolist()) + "\n"
