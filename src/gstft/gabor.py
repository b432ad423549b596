"""Heat-windowed short-time Fourier analysis on graphs.

The transform of a vertex signal f at window time t is the n x n array

    (V_t f)(v_i, lambda_j) = sum_k f(v_k) H_t(v_i, v_k) conj(phi_j(v_k)),

equivalently the inner products of f against the Gabor atom family
psi_ij(t) = D_i(t) phi_j, where D_i(t) = diag(H_t(., v_i)). The atoms form a
frame whose frame operator S(t) = sum_i D_i(t)^2 is diagonal with eigenvalues
gamma_j(t) = ||H_t(., v_j)||^2 > 0, so the transform is exactly invertible for
every t >= 0, and the frame is tight precisely when all heat-kernel columns
share one norm -- which holds at all times on vertex-transitive and on
strongly regular graphs.

H_t and Phi are real; only the signal and the coefficients are complex. The
transform and its inverse therefore multiply H_t into a complex128 matrix as
one real GEMM over the interleaved view: the (n, n) complex array is read as
an (n, 2n) float64 array of alternating real and imaginary parts, so H_t is
never copied to complex. Each decomposition lends both functions one private
(n, n) complex128 workspace for their full-size temporary, so a stream of
requests reuses its pages instead of mapping fresh ones each call; the
workspace is freed with the decomposition.

This module computes the transform and its left inverse, and the numerical
certificates used to verify tightness: frame reports over a time grid and the
strongly-regular eigenvector partial-sum identity. The frame operator itself
is diag(``HeatKernel.column_norms_sq``).
"""
from __future__ import annotations

import math
import threading
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .graphs import SrgParameters
from .heat import HeatKernel, _decay, _window_time, heat_kernel
from .spectral import SpectralDecomposition, as_signal

__all__ = [
    "GstftCoefficients", "FrameReport", "TightnessSweep", "gstft", "frame_report",
    "inverse_gstft", "tightness_sweep", "fiedler_eigenspace_mass", "srg_eigenspace_mass",
]

# Roundoff allowance for the tight verdict of FrameReport, relative to
# max(1, B). The test oracles share it for the other identities that are exact
# in theory: sampled energies against the frame bounds and the spectral-window
# proportionality residual.
TIGHT_TOL = 1e-9

# One (n, n) complex128 workspace per decomposition, lent to one call at a time.
_workspaces: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_workspaces_lock = threading.Lock()


@dataclass(frozen=True, eq=False)
class GstftCoefficients:
    """Transform values: matrix[i, j] = (V_t f)(v_i, lambda_j) = <f, psi_ij(t)>.

    ``matrix`` must be square and two-dimensional.
    """

    t: float
    matrix: np.ndarray

    def __post_init__(self):
        shape = self.matrix.shape
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError(f"coefficient matrix must be square, got shape {shape}")
        self.matrix.setflags(write=False)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class FrameReport:
    """Frame-operator spectrum at one time. ``bound_a`` = A = min gamma, ``bound_b`` = B = max gamma
    and ``ratio`` = B / A are computed from the gammas, and the frame is ``tight`` when ``gap`` is
    at most ``TIGHT_TOL * max(1, B)``. ``gap`` = B - A alone is passed in, so a wrong one can be built."""

    t: float
    gammas: np.ndarray
    gap: float
    bound_a: float = field(init=False)
    bound_b: float = field(init=False)
    ratio: float = field(init=False)
    tight: bool = field(init=False)

    def __post_init__(self):
        self.gammas.setflags(write=False)
        bound_a = float(self.gammas.min())
        bound_b = float(self.gammas.max())
        object.__setattr__(self, "bound_a", bound_a)
        object.__setattr__(self, "bound_b", bound_b)
        object.__setattr__(self, "ratio", bound_b / bound_a)
        object.__setattr__(self, "tight", bool(self.gap <= TIGHT_TOL * max(1.0, bound_b)))


@dataclass(frozen=True, eq=False)
class TightnessSweep:
    """Frame reports over an ascending time grid, with their times and gaps.

    ``fiedler_value`` is the graph's second Laplacian eigenvalue lambda_2.
    It bounds the decay of the gap: gap(t) <= B(t) - 1/N <= (B(s) - 1/N)
    exp(-2 lambda_2 (t - s)) for t >= s. ``ts`` and ``gaps`` are computed
    from ``reports`` at construction.
    """

    fiedler_value: float
    reports: tuple[FrameReport, ...]
    ts: np.ndarray = field(init=False)
    gaps: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "ts", np.array([r.t for r in self.reports]))
        object.__setattr__(self, "gaps", np.array([r.gap for r in self.reports]))
        self.ts.setflags(write=False)
        self.gaps.setflags(write=False)


def _check_same_graph(dec: SpectralDecomposition, hk: HeatKernel) -> None:
    if dec.n != hk.n:
        raise ValueError(f"decomposition has n={dec.n} but heat kernel has n={hk.n}")


@contextmanager
def _workspace(dec: SpectralDecomposition):
    """Lend the decomposition's workspace to one call.

    A call that finds it lent out allocates its own, so no thread waits and
    none shares a buffer.
    """
    with _workspaces_lock:
        ws = _workspaces.pop(dec, None)
    if ws is None:
        ws = np.empty((dec.n, dec.n), dtype=np.complex128)
    try:
        yield ws
    finally:
        with _workspaces_lock:
            _workspaces[dec] = ws


def gstft(dec: SpectralDecomposition, hk: HeatKernel, f) -> GstftCoefficients:
    """Heat-windowed transform of a signal: (V_t f) = H_t diag(f) conj(Phi).

    Phi is real, so conj(Phi) = Phi, and the product with the real H_t is a
    real GEMM over the interleaved view of diag(f) Phi, which is formed in
    the decomposition's workspace.
    """
    _check_same_graph(dec, hk)
    f = as_signal(f, dec.n)
    with _workspace(dec) as weighted:
        np.multiply(f[:, None], dec.eigenvectors, out=weighted)
        matrix = (hk.matrix @ weighted.view(np.float64)).view(np.complex128)
    return GstftCoefficients(t=hk.t, matrix=matrix)


def frame_report(dec: SpectralDecomposition, hk: HeatKernel) -> FrameReport:
    """Frame bounds at the kernel's time from the spectral form of the gammas.

    gamma_j(t) = sum_l exp(-2 lambda_l t) |phi_l(v_j)|^2 equals the column
    norms of H_t to roundoff, as the decomposition's Phi is checked orthonormal.
    """
    _check_same_graph(dec, hk)
    gammas = (dec.eigenvectors**2) @ _decay(dec, hk.t, 2.0)
    return FrameReport(hk.t, gammas, gap=float(gammas.max()) - float(gammas.min()))


def inverse_gstft(
    dec: SpectralDecomposition, hk: HeatKernel, coefficients: GstftCoefficients
) -> np.ndarray:
    """Left inverse of the transform:

        (W_t F)(v_i) = (1 / ||H_t(., v_i)||^2)
                       * sum_j phi_j(v_i) sum_k F(v_k, lambda_j) H_t(v_k, v_i),

    which recovers f exactly from V_t f. The column norms are strictly
    positive for every t, so no regularization is needed. H_t F is a real
    GEMM over the interleaved view of F, taken as C-contiguous complex128,
    into the decomposition's workspace.
    """
    _check_same_graph(dec, hk)
    if coefficients.n != dec.n:
        raise ValueError(f"coefficients have n={coefficients.n} but graph has n={dec.n}")
    if coefficients.t != hk.t:
        raise ValueError(f"coefficient time {coefficients.t} does not match kernel time {hk.t}")
    coeffs = np.ascontiguousarray(coefficients.matrix, dtype=np.complex128)
    with _workspace(dec) as inner:
        np.matmul(hk.matrix, coeffs.view(np.float64), out=inner.view(np.float64))
        inner *= dec.eigenvectors
        return inner.sum(axis=1) / hk.column_norms_sq


def tightness_sweep(dec: SpectralDecomposition, t_grid) -> TightnessSweep:
    """Frame reports over an ascending nonnegative time grid.

    Each gamma_j(t) - 1/N is a nonnegative combination of exp(-2 lambda t)
    with lambda >= lambda_2, which gives the Fiedler-rate envelope stated on
    :class:`TightnessSweep`. The gap itself need not be monotone; it is zero up
    to roundoff at t = 0, where the spectral sum gives gamma = 1 within a few ulps.
    """
    ts = np.asarray(t_grid)
    if ts.ndim != 1 or ts.size == 0:
        raise ValueError("t_grid must be a nonempty one-dimensional sequence")
    # each time passes the one time rule before any kernel is built: no bool, string, NaN, inf or negative
    ts = np.array([_window_time(t) for t in ts])
    if (np.diff(ts) <= 0).any():
        raise ValueError("t_grid must be strictly ascending")

    fiedler_value = dec.fiedler_value  # a one-vertex graph has none: refuse it before building any kernel
    return TightnessSweep(fiedler_value, tuple(frame_report(dec, heat_kernel(dec, t)) for t in ts))


def fiedler_eigenspace_mass(dec: SpectralDecomposition) -> np.ndarray:
    """Per-vertex squared eigenvector mass of the second eigenvalue cluster.

    Entry i is sum over the lambda_2-eigenspace of |phi(v_i)|^2, the diagonal
    of that eigenspace's projector, so the value is basis-independent under
    multiplicity. The eigenspace is the decomposition's second, from
    ``dec.eigenspaces``. Only its columns are read: O(n * multiplicity)
    work and memory. On strongly regular graphs this is the vertex-independent
    quantity with the closed form :func:`srg_eigenspace_mass`.
    """
    start_stop = np.append(dec.eigenspaces[1:3], dec.n)
    if start_stop.size < 2:
        raise ValueError("spectrum has no second eigenspace to project onto")
    return np.square(dec.eigenvectors[:, start_stop[0] : start_stop[1]]).sum(axis=1)


def srg_eigenspace_mass(params: SrgParameters) -> float:
    """Closed form of the second-eigenspace vertex mass on a strongly regular graph.

    With adjacency eigenvalues nu = (a - c +- sqrt((a-c)^2 + 4(k-c))) / 2 and
    Laplacian eigenvalues lambda_2 = k - nu_plus < lambda_3 = k - nu_minus:

        mass = ((n-1)/n * lambda_3^2 - (k^2 + k)) / (lambda_3^2 - lambda_2^2).
    """
    n, k, a, c = params.n, params.k, params.a, params.c
    disc = math.sqrt((a - c) ** 2 + 4 * (k - c))
    lam2 = k - (a - c + disc) / 2.0
    lam3 = k - (a - c - disc) / 2.0
    return ((n - 1) / n * lam3**2 - (k**2 + k)) / (lam3**2 - lam2**2)
