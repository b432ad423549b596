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

This module computes the transform and its left inverse, the frame operator
in closed form, and the numerical certificates used to verify tightness:
frame reports over a time grid, permutation commutator checks, and the
strongly-regular eigenvector partial-sum identity.
"""
from __future__ import annotations

import math
import threading
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .graphs import SrgParameters
from .heat import HeatKernel, _clamped_eigenvalues, _window_time, heat_kernel
from .spectral import CLUSTER_TOL, SpectralDecomposition, as_signal

# Roundoff allowance for the tight verdict of frame_report, relative to
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
    """Frame-operator spectrum at one time: gammas, bounds A/B, gap, ratio, tightness."""

    t: float
    gammas: np.ndarray
    bound_a: float
    bound_b: float
    gap: float
    ratio: float
    tight: bool

    def __post_init__(self):
        self.gammas.setflags(write=False)


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


def frame_operator(dec: SpectralDecomposition, hk: HeatKernel) -> np.ndarray:
    """Frame operator in closed form: S(t) = sum_i D_i(t)^2 = diag(||H_t(., v_j)||^2)."""
    _check_same_graph(dec, hk)
    return np.diag(hk.column_norms_sq)


def frame_report(dec: SpectralDecomposition, hk: HeatKernel) -> FrameReport:
    """Frame bounds at the kernel's time from the spectral form of the gammas.

    gamma_j(t) = sum_l exp(-2 lambda_l t) |phi_l(v_j)|^2 equals the column
    norms of H_t to roundoff, as the decomposition's Phi is checked orthonormal.
    The frame is ``tight`` when the gap is at most ``TIGHT_TOL * max(1, B)``.
    """
    _check_same_graph(dec, hk)
    gammas = (dec.eigenvectors**2) @ np.exp(-2.0 * hk.t * _clamped_eigenvalues(dec))
    bound_a = float(gammas.min())
    bound_b = float(gammas.max())
    gap = bound_b - bound_a
    return FrameReport(
        t=hk.t,
        gammas=gammas,
        bound_a=bound_a,
        bound_b=bound_b,
        gap=gap,
        ratio=bound_b / bound_a,
        tight=gap <= TIGHT_TOL * max(1.0, bound_b),
    )


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
    :class:`TightnessSweep`. The gap itself need not be monotone; it is 0 at t = 0.
    """
    ts = np.asarray(t_grid, dtype=np.float64)
    if ts.ndim != 1 or ts.size == 0:
        raise ValueError("t_grid must be a nonempty one-dimensional sequence")
    if (np.diff(ts) <= 0).any():
        raise ValueError("t_grid must be strictly ascending")
    for t in ts:  # refuse NaN, infinite and negative times before building any kernel
        _window_time(t)

    reports = tuple(frame_report(dec, heat_kernel(dec, t)) for t in ts)
    return TightnessSweep(fiedler_value=dec.fiedler_value, reports=reports)


def permutation_commutator(hk: HeatKernel, permutation) -> float:
    """Max-norm of P H_t - H_t P for the permutation matrix P of a vertex map.

    ``permutation[i]`` is the image of vertex i; P e_i = e_{permutation[i]}.
    Vanishes (to roundoff) exactly when the permutation is a graph
    automorphism, since automorphisms commute with the adjacency matrix and
    hence with every power series in the Laplacian. Entry (perm[i], j) of
    P H_t - H_t P is H_t[i, j] - H_t[perm[i], perm[j]], so the norm is read
    off one reindexing of H_t, without forming P.
    """
    perm = np.asarray(permutation, dtype=np.int64)
    n = hk.n
    if perm.shape != (n,) or not np.array_equal(np.sort(perm), np.arange(n)):
        raise ValueError("permutation must be a rearrangement of 0..n-1")
    h = hk.matrix
    return float(np.abs(h[np.ix_(perm, perm)] - h).max())


def fiedler_eigenspace_mass(dec: SpectralDecomposition) -> np.ndarray:
    """Per-vertex squared eigenvector mass of the second eigenvalue cluster.

    Entry i is sum over the lambda_2-eigenspace of |phi(v_i)|^2, the diagonal
    of that eigenspace's projector, so the value is basis-independent under
    multiplicity. Consecutive eigenvalues closer than ``CLUSTER_TOL`` share an
    eigenspace. Only the eigenspace's columns are read: O(n * multiplicity)
    work and memory. On strongly regular graphs this is the vertex-independent
    quantity with the closed form :func:`srg_eigenspace_mass`.
    """
    starts = np.flatnonzero(np.diff(dec.eigenvalues) > CLUSTER_TOL) + 1
    if starts.size == 0:
        raise ValueError("spectrum has no second eigenspace to project onto")
    stop = starts[1] if starts.size > 1 else dec.n
    return np.square(dec.eigenvectors[:, starts[0] : stop]).sum(axis=1)


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
