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
never copied to complex.

This module computes the transform and its left inverse, materializes the
frame operator both in closed form and from the explicit n^2-atom Gram
composition (the latter as an O(n^4) certification oracle for small n), and
provides the numerical certificates used to verify tightness: frame reports
over a time grid, random-signal frame-inequality sampling, permutation
commutator checks, and the strongly-regular eigenvector partial-sum identity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import SrgParameters
from .heat import HeatKernel, heat_kernel, spectral_column_norms_sq
from .spectral import SpectralDecomposition, as_signal, eigenspace_projectors

# Roundoff allowance for identities that are exact in theory: the tight verdict
# (relative to max(1, B)), sampled energies against the frame bounds, and the
# spectral-window proportionality residual.
TIGHT_TOL = 1e-9
# Agreement required between the spectral gammas and the direct column norms.
GAMMA_CROSSCHECK_TOL = 1e-10
# The n^2-atom Gram oracle is O(n^4) time and memory; refuse above this size.
GRAM_ORACLE_MAX_N = 64


@dataclass(frozen=True)
class GstftCoefficients:
    """Transform values: matrix[i, j] = (V_t f)(v_i, lambda_j) = <f, psi_ij(t)>."""

    t: float
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix.setflags(write=False)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class TightnessSweep:
    """Frame reports over an ascending time grid and their gaps.

    ``fiedler_value`` is the graph's second Laplacian eigenvalue lambda_2.
    It bounds the decay of the gap: gap(t) <= B(t) - 1/N <= (B(s) - 1/N)
    exp(-2 lambda_2 (t - s)) for t >= s.
    """

    fiedler_value: float
    reports: tuple[FrameReport, ...]
    ts: np.ndarray
    gaps: np.ndarray


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


def _check_same_graph(dec: SpectralDecomposition, hk: HeatKernel) -> None:
    if dec.n != hk.n:
        raise ValueError(f"decomposition has n={dec.n} but heat kernel has n={hk.n}")


def gstft(dec: SpectralDecomposition, hk: HeatKernel, f) -> GstftCoefficients:
    """Heat-windowed transform of a signal: (V_t f) = H_t diag(f) conj(Phi).

    Phi is real, so conj(Phi) = Phi, and the product with the real H_t is a
    real GEMM over the interleaved view of diag(f) Phi.
    """
    _check_same_graph(dec, hk)
    f = as_signal(f, dec.n)
    weighted = f[:, None] * dec.eigenvectors
    matrix = (hk.matrix @ weighted.view(np.float64)).view(np.complex128)
    return GstftCoefficients(t=hk.t, matrix=matrix)


def atom_matrix(dec: SpectralDecomposition, hk: HeatKernel) -> np.ndarray:
    """All n^2 atoms stacked as rows: row ``i * n + j`` is psi_ij(t) = D_i(t) phi_j."""
    _check_same_graph(dec, hk)
    n = dec.n
    stacked = np.einsum("ki,kj->ijk", hk.matrix, dec.eigenvectors)
    return stacked.reshape(n * n, n).astype(np.complex128)


def frame_operator(dec: SpectralDecomposition, hk: HeatKernel) -> np.ndarray:
    """Frame operator in closed form: S(t) = sum_i D_i(t)^2 = diag(||H_t(., v_j)||^2)."""
    _check_same_graph(dec, hk)
    return np.diag(hk.column_norms_sq)


def frame_operator_gram(dec: SpectralDecomposition, hk: HeatKernel) -> np.ndarray:
    """Frame operator from the explicit atoms: S(t) = A(t)* A(t).

    The analysis operator A(t) has the conjugated atoms as rows, so S(t) is
    the sum of atom outer products. This is the O(n^4) certification oracle
    for :func:`frame_operator`; sizes above ``GRAM_ORACLE_MAX_N`` are refused.
    """
    _check_same_graph(dec, hk)
    if dec.n > GRAM_ORACLE_MAX_N:
        raise ValueError(f"Gram oracle limited to n <= {GRAM_ORACLE_MAX_N}, got n={dec.n}")
    rows = atom_matrix(dec, hk)
    return rows.T @ rows.conj()


def frame_report(dec: SpectralDecomposition, hk: HeatKernel) -> FrameReport:
    """Frame bounds at the kernel's time from the spectral form of the gammas.

    gamma_j(t) is evaluated as sum_l exp(-2 lambda_l t) |phi_l(v_j)|^2 and
    cross-checked against the direct column norms of H_t; disagreement beyond
    ``GAMMA_CROSSCHECK_TOL`` raises, since it would mean the decomposition and
    the kernel are inconsistent. The frame is ``tight`` when the gap is at
    most ``TIGHT_TOL * max(1, B)``.
    """
    _check_same_graph(dec, hk)
    gammas = spectral_column_norms_sq(dec, hk.t)
    mismatch = float(np.abs(gammas - hk.column_norms_sq).max())
    if mismatch > GAMMA_CROSSCHECK_TOL:
        raise ValueError(
            f"spectral gammas disagree with direct column norms by {mismatch:.3e}"
        )
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
    GEMM over the interleaved view of F, taken as C-contiguous complex128.
    """
    _check_same_graph(dec, hk)
    if coefficients.n != dec.n:
        raise ValueError(f"coefficients have n={coefficients.n} but graph has n={dec.n}")
    if coefficients.t != hk.t:
        raise ValueError(f"coefficient time {coefficients.t} does not match kernel time {hk.t}")
    coeffs = np.ascontiguousarray(coefficients.matrix, dtype=np.complex128)
    inner = (hk.matrix @ coeffs.view(np.float64)).view(np.complex128)
    return (dec.eigenvectors * inner).sum(axis=1) / hk.column_norms_sq


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
    gammas = spectral_column_norms_sq(dec, hk.t)
    if lo < gammas.min() - TIGHT_TOL or hi > gammas.max() + TIGHT_TOL:
        raise ValueError(
            f"sampled energies [{lo:.12g}, {hi:.12g}] escape the frame bounds "
            f"[{gammas.min():.12g}, {gammas.max():.12g}]"
        )
    return lo, hi


def tightness_sweep(dec: SpectralDecomposition, t_grid) -> TightnessSweep:
    """Frame reports over an ascending nonnegative time grid.

    Each gamma_j(t) - 1/N is a nonnegative combination of exp(-2 lambda t)
    with lambda >= lambda_2, which gives the Fiedler-rate envelope stated on
    :class:`TightnessSweep`. The gap itself need not be monotone; it is 0 at t = 0.
    """
    ts = np.asarray(t_grid, dtype=np.float64)
    if ts.ndim != 1 or ts.size == 0:
        raise ValueError("t_grid must be a nonempty one-dimensional sequence")
    if ts[0] < 0:
        raise ValueError(f"t_grid values must be nonnegative, got {ts[0]}")
    if (np.diff(ts) <= 0).any():
        raise ValueError("t_grid must be strictly ascending")

    reports = tuple(frame_report(dec, heat_kernel(dec, t)) for t in ts)
    return TightnessSweep(
        fiedler_value=dec.fiedler_value,
        reports=reports,
        ts=ts,
        gaps=np.array([r.gap for r in reports]),
    )


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


def permutation_commutator(hk: HeatKernel, permutation) -> float:
    """Max-norm of P H_t - H_t P for the permutation matrix P of a vertex map.

    ``permutation[i]`` is the image of vertex i; P e_i = e_{permutation[i]}.
    Vanishes (to roundoff) exactly when the permutation is a graph
    automorphism, since automorphisms commute with the adjacency matrix and
    hence with every power series in the Laplacian.
    """
    perm = np.asarray(permutation, dtype=np.int64)
    n = hk.n
    if perm.shape != (n,) or not np.array_equal(np.sort(perm), np.arange(n)):
        raise ValueError("permutation must be a rearrangement of 0..n-1")
    p = np.zeros((n, n))
    p[perm, np.arange(n)] = 1.0
    return float(np.abs(p @ hk.matrix - hk.matrix @ p).max())


def fiedler_eigenspace_mass(dec: SpectralDecomposition) -> np.ndarray:
    """Per-vertex squared eigenvector mass of the second eigenvalue cluster.

    Entry i is sum over the lambda_2-eigenspace of |phi(v_i)|^2, computed from
    the eigenspace projector so the value is basis-independent under
    multiplicity. On strongly regular graphs this is the vertex-independent
    quantity with the closed form :func:`srg_eigenspace_mass`.
    """
    projectors = eigenspace_projectors(dec)
    if len(projectors) < 2:
        raise ValueError("spectrum has no second eigenspace to project onto")
    return np.diag(projectors[1][1]).copy()


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
