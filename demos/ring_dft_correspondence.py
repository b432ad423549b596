"""Ring graphs recover classical Fourier analysis.

The Laplacian of the ring C_N is a circulant matrix, so its eigenvectors are
the DFT harmonics and its eigenvalues follow the closed form
2 - 2 cos(2 pi k / N). This script checks both facts numerically and then
shows that the graph transform's frame operator on a ring,
S(t) = diag(gamma_j(t)) with gamma_j(t) = ||H_t(., v_j)||^2, is a multiple of
the identity -- the same tight-frame structure the classical full Gabor
system has on C^N.

Run:  python demos/ring_dft_correspondence.py
"""
import numpy as np

from gstft import (
    decompose,
    dft,
    full_gabor_system,
    heat_kernel,
    laplacian,
    ring_graph,
)

N = 12

print(f"== ring graph on {N} vertices ==")
graph = ring_graph(N)
lap = laplacian(graph)
dec = decompose(lap)

closed_form = np.sort(2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(N) / N))
print("eigenvalues          :", np.round(dec.eigenvalues, 6))
print("circulant closed form:", np.round(closed_form, 6))
print("max difference       :", np.abs(dec.eigenvalues - closed_form).max())

print("\nEach DFT harmonic is an eigenvector of L:")
for k in (0, 1, 3):
    harmonic = np.exp(2j * np.pi * k * np.arange(N) / N) / np.sqrt(N)
    lam = 2.0 - 2.0 * np.cos(2.0 * np.pi * k / N)
    residual = np.abs(lap @ harmonic - lam * harmonic).max()
    print(f"  k={k}: lambda={lam:.6f}  residual={residual:.2e}")

print("\nThe graph Fourier transform of the constant signal concentrates")
print("at the zero eigenvalue, exactly like the DFT of a constant:")
constant = np.ones(N)
print("  graph side:", np.round(np.abs(dec.eigenvectors.T @ constant), 6))
print("  DFT side  :", np.round(np.abs(dft(constant)), 6))

print("\nFrame operator S = diag(gamma) of the heat-windowed system at t = 1:")
hk = heat_kernel(dec, 1.0)
gammas = hk.column_norms_sq
print("  gamma_j = ||H_t(., v_j)||^2:", np.round(gammas, 12))
print("  spread:", np.ptp(gammas))
print("  (a multiple of the identity: the ring frame is tight at every t)")

print("\nClassical full Gabor system on C^N for comparison (unit window):")
rng = np.random.default_rng(0)
window = rng.standard_normal(N) + 1j * rng.standard_normal(N)
window /= np.linalg.norm(window)
atoms = full_gabor_system(window)
gram = atoms.T @ atoms.conj()
print("  || S - N I ||_max =", np.abs(gram - N * np.eye(N)).max())
