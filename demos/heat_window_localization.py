"""How the heat-kernel window spreads with t.

The window attached to vertex i is the i-th column of H_t = exp(-tL): a
probability distribution that starts as a point mass at i (t = 0) and
diffuses toward the uniform distribution as t grows. The time parameter
plays the role the window width plays in classical short-time analysis.

Run:  python demos/heat_window_localization.py
"""
import numpy as np

from gstft import decompose, heat_kernel, laplacian, ring_graph

N = 16
graph = ring_graph(N)
dec = decompose(laplacian(graph))

print(f"window at vertex 0 on the ring C_{N} (entries rounded):")
for t in (0.0, 0.25, 1.0, 4.0, 16.0):
    hk = heat_kernel(dec, t)
    column = hk.matrix[:, 0]
    bar = "".join("#" if x > 1.0 / N else "." for x in column)
    print(f"  t={t:5.2f}  sum={column.sum():.12f}  profile |{bar}|")
    print(f"          {np.round(column[:8], 4)} ...")

print("\ncolumn norms decay monotonically toward 1/N:")
for t in (0.0, 0.5, 2.0, 8.0, 32.0):
    hk = heat_kernel(dec, t)
    norm_sq = hk.column_norms_sq[0]
    print(f"  t={t:5.1f}  ||h_t(v_0)||^2 = {norm_sq:.9f}   (1/N = {1.0 / N:.9f})")

print("\nthe semigroup law H_s H_t = H_(s+t) ties the window family together:")
h1 = heat_kernel(dec, 0.7).matrix
h2 = heat_kernel(dec, 1.6).matrix
h3 = heat_kernel(dec, 2.3).matrix
print("  || H_0.7 H_1.6 - H_2.3 ||_max =", np.abs(h1 @ h2 - h3).max())
