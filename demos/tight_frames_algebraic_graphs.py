"""Tightness certificates on vertex-transitive and strongly regular graphs.

Two families carry heat-windowed frames that are tight at every t: graphs
whose automorphism group moves any vertex to any other (all heat-kernel
columns are permutations of each other), and strongly regular graphs (the
three-eigenvalue structure forces equal column norms). A path graph shows
what failure looks like.

Run:  python demos/tight_frames_algebraic_graphs.py
"""
import numpy as np

from gstft import (
    build_from_edge_list,
    decompose,
    detect_srg_parameters,
    fiedler_eigenspace_mass,
    hypercube_graph,
    laplacian,
    petersen_graph,
    ring_graph,
    shrikhande_graph,
    srg_eigenspace_mass,
    tightness_sweep,
)

GRID = [0.0, 0.1, 1.0, 10.0, 100.0]

print("== gap(t) = B - A over t in", GRID, "==")
zoo = {
    "ring(10)": ring_graph(10),
    "hypercube(4)": hypercube_graph(4),
    "petersen": petersen_graph(),
    "shrikhande": shrikhande_graph(),
    "path P4": build_from_edge_list(4, [(0, 1), (1, 2), (2, 3)]),
}
for name, graph in zoo.items():
    dec = decompose(laplacian(graph))
    sweep = tightness_sweep(dec, GRID)
    gaps = "  ".join(f"{gap:.2e}" for gap in sweep.gaps)
    verdict = "tight everywhere" if sweep.gaps.max() <= 1e-9 else "NOT tight"
    print(f"  {name:13s} {gaps}   -> {verdict}")

print("\n== why: heat-kernel columns are permutations of each other ==")
# A vertex permutation p that preserves the adjacency exactly commutes with L,
# hence with every H_t, so it maps the column of v_i to the column of v_p(i).
adjacency = ring_graph(8).adjacency
shift = (np.arange(8) + 1) % 8
print("  ring C_8, cyclic shift p:  A[p][:, p] == A exactly:",
      np.array_equal(adjacency[np.ix_(shift, shift)], adjacency))

print("\n== strongly regular certificates ==")
for name, graph in (("shrikhande", shrikhande_graph()), ("petersen", petersen_graph())):
    params = detect_srg_parameters(graph)
    dec = decompose(laplacian(graph))
    mass = fiedler_eigenspace_mass(dec)
    closed = srg_eigenspace_mass(params)
    print(f"  {name}: parameters (n,k,a,c) = ({params.n},{params.k},{params.a},{params.c})")
    print(f"    second-eigenspace vertex mass: min {mass.min():.12f}, max {mass.max():.12f}")
    print(f"    closed form from (n,k,a,c)  : {closed:.12f}")
    print("    vertex-independent mass is exactly what forces equal column norms.")
