"""Acceptance suite: one test per numbered criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances are pinned in the assertions below.

Criterion 7 checks the Fiedler-rate decay through B(t) - 1/N, which bounds the
gap and decays monotonically; the gap itself rises from 0 before it decays.
Its docstring gives the derivation of each sub-check.
"""
import math
import time

import numpy as np
import pytest

from gstft import classical, gabor, graphs, heat, spectral
from gstft.cli import main as cli_main
from gstft.formats import signal_to_csv

import oracles

SMALL_ZOO_TIMES = (0.0, 0.1, 1.0, 10.0)
VT_TIMES = (0.0, 0.1, 1.0, 10.0, 100.0)


def report(number: int, label: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {number} ({label}): {status}")
    for failure in failures:
        print(f"  - {failure}")
    assert not failures, f"criterion {number}: " + "; ".join(failures)


def path_graph_p3() -> graphs.Graph:
    return graphs.build_from_edge_list(3, [(0, 1), (1, 2)])


@pytest.fixture(scope="module", name="small_zoo")
def small_zoo_fixture():
    """The six-graph battery shared by criteria 1-3, with kernels per time."""
    members = {
        "k2": graphs.complete_graph(2),
        "p3": path_graph_p3(),
        "ring8": graphs.ring_graph(8),
        "petersen": graphs.petersen_graph(),
        "shrikhande": graphs.shrikhande_graph(),
        "rr24": graphs.random_regular_graph(24, 3, seed=7),
    }
    zoo = {}
    for name, g in members.items():
        dec = spectral.decompose(spectral.laplacian(g))
        kernels = {t: heat.heat_kernel(dec, t) for t in SMALL_ZOO_TIMES}
        zoo[name] = (g, dec, kernels)
    return zoo


@pytest.fixture(scope="module", name="vt_zoo")
def vt_zoo_fixture():
    """Vertex-transitive battery for criteria 4-5."""
    members = [(f"ring{n}", graphs.ring_graph(n)) for n in range(3, 33)]
    members += [(f"hypercube{d}", graphs.hypercube_graph(d)) for d in range(1, 7)]
    members += [(f"complete{n}", graphs.complete_graph(n)) for n in range(2, 17)]
    members += [("petersen", graphs.petersen_graph()), ("shrikhande", graphs.shrikhande_graph())]
    return [(name, g, spectral.decompose(spectral.laplacian(g))) for name, g in members]


def test_c01_frame_operator_diagonality(small_zoo):
    started = time.monotonic()
    failures = []
    for name, (g, dec, kernels) in small_zoo.items():
        for t, hk in kernels.items():
            gram = oracles.frame_operator_gram(dec, hk)
            closed = gabor.frame_operator(dec, hk)
            off = float(np.abs(gram - np.diag(np.diag(gram))).max())
            diag_err = float(np.abs(np.diag(gram) - np.diag(closed)).max())
            if off > 1e-10:
                failures.append(f"{name} t={t}: off-diagonal {off:.2e} > 1e-10")
            if diag_err > 1e-10:
                failures.append(f"{name} t={t}: diagonal mismatch {diag_err:.2e} > 1e-10")
    elapsed = time.monotonic() - started
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    report(1, "frame-operator diagonality", failures)


def test_c02_frame_spectrum_formula(small_zoo):
    failures = []
    for name, (g, dec, kernels) in small_zoo.items():
        phi = dec.eigenvectors
        lam = dec.eigenvalues
        for t, hk in kernels.items():
            gammas = gabor.frame_report(dec, hk).gammas
            # independent spectral-sum oracle, explicit loops
            spectral_oracle = np.array(
                [
                    sum(
                        math.exp(-2.0 * max(lam[l], 0.0) * t) * abs(phi[j, l]) ** 2
                        for l in range(g.n)
                    )
                    for j in range(g.n)
                ]
            )
            # independent direct column-norm oracle
            direct_oracle = np.array(
                [sum(hk.matrix[i, j] ** 2 for i in range(g.n)) for j in range(g.n)]
            )
            err_spectral = float(np.abs(gammas - spectral_oracle).max())
            err_direct = float(np.abs(gammas - direct_oracle).max())
            if err_spectral > 1e-10:
                failures.append(f"{name} t={t}: spectral-sum error {err_spectral:.2e} > 1e-10")
            if err_direct > 1e-10:
                failures.append(f"{name} t={t}: column-norm error {err_direct:.2e} > 1e-10")
            if gammas.min() <= 0:
                failures.append(f"{name} t={t}: nonpositive gamma {gammas.min():.2e}")
    report(2, "frame spectrum formula", failures)


def test_c03_exact_inversion(small_zoo):
    failures = []
    for name, (g, dec, kernels) in small_zoo.items():
        rng = np.random.default_rng(1234)
        for t, hk in kernels.items():
            worst = 0.0
            for _ in range(100):
                f = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
                back = gabor.inverse_gstft(dec, hk, gabor.gstft(dec, hk, f))
                worst = max(worst, float(np.abs(back - f).max()))
            if worst > 1e-9:
                failures.append(f"{name} t={t}: reconstruction error {worst:.2e} > 1e-9")
    report(3, "exact inversion", failures)


def test_c04_vertex_transitive_tightness(vt_zoo):
    failures = []
    for name, g, dec in vt_zoo:
        sweep = gabor.tightness_sweep(dec, VT_TIMES)
        worst = float(sweep.gaps.max())
        if worst > 1e-9:
            failures.append(f"{name}: gap {worst:.2e} > 1e-9")
    # cyclic-shift commutation on every ring
    for name, g, dec in vt_zoo:
        if not name.startswith("ring"):
            continue
        shift = (np.arange(g.n) + 1) % g.n
        for t in VT_TIMES:
            comm = gabor.permutation_commutator(heat.heat_kernel(dec, t), shift)
            if comm > 1e-12:
                failures.append(f"{name} t={t}: commutator {comm:.2e} > 1e-12")
    report(4, "vertex-transitive tightness", failures)


def test_c05_strongly_regular_tightness(vt_zoo):
    failures = []
    extra = graphs.random_regular_graph(24, 3, seed=7)
    battery = list(vt_zoo) + [
        ("rr24", extra, spectral.decompose(spectral.laplacian(extra))),
        ("p3", path_graph_p3(), spectral.decompose(spectral.laplacian(path_graph_p3()))),
    ]
    srg_found = 0
    for name, g, dec in battery:
        params = graphs.detect_srg_parameters(g)
        if params is None:
            continue
        srg_found += 1
        sweep = gabor.tightness_sweep(dec, VT_TIMES)
        if sweep.gaps.max() > 1e-9:
            failures.append(f"{name}: gap {sweep.gaps.max():.2e} > 1e-9")
        mass = gabor.fiedler_eigenspace_mass(dec)
        spread = float(np.ptp(mass))
        closed = gabor.srg_eigenspace_mass(params)
        err = float(np.abs(mass - closed).max())
        if spread > 1e-9:
            failures.append(f"{name}: eigenspace mass varies by {spread:.2e} > 1e-9")
        if err > 1e-8:
            failures.append(f"{name}: closed-form mismatch {err:.2e} > 1e-8")
    if srg_found < 4:
        failures.append(f"only {srg_found} strongly regular graphs found in the battery")
    # ||L e_i||^2 = d^2 + d, exact in integer arithmetic, for every regular graph
    for name, g, dec in battery:
        if not g.is_regular():
            continue
        lap_int = np.diag(g.degrees) - g.adjacency
        norms = (lap_int**2).sum(axis=0)
        d = int(g.degrees[0])
        if norms.tolist() != [d * d + d] * g.n:
            failures.append(f"{name}: ||L e_i||^2 != d^2 + d")
    report(5, "strongly regular tightness", failures)


def test_c06_heat_kernel_analytics():
    failures = []
    # semigroup law on 20 random (s, t) pairs
    for g in (graphs.ring_graph(8), graphs.petersen_graph()):
        dec = spectral.decompose(spectral.laplacian(g))
        rng = np.random.default_rng(77)
        worst = 0.0
        for _ in range(20):
            s, t = rng.uniform(0.0, 10.0, size=2)
            hs = heat.heat_kernel(dec, s).matrix
            ht = heat.heat_kernel(dec, t).matrix
            hst = heat.heat_kernel(dec, s + t).matrix
            worst = max(worst, float(np.abs(hs @ ht - hst).max()))
        if worst > 1e-10:
            failures.append(f"n={g.n}: semigroup error {worst:.2e} > 1e-10")
        # row sums across a time spread
        for t in (0.0, 0.5, 5.0, 50.0):
            hk = heat.heat_kernel(dec, t)
            row_err = float(np.abs(hk.matrix.sum(axis=1) - 1.0).max())
            if row_err > 1e-10:
                failures.append(f"n={g.n} t={t}: row sums off by {row_err:.2e} > 1e-10")
        if not np.array_equal(heat.heat_kernel(dec, 0.0).matrix, np.eye(g.n)):
            failures.append(f"n={g.n}: H_0 is not the exact identity")
    # K2 closed form
    dec2 = spectral.decompose(spectral.laplacian(graphs.complete_graph(2)))
    hk2 = heat.heat_kernel(dec2, 1.0)
    plus = (1.0 + math.exp(-2.0)) / 2.0
    minus = (1.0 - math.exp(-2.0)) / 2.0
    k2_err = float(np.abs(hk2.matrix - [[plus, minus], [minus, plus]]).max())
    if k2_err > 1e-12:
        failures.append(f"K2 closed form error {k2_err:.2e} > 1e-12")
    # large-t column norms approach 1/N (the constant eigenvector term)
    dec4 = spectral.decompose(spectral.laplacian(graphs.ring_graph(4)))
    limit_err = float(np.abs(heat.heat_kernel(dec4, 50.0).column_norms_sq - 0.25).max())
    if limit_err > 1e-8:
        failures.append(f"ring(4) t=50 column norms off 1/N by {limit_err:.2e} > 1e-8")
    report(6, "heat-kernel analytics", failures)


def test_c07_decay_rate_experiment():
    """Gap decay for random regular graphs (n=100; k=3,5,7; seed 42; t = 0:6:0.1).

    gamma_j(t) = sum_l exp(-2 lambda_l t) |phi_l(v_j)|^2, and the l = 1 term is
    the stationary value 1/N, so each per-vertex excess e_j(t) = gamma_j(t) - 1/N
    is a nonnegative combination of exp(-2 lambda_l t) with lambda_l >= lambda_2.
    The gap itself is not monotone: gap(0) = 0, and on a regular graph it grows
    like t^3 before it decays. So the decay is checked through B(t) - 1/N:

    (a') every e_j(t) is non-increasing on the grid, since each of its terms
         is; hence so is B(t) - 1/N = max_j e_j(t).
    (b') for t >= 0.1, gap(t) <= B(t) - 1/N <= (B(0.1) - 1/N) *
         exp(-2 lambda_2 (t - 0.1)) * (1 + 1e-6): the first step is
         A(t) >= 1/N, the second holds term by term because
         exp(-2 lambda_l t) <= exp(-2 lambda_2 (t - 0.1)) exp(-2 lambda_l 0.1).
    (b'') B(t) - 1/N >= max_j m_j exp(-2 lambda_2 t), with m the
         lambda_2-eigenspace mass, by dropping every other term of e_j. With
         (b') this fixes the decay rate from both sides.
    (c) the graph with the largest Fiedler value reaches gap < 1e-6 first and
        within the grid, each crossing counted after that graph's gap peak
        (counted from t = 0 it would be t = 0 for every graph).
    (d) runtime < 60 s.

    (a'), (b') and (b'') allow one absolute roundoff term, the eigenbasis
    residual max|Phi Phi^T - I| the decomposition carries: at t = 0 each
    computed gamma_j is a diagonal entry of Phi Phi^T, so it measures the
    roundoff of the computed gammas.
    """
    started = time.monotonic()
    failures = []
    grid = np.round(np.arange(0.0, 6.0001, 0.1), 12)
    anchor = int(np.nonzero(grid >= 0.1 - 1e-12)[0][0])
    after = grid[anchor:]
    fiedler, crossings = {}, {}
    for k in (3, 5, 7):
        g = graphs.random_regular_graph(100, k, seed=42)
        dec = spectral.decompose(spectral.laplacian(g))
        sweep = gabor.tightness_sweep(dec, grid)
        roundoff = dec.orthonormality_residual
        lam2 = fiedler[k] = sweep.fiedler_value

        excess = np.stack([r.gammas for r in sweep.reports]) - 1.0 / g.n
        rises = np.diff(excess, axis=0).max(axis=1)
        if (rises > roundoff).any():
            i = int(np.argmax(rises > roundoff))
            failures.append(
                f"k={k}: a per-vertex excess gamma_j - 1/N rises by {rises[i]:.3e} "
                f"from t={grid[i]:.1f} (allowance {roundoff:.1e})"
            )

        b_excess = excess.max(axis=1)
        if (sweep.gaps[anchor:] > b_excess[anchor:] + roundoff).any():
            i = int(np.argmax(sweep.gaps[anchor:] - b_excess[anchor:]))
            failures.append(
                f"k={k}: gap {sweep.gaps[anchor + i]:.3e} exceeds B - 1/N = "
                f"{b_excess[anchor + i]:.3e} at t={after[i]:.1f}"
            )
        envelope = b_excess[anchor] * np.exp(-2.0 * lam2 * (after - after[0])) * (1.0 + 1e-6)
        if (b_excess[anchor:] > envelope + roundoff).any():
            ratio = float((b_excess[anchor:] / envelope).max())
            failures.append(
                f"k={k}: B - 1/N exceeds the (B(0.1) - 1/N)-anchored Fiedler envelope "
                f"(worst ratio {ratio:.3g})"
            )
        floor = gabor.fiedler_eigenspace_mass(dec).max() * np.exp(-2.0 * lam2 * grid)
        if (b_excess < floor - roundoff).any():
            ratio = float((b_excess / floor).min())
            failures.append(
                f"k={k}: B - 1/N falls below the lambda_2-eigenspace floor "
                f"(worst ratio {ratio:.3g})"
            )

        peak = int(np.argmax(sweep.gaps))
        below = np.nonzero(sweep.gaps[peak + 1 :] < 1e-6)[0]
        crossings[k] = float(grid[peak + 1 + below[0]]) if below.size else math.inf

    largest_fiedler = max(fiedler, key=fiedler.get)
    if math.isinf(crossings[largest_fiedler]):
        failures.append(
            f"k={largest_fiedler} has the largest Fiedler value but its gap never "
            f"falls below 1e-6 after its peak (crossings {crossings})"
        )
    elif crossings[largest_fiedler] > min(crossings.values()):
        failures.append(
            f"k={largest_fiedler} has the largest Fiedler value but crossings are {crossings}"
        )

    elapsed = time.monotonic() - started
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    report(7, "decay-rate experiment", failures)


def test_c08_classical_suite():
    failures = []
    rng = np.random.default_rng(99)
    for n in (4, 8, 16):
        w = np.stack([classical.dft(e) for e in np.eye(n)], axis=1)
        unitary_err = float(np.abs(w @ w.conj().T - np.eye(n)).max())
        if unitary_err > 1e-12:
            failures.append(f"N={n}: DFT unitarity {unitary_err:.2e} > 1e-12")
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for l in range(n):
            comm = float(
                np.abs(
                    classical.dft(oracles.modulate(f, l))
                    - oracles.translate(classical.dft(f), l)
                ).max()
            )
            if comm > 1e-12:
                failures.append(f"N={n} l={l}: commutation {comm:.2e} > 1e-12")
                break
    # brute-force DSTFT oracle at N = 8
    n = 8
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v = classical.dstft(f, g)
    oracle_err = max(
        abs(v[k, l] - np.vdot(oracles.time_frequency_shift(g, k, l), f))
        for k in range(n)
        for l in range(n)
    )
    if oracle_err > 1e-12:
        failures.append(f"DSTFT vs atom oracle {oracle_err:.2e} > 1e-12")
    for n in (4, 8, 16):
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        back = oracles.dstft_reconstruct(classical.dstft(f, g), g)
        round_err = float(np.abs(back - f).max())
        if round_err > 1e-9:
            failures.append(f"N={n}: reconstruction {round_err:.2e} > 1e-9")
        unit = g / np.linalg.norm(g)
        atoms = classical.full_gabor_system(unit)
        frame_err = float(np.abs(atoms.T @ atoms.conj() - n * np.eye(n)).max())
        if frame_err > 1e-10:
            failures.append(f"N={n}: full-Gabor frame operator {frame_err:.2e} > 1e-10")
    report(8, "classical reference suite", failures)


def test_c09_shuman_crosscheck():
    failures = []
    rng = np.random.default_rng(7)
    for name, g in (("ring8", graphs.ring_graph(8)), ("k2", graphs.complete_graph(2))):
        dec = spectral.decompose(spectral.laplacian(g))
        for tau in (0.5, 1.0):
            f = rng.standard_normal(g.n)
            try:
                result = oracles.shuman_crosscheck(dec, f, tau=tau)
            except ValueError as exc:
                failures.append(f"{name} tau={tau}: {exc}")
                continue
            if result.deviation > 1e-9:
                failures.append(f"{name} tau={tau}: deviation {result.deviation:.2e} > 1e-9")
    report(9, "spectral-window cross-check", failures)


def test_c10_cli_determinism(tmp_path, capsys):
    from test_cli import run_documented

    failures = []
    out_a, files_a = run_documented(tmp_path / "first", capsys)
    out_b, files_b = run_documented(tmp_path / "second", capsys)
    if out_a != out_b:
        failures.append("stdout differs between identical runs")
    if sorted(files_a) != sorted(files_b):
        failures.append("output file sets differ between identical runs")
    else:
        for name in files_a:
            if files_a[name] != files_b[name]:
                failures.append(f"{name} differs between identical runs")
    report(10, "CLI determinism", failures)
