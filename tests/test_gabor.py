"""Windowed graph transform: atoms, frame operator, inversion, tightness.

Oracles: explicit single-atom construction with Python loops for the
transform entries, the n^2-atom Gram composition for the frame operator,
and scipy's expm-based column norms for the frame spectrum.
"""
import dataclasses
import gc
import math
import sys
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.linalg import expm

from gstft import gabor, graphs, heat, spectral

import oracles


# Graphs and times on which the borrowed-workspace products are compared bit
# for bit with the allocating ones.
PRODUCT_GRAPHS = pytest.mark.parametrize(
    "g",
    [
        graphs.complete_graph(2),
        graphs.ring_graph(8),
        graphs.hypercube_graph(4),
        graphs.petersen_graph(),
        graphs.shrikhande_graph(),
        graphs.random_regular_graph(24, 3, seed=7),
    ],
    ids=["k2", "ring8", "q4", "petersen", "shrikhande", "rr24"],
)
PRODUCT_TIMES = (0.0, 0.1, 1.0, 10.0)


def pipeline(g, t):
    dec = spectral.decompose(spectral.laplacian(g))
    return dec, heat.heat_kernel(dec, t)


def atom_oracle(dec, hk, i, j):
    """psi_ij(t) = D_i(t) phi_j built entry by entry."""
    return np.array(
        [hk.matrix[k, i] * dec.eigenvectors[k, j] for k in range(dec.n)],
        dtype=np.complex128,
    )


def gstft_entry_oracle(dec, hk, f, i, j):
    """Direct triple-sum evaluation of (V_t f)(v_i, lambda_j)."""
    total = 0.0 + 0.0j
    for k in range(dec.n):
        total += f[k] * hk.matrix[i, k] * np.conj(dec.eigenvectors[k, j])
    return total


class TestTransform:
    def test_t_zero_collapses(self):
        g = graphs.ring_graph(6)
        dec, hk = pipeline(g, 0.0)
        rng = np.random.default_rng(0)
        f = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        coeffs = gabor.gstft(dec, hk, f)
        expected = f[:, None] * dec.eigenvectors.conj()
        assert np.abs(coeffs.matrix - expected).max() <= 1e-12

    def test_delta_signal_single_term(self):
        g = graphs.petersen_graph()
        dec, hk = pipeline(g, 0.8)
        m = 4
        delta = np.zeros(10)
        delta[m] = 1.0
        coeffs = gabor.gstft(dec, hk, delta)
        expected = hk.matrix[:, [m]] * dec.eigenvectors[m].conj()
        assert np.abs(coeffs.matrix - expected).max() <= 1e-12

    def test_matches_atom_inner_products(self):
        g = graphs.ring_graph(8)
        dec, hk = pipeline(g, 1.0)
        rng = np.random.default_rng(5)
        f = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        coeffs = gabor.gstft(dec, hk, f)
        for i in range(8):
            for j in range(8):
                inner = np.vdot(atom_oracle(dec, hk, i, j), f)
                assert abs(coeffs.matrix[i, j] - inner) <= 1e-12
                assert abs(coeffs.matrix[i, j] - gstft_entry_oracle(dec, hk, f, i, j)) <= 1e-12

    @PRODUCT_GRAPHS
    def test_workspace_product_matches_the_allocating_one(self, g):
        """Forming diag(f) Phi in the workspace gives the bits of the allocating product."""
        dec = spectral.decompose(spectral.laplacian(g))
        rng = np.random.default_rng(11)
        for t in PRODUCT_TIMES:
            hk = heat.heat_kernel(dec, t)
            f = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
            expected = (hk.matrix @ (f[:, None] * dec.eigenvectors).view(np.float64)).view(np.complex128)
            assert np.array_equal(gabor.gstft(dec, hk, f).matrix, expected)

    def test_dimension_mismatch(self):
        dec, hk = pipeline(graphs.ring_graph(6), 1.0)
        with pytest.raises(ValueError):
            gabor.gstft(dec, hk, np.ones(5))
        dec5, _ = pipeline(graphs.ring_graph(5), 1.0)
        with pytest.raises(ValueError, match="n="):
            gabor.gstft(dec5, hk, np.ones(5))


class TestAtoms:
    def test_count_and_order(self):
        dec, hk = pipeline(graphs.ring_graph(4), 0.5)
        rows = oracles.atom_matrix(dec, hk)
        assert rows.shape == (16, 4)
        # row i * n + j is psi_ij, e.g. row 6 is (i, j) = (1, 2)
        for i in range(4):
            for j in range(4):
                assert np.abs(rows[i * 4 + j] - atom_oracle(dec, hk, i, j)).max() == 0.0

    def test_t_zero_atoms_are_masked_eigenvector_entries(self):
        dec, hk = pipeline(graphs.ring_graph(5), 0.0)
        rows = oracles.atom_matrix(dec, hk)
        for i in range(5):
            for j in range(5):
                expected = np.zeros(5, dtype=complex)
                expected[i] = dec.eigenvectors[i, j]
                assert np.abs(rows[i * 5 + j] - expected).max() <= 1e-15

    def test_fixed_vertex_outer_products_sum_to_window_square(self):
        # sum_j psi_ij psi_ij^* = D_i(t)^2 because the eigenvector outer
        # products resolve the identity
        dec, hk = pipeline(graphs.ring_graph(5), 0.9)
        for i in range(5):
            total = np.zeros((5, 5), dtype=complex)
            for j in range(5):
                psi = atom_oracle(dec, hk, i, j)
                total += np.outer(psi, psi.conj())
            expected = np.diag(hk.matrix[:, i] ** 2)
            assert np.abs(total - expected).max() <= 1e-12


class TestFrameOperator:
    def test_identity_at_t_zero(self):
        dec, hk = pipeline(graphs.petersen_graph(), 0.0)
        assert np.array_equal(gabor.frame_operator(dec, hk), np.eye(10))

    def test_k2_closed_form(self):
        dec, hk = pipeline(graphs.complete_graph(2), 1.0)
        expected = (1.0 + math.exp(-4.0)) / 2.0
        assert np.abs(gabor.frame_operator(dec, hk) - expected * np.eye(2)).max() <= 1e-12

    def test_ring_is_multiple_of_identity(self):
        dec, hk = pipeline(graphs.ring_graph(6), 1.3)
        s = gabor.frame_operator(dec, hk)
        assert np.abs(np.diag(s) - s[0, 0]).max() <= 1e-12

    @pytest.mark.parametrize("t", [0.0, 0.1, 1.0, 10.0])
    def test_gram_oracle_agreement(self, t):
        for g in (graphs.complete_graph(2), graphs.ring_graph(8), graphs.petersen_graph()):
            dec, hk = pipeline(g, t)
            gram = oracles.frame_operator_gram(dec, hk)
            closed = gabor.frame_operator(dec, hk)
            off = gram - np.diag(np.diag(gram))
            assert np.abs(off).max() <= 1e-10
            assert np.abs(np.diag(gram) - np.diag(closed)).max() <= 1e-10

    def test_gram_oracle_size_guard(self):
        dec, hk = pipeline(graphs.ring_graph(65), 0.5)
        with pytest.raises(ValueError, match="n <= 64"):
            oracles.frame_operator_gram(dec, hk)


class TestFrameReport:
    def test_t_zero_is_trivially_tight(self):
        dec, hk = pipeline(graphs.petersen_graph(), 0.0)
        report = gabor.frame_report(dec, hk)
        assert np.abs(report.gammas - 1.0).max() <= 1e-12
        assert abs(report.bound_a - 1.0) <= 1e-12
        assert abs(report.bound_b - 1.0) <= 1e-12
        assert report.tight

    def test_path_graph_is_not_tight(self):
        g = graphs.build_from_edge_list(3, [(0, 1), (1, 2)])
        lap = spectral.laplacian(g)
        dec, hk = pipeline(g, 1.0)
        report = gabor.frame_report(dec, hk)
        # oracle: column norms of expm(-L)
        oracle = (expm(-lap) ** 2).sum(axis=0)
        assert np.abs(report.gammas - oracle).max() <= 1e-10
        assert abs(report.gammas[0] - report.gammas[2]) <= 1e-12  # endpoint symmetry
        assert abs(report.gammas[1] - report.gammas[0]) > 1e-3
        assert not report.tight
        assert report.gap > 1e-3
        assert report.ratio > 1.0

    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    def test_shrikhande_is_tight(self, t):
        dec, hk = pipeline(graphs.shrikhande_graph(), t)
        report = gabor.frame_report(dec, hk)
        assert report.gap <= 1e-9
        assert report.tight

    def test_gammas_positive_and_bounds_ordered(self):
        for t in (0.0, 0.5, 20.0):
            dec, hk = pipeline(graphs.petersen_graph(), t)
            report = gabor.frame_report(dec, hk)
            assert report.gammas.min() > 0
            assert 0 < report.bound_a <= report.bound_b


class TestInverse:
    @pytest.mark.parametrize("t", [0.0, 0.5, 2.0])
    def test_round_trip_random_signals(self, t):
        dec, hk = pipeline(graphs.ring_graph(8), t)
        rng = np.random.default_rng(17)
        for _ in range(25):
            f = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            back = gabor.inverse_gstft(dec, hk, gabor.gstft(dec, hk, f))
            assert np.abs(back - f).max() <= 1e-9

    def test_delta_recovery(self):
        dec, hk = pipeline(graphs.petersen_graph(), 1.0)
        for m in (0, 7):
            delta = np.zeros(10)
            delta[m] = 1.0
            back = gabor.inverse_gstft(dec, hk, gabor.gstft(dec, hk, delta))
            assert np.abs(back - delta).max() <= 1e-9

    @pytest.mark.parametrize("kind", ["real", "imaginary", "complex"])
    def test_real_products_match_complex_reference(self, kind):
        """The interleaved real GEMMs agree with the complex product of H_t."""
        dec, hk = pipeline(graphs.random_regular_graph(60, 3, seed=2), 0.7)
        rng = np.random.default_rng(8)
        re, im = rng.standard_normal((2, dec.n))
        f = {"real": re, "imaginary": 1j * im, "complex": re + 1j * im}[kind]
        tol = 1e-13 * np.abs(f).max()
        h = hk.matrix.astype(np.complex128)
        coeffs = gabor.gstft(dec, hk, f)
        expected = h @ (f[:, None] * dec.eigenvectors)
        assert np.abs(coeffs.matrix - expected).max() <= tol
        inverse = (dec.eigenvectors * (h @ coeffs.matrix)).sum(axis=1) / hk.column_norms_sq
        assert np.abs(gabor.inverse_gstft(dec, hk, coeffs) - inverse).max() <= tol

    @PRODUCT_GRAPHS
    def test_in_place_product_matches_the_allocating_one(self, g):
        """Multiplying H_t F by Phi in place gives the bits of the allocating product."""
        dec = spectral.decompose(spectral.laplacian(g))
        rng = np.random.default_rng(11)
        for t in PRODUCT_TIMES:
            hk = heat.heat_kernel(dec, t)
            coeffs = gabor.gstft(dec, hk, rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n))
            inner = (hk.matrix @ coeffs.matrix.view(np.float64)).view(np.complex128)
            expected = (dec.eigenvectors * inner).sum(axis=1) / hk.column_norms_sq
            assert np.array_equal(gabor.inverse_gstft(dec, hk, coeffs), expected)

    def test_coefficient_layout_and_dtype_do_not_matter(self):
        """Fortran-ordered and real-dtype coefficients invert like C-ordered complex ones."""
        dec, hk = pipeline(graphs.petersen_graph(), 1.3)
        rng = np.random.default_rng(4)
        re, im = rng.standard_normal((2, 10, 10))
        for variant in (np.asfortranarray(re + 1j * im), re, np.asfortranarray(re)):
            reference = np.ascontiguousarray(variant, dtype=np.complex128)
            expected = gabor.inverse_gstft(dec, hk, gabor.GstftCoefficients(hk.t, reference))
            back = gabor.inverse_gstft(dec, hk, gabor.GstftCoefficients(hk.t, variant))
            assert np.array_equal(back, expected)

    def test_t_mismatch_rejected(self):
        dec, hk = pipeline(graphs.ring_graph(6), 1.0)
        coeffs = gabor.gstft(dec, hk, np.ones(6))
        other = heat.heat_kernel(dec, 2.0)
        with pytest.raises(ValueError, match="time"):
            gabor.inverse_gstft(dec, other, coeffs)

    def test_dimension_mismatch_rejected(self):
        dec, hk = pipeline(graphs.ring_graph(6), 1.0)
        coeffs = gabor.gstft(dec, hk, np.ones(6))
        dec5, hk5 = pipeline(graphs.ring_graph(5), 1.0)
        with pytest.raises(ValueError):
            gabor.inverse_gstft(dec5, hk5, coeffs)

    @pytest.mark.parametrize("shape", [(200, 3), (3, 200), (10,), (10, 10, 1), ()])
    def test_non_square_coefficients_rejected(self, shape):
        with pytest.raises(ValueError, match=r"coefficient matrix must be square, got shape"):
            gabor.GstftCoefficients(1.0, np.ones(shape))


class TestWorkspace:
    """The (n, n) workspace each decomposition lends to gstft and inverse_gstft."""

    def test_no_full_size_temporary_after_the_first_request(self):
        # one 16 n^2 allocation per call: the returned coefficients, or none
        # beyond numpy's casting buffer for the inverse; the allocating
        # products peaked at 2.00 and 2.23
        dec, hk = pipeline(graphs.random_regular_graph(192, 3, seed=1), 1.0)
        rng = np.random.default_rng(3)
        f = rng.standard_normal(dec.n) + 1j * rng.standard_normal(dec.n)
        gabor.inverse_gstft(dec, hk, gabor.gstft(dec, hk, f))
        unit = 16 * dec.n**2
        tracemalloc.start()
        try:
            coeffs = gabor.gstft(dec, hk, f)
            _, transform_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            gabor.inverse_gstft(dec, hk, coeffs)
            _, inverse_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert transform_peak < 1.5 * unit
        assert inverse_peak < 1.5 * unit

    def test_results_never_share_the_workspace(self):
        dec, hk = pipeline(graphs.petersen_graph(), 0.5)
        rng = np.random.default_rng(9)
        f, g = rng.standard_normal((2, 10)) + 1j * rng.standard_normal((2, 10))
        coeffs = gabor.gstft(dec, hk, f)
        back = gabor.inverse_gstft(dec, hk, coeffs)
        kept_coeffs, kept_back = coeffs.matrix.copy(), back.copy()
        for _ in range(2):
            gabor.inverse_gstft(dec, hk, gabor.gstft(dec, hk, g))
        assert np.array_equal(coeffs.matrix, kept_coeffs)
        assert np.array_equal(back, kept_back)
        workspace = gabor._workspaces[dec]
        assert not np.shares_memory(coeffs.matrix, workspace)
        assert not np.shares_memory(back, workspace)

    def test_threads_sharing_a_decomposition(self):
        dec = spectral.decompose(spectral.laplacian(graphs.random_regular_graph(64, 3, seed=2)))
        kernels = [heat.heat_kernel(dec, t) for t in (0.25, 1.0)]
        rng = np.random.default_rng(5)
        signals = rng.standard_normal((8, dec.n)) + 1j * rng.standard_normal((8, dec.n))

        def requests(worker):
            results = []
            for i in range(40):
                k, m = (worker + i) % len(kernels), (worker + i) % len(signals)
                coeffs = gabor.gstft(dec, kernels[k], signals[m])
                results.append(((k, m), coeffs.matrix, gabor.inverse_gstft(dec, kernels[k], coeffs)))
            return results

        expected = {key: (coeffs, back) for key, coeffs, back in requests(0)}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(requests, w) for w in range(4)]
                results = [r for future in futures for r in future.result(timeout=60)]
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 4 * 40
        for key, coeffs, back in results:
            want_coeffs, want_back = expected[key]
            assert np.array_equal(coeffs, want_coeffs)
            assert np.array_equal(back, want_back)

    def test_workspace_freed_with_decomposition(self):
        dec, hk = pipeline(graphs.petersen_graph(), 1.0)
        gabor.gstft(dec, hk, np.ones(10))
        workspace = weakref.ref(gabor._workspaces[dec])
        decomposition = weakref.ref(dec)
        del dec
        gc.collect()
        assert decomposition() is None
        assert workspace() is None


class TestFrameInequality:
    def test_basis_vectors_hit_gammas(self):
        g = graphs.build_from_edge_list(3, [(0, 1), (1, 2)])
        dec, hk = pipeline(g, 1.0)
        report = gabor.frame_report(dec, hk)
        for j in range(3):
            e = np.zeros(3)
            e[j] = 1.0
            energy = np.linalg.norm(gabor.gstft(dec, hk, e).matrix) ** 2
            assert abs(energy - report.gammas[j]) <= 1e-12

    def test_random_signals_stay_in_bounds(self):
        g = graphs.build_from_edge_list(3, [(0, 1), (1, 2)])
        dec, hk = pipeline(g, 1.0)
        report = gabor.frame_report(dec, hk)
        lo, hi = oracles.frame_inequality_check(dec, hk, trials=50, seed=9)
        assert lo >= report.bound_a - 1e-9
        assert hi <= report.bound_b + 1e-9

    def test_tight_graph_pins_both_ends(self):
        dec, hk = pipeline(graphs.ring_graph(7), 1.0)
        report = gabor.frame_report(dec, hk)
        lo, hi = oracles.frame_inequality_check(dec, hk, trials=20, seed=2)
        assert abs(lo - report.bound_a) <= 1e-9
        assert abs(hi - report.bound_a) <= 1e-9

    def test_requires_positive_trials(self):
        dec, hk = pipeline(graphs.ring_graph(4), 0.5)
        with pytest.raises(ValueError):
            oracles.frame_inequality_check(dec, hk, trials=0, seed=0)


class TestTightnessSweep:
    def test_vertex_transitive_families_stay_tight(self):
        grid = np.array([0.0, 0.1, 1.0, 10.0, 100.0])
        for g in (
            graphs.ring_graph(12),
            graphs.complete_graph(6),
            graphs.hypercube_graph(4),
            graphs.petersen_graph(),
            graphs.shrikhande_graph(),
        ):
            dec = spectral.decompose(spectral.laplacian(g))
            sweep = gabor.tightness_sweep(dec, grid)
            assert sweep.gaps.max() <= 1e-9
            assert all(r.tight for r in sweep.reports)

    def test_reports_match_pointwise_computation(self):
        dec = spectral.decompose(spectral.laplacian(graphs.petersen_graph()))
        sweep = gabor.tightness_sweep(dec, [0.0, 0.5, 2.0])
        for report in sweep.reports:
            single = gabor.frame_report(dec, heat.heat_kernel(dec, report.t))
            assert report.gap == single.gap
            assert np.array_equal(report.gammas, single.gammas)

    def test_grid_validation(self):
        dec = spectral.decompose(spectral.laplacian(graphs.ring_graph(4)))
        with pytest.raises(ValueError):
            gabor.tightness_sweep(dec, [])
        with pytest.raises(ValueError):
            gabor.tightness_sweep(dec, [0.5, 0.4])
        with pytest.raises(ValueError):
            gabor.tightness_sweep(dec, [-1.0, 0.5])

    @pytest.mark.parametrize(
        "grid, message",
        [
            ([0.0, 1.0, math.nan], "t must not be NaN"),
            ([math.nan, 1.0], "t must not be NaN"),
            ([0.0, math.inf], "t must be finite, got inf"),
            ([0.5, math.inf, math.nan], "t must be finite, got inf"),
            ([-1.0, 0.5], "t must be nonnegative, got -1.0"),
        ],
    )
    def test_non_finite_times_refused_before_any_kernel(self, monkeypatch, grid, message):
        dec = spectral.decompose(spectral.laplacian(graphs.ring_graph(4)))
        built = []
        monkeypatch.setattr(gabor, "heat_kernel", lambda d, t: built.append(t) or heat.heat_kernel(d, t))
        with pytest.raises(ValueError, match=f"^{message}$"):
            gabor.tightness_sweep(dec, grid)
        assert built == []

    def test_times_and_gaps_derive_from_reports(self):
        dec = spectral.decompose(spectral.laplacian(graphs.build_from_edge_list(3, [(0, 1), (1, 2)])))
        sweep = gabor.tightness_sweep(dec, [0.0, 0.5, 2.0])
        assert [f.name for f in dataclasses.fields(sweep) if f.init] == ["fiedler_value", "reports"]
        assert sweep.ts.tolist() == [0.0, 0.5, 2.0]
        assert sweep.gaps.tolist() == [r.gap for r in sweep.reports]
        assert not (sweep.ts.flags.writeable or sweep.gaps.flags.writeable)
        # replacing the reports replaces what is derived from them
        zeroed = tuple(dataclasses.replace(r, gap=0.0) for r in sweep.reports[1:])
        replaced = dataclasses.replace(sweep, reports=zeroed)
        assert replaced.ts.tolist() == [0.5, 2.0]
        assert replaced.gaps.tolist() == [0.0, 0.0]
        assert sweep.gaps[1] > 1e-3

    def test_max_gamma_envelope_decays_at_fiedler_rate(self):
        # gamma_j(t) - 1/N is a positive combination of exp(-2 lambda t) with
        # lambda >= lambda_2, so B(t) - 1/N obeys the anchored envelope. (The
        # raw gap B - A does NOT: it starts at zero and peaks later.)
        g = graphs.random_regular_graph(100, 3, seed=1)
        dec = spectral.decompose(spectral.laplacian(g))
        grid = np.arange(0.1, 6.05, 0.1)
        excess = np.stack(
            [gabor.frame_report(dec, heat.heat_kernel(dec, t)).gammas - 1.0 / g.n for t in grid]
        )
        anchor = excess[0]
        rate = np.exp(-2.0 * dec.fiedler_value * (grid - grid[0]))
        bound = anchor[None, :] * rate[:, None] * (1.0 + 1e-6)
        assert (excess <= bound + 1e-15).all()
        # per-vertex excess is monotone decreasing as well
        assert (np.diff(excess, axis=0) <= 1e-12).all()

    def test_larger_fiedler_crosses_first(self):
        grid = np.arange(0.1, 8.05, 0.25)
        crossings = {}
        for k in (3, 5):
            g = graphs.random_regular_graph(60, k, seed=4)
            dec = spectral.decompose(spectral.laplacian(g))
            sweep = gabor.tightness_sweep(dec, grid)
            below = np.nonzero(sweep.gaps < 1e-6)[0]
            crossings[k] = (sweep.fiedler_value, grid[below[0]] if below.size else np.inf)
        assert crossings[5][0] > crossings[3][0]
        assert crossings[5][1] < crossings[3][1]


class TestPermutationCommutation:
    @pytest.mark.parametrize("t", [0.0, 0.1, 1.0, 10.0])
    def test_ring_cyclic_shift_commutes(self, t):
        n = 8
        dec, hk = pipeline(graphs.ring_graph(n), t)
        shift = (np.arange(n) + 1) % n
        assert gabor.permutation_commutator(hk, shift) <= 1e-12
        # columns are shifts of one another: column j = P (column j-1)
        for j in range(1, n):
            assert np.abs(hk.matrix[:, j] - np.roll(hk.matrix[:, j - 1], 1)).max() <= 1e-12

    def test_non_automorphism_does_not_commute(self):
        g = graphs.build_from_edge_list(3, [(0, 1), (1, 2)])
        dec, hk = pipeline(g, 1.0)
        assert gabor.permutation_commutator(hk, [1, 0, 2]) > 1e-3

    @pytest.mark.parametrize("t", [0.0, 0.3, 2.0])
    def test_equals_permutation_matrix_products(self, t):
        # the explicit P H_t - H_t P; multiplying by a 0/1 matrix is exact, so equality holds
        dec, hk = pipeline(graphs.random_regular_graph(60, 3, seed=0), t)
        rng = np.random.default_rng(11)
        for _ in range(5):
            perm = rng.permutation(hk.n)
            p = np.zeros((hk.n, hk.n))
            p[perm, np.arange(hk.n)] = 1.0
            expected = float(np.abs(p @ hk.matrix - hk.matrix @ p).max())
            assert gabor.permutation_commutator(hk, perm) == expected

    def test_invalid_permutation_rejected(self):
        dec, hk = pipeline(graphs.ring_graph(4), 1.0)
        with pytest.raises(ValueError):
            gabor.permutation_commutator(hk, [0, 0, 1, 2])


def test_basis_independence_across_eigenspace_rotations():
    dec = spectral.decompose(spectral.laplacian(graphs.petersen_graph()))
    # Rotate each eigenvalue cluster's block of eigenvectors by a random
    # orthogonal Q; clusters are split as in eigenspace_projectors.
    w = dec.eigenvalues
    edges = [0, *(np.nonzero(np.diff(w) > 1e-8)[0] + 1), dec.n]
    rng = np.random.default_rng(5)
    rotated = dec.eigenvectors.copy()
    for start, stop in zip(edges[:-1], edges[1:]):
        q, _ = np.linalg.qr(rng.standard_normal((stop - start, stop - start)))
        rotated[:, start:stop] = rotated[:, start:stop] @ q
    other = spectral.SpectralDecomposition(eigenvalues=w.copy(), eigenvectors=rotated)
    assert np.abs(rotated - dec.eigenvectors).max() > 1e-3
    for t in (0.3, 1.0, 5.0):
        a = gabor.frame_report(dec, heat.heat_kernel(dec, t)).gammas
        b = gabor.frame_report(other, heat.heat_kernel(other, t)).gammas
        assert np.abs(a - b).max() <= 1e-9
        assert np.abs(
            heat.heat_kernel(dec, t).matrix - heat.heat_kernel(other, t).matrix
        ).max() <= 1e-9


class TestStronglyRegularCertificates:
    @pytest.mark.parametrize(
        "build", [graphs.shrikhande_graph, graphs.petersen_graph, lambda: graphs.ring_graph(5)]
    )
    def test_eigenspace_mass_matches_closed_form(self, build):
        g = build()
        params = graphs.detect_srg_parameters(g)
        dec = spectral.decompose(spectral.laplacian(g))
        mass = gabor.fiedler_eigenspace_mass(dec)
        assert np.ptp(mass) <= 1e-9  # vertex-independent
        assert np.abs(mass - gabor.srg_eigenspace_mass(params)).max() <= 1e-8

    def test_shrikhande_value(self):
        # ((15/16) * 64 - 42) / (64 - 16) = 3/8
        params = graphs.SrgParameters(16, 6, 2, 2)
        assert abs(gabor.srg_eigenspace_mass(params) - 0.375) <= 1e-12

    def test_petersen_value(self):
        params = graphs.SrgParameters(10, 3, 0, 1)
        assert abs(gabor.srg_eigenspace_mass(params) - 0.5) <= 1e-12

    def test_laplacian_basis_column_norm_is_exact(self):
        # ||L e_i||^2 = d^2 + d for regular graphs, in integer arithmetic
        for g in (graphs.petersen_graph(), graphs.shrikhande_graph(), graphs.ring_graph(9)):
            lap_int = np.diag(g.degrees) - g.adjacency
            norms = (lap_int**2).sum(axis=0)
            d = int(g.degrees[0])
            assert norms.tolist() == [d * d + d] * g.n


class TestFiedlerEigenspaceMass:
    @pytest.mark.parametrize(
        "build",
        [
            graphs.petersen_graph,
            lambda: graphs.hypercube_graph(4),
            lambda: graphs.random_regular_graph(100, 3, seed=1),
        ],
        ids=["petersen", "q4", "rr100"],
    )
    def test_matches_projector_diagonal(self, build):
        dec = spectral.decompose(spectral.laplacian(build()))
        expected = np.diag(oracles.eigenspace_projectors(dec)[1][1])
        assert np.abs(gabor.fiedler_eigenspace_mass(dec) - expected).max() <= 1e-14

    def test_memory_linear_in_n(self):
        # every eigenspace's n x n projector would peak near 488 MiB here
        dec = spectral.decompose(spectral.laplacian(graphs.random_regular_graph(400, 3, seed=1)))
        tracemalloc.start()
        try:
            gabor.fiedler_eigenspace_mass(dec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_single_eigenspace_rejected(self):
        dec = spectral.decompose(np.eye(3))
        with pytest.raises(ValueError, match="no second eigenspace"):
            gabor.fiedler_eigenspace_mass(dec)


class TestShumanCrosscheck:
    def test_ring_proportional(self):
        dec = spectral.decompose(spectral.laplacian(graphs.ring_graph(8)))
        rng = np.random.default_rng(3)
        f = rng.standard_normal(8)
        result = oracles.shuman_crosscheck(dec, f, tau=1.0)
        assert result.deviation <= 1e-9
        assert abs(result.kappa - result.expected_kappa) <= 1e-9 * result.expected_kappa

    def test_k2_proportional(self):
        dec = spectral.decompose(spectral.laplacian(graphs.complete_graph(2)))
        result = oracles.shuman_crosscheck(dec, np.array([0.3, -1.1]), tau=0.5)
        assert result.deviation <= 1e-9

    def test_zero_signal(self):
        dec = spectral.decompose(spectral.laplacian(graphs.ring_graph(5)))
        result = oracles.shuman_crosscheck(dec, np.zeros(5), tau=1.0)
        assert result.deviation == 0.0
        assert result.kappa == result.expected_kappa

    def test_nonpositive_tau_rejected(self):
        dec = spectral.decompose(spectral.laplacian(graphs.ring_graph(5)))
        with pytest.raises(ValueError):
            oracles.shuman_crosscheck(dec, np.ones(5), tau=0.0)

    def test_complex_signal_rejected(self):
        dec = spectral.decompose(spectral.laplacian(graphs.ring_graph(5)))
        with pytest.raises(ValueError, match="real"):
            oracles.shuman_crosscheck(dec, np.full(5, 1j), tau=1.0)
