"""Laplacian eigenanalysis and the graph Fourier transform.

numpy.linalg.eigvalsh serves as the eigenvalue oracle and closed-form spectra
(rings, Shrikhande) as independent checks; eigenvector comparisons go through
basis-invariant quantities (projectors, residuals) because degenerate
eigenspaces have no canonical basis.
"""
import copy

import numpy as np
import pytest

from gstft import gabor, graphs, heat, spectral

import oracles

ZOO = {
    "k2": lambda: graphs.complete_graph(2),
    "p3": lambda: graphs.build_from_edge_list(3, [(0, 1), (1, 2)]),
    "ring8": lambda: graphs.ring_graph(8),
    "petersen": graphs.petersen_graph,
    "shrikhande": graphs.shrikhande_graph,
    "rr24": lambda: graphs.random_regular_graph(24, 3, seed=7),
}


@pytest.fixture(params=sorted(ZOO), name="graph")
def graph_fixture(request):
    return ZOO[request.param]()


def test_laplacian_is_degree_minus_adjacency_in_float64(graph):
    lap = spectral.laplacian(graph)
    assert lap.dtype == np.float64
    expected = (np.diag(graph.degrees) - graph.adjacency.astype(np.int64)).astype(np.float64)
    assert lap.tobytes() == expected.tobytes()


def test_laplacian_k2():
    g = graphs.complete_graph(2)
    assert spectral.laplacian(g).tolist() == [[1, -1], [-1, 1]]


def test_laplacian_ring3():
    lap = spectral.laplacian(graphs.ring_graph(3))
    assert np.array_equal(np.diag(lap), [2, 2, 2])
    assert lap[0, 1] == lap[1, 2] == lap[0, 2] == -1


def test_laplacian_rows_sum_to_zero():
    lap = spectral.laplacian(graphs.shrikhande_graph())
    assert np.abs(lap.sum(axis=1)).max() == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
def test_as_signal_refuses_non_finite(bad):
    with pytest.raises(ValueError, match="NaN or infinite"):
        spectral.as_signal([1.0, bad, 2.0], 3)


def test_as_signal_refuses_a_matrix():
    with pytest.raises(ValueError, match=r"one-dimensional, got shape \(2, 2\)"):
        spectral.as_signal(np.ones((2, 2)), 2)


class TestDecompose:
    def test_eigenvalues_match_lapack_oracle(self, graph):
        lap = spectral.laplacian(graph)
        dec = spectral.decompose(lap)
        oracle = np.linalg.eigvalsh(lap)
        assert np.abs(dec.eigenvalues - oracle).max() < 1e-9

    def test_orthonormality_and_residual(self, graph):
        lap = spectral.laplacian(graph)
        dec = spectral.decompose(lap)
        phi = dec.eigenvectors
        assert np.abs(phi.T @ phi - np.eye(graph.n)).max() <= 1e-10
        assert dec.orthonormality_residual == np.abs(phi @ phi.T - np.eye(graph.n)).max()
        assert np.abs(lap @ phi - phi * dec.eigenvalues).max() <= 1e-9

    def test_connected_graph_spectrum_structure(self, graph):
        dec = spectral.decompose(spectral.laplacian(graph))
        assert abs(dec.eigenvalues[0]) <= 1e-10
        assert dec.fiedler_value > 0
        constant = np.full(graph.n, 1.0 / np.sqrt(graph.n))
        assert np.abs(dec.eigenvectors[:, 0] - constant).max() <= 1e-9

    def test_k2_eigenvalues(self):
        dec = spectral.decompose(spectral.laplacian(graphs.complete_graph(2)))
        assert np.abs(dec.eigenvalues - [0.0, 2.0]).max() <= 1e-12

    def test_ring4_eigenvalues(self):
        # 2 - 2 cos(2 pi k / 4) for k = 0..3, sorted
        dec = spectral.decompose(spectral.laplacian(graphs.ring_graph(4)))
        assert np.abs(dec.eigenvalues - [0.0, 2.0, 2.0, 4.0]).max() <= 1e-10

    def test_ring16_circulant_closed_form(self):
        dec = spectral.decompose(spectral.laplacian(graphs.ring_graph(16)))
        expected = np.sort(2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(16) / 16))
        assert np.abs(dec.eigenvalues - expected).max() <= 1e-10

    def test_shrikhande_spectrum_multiset(self):
        dec = spectral.decompose(spectral.laplacian(graphs.shrikhande_graph()))
        expected = np.array([0.0] + [4.0] * 6 + [8.0] * 9)
        assert np.abs(dec.eigenvalues - expected).max() <= 1e-10
        assert abs(dec.eigenvalues.sum() - 16 * 6) <= 1e-8  # trace = n * k

    def test_trace_identity(self, graph):
        dec = spectral.decompose(spectral.laplacian(graph))
        assert abs(dec.eigenvalues.sum() - graph.degrees.sum()) <= 1e-8

    def test_deterministic_output(self):
        lap = spectral.laplacian(graphs.petersen_graph())
        a = spectral.decompose(lap)
        b = spectral.decompose(lap)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    def test_sign_convention(self, graph):
        dec = spectral.decompose(spectral.laplacian(graph))
        for j in range(graph.n):
            column = dec.eigenvectors[:, j]
            nonzero = np.nonzero(np.abs(column) > 1e-12)[0]
            assert column[nonzero[0]] > 0

    @pytest.mark.parametrize(
        "kind",
        ["Graph", "SpectralDecomposition", "HeatKernel", "GstftCoefficients", "FrameReport", "TightnessSweep"],
    )
    def test_equality_and_hash_by_identity(self, kind):
        g = graphs.petersen_graph()
        dec = spectral.decompose(spectral.laplacian(g))
        hk = heat.heat_kernel(dec, 1.0)
        build = {
            "Graph": lambda: g,
            "SpectralDecomposition": lambda: dec,
            "HeatKernel": lambda: hk,
            "GstftCoefficients": lambda: gabor.gstft(dec, hk, np.arange(g.n) + 0j),
            "FrameReport": lambda: gabor.frame_report(dec, hk),
            "TightnessSweep": lambda: gabor.tightness_sweep(dec, [0.0, 1.0]),
        }
        value = build[kind]()
        twin = copy.deepcopy(value)  # equal field by field, in fresh arrays
        assert value == value
        assert value != twin
        assert len({value: 0, twin: 1}) == 2

    def test_empty_matrix(self):
        dec = spectral.decompose(np.zeros((0, 0)))
        assert dec.eigenvalues.shape == (0,)
        assert dec.eigenvectors.shape == (0, 0)

    def test_single_vertex_has_no_fiedler_value(self):
        with pytest.raises(ValueError, match="single-vertex"):
            spectral.decompose(np.zeros((1, 1))).fiedler_value

    @pytest.mark.parametrize(
        "rearrange, message",
        [
            # reversed Petersen eigenpairs would report lambda_2 = 5 instead of 2
            (lambda w, v: (w[::-1], v[:, ::-1]), "eigenvalues must be in non-decreasing order"),
            (lambda w, v: (w[None, :], v), r"got \(1, 10\) and \(10, 10\)"),
            (lambda w, v: (w, v[:5]), r"got \(10,\) and \(5, 10\)"),
        ],
        ids=["reversed", "2-d-eigenvalues", "non-square-eigenvectors"],
    )
    def test_shape_and_order_enforced(self, rearrange, message):
        dec = spectral.decompose(spectral.laplacian(graphs.petersen_graph()))
        w, v = rearrange(dec.eigenvalues, dec.eigenvectors)
        with pytest.raises(ValueError, match=message):
            spectral.SpectralDecomposition(w.copy(), v.copy())

    @pytest.mark.parametrize(
        "matrix, message",
        [
            ([[0.0, 1.0], [0.5, 0.0]], "not symmetric"),
            ([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0]], "square"),
            ([[1.0, np.nan], [np.nan, 1.0]], "NaN or infinite"),
            ([[np.inf, 0.0], [0.0, 1.0]], "NaN or infinite"),
        ],
        ids=["asymmetric", "non-square", "nan", "inf"],
    )
    def test_invalid_input_rejected(self, matrix, message):
        with pytest.raises(ValueError, match=message):
            spectral.decompose(np.array(matrix))

    def test_inconsistent_decomposition_refused_at_construction(self):
        # Columns 1.. scaled by 1.001 are no longer orthonormal, yet its heat
        # kernel would pass its own checks (the constant column keeps the rows
        # stochastic) and the transform round trip would be off by 1.7e-4.
        dec = spectral.decompose(spectral.laplacian(graphs.petersen_graph()))
        vectors = dec.eigenvectors.copy()
        vectors[:, 1:] *= 1.001
        with pytest.raises(ValueError, match=r"max\|Phi Phi\^T - I\| = 1\.801e-03 exceeds 1\.421e-13$"):
            spectral.SpectralDecomposition(dec.eigenvalues, vectors)

    def test_quadratic_form_is_edge_energy(self, graph):
        lap = spectral.laplacian(graph)
        dec = spectral.decompose(lap)
        for j in range(graph.n):
            phi = dec.eigenvectors[:, j]
            energy = sum((phi[u] - phi[v]) ** 2 for u, v in graph.edges)
            assert abs(phi @ lap @ phi - energy) <= 1e-9


class TestFourierTransform:
    def test_eigenvector_maps_to_basis_vector(self):
        dec = spectral.decompose(spectral.laplacian(graphs.petersen_graph()))
        f_hat = oracles.gft(dec, dec.eigenvectors[:, 3])
        expected = np.zeros(10)
        expected[3] = 1.0
        assert np.abs(f_hat - expected).max() <= 1e-10

    def test_constant_signal(self, graph):
        dec = spectral.decompose(spectral.laplacian(graph))
        f_hat = oracles.gft(dec, np.ones(graph.n))
        assert abs(f_hat[0] - np.sqrt(graph.n)) <= 1e-9
        assert np.abs(f_hat[1:]).max() <= 1e-9

    def test_parseval(self):
        dec = spectral.decompose(spectral.laplacian(graphs.ring_graph(8)))
        rng = np.random.default_rng(3)
        for _ in range(10):
            f = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            g = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            lhs = np.vdot(oracles.gft(dec, g), oracles.gft(dec, f))
            assert abs(lhs - np.vdot(g, f)) <= 1e-10
            assert abs(np.linalg.norm(oracles.gft(dec, f)) - np.linalg.norm(f)) <= 1e-10

    def test_round_trip(self, graph):
        dec = spectral.decompose(spectral.laplacian(graph))
        rng = np.random.default_rng(11)
        f = rng.standard_normal(graph.n) + 1j * rng.standard_normal(graph.n)
        assert np.abs(oracles.igft(dec, oracles.gft(dec, f)) - f).max() <= 1e-10

    def test_basis_vector_inverse(self):
        dec = spectral.decompose(spectral.laplacian(graphs.ring_graph(5)))
        e0 = np.zeros(5)
        e0[0] = 1.0
        assert np.abs(oracles.igft(dec, e0) - 1.0 / np.sqrt(5)).max() <= 1e-9
        e2 = np.zeros(5)
        e2[2] = 1.0
        assert np.abs(oracles.igft(dec, e2) - dec.eigenvectors[:, 2]).max() <= 1e-12

    def test_dimension_mismatch(self):
        dec = spectral.decompose(spectral.laplacian(graphs.ring_graph(5)))
        with pytest.raises(ValueError, match="length"):
            oracles.gft(dec, np.ones(4))
        with pytest.raises(ValueError, match="length"):
            oracles.igft(dec, np.ones(6))


class TestEigenspaceProjectors:
    def test_k2_two_rank_one_projectors(self):
        dec = spectral.decompose(spectral.laplacian(graphs.complete_graph(2)))
        projectors = oracles.eigenspace_projectors(dec)
        assert [int(round(np.trace(p))) for _, p in projectors] == [1, 1]

    def test_ring4_ranks(self):
        dec = spectral.decompose(spectral.laplacian(graphs.ring_graph(4)))
        ranks = [int(round(np.trace(p))) for _, p in oracles.eigenspace_projectors(dec)]
        assert ranks == [1, 2, 1]

    def test_shrikhande_ranks(self):
        dec = spectral.decompose(spectral.laplacian(graphs.shrikhande_graph()))
        ranks = [int(round(np.trace(p))) for _, p in oracles.eigenspace_projectors(dec)]
        assert ranks == [1, 6, 9]

    def test_projectors_resolve_identity(self, graph):
        dec = spectral.decompose(spectral.laplacian(graph))
        projectors = oracles.eigenspace_projectors(dec)
        total = sum(p for _, p in projectors)
        assert np.abs(total - np.eye(graph.n)).max() <= 1e-10
        for _, p in projectors:
            assert np.abs(p @ p - p).max() <= 1e-10


class TestRingDftCorrespondence:
    def test_harmonics_are_eigenvectors(self):
        n = 8
        lap = spectral.laplacian(graphs.ring_graph(n))
        dec = spectral.decompose(lap)
        projectors = oracles.eigenspace_projectors(dec)
        for k in range(n):
            harmonic = np.exp(2j * np.pi * k * np.arange(n) / n) / np.sqrt(n)
            lam = 2.0 - 2.0 * np.cos(2.0 * np.pi * k / n)
            assert np.abs(lap @ harmonic - lam * harmonic).max() <= 1e-9
            # the projector of the matching eigenvalue cluster reproduces it
            _, proj = min(projectors, key=lambda pair: abs(pair[0] - lam))
            assert np.abs(proj @ harmonic - harmonic).max() <= 1e-9
