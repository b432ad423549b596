"""Graph construction, classification, and serialization."""
import dataclasses
import json
import time
from itertools import combinations

import numpy as np
import pytest

from gstft import graphs
from gstft.formats import graph_sha256


def srg_counts_oracle(g):
    """Brute-force common-neighbor counts via Python sets (independent of the
    adjacency-matrix path used by detect_srg_parameters)."""
    neighbors = [set(np.nonzero(g.adjacency[i])[0]) for i in range(g.n)]
    adjacent, non_adjacent = set(), set()
    for u in range(g.n):
        for v in range(u + 1, g.n):
            count = len(neighbors[u] & neighbors[v])
            (adjacent if g.adjacency[u, v] else non_adjacent).add(count)
    return adjacent, non_adjacent


def assert_valid(g):
    assert g.adjacency.dtype == bool
    assert np.array_equal(g.adjacency, g.adjacency.T)
    assert not g.adjacency.diagonal().any()
    assert np.array_equal(g.degrees, g.adjacency.sum(axis=1))
    assert graphs._is_connected(g.n, g.adjacency)


class TestBuildFromEdgeList:
    def test_k2(self):
        g = graphs.build_from_edge_list(2, [(0, 1)])
        assert g.n == 2
        assert g.edges.tolist() == [[0, 1]]
        assert g.degrees.tolist() == [1, 1]

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="disconnected"):
            graphs.build_from_edge_list(3, [(0, 1)])

    def test_adjacency_is_the_only_constructor_argument(self):
        g = graphs.petersen_graph()
        assert [f.name for f in dataclasses.fields(g) if f.init] == ["adjacency"]
        assert g.n == 10 and g.degrees.tolist() == [3] * 10
        with pytest.raises(ValueError, match="read-only"):
            g.degrees[0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.degrees = np.zeros(10, dtype=int)

    def test_four_cycle(self):
        g = graphs.build_from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert g.degrees.tolist() == [2, 2, 2, 2]
        assert g.edge_count == 4

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            graphs.build_from_edge_list(2, [(0, 0), (0, 1)])

    def test_zero_vertices_rejected(self):
        with pytest.raises(ValueError):
            graphs.build_from_edge_list(0, [])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            graphs.build_from_edge_list(2, [(0, 2)])

    def test_duplicates_collapse(self):
        g = graphs.build_from_edge_list(2, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1

    def test_single_vertex(self):
        g = graphs.build_from_edge_list(1, [])
        assert g.n == 1
        assert g.edge_count == 0

    def test_adjacency_is_frozen(self):
        g = graphs.build_from_edge_list(2, [(0, 1)])
        with pytest.raises(ValueError):
            g.adjacency[0, 1] = 0

    def test_edges_is_a_fresh_sorted_array(self):
        g = graphs.build_from_edge_list(4, np.array([[3, 0], [2, 1], [0, 1], [1, 0]]))
        edges = g.edges
        assert edges.shape == (3, 2) and edges.dtype.kind == "i"
        assert edges.tolist() == [[0, 1], [0, 3], [1, 2]]
        edges[0] = 9
        assert g.edges.tolist() == [[0, 1], [0, 3], [1, 2]]

    @pytest.mark.parametrize(
        "n, edges",
        [
            (3, [(0, 1.7), (1, 2)]),
            (2, [(False, True)]),
            (2, [("0", "1")]),
            (3, np.array([[0.0, 1.0], [1.0, 2.0]])),
            (3, [(0, None), (1, 2)]),
        ],
        ids=["float", "bool", "string", "float-array", "none"],
    )
    def test_non_integer_endpoints_rejected(self, n, edges):
        with pytest.raises(TypeError, match="integers"):
            graphs.build_from_edge_list(n, edges)

    def test_non_integer_vertex_count_rejected(self):
        with pytest.raises(TypeError, match="vertex count must be an integer, got float"):
            graphs.build_from_edge_list(3.0, [(0, 1), (1, 2)])

    @pytest.mark.parametrize(
        "edges", [[(0, 1, 2)], [[]], [(0, 1), (1, 2, 0)], 5], ids=["triple", "empty-pair", "ragged", "scalar"]
    )
    def test_non_pair_shapes_rejected(self, edges):
        with pytest.raises(ValueError, match=r"\(m, 2\) array"):
            graphs.build_from_edge_list(3, edges)


class TestFamilies:
    def test_ring_sizes(self):
        g = graphs.ring_graph(4)
        assert g.degrees.tolist() == [2, 2, 2, 2]
        assert g.edge_count == 4

    def test_ring_3_is_triangle(self):
        assert graphs.ring_graph(3).edges.tolist() == [[0, 1], [0, 2], [1, 2]]

    def test_ring_too_small(self):
        with pytest.raises(ValueError):
            graphs.ring_graph(2)

    def test_complete(self):
        g = graphs.complete_graph(4)
        assert g.edge_count == 6
        assert set(g.degrees.tolist()) == {3}

    def test_hypercube(self):
        g = graphs.hypercube_graph(3)
        assert g.n == 8
        assert g.edge_count == 12
        assert set(g.degrees.tolist()) == {3}

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: graphs.complete_graph(1), "complete graph needs at least 2 vertices, got 1"),
            (lambda: graphs.hypercube_graph(0), "hypercube dimension must be >= 1, got 0"),
        ],
        ids=["complete-1", "hypercube-0"],
    )
    def test_below_family_minimum_refused(self, build, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()

    def test_size_guards(self):
        def never_consumed():
            raise AssertionError("edges consumed before the vertex-count check")
            yield

        over = graphs.MAX_VERTICES + 1
        sources = [
            lambda: graphs.complete_graph(over),
            lambda: graphs.hypercube_graph(13),
            lambda: graphs.ring_graph(over),
            lambda: graphs.random_regular_graph(over, 4, 0),
            lambda: graphs.build_from_edge_list(over, never_consumed()),
            lambda: graphs.deserialize(json.dumps({"n": over, "edges": [[0, 1]]})),
            lambda: graphs.graph_from_edge_list_text(f"0 {over - 1}\n"),
            # far above the limit: refused before any array is allocated
            lambda: graphs.complete_graph(10**9),
            lambda: graphs.ring_graph(10**12),
            lambda: graphs.hypercube_graph(40),
        ]
        for build in sources:
            with pytest.raises(ValueError, match="limit"):
                build()
        graphs.hypercube_graph(12)  # 4096 vertices: at the limit, allowed

    def test_petersen(self):
        g = graphs.petersen_graph()
        assert g.n == 10
        assert g.edge_count == 15
        assert set(g.degrees.tolist()) == {3}

    def test_shrikhande_counts(self):
        g = graphs.shrikhande_graph()
        assert g.n == 16
        assert g.edge_count == 48
        assert set(g.degrees.tolist()) == {6}

    @pytest.mark.parametrize(
        "build",
        [
            lambda: graphs.ring_graph(7),
            lambda: graphs.complete_graph(5),
            lambda: graphs.hypercube_graph(4),
            graphs.petersen_graph,
            graphs.shrikhande_graph,
            lambda: graphs.random_regular_graph(20, 3, seed=5),
            lambda: graphs.build_from_edge_list(4, [(3, 0), (0, 1), (2, 1)]),
            lambda: graphs.build_from_edge_list(1, []),
            lambda: graphs.deserialize('{"n":3,"edges":[[0,1],[1,2]]}'),
            lambda: graphs.graph_from_edge_list_text("0 1\n1 2\n2 0\n"),
            lambda: graphs.random_regular_graph(2, 1, seed=0),
            lambda: graphs.random_regular_graph(1, 0, seed=0),
        ],
    )
    def test_generator_invariants(self, build):
        assert_valid(build())


class TestRandomRegular:
    def test_four_vertices_gives_k4(self):
        g = graphs.random_regular_graph(4, 3, seed=123)
        assert g.edges.tolist() == [list(pair) for pair in combinations(range(4), 2)]

    def test_odd_product_rejected(self):
        with pytest.raises(ValueError, match="even"):
            graphs.random_regular_graph(5, 3, seed=0)

    def test_degree_bounds(self):
        with pytest.raises(ValueError):
            graphs.random_regular_graph(4, 4, seed=0)

    def test_large_instance(self):
        g = graphs.random_regular_graph(100, 3, seed=42)
        assert g.edge_count == 150
        assert set(g.degrees.tolist()) == {3}
        assert_valid(g)

    def test_reproducible(self):
        a = graphs.random_regular_graph(30, 3, seed=7)
        b = graphs.random_regular_graph(30, 3, seed=7)
        assert np.array_equal(a.edges, b.edges)

    def test_seed_changes_graph(self):
        a = graphs.random_regular_graph(30, 3, seed=0)
        b = graphs.random_regular_graph(30, 3, seed=1)
        assert not np.array_equal(a.edges, b.edges)

    # accepted at attempts 11, 6, 322, 90 and 8,200: the last spans many full batches
    @pytest.mark.parametrize("n,k,seed", [(24, 3, 7), (100, 3, 42), (60, 5, 4), (100, 5, 42), (40, 6, 1)])
    def test_same_stream_as_dividing_permuted_half_edges(self, n, k, seed):
        """Batched label shuffles draw what one permutation of half-edges per attempt, divided by k, drew."""
        rng = np.random.default_rng(seed)
        while True:
            points = rng.permutation(n * k) // k
            u, v = points[0::2], points[1::2]
            pairs = {(min(a, b), max(a, b)) for a, b in zip(u.tolist(), v.tolist())}
            if (u == v).any() or len(pairs) != u.size:
                continue
            seen, frontier = {0}, [0]
            while frontier:
                a = frontier.pop()
                for b in {y for x, y in pairs if x == a} | {x for x, y in pairs if y == a}:
                    if b not in seen:
                        seen.add(b)
                        frontier.append(b)
            if len(seen) == n:
                break
        assert graphs.random_regular_graph(n, k, seed).edges.tolist() == sorted(map(list, pairs))

    @pytest.mark.parametrize("n,k,seed", [(6, 1, 0), (5, 0, 0), (4096, 1, 0)])
    def test_disconnected_degree_refused_before_drawing(self, n, k, seed):
        # k <= 1 gives a perfect matching or no edges, connected only on k + 1 vertices
        started = time.monotonic()
        with pytest.raises(ValueError, match=f"no {k}-regular graph on {n} vertices is connected"):
            graphs.random_regular_graph(n, k, seed)
        assert time.monotonic() - started < 1.0

    def test_retry_budget_exhaustion(self, monkeypatch):
        monkeypatch.setattr(graphs, "PAIRING_RETRIES", 10)
        with pytest.raises(RuntimeError, match="attempts"):
            graphs.random_regular_graph(100, 7, seed=42)

    def test_infeasible_degree_refused_before_drawing(self):
        # exp((81 - 1) / 4) = 4.9e8 expected attempts against a budget of 1e6
        started = time.monotonic()
        with pytest.raises(RuntimeError, match=r"4\.9e\+08 attempts.*9-regular.*4096 vertices.*1000000"):
            graphs.random_regular_graph(4096, 9, seed=0)
        assert time.monotonic() - started < 1.0

    def test_retry_loop_still_exhausts(self, monkeypatch):
        # The up-front estimate lets each budget below through: k = 3 expects
        # exp(2) = 7.4 attempts and (100, 3, 6) is accepted at attempt 9; k = 6
        # expects exp(8.75) = 6.3e3 and (40, 6, 1) is accepted at attempt 8,200,
        # deep inside a batch, so the budget must count single attempts there
        for n, k, seed, accepted_at in ((100, 3, 6, 9), (40, 6, 1, 8200)):
            expected = graphs.random_regular_graph(n, k, seed)
            monkeypatch.setattr(graphs, "PAIRING_RETRIES", accepted_at - 1)
            with pytest.raises(RuntimeError, match=f"within {accepted_at - 1} attempts"):
                graphs.random_regular_graph(n, k, seed)
            monkeypatch.setattr(graphs, "PAIRING_RETRIES", accepted_at)
            g = graphs.random_regular_graph(n, k, seed)
            assert_valid(g)
            assert np.array_equal(g.adjacency, expected.adjacency)
            monkeypatch.undo()


class TestSrgDetection:
    def test_shrikhande(self):
        params = graphs.detect_srg_parameters(graphs.shrikhande_graph())
        assert (params.n, params.k, params.a, params.c) == (16, 6, 2, 2)

    def test_petersen(self):
        params = graphs.detect_srg_parameters(graphs.petersen_graph())
        assert (params.n, params.k, params.a, params.c) == (10, 3, 0, 1)

    def test_petersen_against_set_oracle(self):
        g = graphs.petersen_graph()
        adjacent, non_adjacent = srg_counts_oracle(g)
        assert adjacent == {0}
        assert non_adjacent == {1}

    def test_ring6_not_srg(self):
        assert graphs.detect_srg_parameters(graphs.ring_graph(6)) is None

    def test_small_rings_are_srg(self):
        assert graphs.detect_srg_parameters(graphs.ring_graph(4)) == graphs.SrgParameters(4, 2, 0, 2)
        assert graphs.detect_srg_parameters(graphs.ring_graph(5)) == graphs.SrgParameters(5, 2, 0, 1)

    def test_complete_excluded(self):
        assert graphs.detect_srg_parameters(graphs.complete_graph(5)) is None

    def test_irregular_rejected(self):
        p3 = graphs.build_from_edge_list(3, [(0, 1), (1, 2)])
        assert graphs.detect_srg_parameters(p3) is None

    def test_consistency_identity(self):
        for build in (graphs.petersen_graph, graphs.shrikhande_graph, lambda: graphs.ring_graph(5)):
            p = graphs.detect_srg_parameters(build())
            assert p.k * (p.k - p.a - 1) == (p.n - 1 - p.k) * p.c

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            graphs.SrgParameters(10, 3, 1, 1)

    def test_large_regular_graph_in_bounded_time(self):
        # Q11 (n = 2048) is regular but not strongly regular, so every pair is counted
        g = graphs.hypercube_graph(11)
        started = time.monotonic()
        assert graphs.detect_srg_parameters(g) is None
        assert time.monotonic() - started < 10.0


class TestSerialization:
    def test_k2_document(self):
        g = graphs.build_from_edge_list(2, [(0, 1)])
        assert graphs.serialize(g) == '{"n":2,"edges":[[0,1]]}'

    def test_round_trip(self):
        for build in (graphs.shrikhande_graph, lambda: graphs.ring_graph(9)):
            g = build()
            assert np.array_equal(graphs.deserialize(graphs.serialize(g)).edges, g.edges)

    def test_self_loop_document_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            graphs.deserialize('{"n":2,"edges":[[0,0],[0,1]]}')

    def test_disconnected_document_rejected(self):
        with pytest.raises(ValueError, match="disconnected"):
            graphs.deserialize('{"n":3,"edges":[[0,1]]}')

    def test_malformed_documents_rejected(self):
        for text in (
            "not json",
            "[1,2]",
            '{"n":2}',
            '{"n":2,"edges":[[0]]}',
            '{"n":2.0,"edges":[[0,1]]}',
            '{"n":2,"edges":[[0.5,1]]}',
            '{"n":2,"edges":[[false,true]]}',
            '{"n":true,"edges":[]}',
        ):
            with pytest.raises(ValueError):
                graphs.deserialize(text)

    def test_serialized_bytes_pinned(self):
        # serialize(g) feeds every graph_sha256 in coefficient metadata, so a
        # change to the edge order or the JSON text must show here
        pinned = [
            (graphs.ring_graph, (7,), "db1d924b292edc6097c2863c02d4a24eba311bfe73d8a81553b17dabe1713df6"),
            (graphs.complete_graph, (6,), "b4581273d991b8eac662dd1c0ae589ff2bae1d3be48e9b11c52911ee18b22947"),
            (graphs.hypercube_graph, (4,), "0b24c65f590e803178c0b47ca36ec10fb9031fe56908f320db4a38114d399453"),
            (graphs.petersen_graph, (), "2453660804ac92fcab576d6f23c59c5e695c098d7062f366f566b28318896851"),
            (graphs.shrikhande_graph, (), "7ab2a45290b8cd6f6b14ed87cb652d9e2f773ac80422d9c295983f9a2a8a3982"),
            (graphs.random_regular_graph, (100, 3, 42), "ff09102e0aff1b611040a216e8d302126f5b3567b1c83bdf1556270438ba8633"),
            (graphs.random_regular_graph, (100, 5, 42), "0bd795847802987a3d7459f4c2536766a2aa358941c97b2055bc64c82eb307cd"),
            (graphs.random_regular_graph, (40, 6, 1), "d3216b71d9ef4b3cf4b9535e75edd214557ad0e8d1dac5dc9f117c49345a5518"),
        ]
        for build, args, digest in pinned:
            assert graph_sha256(graphs.serialize(build(*args))) == digest, (build.__name__, args)

    def test_edges_sorted_in_output(self):
        g = graphs.build_from_edge_list(3, [(2, 1), (1, 0), (0, 2)])
        assert json.loads(graphs.serialize(g))["edges"] == [[0, 1], [0, 2], [1, 2]]


class TestEdgeListText:
    def test_parse_with_comments(self):
        text = "# a triangle\n0 1\n1 2   # second edge\n\n2 0\n"
        g = graphs.graph_from_edge_list_text(text)
        assert g.edges.tolist() == [[0, 1], [0, 2], [1, 2]]

    def test_bad_line_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            graphs.graph_from_edge_list_text("0 1 2\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0 1\n1 x\n", r"edge-list line 2: invalid literal for int\(\)"),
            ("# no edges\n\n", "cannot infer vertex count from an empty edge list"),
        ],
        ids=["not-an-integer", "empty"],
    )
    def test_unusable_text_rejected(self, text, message):
        with pytest.raises(ValueError, match=message):
            graphs.graph_from_edge_list_text(text)

    def test_graph_from_text_infers_n(self):
        g = graphs.graph_from_edge_list_text("0 1\n1 2\n")
        assert g.n == 3

    def test_graph_from_text_explicit_n_checks_connectivity(self):
        with pytest.raises(ValueError, match="disconnected"):
            graphs.graph_from_edge_list_text("0 1\n", n=3)
