"""Property tests over random edge lists, random connected graphs and CSV text.

Separate from the pinned acceptance suite: hypothesis draws the inputs. With
``derandomize=True`` every run draws the same examples, and with
``database=None`` no example is stored between runs.
"""
import math
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import configuration, given, settings
from hypothesis import strategies as st

from gstft import formats, gabor, graphs, heat, spectral

import oracles

repeatable = settings(derandomize=True, database=None, deadline=None, max_examples=150)
# Even without an example database, hypothesis caches the constants it reads
# from local source files; set at import, before its pytest plugin collects them.
configuration.set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "gstft-hypothesis")


def edge_list_oracle(n, pairs):
    """(error, edges) for build_from_edge_list, by a set and union-find.

    ``error`` is the message the first bad pair or a disconnected graph must
    raise, else None; ``edges`` is the sorted set of normalized pairs.
    """
    edges = set()
    for i, j in pairs:
        if i == j:
            return f"self-loop ({i},{j})", None
        if not (0 <= i < n and 0 <= j < n):
            return f"edge ({i},{j}) out of range for n={n}", None
        edges.add((min(i, j), max(i, j)))
    root = list(range(n))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for i, j in edges:
        root[find(i)] = find(j)
    if len({find(v) for v in range(n)}) > 1:
        return "graph is disconnected", None
    return None, tuple(sorted(edges))


@st.composite
def spanning_trees(draw, n):
    """Edges of a random tree on vertices 0..n-1, each joining a vertex to an earlier one."""
    order = draw(st.permutations(range(n)))
    return [(order[draw(st.integers(0, i - 1))], order[i]) for i in range(1, n)]


@st.composite
def edge_lists(draw):
    """(n, pairs) with duplicates, reversed pairs, self-loops, out-of-range ends and disconnected sets."""
    n = draw(st.integers(1, 30))
    pairs = draw(spanning_trees(n)) if draw(st.booleans()) else []
    vertex = st.integers(0, n - 1)
    pairs += [(i, j) for i, j in draw(st.lists(st.tuples(vertex, vertex), max_size=n)) if i != j]
    if pairs:
        repeats = draw(st.lists(st.sampled_from(pairs), max_size=5))
        pairs += [(j, i) if draw(st.booleans()) else (i, j) for i, j in repeats]
    bad_end = st.one_of(st.integers(-3, -1), st.integers(n, n + 3))
    bad_pairs = st.one_of(
        vertex.map(lambda v: (v, v)),
        st.tuples(vertex, bad_end),
        st.tuples(bad_end, vertex),
    )
    if draw(st.integers(0, 3)) == 3:
        pairs.append(draw(bad_pairs))
    return n, draw(st.permutations(pairs))


@repeatable
@given(edge_lists())
def test_build_from_edge_list_agrees_with_set_oracle(case):
    n, pairs = case
    error, edges = edge_list_oracle(n, pairs)
    array = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    if error is not None:
        for given_pairs in (pairs, array):
            with pytest.raises(ValueError, match=re.escape(error)):
                graphs.build_from_edge_list(n, given_pairs)
        return
    g = graphs.build_from_edge_list(n, pairs)
    assert g.edges.tolist() == list(map(list, edges))
    adjacency = g.adjacency
    assert adjacency.dtype == bool
    assert np.array_equal(adjacency, adjacency.T)
    assert not adjacency.diagonal().any()
    assert list(zip(*np.nonzero(np.triu(adjacency)))) == list(edges)
    assert np.array_equal(g.degrees, adjacency.sum(axis=1))
    back = graphs.deserialize(graphs.serialize(g))
    assert np.array_equal(back.edges, g.edges)
    assert np.array_equal(back.adjacency, adjacency)
    assert np.array_equal(graphs.build_from_edge_list(n, array).adjacency, adjacency)
    assert np.array_equal(graphs.build_from_edge_list(n, g.edges).adjacency, adjacency)


@st.composite
def connected_graphs(draw):
    """A random spanning tree on at most 24 vertices plus random extra edges."""
    n = draw(st.integers(1, 24))
    vertex = st.integers(0, n - 1)
    extra = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
    return graphs.build_from_edge_list(n, draw(spanning_trees(n)) + [(i, j) for i, j in extra if i != j])


@repeatable
@given(connected_graphs(), st.floats(0.0, 5.0), st.integers(0, 2**32 - 1))
def test_transform_inverts_and_respects_frame_bounds(g, t, seed):
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
    dec = spectral.decompose(spectral.laplacian(g))
    hk = heat.heat_kernel(dec, t)
    coeffs = gabor.gstft(dec, hk, f)

    back = gabor.inverse_gstft(dec, hk, coeffs)
    assert np.abs(back - f).max() <= 1e-9 * np.abs(f).max()

    report = gabor.frame_report(dec, hk)
    assert np.abs(report.gammas - hk.column_norms_sq).max() <= 1e-10
    energy = np.sum(np.abs(coeffs.matrix) ** 2)
    norm_sq = np.sum(np.abs(f) ** 2)
    assert report.bound_a * norm_sq * (1 - 1e-9) <= energy <= report.bound_b * norm_sq * (1 + 1e-9)


# Every float64 bit pattern, plus the values a writer gets wrong first.
any_float = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", bits.to_bytes(8, "little"))[0]),
    st.sampled_from([math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.2250738585072009e-308]),
    st.integers(10**16, 10**300).map(float) | st.integers(-(10**300), -(10**16)).map(float),
)


@st.composite
def text_matrices(draw, entries=any_float, min_side=0):
    """A real or complex matrix of up to 5 x 5 entries; a complex entry is two draws."""
    dtype = draw(st.sampled_from([np.float64, np.complex128]))
    shape = (draw(st.integers(min_side, 5)), draw(st.integers(min_side, 5)))
    size = shape[0] * shape[1] * (2 if dtype is np.complex128 else 1)
    values = draw(st.lists(entries, min_size=size, max_size=size))
    return np.array(values, dtype=np.float64).view(dtype).reshape(shape)


metas = st.none() | st.dictionaries(
    st.text(max_size=4), st.integers() | st.floats(allow_nan=False) | st.text(max_size=4), max_size=3
)


@repeatable
@given(text_matrices(), metas)
def test_matrix_csv_matches_the_per_entry_writer(matrix, meta):
    assert formats.matrix_to_csv(matrix, meta=meta) == oracles.matrix_to_csv(matrix, meta)


@repeatable
@given(st.lists(st.tuples(any_float, any_float), max_size=8))
def test_signal_csv_matches_the_per_entry_writer(pairs):
    values = np.array(pairs, dtype=np.float64).reshape(-1, 2).view(np.complex128)[:, 0]
    assert formats.signal_to_csv(values) == oracles.signal_to_csv(values)


@repeatable
@given(text_matrices(any_float.filter(math.isfinite), min_side=1), metas)
def test_finite_matrix_csv_reads_back_bit_for_bit(matrix, meta):
    """The reader returns the written bits as complex128; only an imaginary -0 becomes +0."""
    back, back_meta = formats.matrix_from_csv(formats.matrix_to_csv(matrix, meta=meta))
    assert back.dtype == np.complex128
    assert np.array_equal(back.view(np.uint64), (matrix + complex(-0.0, 0.0)).view(np.uint64))
    assert back_meta == (meta or {})
