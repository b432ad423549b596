"""Property tests over random edge lists, random connected graphs, edge-list text, CSV text and JSON coefficients,
and the input contract of the text readers and the CLI over mutated documents.

Separate from the pinned acceptance suite: hypothesis draws the inputs. With
``derandomize=True`` every run draws the same examples, and with
``database=None`` no example is stored between runs.
"""
import contextlib
import io
import json
import math
import re
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import configuration, given, settings
from hypothesis import strategies as st

from gstft import cli, formats, gabor, graphs, heat, spectral

import oracles

repeatable = settings(derandomize=True, database=None, deadline=None, max_examples=150)
# Even without an example database, hypothesis caches the constants it reads
# from local source files; set at import, before its pytest plugin collects them.
configuration.set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "gstft-hypothesis")


def edge_list_oracle(n, pairs):
    """(error, edges) for build_from_edge_list, by a set and union-find.

    ``error`` is the message the first pair with a bool endpoint, else the
    first bad pair or a disconnected graph must raise, else None; ``edges`` is
    the sorted set of normalized pairs.
    """
    for i, j in pairs:
        if type(i) is bool or type(j) is bool:
            return f"edge endpoints must be integers, got ({i!r},{j!r})", None
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
    """(n, pairs) with duplicates, reversed pairs, self-loops, out-of-range ends, bool ends and disconnected sets."""
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
    if pairs and draw(st.integers(0, 4)) == 4:  # NumPy alone would read a bool as vertex 0 or 1
        k = draw(st.integers(0, len(pairs) - 1))
        i, j = pairs[k]
        pairs[k] = (draw(st.booleans()), j) if draw(st.booleans()) else (i, draw(st.booleans()))
    return n, draw(st.permutations(pairs))


@repeatable
@given(edge_lists())
def test_build_from_edge_list_agrees_with_set_oracle(case):
    n, pairs = case
    error, edges = edge_list_oracle(n, pairs)
    array = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    document = json.dumps({"n": n, "edges": pairs})
    if error is not None:
        # deserialize gives the builder's verdict, with its TypeError raised as a ValueError
        not_integer = error.startswith("edge endpoints must be integers")
        with pytest.raises(TypeError if not_integer else ValueError, match=re.escape(error)) as built:
            graphs.build_from_edge_list(n, pairs)
        with pytest.raises(ValueError) as parsed:
            graphs.deserialize(document)
        assert str(parsed.value) == ("graph document: " if not_integer else "") + str(built.value)
        if not not_integer:
            with pytest.raises(ValueError, match=re.escape(error)):
                graphs.build_from_edge_list(n, array)
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
    assert np.array_equal(graphs.deserialize(document).adjacency, adjacency)
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


def _graph_file(text: str) -> graphs.Graph:
    """The graph the CLI's ``--graph`` reader builds from a file holding ``text``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph"
        path.write_text(text, encoding="utf-8")
        return cli._resolve_graph(cli.build_parser().parse_args(["gen", "--graph", str(path)]))


@repeatable
@given(connected_graphs().filter(lambda g: g.n > 1), st.data())  # one vertex has no edge to write
def test_edge_list_text_and_json_read_back_as_the_graph(g, data):
    pairs = data.draw(st.permutations(g.edges.tolist()))
    text = "".join(f"{j} {i}  # reversed\n" if data.draw(st.booleans()) else f"{i} {j}\n" for i, j in pairs)
    expected = graphs.serialize(g)
    assert graphs.serialize(graphs.graph_from_edge_list_text(text)) == expected
    # a --graph file is either encoding
    assert graphs.serialize(_graph_file(text)) == graphs.serialize(_graph_file(expected)) == expected


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



@repeatable
@given(connected_graphs())
def test_eigenspace_sizes_are_the_oracle_projector_ranks(g):
    dec = spectral.decompose(spectral.laplacian(g))
    sizes = np.diff(dec.eigenspaces, append=g.n)
    ranks = [int(round(np.trace(p))) for _, p in oracles.eigenspace_projectors(dec)]
    assert sizes.tolist() == ranks
    assert dec.eigenspaces[0] == 0 and abs(dec.eigenvalues[0]) <= 1e-10


@repeatable
@given(connected_graphs(), st.floats(0.0, 5.0), st.floats(0.0, 5.0))
def test_heat_kernels_are_stochastic_and_compose(g, s, t):
    dec = spectral.decompose(spectral.laplacian(g))
    hs, ht, hst = (heat.heat_kernel(dec, x).matrix for x in (s, t, s + t))
    for h in (hs, ht, hst):
        assert np.abs(h.sum(axis=1) - 1.0).max() <= heat.ROW_SUM_TOL
        assert h.min() > heat.ENTRY_FLOOR
    assert np.abs(hs @ ht - hst).max() <= 1e-10


# Ring 64, K10 and K50 get a slightly positive zero eigenvalue from eigh; ring 5 and K100 a negative one.
LIMIT_GRAPHS = {
    g.n: spectral.decompose(spectral.laplacian(g))
    for g in (graphs.ring_graph(5), graphs.ring_graph(64), graphs.complete_graph(10), graphs.complete_graph(50),
              graphs.complete_graph(100))
}


@repeatable
@given(st.sampled_from(sorted(LIMIT_GRAPHS)), st.floats(1e300, sys.float_info.max))
def test_huge_times_give_the_uniform_limit(n, t):
    # Past ~1e306 the exponents overflow; kernel and frame spectrum are then 1/n.
    dec = LIMIT_GRAPHS[n]
    hk = heat.heat_kernel(dec, t)
    assert np.abs(hk.matrix - 1.0 / n).max() <= 1e-15
    assert np.abs(gabor.frame_report(dec, hk).gammas - 1.0 / n).max() <= 1e-15


@repeatable
@given(connected_graphs(), st.floats(1e300, sys.float_info.max))
def test_huge_times_give_the_uniform_limit_on_any_connected_graph(g, t):
    """Every mode but the zero mode phi_1 decays to 0, so H_t = phi_1 phi_1^T and gamma_j = phi_1j^2.

    eigh's phi_1 is 1/sqrt(n) only to within delta = max|phi_1 - 1/sqrt(n)|, so
    each product is off 1/n by at most 2 delta/sqrt(n) + delta^2, plus the
    roundoff of one product of two entries near 1/sqrt(n).
    """
    dec = spectral.decompose(spectral.laplacian(g))
    delta = np.abs(dec.eigenvectors[:, 0] - 1.0 / math.sqrt(g.n)).max()
    allowance = 2 * delta / math.sqrt(g.n) + delta**2 + 4 * np.finfo(float).eps / g.n
    hk = heat.heat_kernel(dec, t)
    assert np.abs(hk.matrix.sum(axis=1) - 1.0).max() <= heat.ROW_SUM_TOL
    assert np.abs(hk.matrix - 1.0 / g.n).max() <= allowance
    assert np.abs(gabor.frame_report(dec, hk).gammas - 1.0 / g.n).max() <= allowance


@repeatable
@given(connected_graphs())
def test_the_zero_mode_snap_touches_lambda_1_alone(g):
    """A connected graph has one zero eigenvalue, and lambda_2 >= 4/(n diam) lies above the snap bound."""
    dec = spectral.decompose(spectral.laplacian(g))
    clamped = heat._clamped_eigenvalues(dec)
    assert np.count_nonzero(clamped == 0.0) == 1 and clamped[0] == 0.0
    assert np.array_equal(clamped[1:], dec.eigenvalues[1:])


# Every float64 bit pattern, plus the values a writer gets wrong first.
any_float = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", bits.to_bytes(8, "little"))[0]),
    st.sampled_from([math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.2250738585072009e-308]),
    st.integers(10**16, 10**300).map(float) | st.integers(-(10**300), -(10**16)).map(float),
)


@st.composite
def text_matrices(draw, entries=any_float, min_side=0, dtypes=(np.float64, np.complex128)):
    """A matrix of up to 5 x 5 entries of one of ``dtypes``; a complex entry is two draws."""
    dtype = draw(st.sampled_from(dtypes))
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


@repeatable
@given(text_matrices(any_float.filter(math.isfinite), min_side=1, dtypes=(np.complex128,)), metas)
def test_finite_complex_json_coefficients_read_back_bit_for_bit(matrix, meta):
    """Unlike the CSV reader, the JSON coefficient reader keeps an imaginary -0."""
    doc = {"matrix": matrix} if meta is None else {"matrix": matrix, "meta": meta}
    back, back_meta = formats.coefficients_from_json(formats.json_document(doc))
    assert back.dtype == np.complex128
    assert np.array_equal(back.view(np.uint64), matrix.view(np.uint64))
    assert back_meta == (meta or {})


# JSON numbers: every float64 bit pattern (NaN and infinities included), bools,
# and integers up to and beyond 64 bits and float range.
json_numbers = st.one_of(
    any_float,
    st.booleans(),
    st.integers(-(2**65), 2**65),
    st.sampled_from([2**53 + 1, 2**63, 2**64 - 1, 2**64, -(2**63) - 1, 2**1023 + 1, 10**400, -(10**400)]),
)


@st.composite
def coefficient_documents(draw):
    """A JSON coefficient document whose 'matrix' is up to 4 x 4 random nested JSON.

    Half the documents hold only [re, im] pairs of numbers; the others mix in
    pairs of the wrong length, null, strings, objects and bare numbers as
    entries or pair members, a ragged row, or a 'matrix' that is no list.
    """
    entry = st.lists(json_numbers, min_size=2, max_size=2)
    odd = draw(st.booleans())
    if odd:
        objects = st.dictionaries(st.text(max_size=1), json_numbers, max_size=1)
        member = json_numbers | st.none() | st.text(max_size=2) | objects
        entry = entry | member | st.lists(member, max_size=3)
    rows, columns = draw(st.integers(0, 4)), draw(st.integers(1, 4))
    matrix = [[draw(entry) for _ in range(columns)] for _ in range(rows)]
    if odd and matrix and draw(st.booleans()):
        draw(st.sampled_from(matrix)).append(draw(entry))
    if odd and draw(st.integers(0, 9)) == 0:
        matrix = draw(entry)
    return json.dumps({"matrix": matrix})


@repeatable
@given(coefficient_documents())
def test_json_coefficients_accepted_as_by_the_per_entry_reader(text):
    """The reader accepts exactly the documents the per-entry reference accepts, with the same bits.

    The reference lets an integer beyond float range escape as OverflowError
    and returns a matrix with no entries; the reader refuses both itself.
    """
    try:
        expected, _ = oracles.coefficients_from_json(text)
    except (ValueError, OverflowError):
        expected = None
    if expected is None or expected.size == 0:
        with pytest.raises(ValueError):
            formats.coefficients_from_json(text)
        return
    back, _ = formats.coefficients_from_json(text)
    assert back.dtype == np.complex128 and back.shape == expected.shape
    assert np.array_equal(back.view(np.uint64), expected.view(np.uint64))


# --- the input contract: one number grammar, one error line ---------------

# What a mutation inserts: what the number grammar refuses ("_", an Arabic-Indic three, a fullwidth three,
# a no-break space), the ASCII that numbers, cells and comments are made of, and line ends other than
# "\n": a "\r", which is refused unless a "\n" follows, and separators that stay inside their line.
INSERTED = ["_", "\u0663", "\uff13", "\xa0", "+", "-", "e", ".", ",", "#", "j", " ",
            "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]


@st.composite
def mutated(draw, documents):
    """A document of ``documents`` after one to three mutations: a character of INSERTED inserted, or a
    character deleted or repeated."""
    text = draw(documents)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["insert", "delete", "repeat"])) if i < len(text) else "insert"
        middle = {"insert": draw(st.sampled_from(INSERTED)) + text[i:i + 1], "delete": "",
                  "repeat": text[i:i + 1] * 2}[edit]
        text = text[:i] + middle + text[i + 1:]
    return text


finite_float = any_float.filter(math.isfinite)
signal_texts = st.lists(st.tuples(*[finite_float | st.integers(-9, 9).map(float)] * 2), min_size=1, max_size=6).map(
    lambda pairs: formats.signal_to_csv(np.array(pairs).view(np.complex128)[:, 0]))
matrix_texts = st.builds(formats.matrix_to_csv, text_matrices(finite_float, min_side=1), metas)
edge_list_texts = connected_graphs().filter(lambda g: g.n > 1).map(
    lambda g: "# edges\n" + "".join(f"{i} {j}\n" for i, j in g.edges.tolist()))


def _comparable(value):
    """A reader's result with each array as its float64 bit patterns, so that equality is bit for bit."""
    if isinstance(value, tuple):
        return tuple(map(_comparable, value))
    return value.view(np.uint64).tolist() if isinstance(value, np.ndarray) else value


def _reference_graph(text: str) -> str:
    """The serialized graph of the oracle's pairs; the builder refuses the same graphs either way."""
    return graphs.serialize(graphs.build_from_edge_list(*oracles.edge_list_from_text(text)))


# kind: (documents from the library's writers, the library reader, the strict oracle reader)
TEXT_KINDS = {
    "signal": (signal_texts, formats.signal_from_csv, oracles.signal_from_csv),
    "matrix": (matrix_texts, formats.matrix_from_csv, oracles.matrix_from_csv),
    "edge-list": (edge_list_texts, lambda text: graphs.serialize(graphs.graph_from_edge_list_text(text)),
                  _reference_graph),
}


def _named_line(message: str):
    """The number of the first line ``message`` names, or None."""
    found = re.search(r"\bline (\d+)", message)
    return found and int(found.group(1))


@pytest.mark.parametrize("kind", sorted(TEXT_KINDS))
@repeatable
@given(data=st.data())
def test_text_readers_accept_exactly_what_the_strict_oracle_accepts(kind, data):
    """A mutated document is read with the oracle's values, bit for bit, or refused at the oracle's line."""
    documents, read, reference = TEXT_KINDS[kind]
    text = data.draw(mutated(documents), label="text")
    try:
        expected = reference(text)
    except ValueError as refused:
        with pytest.raises(ValueError) as info:
            read(text)
        assert _named_line(str(info.value)) == _named_line(str(refused)), (str(info.value), str(refused))
        return
    assert _comparable(read(text)) == _comparable(expected)


RING5 = graphs.ring_graph(5)
RING5_DECOMPOSITION = spectral.decompose(spectral.laplacian(RING5))
RING5_COEFFICIENTS = gabor.gstft(RING5_DECOMPOSITION, heat.heat_kernel(RING5_DECOMPOSITION, 0.5), np.arange(5) - 1.5j)

# kind: (a valid document, its strict oracle reader, the command that reads it through its flag)
CLI_KINDS = {
    "signal": (formats.signal_to_csv([1, -0.5j, 2.25, 3 + 1j, 1e-3]), oracles.signal_from_csv,
               ["gstft", "--family", "ring", "--n", "5", "--t", "0.5", "--signal"]),
    "coefficient": (formats.matrix_to_csv(RING5_COEFFICIENTS.matrix, meta=cli._graph_meta(RING5, t=0.5)),
                    oracles.matrix_from_csv, ["reconstruct", "--family", "ring", "--n", "5", "--coeffs"]),
    "graph": ("# a ring\n0 1\n1 2  # edge\n2 3\n3 4\n4 0\n", _reference_graph, ["gen", "--graph"]),
}


@pytest.mark.parametrize("kind", sorted(CLI_KINDS))
@settings(repeatable, max_examples=20)
@given(data=st.data())
def test_cli_refuses_a_mutated_file_with_one_error_line_naming_it(kind, data):
    """Exit 1 with exactly one error line, and no output file, for every file the oracle refuses; a file
    it accepts may still fail the command (a signal of the wrong length), but with one error line too."""
    document, reference, command = CLI_KINDS[kind]
    text = data.draw(mutated(st.just(document)), label="text")
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "input", Path(tmp) / "out"
        path.write_text(text, encoding="utf-8")
        try:  # the oracle reads the text as open() hands it to the CLI, with universal newlines
            reference(path.read_text(encoding="utf-8"))
            refused = False
        except ValueError:
            refused = True
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main([*command, str(path), "--out", str(out)])
        lines = err.getvalue().splitlines()
        if code == 0:
            assert not refused and lines == [] and out.exists()
            return
        assert code == 1 and len(lines) == 1 and not out.exists(), lines
        assert lines[0].startswith(f"error: {kind} file {path}: " if refused else "error: "), lines
