"""Finite simple connected graphs and their constructors.

Everything downstream (Laplacian spectra, heat kernels, Gabor frames) operates
on the `Graph` type defined here: an undirected, unweighted, loop-free,
connected graph with 0-indexed vertices, stored as its dense boolean adjacency
matrix (16 MiB at ``MAX_VERTICES``) and nothing else; the edge list is derived
from it on request. Dense storage is deliberate -- the eigendecomposition is
the cost bottleneck long before adjacency memory is, so every constructor
refuses graphs above ``MAX_VERTICES`` vertices before it allocates anything.
Every constructor fills an adjacency matrix and hands it to ``Graph``, which
checks the invariant in one place.

Included graph families: rings (cycles), complete graphs, hypercubes, the
Petersen graph, the Shrikhande graph, and random regular graphs drawn with the
half-edge pairing (configuration) model. Strongly-regular parameter detection
and JSON / edge-list serialization round out the module.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Graph", "SrgParameters", "build_from_edge_list", "ring_graph", "complete_graph",
    "hypercube_graph", "petersen_graph", "shrikhande_graph", "random_regular_graph",
    "detect_srg_parameters", "serialize", "deserialize", "graph_from_edge_list_text",
]

MAX_VERTICES = 4096

# Attempts before the pairing-model sampler gives up. The probability that a
# random pairing of a k-regular graph on n vertices is simple is about
# exp(-(k*k-1)/4 - k**3/(12n)), so k=7 already needs a few hundred thousand
# draws (too many below n = 40), and from k=8 on the expected count exceeds
# a third of this budget at every n, so the sampler refuses before drawing.
PAIRING_RETRIES = 1_000_000

# Half-edge labels per shuffled batch of pairing attempts: 32768 int64 entries
# keep each batch buffer within 256 KiB. Larger batches were measured slower
# per attempt (every row shuffle then misses the cache), so the cap is by size.
_BATCH_LABELS = 32768


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected simple connected graph on ``n`` vertices.

    ``adjacency``, the only constructor argument, is the dense boolean matrix
    (16 MiB at ``MAX_VERTICES``); construction raises ValueError unless it is
    square, symmetric, loop-free and connected on 1 to ``MAX_VERTICES``
    vertices. ``degrees``, its integer row sums, is computed once then, and
    ``n`` and ``edges`` are derived on request. Instances are immutable and
    safe to share across threads; equality and hashing go by identity.
    """

    adjacency: np.ndarray
    degrees: np.ndarray = field(init=False)

    def __post_init__(self):
        a = self.adjacency
        if not (isinstance(a, np.ndarray) and a.dtype == bool and a.ndim == 2 and a.shape[0] == a.shape[1]):
            got = f"{a.dtype} {a.shape}" if isinstance(a, np.ndarray) else type(a).__name__
            raise ValueError(f"adjacency must be a square bool array, got {got}")
        _check_vertex_count(a.shape[0])
        if not np.array_equal(a, a.T) or a.diagonal().any():
            raise ValueError("adjacency must be symmetric with an empty diagonal")
        if not _is_connected(a.shape[0], a):
            raise ValueError("graph is disconnected")
        object.__setattr__(self, "degrees", a.sum(axis=1))
        self.adjacency.setflags(write=False)
        self.degrees.setflags(write=False)

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @property
    def edges(self) -> np.ndarray:
        """A fresh ``(m, 2)`` integer array of the edges ``(i, j)``, ``i < j``, in sorted row order."""
        return np.argwhere(np.triu(self.adjacency, 1))

    @property
    def edge_count(self) -> int:
        return int(self.degrees.sum()) // 2

    def is_regular(self) -> bool:
        return bool((self.degrees == self.degrees[0]).all())


@dataclass(frozen=True)
class SrgParameters:
    """Strongly-regular graph parameters (n, k, a, c).

    k-regular; adjacent vertex pairs share ``a`` common neighbors, non-adjacent
    pairs share ``c``. The feasibility identity k(k-a-1) = (n-1-k)c is checked
    at construction.
    """

    n: int
    k: int
    a: int
    c: int

    def __post_init__(self):
        if self.k * (self.k - self.a - 1) != (self.n - 1 - self.k) * self.c:
            raise ValueError(
                f"inconsistent strongly-regular parameters "
                f"({self.n},{self.k},{self.a},{self.c}): "
                f"k(k-a-1) != (n-1-k)c"
            )


def _is_connected(n: int, adjacency: np.ndarray) -> bool:
    """Breadth-first search from vertex 0, one step per frontier: OR its adjacency rows."""
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    frontier = np.array([0])
    while frontier.size:
        frontier = np.flatnonzero(adjacency[frontier].any(axis=0) & ~seen)
        seen[frontier] = True
    return bool(seen.all())


def _check_vertex_count(n: int) -> None:
    _check_integer(n, "vertex count")
    if n <= 0:
        raise ValueError(f"vertex count must be positive, got {n}")
    if n > MAX_VERTICES:
        raise ValueError(f"graph on {n} vertices exceeds the {MAX_VERTICES}-vertex limit")


def _is_integer_type(t: type) -> bool:
    return issubclass(t, (int, np.integer)) and t is not bool  # bool subclasses int


def _check_integer(value, name: str) -> None:
    """The rule for every size: a Python or NumPy integer, never a bool, or TypeError names ``name``."""
    if not _is_integer_type(type(value)):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")


def _number_text(s: str) -> bool:
    """The number grammar of every text gstft reads, files and CLI arguments alike: ASCII with no
    '_'. Python's ``int()``, ``float()`` or ``complex()`` then parses what passes."""
    return s.isascii() and "_" not in s


def _lines(text: str):
    r"""The line rule of every text format: each line of ``text``, stripped, with its 1-based number,
    handed out as it is reached. Only "\n" ends a line, and the "\r" of "\r\n" is dropped; any other
    "\r" raises ValueError naming its line before the line is handed out. Rarer separators ("\x0b",
    "\x0c", "\x1c"-"\x1e", "\x85", "\u2028", "\u2029") stay inside their line."""
    lineno, start = 0, 0
    while start <= len(text):
        lineno, end = lineno + 1, text.find("\n", start) % (len(text) + 1)  # no "\n" left: end of text
        if text.find("\r", start, end - (end < len(text))) >= 0:  # a "\r" that is not the "\r" of "\r\n"
            raise ValueError(f"line {lineno}: '\\r' not followed by '\\n'")
        yield lineno, text[start:end].strip()
        start = end + 1


def build_from_edge_list(n: int, edges) -> Graph:
    """Build a validated Graph from a vertex count and an ``(m, 2)`` array-like of pairs.

    The one check of ``n`` and of every endpoint, whatever their source: each must
    be a Python or NumPy integer, never a bool, or TypeError names the first that is
    not. Duplicate pairs (in either orientation) collapse to one edge. Rejects ``n``
    outside ``1..MAX_VERTICES`` (before ``edges`` is read); the first pair, in input
    order, that is a self-loop or has an endpoint outside ``0..n-1``, however many
    bits it has; and any edge set whose graph is disconnected.
    """
    _check_vertex_count(n)
    n = int(n)

    integer_array = isinstance(edges, np.ndarray) and edges.dtype.kind in "iu"  # it cannot hold a bool
    try:  # anything else is held as its own Python objects, so big integers compare exactly
        pairs = np.asarray(edges) if integer_array else np.array(edges, dtype=object)
    except ValueError:
        raise ValueError("edges must be an (m, 2) array of vertex pairs") from None
    pairs = pairs.reshape(0, 2) if pairs.shape == (0,) else pairs  # an empty list has no pair axis
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"edges must be an (m, 2) array of vertex pairs, got shape {pairs.shape}")
    if not integer_array and not all(map(_is_integer_type, set(map(type, pairs.flat)))):
        i, j = next(pair for pair in pairs.tolist() if not all(_is_integer_type(type(v)) for v in pair))
        raise TypeError(f"edge endpoints must be integers, got ({i!r},{j!r})")
    lo, hi = pairs[:, 0], pairs[:, 1]
    bad = (lo == hi) | (lo < 0) | (lo >= n) | (hi < 0) | (hi >= n)
    if bad.any():
        i, j = pairs[np.argmax(bad)].tolist()
        if i == j:
            raise ValueError(f"self-loop ({i},{j}) is not allowed")
        raise ValueError(f"edge ({i},{j}) out of range for n={n}")

    adjacency = np.zeros((n, n), dtype=bool)
    lo, hi = pairs.astype(np.intp, copy=False).T  # every endpoint is in range here
    adjacency[lo, hi] = adjacency[hi, lo] = True
    return Graph(adjacency)


def ring_graph(n: int) -> Graph:
    """Cycle C_n: vertex i adjacent to (i +- 1) mod n. Requires n >= 3."""
    _check_vertex_count(n)
    if n < 3:
        raise ValueError(f"ring graph needs at least 3 vertices, got {n}")
    v = np.arange(n)
    adjacency = np.zeros((n, n), dtype=bool)
    adjacency[v, (v + 1) % n] = adjacency[v, (v - 1) % n] = True
    return Graph(adjacency)


def complete_graph(n: int) -> Graph:
    """Complete graph K_n. Requires 2 <= n <= MAX_VERTICES."""
    _check_vertex_count(n)
    if n < 2:
        raise ValueError(f"complete graph needs at least 2 vertices, got {n}")
    return Graph(~np.eye(n, dtype=bool))


def hypercube_graph(d: int) -> Graph:
    """Hypercube Q_d on 2**d vertices, adjacent iff binary labels differ in one bit.

    Requires an integer d >= 1 and 2**d <= MAX_VERTICES, decided from d before 2**d is formed.
    """
    _check_integer(d, "hypercube dimension")
    if d < 1:
        raise ValueError(f"hypercube dimension must be >= 1, got {d}")
    if d >= MAX_VERTICES.bit_length():  # exactly when 2**d > MAX_VERTICES
        raise ValueError(f"hypercube on 2^{d} vertices exceeds the {MAX_VERTICES}-vertex limit")
    n = 2**d
    v = np.arange(n)[:, None]
    adjacency = np.zeros((n, n), dtype=bool)
    adjacency[v, v ^ (1 << np.arange(d))] = True  # flipping a bit twice returns, so this is symmetric
    return Graph(adjacency)


def petersen_graph() -> Graph:
    """Petersen graph as the Kneser graph K(5,2): 2-subsets of {0..4}, adjacent iff disjoint.

    Vertex i is the i-th subset {a, b}, a < b, in lexicographic order.
    """
    a, b = np.triu_indices(5, 1)
    return Graph((a[:, None] != a) & (a[:, None] != b) & (b[:, None] != a) & (b[:, None] != b))


def shrikhande_graph() -> Graph:
    """Shrikhande graph: Cayley graph of Z4 x Z4 with connection set {+-(1,0), +-(0,1), +-(1,1)}.

    Vertex (x, y) is numbered 4x + y, and two vertices are adjacent iff their
    difference, numbered the same way, lies in the connection set
    {4, 12, 1, 3, 5, 15}. The result is 6-regular on 16 vertices and
    strongly regular with parameters (16, 6, 2, 2).
    """
    x, y = np.divmod(np.arange(16), 4)
    difference = 4 * ((x[:, None] - x) % 4) + (y[:, None] - y) % 4
    return Graph(np.isin(difference, (4, 12, 1, 3, 5, 15)))


def random_regular_graph(n: int, k: int, seed: int) -> Graph:
    """Random simple connected k-regular graph via the half-edge pairing model.

    Each vertex contributes k labeled half-edges; a uniform perfect matching of
    the n*k half-edges is drawn and projected to a graph. Any pairing that
    produces a self-loop, a repeated edge, or a disconnected graph is rejected
    and the whole matching is redrawn, so accepted graphs are uniform over
    simple connected k-regular graphs. Deterministic for a fixed seed. Raises
    ValueError before drawing when k <= 1 and n > k + 1 (no such graph is
    connected), RuntimeError before drawing when McKay and Wormald's estimate
    of the expected number of attempts, exp((k^2 - 1) / 4 + k^3 / (12 n)),
    exceeds ``PAIRING_RETRIES / 3``, and after ``PAIRING_RETRIES`` rejected
    pairings otherwise. Attempts succeed independently, so by the estimate an
    accepted input exhausts the budget with probability at most
    (1 - 1/expected)^PAIRING_RETRIES <= e^-3.

    Attempts are shuffled in place in one buffer of at most 256 KiB, one
    attempt per row, in batches doubling from one row up to the whole buffer,
    and examined in draw order. The stream and every seed's graph are those
    of drawing one pairing at a time, and the retry budget still counts
    single attempts.

    Parameters
    ----------
    n, k : int
        Vertex count (at most ``MAX_VERTICES``) and degree, Python or NumPy integers
        (TypeError names one that is not); ``n * k`` must be even and ``k < n``.
    seed : int
        Seed for the pairing stream: a nonnegative Python or NumPy integer,
        never a bool or None; anything else raises ValueError before drawing.
    """
    if not (_is_integer_type(type(seed)) and seed >= 0):  # numpy would take None as OS entropy, True as 1
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    _check_vertex_count(n)
    _check_integer(k, "degree")
    if k < 0 or k >= n:
        raise ValueError(f"degree must satisfy 0 <= k < n, got k={k}, n={n}")
    if (n * k) % 2 != 0:
        raise ValueError(f"n*k must be even, got n={n}, k={k}")
    if k <= 1 and n > k + 1:
        raise ValueError(f"no {k}-regular graph on {n} vertices is connected; k <= 1 needs n = k + 1")
    log_expected = (k * k - 1) / 4 + k**3 / (12 * n)  # its exp overflows from k = 54 at any n
    if log_expected > math.log(PAIRING_RETRIES / 3):
        # written from its base-10 logarithm, so the text stays finite where its exp overflows
        exponent, fraction = divmod(log_expected / math.log(10), 1)
        mantissa, carry = f"{10**fraction:.1e}".split("e")  # carry is +01 when the mantissa rounds to 10
        raise RuntimeError(
            f"pairing model needs about {mantissa}e+{int(exponent) + int(carry):02d} attempts for a simple "
            f"{k}-regular graph on {n} vertices, more than a third of the {PAIRING_RETRIES} attempts allowed"
        )
    rng = np.random.default_rng(seed)
    # labels[i] = i // k is the vertex of half-edge i. Permuting the labels
    # gives rng.permutation(n * k) // k bit for bit, and row r of a permuted
    # batch draws what the r-th rng.permutation(labels) call draws, so each
    # seed keeps its graph. Draws past the accepted row go unused.
    labels = np.repeat(np.arange(n), k)
    buffer = np.empty((max(1, _BATCH_LABELS // max(1, labels.size)), labels.size), dtype=labels.dtype)
    # Batches double from one row, since small graphs are often accepted
    # within a few attempts; full-size first batches were measured slower there.
    drawn, size = 0, 1
    while drawn < PAIRING_RETRIES:
        batch = buffer[: min(size, PAIRING_RETRIES - drawn)]
        batch[:] = labels
        rng.permuted(batch, axis=1, out=batch)
        drawn, size = drawn + len(batch), 2 * len(batch)
        u, v = batch[:, 0::2], batch[:, 1::2]
        loop_free = ~(u == v).any(axis=1)
        for u_row, v_row in zip(u[loop_free], v[loop_free]):
            # a repeated pair shows as equal neighbours among the sorted codes i*n + j
            codes = np.sort(np.minimum(u_row, v_row) * n + np.maximum(u_row, v_row))
            if (codes[1:] == codes[:-1]).any():
                continue
            adjacency = np.zeros((n, n), dtype=bool)
            adjacency[u_row, v_row] = adjacency[v_row, u_row] = True
            if _is_connected(n, adjacency):
                return Graph(adjacency)
    raise RuntimeError(
        f"pairing model produced no simple connected {k}-regular graph on {n} "
        f"vertices within {PAIRING_RETRIES} attempts"
    )


def detect_srg_parameters(g: Graph) -> SrgParameters | None:
    """Brute-force strongly-regular parameter detection.

    Counts common neighbors |N(u) & N(v)| for every vertex pair. Returns the
    parameters (n, k, a, c) when the graph is regular with a constant count
    over adjacent pairs and a constant count over non-adjacent pairs, else
    None. Complete and edgeless graphs are excluded by convention.
    """
    n = g.n
    if g.edge_count == 0 or g.edge_count == n * (n - 1) // 2:
        return None
    if not g.is_regular():
        return None

    # float32 so the product runs in BLAS at half the memory of float64; it is
    # exact, since every partial sum is an integer <= n <= MAX_VERTICES < 2^24
    adjacency = g.adjacency.astype(np.float32)
    common = adjacency @ adjacency
    adjacent = g.adjacency  # Graph refuses self-loops, so the diagonal is False
    a_counts = np.unique(common[adjacent])
    # With the sentinel -1 on adjacent pairs and the diagonal, the other
    # values are the non-adjacent counts, found without a second mask
    common[adjacent] = -1
    np.fill_diagonal(common, -1)
    c_counts = np.unique(common)
    if a_counts.size != 1 or c_counts.size != 2:
        return None
    return SrgParameters(n=n, k=int(g.degrees[0]), a=int(a_counts[0]), c=int(c_counts[1]))


def serialize(g: Graph) -> str:
    """Compact JSON text {"n": ..., "edges": [[i, j], ...]}; edges appear sorted lexicographically."""
    return json.dumps({"n": g.n, "edges": g.edges.tolist()}, separators=(",", ":"))


def deserialize(text: str) -> Graph:
    """Parse graph JSON text produced by :func:`serialize` (or compatible); :func:`build_from_edge_list`
    checks ``n`` and ``edges``, and its TypeError is raised as ``ValueError("graph document: ...")``."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed graph JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"graph document must be an object, got {type(doc).__name__}")
    missing = {"n", "edges"} - doc.keys()
    if missing:
        raise ValueError(f"graph document missing keys: {sorted(missing)}")
    try:
        return build_from_edge_list(doc["n"], doc["edges"])
    except TypeError as exc:
        raise ValueError(f"graph document: {exc}") from None


def graph_from_edge_list_text(text: str) -> Graph:
    """Build a graph from "i j" per-line edge-list text, lines as :func:`_lines` walks them and '#' starting
    a comment, each index ASCII text with no '_' parsed by ``int()``; the vertex count is the largest index
    plus one, or 1 if none is nonnegative."""
    edges = []
    for lineno, raw in _lines(text):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2 or not _number_text(line):
            raise ValueError(f"edge-list line {lineno}: expected two ASCII vertex indices with no '_', got {raw!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise ValueError(f"edge-list line {lineno}: {exc}") from exc
    if not edges:
        raise ValueError("cannot infer vertex count from an empty edge list")
    return build_from_edge_list(max(1, max(max(e) for e in edges) + 1), edges)
