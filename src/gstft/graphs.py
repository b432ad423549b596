"""Finite simple connected graphs and their constructors.

Everything downstream (Laplacian spectra, heat kernels, Gabor frames) operates
on the `Graph` type defined here: an undirected, unweighted, loop-free,
connected graph with 0-indexed vertices, stored as its dense boolean adjacency
matrix (16 MiB at ``MAX_VERTICES``) and nothing else; the edge list is derived
from it on request. Dense storage is deliberate -- the eigendecomposition is
the cost bottleneck long before adjacency memory is, so every constructor
refuses graphs above ``MAX_VERTICES`` vertices before it allocates anything.
Constructors hand integer pair arrays to one assembler, where repeated pairs
and both orientations of a pair collapse to one edge.

Included graph families: rings (cycles), complete graphs, hypercubes, the
Petersen graph, the Shrikhande graph, and random regular graphs drawn with the
half-edge pairing (configuration) model. Strongly-regular parameter detection
and JSON / edge-list serialization round out the module.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

MAX_VERTICES = 4096

# Attempts before the pairing-model sampler gives up. The probability that a
# random pairing of a k-regular graph is simple falls like exp(-(k*k-1)/4), so
# k=7 already needs a few hundred thousand draws, and from k=8 on the expected
# count exceeds this budget and the sampler refuses before drawing.
PAIRING_RETRIES = 1_000_000

# Half-edge labels per shuffled batch of pairing attempts: 32768 int64 entries
# keep each batch buffer within 256 KiB. Larger batches were measured slower
# per attempt (every row shuffle then misses the cache), so the cap is by size.
_BATCH_LABELS = 32768


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected simple connected graph on ``n`` vertices.

    ``adjacency`` is the dense symmetric boolean matrix (16 MiB at
    ``MAX_VERTICES``) and the only constructor argument; ``degrees``, its
    integer row sums, is computed once at construction, and ``n`` and
    ``edges`` are derived on request. Instances are immutable and safe to
    share across threads; equality and hashing go by identity.
    """

    adjacency: np.ndarray
    degrees: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "degrees", self.adjacency.sum(axis=1))
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


def _assemble(n: int, lo: np.ndarray, hi: np.ndarray) -> Graph | None:
    """The Graph joining ``lo[e]`` and ``hi[e]`` for every e, or None if disconnected.

    Ends must be distinct vertices in ``0..n-1``; repeated pairs and both
    orientations of a pair collapse to one edge.
    """
    adjacency = np.zeros((n, n), dtype=bool)
    adjacency[lo, hi] = True
    adjacency[hi, lo] = True
    if not _is_connected(n, adjacency):
        return None
    return Graph(adjacency)


def _check_vertex_count(n: int) -> None:
    if n <= 0:
        raise ValueError(f"vertex count must be positive, got {n}")
    if n > MAX_VERTICES:
        raise ValueError(f"graph on {n} vertices exceeds the {MAX_VERTICES}-vertex limit")


def build_from_edge_list(n: int, edges) -> Graph:
    """Build a validated Graph from a vertex count and an ``(m, 2)`` array-like of pairs.

    Duplicate pairs (in either orientation) collapse to one edge. Rejects
    ``n`` outside ``1..MAX_VERTICES`` (before ``edges`` is read); endpoints
    that are not integers of at most 64 bits (floats, bools and strings raise
    TypeError, as a non-integer ``n`` does); the first pair, in input order,
    that is a self-loop or has an endpoint outside ``0..n-1``; and any edge
    set whose graph is disconnected.
    """
    if not isinstance(n, (int, np.integer)):
        raise TypeError(f"vertex count must be an integer, got {type(n).__name__}")
    n = int(n)
    _check_vertex_count(n)

    try:
        pairs = np.asarray(edges)
    except ValueError:
        raise ValueError("edges must be an (m, 2) array of vertex pairs") from None
    if pairs.shape == (0,):  # an empty list has no pair axis and a float dtype
        pairs = np.empty((0, 2), dtype=np.intp)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"edges must be an (m, 2) array of vertex pairs, got shape {pairs.shape}")
    if pairs.dtype.kind not in "iu":
        raise TypeError(f"edge endpoints must be integers, got an array of {pairs.dtype}")
    lo, hi = pairs[:, 0], pairs[:, 1]
    bad = (lo == hi) | (lo < 0) | (lo >= n) | (hi < 0) | (hi >= n)
    if bad.any():
        i, j = pairs[np.argmax(bad)].tolist()
        if i == j:
            raise ValueError(f"self-loop ({i},{j}) is not allowed")
        raise ValueError(f"edge ({i},{j}) out of range for n={n}")

    g = _assemble(n, lo, hi)
    if g is None:
        raise ValueError("graph is disconnected")
    return g


def ring_graph(n: int) -> Graph:
    """Cycle C_n: vertex i adjacent to (i +- 1) mod n. Requires n >= 3."""
    if n < 3:
        raise ValueError(f"ring graph needs at least 3 vertices, got {n}")
    _check_vertex_count(n)
    v = np.arange(n)
    return build_from_edge_list(n, np.column_stack([v, (v + 1) % n]))


def complete_graph(n: int) -> Graph:
    """Complete graph K_n. Requires 2 <= n <= MAX_VERTICES."""
    if n < 2:
        raise ValueError(f"complete graph needs at least 2 vertices, got {n}")
    _check_vertex_count(n)
    return build_from_edge_list(n, np.column_stack(np.triu_indices(n, 1)))


def hypercube_graph(d: int) -> Graph:
    """Hypercube Q_d on 2**d vertices, adjacent iff binary labels differ in one bit."""
    if d < 1:
        raise ValueError(f"hypercube dimension must be >= 1, got {d}")
    n = 2**d
    _check_vertex_count(n)
    v = np.repeat(np.arange(n), d)
    return build_from_edge_list(n, np.column_stack([v, v ^ np.tile(1 << np.arange(d), n)]))


def petersen_graph() -> Graph:
    """Petersen graph as the Kneser graph K(5,2): 2-subsets of {0..4}, adjacent iff disjoint."""
    subsets = list(combinations(range(5), 2))
    edges = [
        (i, j)
        for i in range(10)
        for j in range(i + 1, 10)
        if not set(subsets[i]) & set(subsets[j])
    ]
    return build_from_edge_list(10, edges)


def shrikhande_graph() -> Graph:
    """Shrikhande graph: Cayley graph of Z4 x Z4 with connection set {+-(1,0), +-(0,1), +-(1,1)}.

    Vertex (x, y) is numbered 4x + y. Joining each vertex to its sums with
    (1,0), (0,1) and (1,1) gives every edge, since the negated vectors reach
    the same pairs from the other end. The result is 6-regular on 16
    vertices and strongly regular with parameters (16, 6, 2, 2).
    """
    edges = [
        (4 * x + y, 4 * ((x + dx) % 4) + (y + dy) % 4)
        for x in range(4)
        for y in range(4)
        for dx, dy in ((1, 0), (0, 1), (1, 1))
    ]
    return build_from_edge_list(16, edges)


def random_regular_graph(n: int, k: int, seed: int) -> Graph:
    """Random simple connected k-regular graph via the half-edge pairing model.

    Each vertex contributes k labeled half-edges; a uniform perfect matching of
    the n*k half-edges is drawn and projected to a graph. Any pairing that
    produces a self-loop, a repeated edge, or a disconnected graph is rejected
    and the whole matching is redrawn, so accepted graphs are uniform over
    simple connected k-regular graphs. Deterministic for a fixed seed. Raises
    ValueError before drawing when k <= 1 and n > k + 1 (no such graph is
    connected), RuntimeError before drawing when the expected number of
    attempts, exp((k^2 - 1) / 4), exceeds ``PAIRING_RETRIES``, and after
    ``PAIRING_RETRIES`` rejected pairings otherwise.

    Attempts are shuffled in place in one buffer of at most 256 KiB, one
    attempt per row, in batches doubling from one row up to the whole buffer,
    and examined in draw order. The stream and every seed's graph are those
    of drawing one pairing at a time, and the retry budget still counts
    single attempts.

    Parameters
    ----------
    n, k : int
        Vertex count (at most ``MAX_VERTICES``) and degree; ``n * k`` must be
        even and ``k < n``.
    seed : int
        Seed for the pairing stream.
    """
    _check_vertex_count(n)
    if k < 0 or k >= n:
        raise ValueError(f"degree must satisfy 0 <= k < n, got k={k}, n={n}")
    if (n * k) % 2 != 0:
        raise ValueError(f"n*k must be even, got n={n}, k={k}")
    if k <= 1 and n > k + 1:
        raise ValueError(f"no {k}-regular graph on {n} vertices is connected; k <= 1 needs n = k + 1")
    expected = math.exp((k * k - 1) / 4)
    if expected > PAIRING_RETRIES:
        raise RuntimeError(
            f"pairing model needs about {expected:.1e} attempts for a simple {k}-regular "
            f"graph on {n} vertices, more than the {PAIRING_RETRIES} attempts allowed"
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
            g = _assemble(n, u_row, v_row)
            if g is not None:
                return g
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
    adjacent = g.adjacency  # loop-free, so the diagonal is False
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
    """Parse graph JSON text produced by :func:`serialize` (or compatible), with full validation."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed graph JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"graph document must be an object, got {type(doc).__name__}")
    missing = {"n", "edges"} - doc.keys()
    if missing:
        raise ValueError(f"graph document missing keys: {sorted(missing)}")
    # type(...) is int, since JSON true and false load as bool, a subclass of int
    if type(doc["n"]) is not int:
        raise ValueError("graph document 'n' must be an integer")
    edges = doc["edges"]
    if not isinstance(edges, list) or any(
        not isinstance(e, list) or len(e) != 2 or not all(type(v) is int for v in e)
        for e in edges
    ):
        raise ValueError("graph document 'edges' must be a list of integer [i, j] pairs")
    return build_from_edge_list(doc["n"], edges)


def graph_from_edge_list_text(text: str, n: int | None = None) -> Graph:
    """Build a graph from "i j" per-line edge-list text ('#' starts a comment).

    ``n`` defaults to the largest vertex index plus one.
    """
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"edge-list line {lineno}: expected two vertex indices, got {raw!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise ValueError(f"edge-list line {lineno}: {exc}") from exc
    if n is None:
        if not edges:
            raise ValueError("cannot infer vertex count from an empty edge list")
        n = max(max(e) for e in edges) + 1
    return build_from_edge_list(n, edges)
