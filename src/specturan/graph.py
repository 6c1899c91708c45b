"""Dense undirected simple graphs with bitset adjacency rows.

Each vertex's neighborhood is one Python integer used as a bitset, so the
hot operations of this package (neighborhood intersection, popcount) are
single big-int instructions.  Graphs are immutable from the consumer's
point of view: constructors build them, and the editing helpers
(`with_edge`, `without_edge`) return new graphs.  Each graph groups its
vertices into twin classes (identical rows) once, validates its rows on
that grouping, and keeps it for the layers that work on the quotient.

Also provides the structured families the experiments run on (Turan
graphs, complete multipartite graphs, K_r^+), the seeded G(n, m) model,
and the edge-list text format.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .rng import SplitMix64

MAX_EXHAUSTIVE_N = 8  # exhaustive all-labeled-graph scans stop here
_SYMMETRY_TILE = 256  # side of the square tiles the symmetry check compares


class EdgeListError(ValueError):
    """Malformed edge-list input; carries a 1-based line number."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class PartSpec:
    """Ordered part sizes (s_1, ..., s_r) for multipartite targets."""

    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.sizes) < 1:
            raise ValueError("need at least one part")
        if any(s < 1 for s in self.sizes):
            raise ValueError(f"part sizes must be positive: {self.sizes}")

    @property
    def r(self) -> int:
        return len(self.sizes)

    @property
    def total(self) -> int:
        return sum(self.sizes)

    def require_first_part_at_least_two(self) -> None:
        if self.sizes[0] < 2:
            raise ValueError(f"first part must have size >= 2, got {self.sizes[0]}")


def _bit_indices(mask: int) -> Iterator[int]:
    """The indices of the set bits of `mask`, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _twin_grouping(rows: Sequence[int]) -> tuple[dict[int, int], int, list[int] | None]:
    """Twin classes as {least member: bitset of the members}, ascending,
    the bitset of the least members, and each vertex's class index (None
    when no two rows are equal).  Each row is hashed once, and member
    bitsets are set in byte buffers rather than by one n-bit OR per member."""
    n = len(rows)
    index: dict[int, int] = {}
    class_of = [index.setdefault(row, len(index)) for row in rows]
    if len(index) == n:
        return {v: 1 << v for v in range(n)}, (1 << n) - 1, None
    members = [bytearray((n + 7) // 8) for _ in index]
    for v, i in enumerate(class_of):
        members[i][v >> 3] |= 1 << (v & 7)
    bitsets = (int.from_bytes(m, "little") for m in members)
    classes = {(m & -m).bit_length() - 1: m for m in bitsets}
    return classes, sum(1 << u for u in classes), class_of


def _is_symmetric(bits: np.ndarray) -> bool:
    """Whether a square 0/1 matrix equals its transpose.  The upper-triangle
    tiles are compared, each against its mirror, so transposed reads stay
    within cache."""
    t = _SYMMETRY_TILE
    for i in range(0, len(bits), t):
        for j in range(i, len(bits), t):
            if not np.array_equal(bits[i : i + t, j : j + t], bits[j : j + t, i : i + t].T):
                return False
    return True


class Graph:
    """Simple undirected graph on vertices 0..n-1, bitset adjacency.

    A graph built from rows is validated once, on its twin classes
    (vertices with identical rows), which it then keeps by least member:
    the spectral quotient, the joint table and the clique and book
    searches all read that one stored form.  The structured hosts of the
    paper have r to r + 2 classes at any n.
    """

    __slots__ = ("n", "_adj", "_twins", "_reps")

    def __init__(self, n: int, adjacency_rows: Sequence[int] | None = None) -> None:
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        self.n = n
        self._twins: dict[int, int] | None = None
        self._reps = 0
        if adjacency_rows is None:
            self._adj = [0] * n
        else:
            if len(adjacency_rows) != n:
                raise ValueError("adjacency row count differs from n")
            self._adj = list(adjacency_rows)
            self._check_well_formed()

    def _check_well_formed(self) -> None:
        """Rows in range, no self-loops, A = A^T; stores the twin classes.

        Checked once per twin class: range and self-loops on each class
        row, then symmetry by one compare, R == C^T lifted to n columns,
        for R[i][x] = A[rep_i][x] the k x n class rows, C = R's k x k block
        on the representatives and rep(x) the least member of x's class.
        Row x is row rep(x), so it reads A[v][x] = A[x][rep(v)] for all v,
        x.  Applied twice it makes rows constant on classes (A[x][w] =
        A[w][rep(x)] = A[rep(x)][rep(w)] = A[x][rep(w)]), so A = A^T; the
        converse is immediate.  A twin-free graph has R = A.  Any failure
        is named by a scan of the whole graph in vertex order, so the
        message does not depend on the grouping.
        """
        self._twins, self._reps, class_of = _twin_grouping(self._adj)
        full = (1 << self.n) - 1
        adj = self._adj
        if any(adj[u] & ~full or adj[u] & members for u, members in self._twins.items()):
            self._raise_bad_row()
        if class_of is None:
            if not _is_symmetric(self._bit_matrix()):
                self._raise_asymmetric()
        else:
            reps = list(self._twins)
            bits = self._bit_matrix(reps)
            if not np.array_equal(bits, bits[:, reps].T[:, class_of]):
                self._raise_asymmetric()

    def _raise_bad_row(self) -> None:
        """Name the first out-of-range row or self-loop in vertex order."""
        full = (1 << self.n) - 1
        for v, row in enumerate(self._adj):
            if row & ~full:
                raise ValueError(f"row {v} has bits outside 0..{self.n - 1}")
            if (row >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")

    def _raise_asymmetric(self) -> None:
        """Name the first asymmetric pair: argwhere lists pairs in
        row-major order, so this is the one a scan of the rows in order
        meets first."""
        bits = self._bit_matrix()
        v, u = np.argwhere(bits > bits.T)[0].tolist()
        raise ValueError(f"asymmetric adjacency between {u} and {v}")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        g = cls(n)
        for u, v in edges:
            g._add_edge(u, v)
        return g

    def _check_pair(self, u: int, v: int) -> None:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")

    # Builder-phase only; library consumers use with_edge/without_edge.
    def _add_edge(self, u: int, v: int) -> None:
        self._check_pair(u, v)
        self._adj[u] |= 1 << v
        self._adj[v] |= 1 << u
        self._twins = None

    def neighbors_mask(self, v: int) -> int:
        return self._adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self._adj[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self._adj[v].bit_count()

    def degrees(self) -> list[int]:
        return [row.bit_count() for row in self._adj]

    def min_degree(self) -> int:
        """delta(G); 0 for the empty-vertex graph."""
        if self.n == 0:
            return 0
        return min(row.bit_count() for row in self._adj)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self._adj) // 2

    def twin_classes(self) -> dict[int, int]:
        """Vertices grouped by identical adjacency row, as {row: members
        bitset}, in order of least member, in a fresh dict.  Twins are
        never adjacent (a twin in v's row would put v in its own row), so
        swapping two of them is an automorphism."""
        return {self._adj[u]: members for u, members in self._twin_members().items()}

    def _twin_members(self) -> dict[int, int]:
        """The stored twin classes, {least member: members bitset} in
        ascending order, grouped by validation or, after a builder edit,
        by the first read; the dict itself, for reading only."""
        if self._twins is None:
            self._twins, self._reps, _ = _twin_grouping(self._adj)
        return self._twins

    def _representatives(self) -> int:
        """Bitset of the least member of each twin class, stored with them."""
        self._twin_members()
        return self._reps

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges (u, v) with u < v in lexicographic order."""
        for u in range(self.n):
            above = self._adj[u] >> (u + 1)
            for k in _bit_indices(above):
                yield (u, u + 1 + k)

    def with_edge(self, u: int, v: int) -> "Graph":
        self._check_pair(u, v)
        rows = list(self._adj)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return Graph(self.n, rows)

    def without_edge(self, u: int, v: int) -> "Graph":
        if not self.has_edge(u, v):
            raise ValueError(f"({u},{v}) is not an edge")
        rows = list(self._adj)
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        return Graph(self.n, rows)

    def induced_subgraph(self, vertices: Sequence[int]) -> "Graph":
        """Induced subgraph, relabeled 0..k-1 in the order given."""
        for v in vertices:
            if not (0 <= v < self.n):
                raise ValueError(f"vertex {v} out of range for n={self.n}")
        if len(set(vertices)) != len(vertices):
            raise ValueError("duplicate vertices in subset")
        return Graph(len(vertices), self._induced_rows(vertices))

    def _induced_rows(self, vertices: Sequence[int]) -> list[int]:
        """The rows of the induced subgraph on `vertices` (distinct, in
        range), relabelled 0..k-1 in the order given, from one permuted
        bit matrix and without building or validating a graph."""
        idx = np.array(vertices, dtype=np.intp).reshape(-1)
        packed = np.packbits(self._bit_matrix(idx)[:, idx], axis=1, bitorder="little")
        return [int.from_bytes(row.tobytes(), "little") for row in packed]

    def components(self) -> list[list[int]]:
        """Connected components as sorted vertex lists, sorted by minimum vertex."""
        seen = 0
        out: list[list[int]] = []
        for v in range(self.n):
            if (seen >> v) & 1:
                continue
            frontier = 1 << v
            comp = 0
            while frontier:
                comp |= frontier
                nxt = 0
                for u in _bit_indices(frontier):
                    nxt |= self._adj[u]
                frontier = nxt & ~comp
            seen |= comp
            out.append(list(_bit_indices(comp)))
        return out

    def _bit_matrix(self, vertices: Sequence[int] | None = None) -> np.ndarray:
        """Adjacency rows of `vertices` (default all, in order) as a
        len(vertices) x n uint8 0/1 matrix; rows must lie in 0..n-1."""
        if vertices is None:
            vertices = range(self.n)
        nbytes = (self.n + 7) // 8
        buf = b"".join(self._adj[v].to_bytes(nbytes, "little") for v in vertices)
        bits = np.unpackbits(
            np.frombuffer(buf, dtype=np.uint8).reshape(len(vertices), nbytes),
            axis=1,
            bitorder="little",
        )
        return bits[:, : self.n]

    def to_numpy(self) -> np.ndarray:
        """Dense symmetric 0/1 adjacency matrix (float64)."""
        return self._bit_matrix().astype(np.float64)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, tuple(self._adj)))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"


def turan_part_sizes(n: int, r: int) -> list[int]:
    """Part sizes of T_r(n): as equal as possible, larger parts first."""
    if r < 1:
        raise ValueError("part count r must be at least 1")
    if n < 0:
        raise ValueError("order must be non-negative")
    q, k = divmod(n, r)
    return [q + 1] * k + [q] * (r - k)


def _complete_multipartite_rows(sizes: Sequence[int]) -> list[int]:
    n = sum(sizes)
    full = (1 << n) - 1
    rows = [0] * n
    start = 0
    for s in sizes:
        part_mask = ((1 << s) - 1) << start
        for v in range(start, start + s):
            rows[v] = full & ~part_mask
        start += s
    return rows


def make_turan(n: int, r: int) -> Graph:
    """Turan graph T_r(n); vertices in contiguous blocks, larger parts first."""
    sizes = [s for s in turan_part_sizes(n, r) if s > 0]
    if not sizes:
        return Graph(n)
    return Graph(n, _complete_multipartite_rows(sizes))


def make_complete_multipartite(spec: PartSpec | Sequence[int]) -> Graph:
    """K_r(s_1, ..., s_r); vertices in contiguous blocks per part."""
    spec = spec if isinstance(spec, PartSpec) else PartSpec(tuple(spec))
    return Graph(spec.total, _complete_multipartite_rows(spec.sizes))


def _plus_edge_graph(sizes: Sequence[int]) -> Graph:
    """K(sizes) plus the edge (0, 1), set in the rows before the one
    validation; sizes[0] >= 2."""
    rows = _complete_multipartite_rows(sizes)
    rows[0] |= 0b10
    rows[1] |= 0b01
    return Graph(len(rows), rows)


def make_kr_plus(spec: PartSpec | Sequence[int]) -> Graph:
    """K_r(s_1, ..., s_r) plus one edge between the two lowest vertices of part 1."""
    spec = spec if isinstance(spec, PartSpec) else PartSpec(tuple(spec))
    spec.require_first_part_at_least_two()
    return _plus_edge_graph(spec.sizes)


def make_turan_plus_edge(n: int, r: int) -> Graph:
    """T_r(n) plus the edge (0, 1) inside the first (largest) part."""
    sizes = turan_part_sizes(n, r)
    if sizes[0] < 2:
        raise ValueError(f"T_{r}({n}) has no part of size >= 2")
    return _plus_edge_graph([s for s in sizes if s > 0])


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, [full & ~(1 << v) for v in range(n)])


def random_gnm(n: int, m: int, seed: int) -> Graph:
    """Uniform graph with n vertices and exactly m edges, deterministic in seed.

    Uses a partial Fisher-Yates shuffle over the lexicographic list of
    vertex pairs, driven by SplitMix64, so the sampled edge set depends
    only on (n, m, seed).  The m draws come from one
    `SplitMix64.below_many` call, the same stream as m calls to `below`;
    the picked pair indices are unranked and set in a packed bit matrix
    with numpy.
    """
    max_m = n * (n - 1) // 2
    if not (0 <= m <= max_m):
        raise ValueError(f"edge count {m} out of range [0, {max_m}]")
    slots = np.arange(m, dtype=np.uint64)
    # Slot i swaps with slot j = i + below(max_m - i).
    swaps = (SplitMix64(seed).below_many(max_m - slots) + slots).tolist()
    # Virtual shuffle: remap[i] holds the pair index currently at slot i.
    remap: dict[int, int] = {}
    get = remap.get
    picks = []
    for i, j in enumerate(swaps):
        picks.append(get(j, j))
        remap[j] = get(i, i)
    u, v = _pairs_from_indices(n, np.array(picks, dtype=np.int64))
    nbytes = (n + 7) // 8
    bits = np.zeros((n, 8 * nbytes), dtype=np.uint8)
    bits[u, v] = 1
    bits[v, u] = 1
    packed = np.packbits(bits, axis=1, bitorder="little")
    return Graph(n, [int.from_bytes(row.tobytes(), "little") for row in packed])


def _pairs_from_indices(n: int, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (u, v), u < v, at lexicographic ranks `idx` (int64 array).

    Unranked from the last pair: rows n-2, n-3, ... hold 1, 2, ... pairs,
    so `back` pairs from the end lie t(t+1)/2 + offset in, in row n-2-t.
    The float square root gives t to within one; the integer steps after
    it make t exact.
    """
    back = n * (n - 1) // 2 - 1 - idx
    t = ((np.sqrt(8 * back + 1) - 1) // 2).astype(np.int64)
    t -= t * (t + 1) // 2 > back
    t += (t + 1) * (t + 2) // 2 <= back
    return n - 2 - t, n - 1 - (back - t * (t + 1) // 2)


def graph_from_edge_mask(n: int, mask: int) -> Graph:
    """Graph on n vertices from a bitmask over the lexicographic pair list."""
    g = Graph(n)
    idx = 0
    for u in range(n):
        for v in range(u + 1, n):
            if (mask >> idx) & 1:
                g._add_edge(u, v)
            idx += 1
    return g


def edge_mask_stack(n: int, masks: np.ndarray) -> np.ndarray:
    """(len(masks), n, n) uint8 stack of the 0/1 adjacency matrices of
    `graph_from_edge_mask(n, m)` for each mask m, without building a Graph:
    bit i of m is entry i of `np.triu_indices(n, 1)`, the lexicographic
    pair list, and its mirror."""
    rows, cols = np.triu_indices(n, 1)
    bits = (masks[:, None] >> np.arange(rows.size, dtype=masks.dtype)) & 1
    stack = np.zeros((masks.shape[0], n, n), dtype=np.uint8)
    stack[:, rows, cols] = bits
    stack[:, cols, rows] = bits
    return stack


def write_edge_list(g: Graph) -> str:
    """Serialize: header "<n> <m>" then one "u v" line per edge, lex sorted."""
    lines = [f"{g.n} {g.edge_count()}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def read_edge_list(text: str) -> Graph:
    """Parse the edge-list format; raises EdgeListError with a line number."""
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise EdgeListError(1, "missing header")
    head = lines[0].split()
    if len(head) != 2:
        raise EdgeListError(1, f"header must be '<n> <m>', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise EdgeListError(1, f"header must be two integers, got {lines[0]!r}") from None
    if n < 0 or m < 0:
        raise EdgeListError(1, "n and m must be non-negative")
    g = Graph(n)
    count = 0
    for line_no, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split()
        if len(parts) != 2:
            raise EdgeListError(line_no, f"expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListError(line_no, f"expected integers, got {raw!r}") from None
        if u == v:
            raise EdgeListError(line_no, f"self-loop at vertex {u}")
        if not (0 <= u < v < n):
            raise EdgeListError(line_no, f"edge ({u},{v}) violates 0 <= u < v < n={n}")
        if g.has_edge(u, v):
            raise EdgeListError(line_no, f"duplicate edge ({u},{v})")
        g._add_edge(u, v)
        count += 1
    if count != m:
        raise EdgeListError(len(lines), f"header promised {m} edges, found {count}")
    return g


def write_edge_list_file(g: Graph, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(write_edge_list(g))


def read_edge_list_file(path: str) -> Graph:
    with open(path, "r", encoding="ascii") as fh:
        return read_edge_list(fh.read())
