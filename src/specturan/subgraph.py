"""Clique counting, joints, books, multipartite embeddings, r-partiteness.

Everything here is exact and deterministic: fixed vertex orderings
(descending degree, ties by index) make every witness reproducible, and
search budgets are a first-class third outcome (BUDGET), never conflated
with a completed negative search (ABSENT).

Clique and joint counts run once on the twin-class representatives
(least members of classes of identical rows), weighted by class size.  A
clique holds at most one vertex per class, since twins are never
adjacent, and a common neighbourhood is a union of whole classes, so k_q
inside one is the sum over the q-cliques of representatives in it of the
product of their class sizes.  `_count_cliques_in` visits each such
clique once, by ordered expansion over bitset intersections.  A joint
size takes one count per pair of adjacent classes, whose edges share one
common neighbourhood; T_r(n)+e has r + 2 classes whatever n.  There is
no Kruskal-Katona bound and no count memo: the table-order break below
is the scan's one early stop.

Those class pairs form one table per host (`_class_pairs`), read off the
classes the graph stores: an entry (-|cn|, u, v) for the least members
u < v of each adjacent class pair, sorted, with cn = row(u) & row(v)
recomputed by one AND where needed.  It is built in numpy: the
representatives' rows packed into 64-bit words, a block of rows at a time
finds its adjacent representatives above it and counts each pair's |cn|
by one AND and `np.bitwise_count`, each block gathering at most
`_POPCOUNT_BLOCK_BYTES` per operand, so no k x k matrix is formed even
at k = 4096.  Each block's pairs are sorted in numpy and the blocks'
sorted runs merged.  `joint_size` scans it and stops at
the first entry whose bound C(|cn|, k) falls below the best count so far;
with `with_per_edge` it scans every entry and gives each pair's count to
all edges between its classes.  `find_kr_plus` tries part-1 edges in the
same order, by descending |cn| and then lexicographically, and walks them
lazily off the table: the class pairs of one key are expanded into
their edges, lexicographically per pair, and merged with `heapq.merge`;
a key whose pairs are all single vertices yields them directly.  So no
edge list is built or sorted, and a search that succeeds on its first
edges touches only those.  Both functions take the table in place of the
graph, which lets one per-graph analysis build it once for both.

2-coloring grows BFS layers as bitsets, O(n) big-int ORs whatever the
edge count; an edge inside a layer proves an odd cycle.  `is_r_partite`
also takes an `_InducedView` (a host, its members ascending and their
alive bitset) in place of a graph, and colours G[members] on the host's
rows masked by the bitset, with the result of the built subgraph,
colouring and node count included.  The stability peel evicts from one
such view instead of building G[members] at every step.  The K_r^+
embedder takes its degree-sorted rows from one permuted bit matrix,
without building a graph.

`clique_exists` and `book_size` search only the least member of each
twin class, which the graph keeps from its validation: the least clique,
and the least clique with the largest book, consist of representatives.
`clique_exists` first tries to certify absence: a greedy (r-1)-coloring
of the representatives by index, with one bitset per color class, costs
O(k r) big-int ANDs for k classes, and only when it fails does the
ordered search run.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

import numpy as np

from .graph import Graph, PartSpec, _bit_indices

DEFAULT_BUDGET = 10**8
DEFAULT_COLOR_CAP = 10**7
# Bytes of packed rows that one block of `_class_pairs` gathers per operand.
_POPCOUNT_BLOCK_BYTES = 1 << 20


class SearchStatus(Enum):
    FOUND = "found"
    ABSENT = "absent"
    BUDGET = "budget"


class EmbeddingValidationError(AssertionError):
    """A search produced an embedding that fails independent re-checking."""


@dataclass(frozen=True)
class CliqueCount:
    r: int
    count: int


@dataclass(frozen=True)
class JointReport:
    """Maximum number of r-cliques sharing one edge (js_r) plus witness."""

    r: int
    witness_edge: tuple[int, int] | None
    size: int
    per_edge: dict[tuple[int, int], int] | None = None


@dataclass(frozen=True)
class BookReport:
    """Maximum number of common neighbors over r-cliques, with witness."""

    r: int
    base_clique: tuple[int, ...] | None
    size: int


@dataclass(frozen=True)
class Embedding:
    """Witness for a (possibly augmented) complete multipartite subgraph."""

    parts: tuple[tuple[int, ...], ...]
    extra_edge: tuple[int, int] | None = None

    def vertices(self) -> list[int]:
        return [v for part in self.parts for v in part]


@dataclass(frozen=True)
class SearchResult:
    status: SearchStatus
    embedding: Embedding | None
    nodes_expanded: int


@dataclass(frozen=True)
class ColoringResult:
    status: SearchStatus  # FOUND = proper coloring, ABSENT = proven none, BUDGET = cap
    coloring: tuple[int, ...] | None
    nodes_expanded: int = 0


class _BudgetHit(Exception):
    pass


def _count_cliques_in(
    adj: Sequence[int], cand: int, r: int, sizes: Sequence[int], heavy: tuple
) -> int:
    """Sum, over the r-cliques inside the `cand` bitset, of the product of
    `sizes` over the clique.  `heavy` holds (s - 1, bitset of the vertices
    of size s) for each size s > 1, so the last vertex is weighed by one
    `bit_count` per entry; it is empty exactly when every size is 1, and
    then the last two levels take no product.  On the representatives with
    their class sizes (`_class_weights`), this is k_r of G inside the
    classes of `cand`."""
    if r == 0:
        return 1
    if r == 1:
        total = cand.bit_count()
        for extra, members in heavy:
            total += extra * (cand & members).bit_count()
        return total
    total = 0
    m = cand
    while m:
        low = m & -m
        v = low.bit_length() - 1
        m ^= low
        # m now holds only candidates above v, keeping the expansion ordered
        sub = adj[v] & m
        if r == 2:
            count = sub.bit_count()
            if heavy:
                for extra, members in heavy:
                    count += extra * (sub & members).bit_count()
                count *= sizes[v]
            total += count
        elif sub.bit_count() >= r - 1:
            total += sizes[v] * _count_cliques_in(adj, sub, r - 1, sizes, heavy)
    return total


def _class_weights(g: Graph) -> tuple[list[int], tuple[tuple[int, int], ...]]:
    """`sizes` and `heavy` for `_count_cliques_in` on g's representatives:
    each representative's class size (1 elsewhere), and (s - 1, bitset of
    the representatives of size-s classes) for each class size s > 1,
    ascending.  A twin-free host gives unit sizes and no `heavy` entry."""
    sizes = [1] * g.n
    by_size: dict[int, int] = {}
    for u, members in g._twin_members().items():
        s = members.bit_count()
        if s > 1:
            sizes[u] = s
            by_size[s] = by_size.get(s, 0) | 1 << u
    return sizes, tuple((s - 1, by_size[s]) for s in sorted(by_size))


def count_cliques(g: Graph, r: int) -> CliqueCount:
    """Exact k_r(G), counted on the twin-class representatives weighted by
    class size.  Python integers widen automatically, so counts never
    overflow."""
    if r < 1:
        raise ValueError("clique order must be at least 1")
    if r > g.n:
        return CliqueCount(r, 0)
    sizes, heavy = _class_weights(g)
    return CliqueCount(r, _count_cliques_in(g._adj, g._representatives(), r, sizes, heavy))


def _greedy_colorable(g: Graph, colors: int) -> bool:
    """Greedy coloring by vertex index; success proves K_{colors+1}-freeness.

    Vertex v takes the least color whose class (a bitset of lower
    vertices) misses v's row.  Only twin-class representatives are
    colored: by induction on v, every vertex of G would take the color of
    the least member of its class, which lies below it and whose row is
    its own, so G's greedy coloring succeeds exactly when theirs does.
    """
    if colors <= 0:
        return g.n == 0
    adj = g._adj
    classes = [0] * colors
    for v in _bit_indices(g._representatives()):
        row = adj[v]
        for c in range(colors):
            if not row & classes[c]:
                classes[c] |= 1 << v
                break
        else:
            return False
    return True


def _clique_rec(adj: Sequence[int], cand: int, need: int, out: list[int]) -> bool:
    """Extend the clique `out` by `need` vertices of `cand`, least first.

    Module-level rather than a closure: a self-recursive closure is a
    reference cycle that would keep the graph's rows alive until the next
    garbage collection.
    """
    if need == 0:
        return True
    if cand.bit_count() < need:
        return False
    m = cand
    while m:
        low = m & -m
        v = low.bit_length() - 1
        m ^= low
        out.append(v)
        if _clique_rec(adj, adj[v] & m, need - 1, out):
            return True
        out.pop()
    return False


def clique_exists(g: Graph, r: int) -> tuple[int, ...] | None:
    """Lexicographically least r-clique, or None after exhaustive search.

    Both the coloring certificate and the search run on the twin-class
    representatives (least members).  A clique holds at most one vertex
    per class, and replacing each by its class's least member keeps a
    clique and gives an elementwise smaller sorted tuple, so the least
    r-clique of G is a clique of representatives.
    """
    if r < 1:
        raise ValueError("clique order must be at least 1")
    if r > g.n:
        return None
    if r == 1:
        return (0,)
    # A proper (r-1)-coloring certifies absence without search.
    if _greedy_colorable(g, r - 1):
        return None
    out: list[int] = []
    if _clique_rec(g._adj, g._representatives(), r, out):
        return tuple(out)
    return None


@dataclass(frozen=True, eq=False)
class _ClassPairs:
    """A host's twin-class-pair table: `(-|cn|, u, v)` for the least members
    u < v of every pair of adjacent twin classes, sorted, where cn is the
    common neighbourhood row(u) & row(v) (not stored)."""

    g: Graph
    table: list[tuple[int, int, int]]


def _class_pairs(g: Graph) -> _ClassPairs:
    """The class-pair table of g, which `joint_size` scans and `find_kr_plus`
    walks; either takes it in place of the graph.

    The representatives' rows are packed into 64-bit words, and a block of
    consecutive rows at a time finds its adjacent representatives above it
    and counts each pair's common neighbourhood by one AND and
    `np.bitwise_count`.  A block holds as many rows as keeps each gathered
    operand within `_POPCOUNT_BLOCK_BYTES`.  A block's pairs come out
    lexicographically, so a stable sort by descending count puts them in
    table order; with more than one block, one list sort merges the
    blocks' sorted runs."""
    reps = list(g._twin_members())
    k = len(reps)
    width = 8 * ((g.n + 63) // 64)
    adj = g._adj
    words = np.frombuffer(
        b"".join(adj[u].to_bytes(width, "little") for u in reps), dtype=np.uint64
    ).reshape(k, width // 8)
    cols = np.array(reps, dtype=np.intp)
    step = max(1, _POPCOUNT_BLOCK_BYTES // max(1, k * width))
    table: list[tuple[int, int, int]] = []
    for start in range(0, k, step):
        block = words[start : start + step].view(np.uint8)
        i, j = np.nonzero(np.unpackbits(block, axis=1, bitorder="little")[:, cols])
        i += start
        above = j > i
        i, j = i[above], j[above]
        neg = -np.bitwise_count(words[i] & words[j]).sum(axis=1, dtype=np.int64)
        order = np.argsort(neg, kind="stable")
        u, v = cols[i[order]], cols[j[order]]
        table.extend(zip(neg[order].tolist(), u.tolist(), v.tolist()))
    if step < k:
        table.sort()  # merges the blocks' sorted runs
    return _ClassPairs(g, table)


def _pair_edges(a: int, b: int) -> Iterator[tuple[int, int]]:
    """The edges between the disjoint, completely joined classes a and b
    (bitsets), lexicographically."""
    for u in _bit_indices(a | b):
        other = b if (a >> u) & 1 else a
        for w in _bit_indices(other >> (u + 1)):
            yield (u, u + 1 + w)


def _edge_order(pairs: _ClassPairs) -> Iterator[tuple[int, int]]:
    """Every edge of the host, by descending |cn| and then lexicographically:
    the class pairs of one table key are merged edge by edge."""
    classes = pairs.g._twin_members()
    for _, entries in itertools.groupby(pairs.table, key=lambda entry: entry[0]):
        same_key = [(classes[u], classes[v], u, v) for _, u, v in entries]
        if all(a == 1 << u and b == 1 << v for a, b, u, v in same_key):
            for _, _, u, v in same_key:
                yield (u, v)
        else:
            yield from heapq.merge(*(_pair_edges(a, b) for a, b, _, _ in same_key))


def joint_size(g: Graph, r: int, with_per_edge: bool = False) -> JointReport:
    """js_r(G): max over edges of the number of r-cliques through the edge.

    Ties break to the lexicographically least witness edge.  With
    `with_per_edge`, the full edge -> count map is computed (no early stop).
    g may also be the graph's `_class_pairs` table, which is then scanned
    instead of a fresh one.
    """
    if r < 2:
        raise ValueError("joint order must be at least 2")
    pairs = g if isinstance(g, _ClassPairs) else _class_pairs(g)
    g = pairs.g
    adj, reps, classes = g._adj, g._representatives(), g._twin_members()
    sizes, heavy = _class_weights(g)
    k = r - 2  # cliques of this order are counted inside common neighborhoods
    per_edge: dict[tuple[int, int], int] | None = {} if with_per_edge else None
    # Twins are never adjacent, so every edge between twin classes A and B
    # has the common neighbourhood row(A) & row(B), and the least of them
    # is (min A, min B).  One count per class pair is the count of each of
    # its edges, and decides size and witness.
    best = -1
    witness: tuple[int, int] | None = None
    for neg_size, u, v in pairs.table:
        # C(|cn|, k) bounds the count, exactly for k <= 1, and shrinks down
        # the table, so once it falls below best no later pair can reach it.
        bound = math.comb(-neg_size, k)
        if bound < best and per_edge is None:
            break
        if k <= 1:
            count = bound
        else:
            count = _count_cliques_in(adj, adj[u] & adj[v] & reps, k, sizes, heavy)
        if per_edge is not None:
            for edge in _pair_edges(classes[u], classes[v]):
                per_edge[edge] = count
        if count > best or (count == best and (u, v) < witness):
            best = count
            witness = (u, v)
    return JointReport(r, witness, max(best, 0), per_edge)


def _book_rec(
    adj: Sequence[int], cand: int, common: int, need: int, stack: list[int], best: list
) -> None:
    """Raise best = [size, clique] over the cliques that extend `stack` by
    `need` vertices of `cand`; `common` is the common neighbourhood of
    `stack`.  Module-level for the reason given at `_clique_rec`."""
    if need == 0:
        size = common.bit_count()
        if size > best[0]:
            best[0] = size
            best[1] = tuple(stack)
        return
    if cand.bit_count() < need:
        return
    m = cand
    while m:
        low = m & -m
        v = low.bit_length() - 1
        m ^= low
        stack.append(v)
        _book_rec(adj, adj[v] & m, common & adj[v], need - 1, stack, best)
        stack.pop()


def book_size(g: Graph, r: int) -> BookReport:
    """Max |common neighborhood| over r-cliques; witness is the
    lexicographically least maximizing clique.

    Base cliques are drawn from the twin-class representatives only, while
    common neighbourhoods are counted in all of G.  Replacing each vertex
    of a clique by its class's least member keeps the common
    neighbourhood (twins share rows) and gives an elementwise smaller
    sorted tuple, so the least maximizing clique is one of representatives.
    """
    if r < 1:
        raise ValueError("base clique order must be at least 1")
    if r > g.n:
        return BookReport(r, None, 0)
    best: list = [-1, None]
    _book_rec(g._adj, g._representatives(), (1 << g.n) - 1, r, [], best)
    if best[0] < 0:
        return BookReport(r, None, 0)
    return BookReport(r, best[1], best[0])


def validate_embedding(
    g: Graph,
    sizes: Sequence[int],
    emb: Embedding,
    require_extra_edge: bool,
) -> None:
    """Independent re-check of an embedding against the host graph.

    Raises EmbeddingValidationError on any violation; run after every
    successful search.
    """
    if len(emb.parts) != len(sizes):
        raise EmbeddingValidationError("part count mismatch")
    seen: set[int] = set()
    for part, want in zip(emb.parts, sizes):
        if len(part) != want:
            raise EmbeddingValidationError(f"part size {len(part)} != {want}")
        for v in part:
            if not (0 <= v < g.n):
                raise EmbeddingValidationError(f"vertex {v} out of range")
            if v in seen:
                raise EmbeddingValidationError(f"vertex {v} reused")
            seen.add(v)
    for i, part_a in enumerate(emb.parts):
        for part_b in emb.parts[i + 1 :]:
            for a in part_a:
                for b in part_b:
                    if not g.has_edge(a, b):
                        raise EmbeddingValidationError(f"missing cross edge ({a},{b})")
    if require_extra_edge:
        if emb.extra_edge is None:
            raise EmbeddingValidationError("extra edge missing")
        a, b = emb.extra_edge
        if a not in emb.parts[0] or b not in emb.parts[0]:
            raise EmbeddingValidationError("extra edge not inside part 1")
        if not g.has_edge(a, b):
            raise EmbeddingValidationError("extra edge not a host edge")
    elif emb.extra_edge is not None:
        raise EmbeddingValidationError("unexpected extra edge")


class _Embedder:
    """Backtracking part-filler over a degree-sorted relabeling of the host.

    Its rows are the host's, relabelled by descending degree (ties by
    index) in one permuted bit matrix, with no graph built or validated.
    Parts are filled one at a time; the candidate pool for part j is the
    intersection of the neighborhoods of everything placed in parts < j,
    which excludes those vertices automatically.  Exhausted subproblems are
    memoized by (part index, pool), which collapses the symmetric per-edge
    searches on structured hosts.  The expansion budget is shared across
    one public search call.
    """

    def __init__(self, g: Graph, budget: int) -> None:
        self.g = g
        order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
        self.to_orig = order
        to_new = [0] * g.n
        for new, old in enumerate(order):
            to_new[old] = new
        self.to_new = to_new
        self.adj = g._induced_rows(order)
        self.budget = budget
        self.nodes = 0
        self.memo_failed: set[tuple[int, int]] = set()

    def _charge(self) -> None:
        self.nodes += 1
        if self.nodes > self.budget:
            raise _BudgetHit

    def search(
        self, sizes: Sequence[int], pinned_first: tuple[int, int] | None
    ) -> list[list[int]] | None:
        """Fill parts of the given sizes; part 0 optionally pre-seeded with
        two (new-label) vertices.  Returns new-label parts or None."""
        n = self.g.n
        if sum(sizes) > n:
            return None
        full = (1 << n) - 1
        self.sizes = sizes
        self.parts = [[] for _ in sizes]
        self.suffix_need = [0] * (len(sizes) + 1)
        for j in range(len(sizes) - 1, -1, -1):
            self.suffix_need[j] = self.suffix_need[j + 1] + sizes[j]
        adj = self.adj
        if pinned_first is not None:
            a, b = pinned_first
            if len(sizes) == 0:
                return None
            if sizes[0] < 2:
                raise ValueError("pinned part needs size >= 2")
            self.parts[0] = [a, b]
            base0 = full & ~((1 << a) | (1 << b))
            ok = self._fill_slots(0, 2, base0, adj[a] & adj[b], -1)
        else:
            ok = self._fill_part(0, full)
        if not ok:
            return None
        return [list(p) for p in self.parts]

    # Methods, not closures inside `search`, for the reason given at
    # `_clique_rec`.

    def _fill_part(self, j: int, base: int) -> bool:
        if j == len(self.sizes):
            return True
        if base.bit_count() < self.suffix_need[j]:
            return False
        key = (j, base)
        if key in self.memo_failed:
            return False
        accum = base
        for w in self.parts[j]:
            accum &= self.adj[w]
        if self._fill_slots(j, len(self.parts[j]), base, accum, -1):
            return True
        self.memo_failed.add(key)
        return False

    def _fill_slots(self, j: int, slot: int, base: int, accum: int, last: int) -> bool:
        size = self.sizes[j]
        if slot == size:
            return self._fill_part(j + 1, accum)
        if accum.bit_count() < self.suffix_need[j + 1]:
            return False
        cand = base & ~((1 << (last + 1)) - 1) if last >= 0 else base
        if cand.bit_count() < size - slot:
            return False
        adj, part = self.adj, self.parts[j]
        m = cand
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            self._charge()
            part.append(v)
            if self._fill_slots(j, slot + 1, base, accum & adj[v], v):
                return True
            part.pop()
        return False


def _sorted_spec(sizes: Sequence[int]) -> tuple[list[int], list[int]]:
    """Sizes in decreasing order (stable) plus the original index of each."""
    idx = sorted(range(len(sizes)), key=lambda i: (-sizes[i], i))
    return [sizes[i] for i in idx], idx


def find_complete_multipartite(
    g: Graph, spec: PartSpec | Sequence[int], budget: int = DEFAULT_BUDGET
) -> SearchResult:
    """Exact search for K_r(s_1, ..., s_r) as a (not necessarily induced)
    subgraph.  Parts are filled in decreasing size order; candidates are
    tried in descending host degree (ties by index)."""
    spec = spec if isinstance(spec, PartSpec) else PartSpec(tuple(spec))
    emb = _Embedder(g, budget)
    sorted_sizes, idx = _sorted_spec(spec.sizes)
    try:
        parts_new = emb.search(sorted_sizes, None)
    except _BudgetHit:
        return SearchResult(SearchStatus.BUDGET, None, emb.nodes)
    if parts_new is None:
        return SearchResult(SearchStatus.ABSENT, None, emb.nodes)
    parts_orig: list[tuple[int, ...]] = [()] * len(spec.sizes)
    for fill_pos, orig_pos in enumerate(idx):
        parts_orig[orig_pos] = tuple(emb.to_orig[v] for v in parts_new[fill_pos])
    result = Embedding(tuple(parts_orig), None)
    validate_embedding(g, spec.sizes, result, require_extra_edge=False)
    return SearchResult(SearchStatus.FOUND, result, emb.nodes)


def find_kr_plus(
    g: Graph, spec: PartSpec | Sequence[int], budget: int = DEFAULT_BUDGET
) -> SearchResult:
    """Exact search for K_r^+(s_1, ..., s_r): complete multipartite plus one
    edge inside part 1.

    Host edges are tried as the part-1 edge in descending order of common
    neighborhood size (ties lexicographic), walked lazily off the
    class-pair table (g may be that table in place of the graph); the
    remaining parts are filled like find_complete_multipartite.  One
    expansion budget and one memoization table span all edge attempts.
    """
    spec = spec if isinstance(spec, PartSpec) else PartSpec(tuple(spec))
    spec.require_first_part_at_least_two()
    pairs = g if isinstance(g, _ClassPairs) else _class_pairs(g)
    g = pairs.g
    emb = _Embedder(g, budget)
    rest_sorted, rest_idx = _sorted_spec(spec.sizes[1:])
    sizes_fill = [spec.sizes[0]] + rest_sorted
    try:
        for u, v in _edge_order(pairs):
            a, b = emb.to_new[u], emb.to_new[v]
            parts_new = emb.search(sizes_fill, (a, b))
            if parts_new is not None:
                parts_orig: list[tuple[int, ...]] = [()] * spec.r
                parts_orig[0] = tuple(emb.to_orig[w] for w in parts_new[0])
                for fill_pos, orig_pos in enumerate(rest_idx):
                    parts_orig[orig_pos + 1] = tuple(
                        emb.to_orig[w] for w in parts_new[fill_pos + 1]
                    )
                result = Embedding(tuple(parts_orig), (u, v))
                validate_embedding(g, spec.sizes, result, require_extra_edge=True)
                return SearchResult(SearchStatus.FOUND, result, emb.nodes)
    except _BudgetHit:
        return SearchResult(SearchStatus.BUDGET, None, emb.nodes)
    return SearchResult(SearchStatus.ABSENT, None, emb.nodes)


class _InducedView:
    """G[members] read on the host's rows instead of built: the host `g`,
    its `members` in ascending order and their bitset `alive`.  Vertex i
    of the view is members[i].  The relabelling keeps order, so every
    lowest-index tie falls as on `g.induced_subgraph(members)`, and
    `is_r_partite` takes the view in place of that graph.  `evict` drops
    one member."""

    __slots__ = ("g", "members", "alive")

    def __init__(self, g: Graph, members: list[int]) -> None:
        self.g = g
        self.members = members
        self.alive = 0
        for v in members:
            self.alive |= 1 << v

    @property
    def n(self) -> int:
        return len(self.members)

    def evict(self, v: int) -> None:
        self.members.remove(v)
        self.alive ^= 1 << v


def _rows_of(g: Graph | _InducedView) -> tuple[Sequence[int], Sequence[int]]:
    """(vertices, rows) on the host's labels: the vertices ascending, and
    rows indexed by host vertex, each vertex's row cut down to the
    vertices.  A graph is its own host, with its own rows."""
    if isinstance(g, Graph):
        return range(g.n), g._adj
    adj, alive = g.g._adj, g.alive
    rows = [0] * len(adj)
    for v in g.members:
        rows[v] = adj[v] & alive
    return g.members, rows


def _two_color(g: Graph | _InducedView) -> tuple[int, ...] | None:
    """The 2-coloring giving each component's least vertex color 0, or
    None.  Colors are BFS-layer parities, grown one bitset layer at a
    time; an edge inside a layer closes an odd cycle."""
    vertices, adj = _rows_of(g)
    seen = 0
    odd = 0
    for start in vertices:
        if (seen >> start) & 1:
            continue
        layer = 1 << start
        parity = 0
        while layer:
            reach = 0
            for v in _bit_indices(layer):
                reach |= adj[v]
            if reach & layer:
                return None
            seen |= layer
            if parity:
                odd |= layer
            layer = reach & ~seen
            parity ^= 1
    colors = [0] * len(adj)
    for v in _bit_indices(odd):
        colors[v] = 1
    return tuple(colors[v] for v in vertices)


class _CapHit(Exception):
    pass


class _Colorer:
    """Saturation-ordered backtracking r-coloring with a node cap: the next
    vertex has the most distinct neighbour colours, then the highest degree,
    and new colours are opened in first-use order only.  It colours a
    graph or an induced view on the host's labels (`_rows_of`)."""

    def __init__(self, g: Graph | _InducedView, r: int, node_cap: int) -> None:
        self.vertices, self.adj = _rows_of(g)
        self.r = r
        self.node_cap = node_cap
        self.colors = [-1] * len(self.adj)
        self.neighbor_colors = [0] * len(self.adj)  # colors used in each nbhd
        self.degrees = [row.bit_count() for row in self.adj]
        self.nodes = 0

    def pick(self) -> int:
        colors, neighbor_colors = self.colors, self.neighbor_colors
        degrees = self.degrees
        best_v = -1
        best_key = (-1, -1)
        for v in self.vertices:
            if colors[v] != -1:
                continue
            key = (neighbor_colors[v].bit_count(), degrees[v])
            if key > best_key:
                best_key = key
                best_v = v
        return best_v

    def extend(self) -> bool:
        """Colour every vertex, or return False once the search is spent.

        Depth-first with an explicit stack, so the depth is not bounded by
        the interpreter's recursion limit: one frame per coloured vertex,
        holding the vertex, its colours left to try, the colour count in
        use before it, and the neighbours its current colour newly marked.
        Colours are tried lowest first and nodes counted as they are, the
        order of the plain recursive search.
        """
        colors, neighbor_colors, adj = self.colors, self.neighbor_colors, self.adj
        frames: list[list] = []
        used = 0
        while len(frames) < len(self.vertices):
            v = self.pick()
            limit = min(self.r, used + 1)
            frames.append([v, ~neighbor_colors[v] & ((1 << limit) - 1), used, []])
            # Give the top frame its next colour, backtracking out of spent ones.
            while True:
                frame = frames[-1]
                v, avail, used, touched = frame
                c = colors[v]
                if c != -1:
                    colors[v] = -1
                    for u in touched:
                        neighbor_colors[u] &= ~(1 << c)
                if not avail:
                    frames.pop()
                    if not frames:
                        return False
                    continue
                low = avail & -avail
                c = low.bit_length() - 1
                frame[1] = avail ^ low
                self.nodes += 1
                if self.nodes > self.node_cap:
                    raise _CapHit
                colors[v] = c
                touched = []
                for u in _bit_indices(adj[v]):
                    if not (neighbor_colors[u] >> c) & 1:
                        neighbor_colors[u] |= 1 << c
                        touched.append(u)
                frame[3] = touched
                used = max(used, c + 1)
                break
        return True


def is_r_partite(
    g: Graph | _InducedView, r: int, node_cap: int = DEFAULT_COLOR_CAP
) -> ColoringResult:
    """Exact r-colorability: BFS for r = 2, saturation-ordered backtracking
    with a node cap for r >= 3.  Cap exhaustion is a distinct outcome.
    g may be an `_InducedView`: the result is that of its induced
    subgraph, colouring and node count included."""
    if r < 1:
        raise ValueError("color count must be at least 1")
    if g.n == 0:
        return ColoringResult(SearchStatus.FOUND, ())
    if r >= g.n:
        return ColoringResult(SearchStatus.FOUND, tuple(range(g.n)))
    if r == 1:
        vertices, rows = _rows_of(g)
        if not any(rows[v] for v in vertices):
            return ColoringResult(SearchStatus.FOUND, (0,) * g.n)
        return ColoringResult(SearchStatus.ABSENT, None)
    if r == 2:
        coloring = _two_color(g)
        if coloring is None:
            return ColoringResult(SearchStatus.ABSENT, None)
        return ColoringResult(SearchStatus.FOUND, coloring)

    col = _Colorer(g, r, node_cap)
    try:
        if col.extend():
            coloring = tuple(col.colors[v] for v in col.vertices)
            return ColoringResult(SearchStatus.FOUND, coloring, col.nodes)
        return ColoringResult(SearchStatus.ABSENT, None, col.nodes)
    except _CapHit:
        return ColoringResult(SearchStatus.BUDGET, None, col.nodes)
