"""Independent brute-force oracles for the test suite.

Everything here enumerates vertex subsets with itertools and checks pairs
with Graph.has_edge only, deliberately sharing no code with the production
counting and search paths.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from specturan.graph import Graph, make_turan, make_turan_plus_edge, random_gnm
from specturan.rng import SplitMix64


def is_clique(g: Graph, vertices: tuple[int, ...]) -> bool:
    return all(
        g.has_edge(u, v) for u, v in itertools.combinations(vertices, 2)
    )


def all_cliques(g: Graph) -> dict[int, list[tuple[int, ...]]]:
    """Every clique of every order, keyed by order."""
    out: dict[int, list[tuple[int, ...]]] = {r: [] for r in range(1, g.n + 1)}
    for r in range(1, g.n + 1):
        for combo in itertools.combinations(range(g.n), r):
            if is_clique(g, combo):
                out[r].append(combo)
    return out


def brute_clique_count(g: Graph, r: int) -> int:
    if r > g.n:
        return 0
    return sum(1 for c in itertools.combinations(range(g.n), r) if is_clique(g, c))


def listed_cliques(g: Graph, r: int) -> list[tuple[int, ...]]:
    """Every r-clique of g, ascending, by extending each clique with the
    vertices above its last one that are adjacent to all of it.  Unlike
    `all_cliques`, it visits only cliques, so it reaches hosts of 30 or
    more vertices."""
    out: list[tuple[int, ...]] = []

    def extend(clique: tuple[int, ...], cand: list[int]) -> None:
        if len(clique) == r:
            out.append(clique)
            return
        for i, w in enumerate(cand):
            extend(clique + (w,), [x for x in cand[i + 1 :] if g.has_edge(w, x)])

    extend((), list(range(g.n)))
    return out


def brute_per_edge(g: Graph, cliques: list[tuple[int, ...]]) -> dict[tuple[int, int], int]:
    """Every edge of g mapped to the number of the given cliques through it."""
    return {
        (u, v): sum(1 for c in cliques if u in c and v in c) for u, v in g.edges()
    }


def brute_joint_size(g: Graph, r: int) -> tuple[int, tuple[int, int] | None]:
    """(js_r, lexicographically least witness edge)."""
    edges = list(g.edges())
    if not edges:
        return 0, None
    cliques = [c for c in itertools.combinations(range(g.n), r) if is_clique(g, c)]
    best = -1
    witness = None
    for u, v in edges:
        cnt = sum(1 for c in cliques if u in c and v in c)
        if cnt > best:
            best = cnt
            witness = (u, v)
    return best, witness


def brute_book_size(g: Graph, r: int) -> tuple[int, tuple[int, ...] | None]:
    best = -1
    witness = None
    for combo in itertools.combinations(range(g.n), r):
        if not is_clique(g, combo):
            continue
        common = sum(
            1
            for w in range(g.n)
            if w not in combo and all(g.has_edge(w, v) for v in combo)
        )
        if common > best:
            best = common
            witness = combo
    if best < 0:
        return 0, None
    return best, witness


def eig_mu(g: Graph) -> float:
    """Dense symmetric eigensolver oracle for the spectral radius."""
    if g.n == 0:
        return 0.0
    return float(np.linalg.eigvalsh(g.to_numpy())[-1])


def charpoly_mu(g: Graph):
    """mu(G) as an exact sympy algebraic number: the largest real root of
    the n x n adjacency characteristic polynomial (0 for the empty graph)."""
    import sympy

    if g.n == 0:
        return sympy.Integer(0)
    lam = sympy.Symbol("lam")
    m = sympy.Matrix(g.n, g.n, lambda i, j: 1 if i != j and g.has_edge(i, j) else 0)
    return sympy.Poly(m.charpoly(lam).as_expr(), lam).real_roots()[-1]


def brute_has_multipartite(g: Graph, sizes: tuple[int, ...]) -> bool:
    """Exhaustive test for a complete multipartite subgraph (tiny hosts)."""
    total = sum(sizes)
    if total > g.n:
        return False
    for combo in itertools.combinations(range(g.n), total):
        for perm in _partitions(list(combo), sizes):
            if _cross_complete(g, perm):
                return True
    return False


def _partitions(items: list[int], sizes: tuple[int, ...]):
    if not sizes:
        yield []
        return
    first_size = sizes[0]
    for first in itertools.combinations(items, first_size):
        rest = [x for x in items if x not in first]
        for tail in _partitions(rest, sizes[1:]):
            yield [list(first)] + tail


def _cross_complete(g: Graph, parts: list[list[int]]) -> bool:
    for i, pa in enumerate(parts):
        for pb in parts[i + 1 :]:
            for a in pa:
                for b in pb:
                    if not g.has_edge(a, b):
                        return False
    return True


def brute_stability_witness(
    g: Graph, r: int, order_floor, degree_bound
) -> tuple[int, ...] | None:
    """Exhaustive stability branch (b) (tiny hosts): the first non-empty
    vertex set S, largest first, with |S| >= order_floor whose induced
    subgraph is r-colourable and has minimum degree > degree_bound."""
    for k in range(g.n, 0, -1):
        if k < order_floor:
            break
        for combo in itertools.combinations(range(g.n), k):
            min_degree = min(
                sum(1 for w in combo if w != v and g.has_edge(v, w)) for v in combo
            )
            if min_degree > degree_bound and _brute_colorable(g, combo, r):
                return combo
    return None


def _brute_colorable(g: Graph, vertices: tuple[int, ...], r: int) -> bool:
    edges = [
        (i, j)
        for i, j in itertools.combinations(range(len(vertices)), 2)
        if g.has_edge(vertices[i], vertices[j])
    ]
    return any(
        all(colors[i] != colors[j] for i, j in edges)
        for colors in itertools.product(range(r), repeat=len(vertices))
    )


def brute_greedy_colorable(g: Graph, colors: int) -> bool:
    """Greedy coloring by vertex index, by its definition: each vertex takes
    the least color unused by its lower neighbours, read one at a time."""
    if colors <= 0:
        return g.n == 0
    assigned: list[int] = []
    for v in range(g.n):
        row = g.neighbors_mask(v)
        used = 0
        lower = row & ((1 << v) - 1)
        while lower:
            low = lower & -lower
            used |= 1 << assigned[low.bit_length() - 1]
            lower ^= low
        c = 0
        while (used >> c) & 1:
            c += 1
        if c >= colors:
            return False
        assigned.append(c)
    return True


def canonical_mask(n: int, mask: int) -> int:
    """Brute-force canonical form of an edge mask over the lexicographic
    pair list: the smallest mask among all n! vertex relabellings."""
    pairs = list(itertools.combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    edges = [p for i, p in enumerate(pairs) if (mask >> i) & 1]
    best = None
    for perm in itertools.permutations(range(n)):
        image = 0
        for u, v in edges:
            image |= 1 << index[tuple(sorted((perm[u], perm[v])))]
        if best is None or image < best:
            best = image
    return best


def canonical_masks(n: int) -> np.ndarray:
    """`canonical_mask` of every mask of order n, in mask order: the
    elementwise minimum of the relabelled masks over all n! relabellings,
    each relabelling applied bit by bit to the whole mask range."""
    pairs = list(itertools.combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    masks = np.arange(1 << len(pairs), dtype=np.int64)
    best = masks.copy()
    for perm in itertools.permutations(range(n)):
        image = np.zeros_like(masks)
        for i, (u, v) in enumerate(pairs):
            image |= ((masks >> i) & 1) << index[tuple(sorted((perm[u], perm[v])))]
        np.minimum(best, image, out=best)
    return best


@functools.cache
def _relabelling_table(n: int) -> np.ndarray:
    """The (n!, C(n, 2)) table of the bit each pair is sent to by each
    vertex relabelling, built pair by pair with itertools."""
    pairs = list(itertools.combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    return np.array(
        [
            [1 << index[tuple(sorted((perm[u], perm[v])))] for u, v in pairs]
            for perm in itertools.permutations(range(n))
        ],
        dtype=np.int64,
    ).reshape(math.factorial(n), len(pairs))


def table_canonical_mask(n: int, mask: int) -> int:
    """`canonical_mask` read off the relabelling table: the least of the
    mask's n! images, each the sum of its edges' table entries."""
    table = _relabelling_table(n)
    bits = [i for i in range(table.shape[1]) if (mask >> i) & 1]
    return int(table[:, bits].sum(axis=1).min())


def reference_mask_classes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(least mask of each isomorphism class, orbit size), by increasing
    mask, from orbit marking over every mask: the smallest unmarked mask
    opens a class, and the images of it and of its complement under all n!
    relabellings (`_relabelling_table`) are marked."""
    table = _relabelling_table(n)
    width = table.shape[1]
    total = 1 << width
    full = total - 1
    visited = np.zeros(total, dtype=bool)
    reps: list[int] = []
    sizes: list[int] = []
    for rep in range(total):
        if visited[rep]:
            continue
        bits = [i for i in range(width) if (rep >> i) & 1]
        images = table[:, bits].sum(axis=1)
        visited[images] = True
        size = len(table) // int(np.count_nonzero(images == rep))
        reps.append(rep)
        sizes.append(size)
        complement = full ^ int(images.max())
        if complement != rep:
            visited[full ^ images] = True
            reps.append(complement)
            sizes.append(size)
    order = np.argsort(reps)
    return np.array(reps)[order], np.array(sizes)[order]


def turan_plus_edge_mu(n: int, r: int) -> float:
    """mu(T_r(n)+e) from an equitable partition, independent of the power
    iteration.

    With the extra edge (0, 1) inside the first (largest) part, the cells
    {0, 1}, the rest of part 0, and each other part are equitable: every
    vertex of a cell has the same number of neighbours in each cell.  The
    Perron vector is constant on the cells, so mu is the largest
    eigenvalue of the quotient matrix, taken exactly as the largest real
    root of its characteristic polynomial (sympy) and rounded to a float.
    """
    import sympy

    q, rem = divmod(n, r)
    sizes = [q + 1] * rem + [q] * (r - rem)
    cells = [(0, 2), (0, sizes[0] - 2)] + [(j, s) for j, s in enumerate(sizes) if j]
    cells = [(part, size) for part, size in cells if size > 0]
    quotient = [
        [
            size_j if part_i != part_j else int(i == j == 0)
            for j, (part_j, size_j) in enumerate(cells)
        ]
        for i, (part_i, _) in enumerate(cells)
    ]
    lam = sympy.Symbol("lam")
    poly = sympy.Matrix(quotient).charpoly(lam)
    return float(sympy.Poly(poly.as_expr(), lam).real_roots()[-1].evalf(30))


def turan_neighbourhood_hosts(r: int, seed: int) -> list[Graph]:
    """T_r(n), T_r(n) - e, T_r(n) + e and seeded G(n, m) with m within one
    of e(T_r(n)), for r < n < 10: hosts whose spectral comparisons with
    mu(T_r(n)) tie, clear and miss."""
    rng = SplitMix64(seed)
    hosts = []
    for n in range(r + 1, 10):
        t = make_turan(n, r)
        hosts += [t, t.without_edge(*next(t.edges()))]
        if n >= 2 * r:
            hosts.append(make_turan_plus_edge(n, r))
        m = min(t.edge_count() + rng.below(3) - 1, n * (n - 1) // 2)
        hosts.append(random_gnm(n, m, rng.next_u64()))
    return hosts


# Reference implementations kept from before the bitset rewrites of the
# same functions: per-vertex and per-pair loops, read one step at a time.


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def reference_two_color(g: Graph) -> tuple[int, ...] | None:
    """2-colouring by depth-first search from each component's least vertex."""
    colors = [-1] * g.n
    for start in range(g.n):
        if colors[start] != -1:
            continue
        colors[start] = 0
        queue = [start]
        while queue:
            v = queue.pop()
            for u in _iter_bits(g.neighbors_mask(v)):
                if colors[u] == -1:
                    colors[u] = 1 - colors[v]
                    queue.append(u)
                elif colors[u] == colors[v]:
                    return None
    return tuple(colors)


def reference_pair_from_index(n: int, idx: int) -> tuple[int, int]:
    """Lexicographic unranking over pairs (u, v), u < v, row by row."""
    u = 0
    row = n - 1
    while idx >= row:
        idx -= row
        u += 1
        row -= 1
    return (u, u + 1 + idx)


def reference_gnm(n: int, m: int, seed: int) -> Graph:
    """G(n, m) drawn one SplitMix64 `below` call and one row-by-row pair
    unranking at a time: the partial Fisher-Yates shuffle `random_gnm`
    vectorizes."""
    max_m = n * (n - 1) // 2
    rng = SplitMix64(seed)
    remap: dict[int, int] = {}
    rows = [0] * n
    for i in range(m):
        j = i + rng.below(max_m - i)
        pick = remap.get(j, j)
        remap[j] = remap.get(i, i)
        u, v = reference_pair_from_index(n, pick)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, rows)


def reference_kr_plus_edge_order(g: Graph) -> list[tuple[int, int]]:
    """Every edge, sorted by descending common-neighbourhood size and then
    lexicographically: the order `find_kr_plus` tries part-1 edges in."""
    return sorted(
        g.edges(),
        key=lambda e: (-(g.neighbors_mask(e[0]) & g.neighbors_mask(e[1])).bit_count(), e),
    )


def reference_find_kr_plus(
    g: Graph, sizes: tuple[int, ...], budget: int
) -> "SearchResult":
    """`find_kr_plus` with the part-1 edges sorted up front
    (`reference_kr_plus_edge_order`).  It runs the production `_Embedder`
    on purpose: only the edge order differs, so results, including
    `nodes_expanded`, must agree exactly."""
    from specturan.subgraph import (
        Embedding,
        SearchResult,
        SearchStatus,
        _BudgetHit,
        _Embedder,
        _sorted_spec,
    )

    emb = _Embedder(g, budget)
    rest_sorted, rest_idx = _sorted_spec(sizes[1:])
    fill = [sizes[0]] + rest_sorted
    try:
        for u, v in reference_kr_plus_edge_order(g):
            parts = emb.search(fill, (emb.to_new[u], emb.to_new[v]))
            if parts is None:
                continue
            orig = [()] * len(sizes)
            orig[0] = tuple(emb.to_orig[w] for w in parts[0])
            for fill_pos, orig_pos in enumerate(rest_idx):
                orig[orig_pos + 1] = tuple(emb.to_orig[w] for w in parts[fill_pos + 1])
            return SearchResult(SearchStatus.FOUND, Embedding(tuple(orig), (u, v)), emb.nodes)
    except _BudgetHit:
        return SearchResult(SearchStatus.BUDGET, None, emb.nodes)
    return SearchResult(SearchStatus.ABSENT, None, emb.nodes)


def reference_conflict_peel_order(g: Graph, members: list[int], r: int) -> int:
    """Vertex to evict: most monochromatic conflicts under a greedy
    r-coloring by descending degree (ties lowest index), counted pair by pair."""
    sub = g.induced_subgraph(members)
    order = sorted(range(sub.n), key=lambda v: (-sub.degree(v), v))
    colors = [-1] * sub.n
    for v in order:
        counts = [0] * r
        row = sub.neighbors_mask(v)
        for u in range(sub.n):
            if colors[u] != -1 and (row >> u) & 1:
                counts[colors[u]] += 1
        colors[v] = min(range(r), key=lambda c: (counts[c], c))
    conflicts = [0] * sub.n
    for v in range(sub.n):
        row = sub.neighbors_mask(v)
        for u in range(v + 1, sub.n):
            if (row >> u) & 1 and colors[u] == colors[v]:
                conflicts[u] += 1
                conflicts[v] += 1
    worst = max(range(sub.n), key=lambda v: (conflicts[v], -v))
    return members[worst]


def reference_degree_peel_order(
    g: Graph, members: list[int], degree_threshold: float
) -> list[int]:
    """Degree peel victims, in order, rebuilding the induced subgraph after
    every eviction: smallest degree first, ties lowest vertex."""
    members = list(members)
    victims = []
    while members:
        sub = g.induced_subgraph(members)
        degs = sub.degrees()
        low = [i for i in range(sub.n) if degs[i] <= degree_threshold]
        if not low:
            break
        victim = min(low, key=lambda i: (degs[i], members[i]))
        victims.append(members.pop(victim))
    return victims


def reference_find_stability_witness(
    g: Graph, r: int, order_threshold: float, degree_threshold: float
) -> tuple[tuple[int, ...] | None, int | None, bool, int]:
    """(vertices, min degree, capped, degree-peel evictions) of the stability
    peel that colours twice: evict by conflicts until G[members] is
    r-colourable, peel by degree, then colour the survivors afresh, each
    colouring capped at 10^7 nodes."""
    node_cap = 10**7
    members = list(range(g.n))
    while True:
        if len(members) < order_threshold:
            return None, None, False, 0
        status, _, _ = reference_backtrack_color(g.induced_subgraph(members), r, node_cap)
        if status == "budget":
            return None, None, True, 0
        if status == "found":
            break
        members.remove(reference_conflict_peel_order(g, members, r))
    evicted = reference_degree_peel_order(g, members, degree_threshold)
    members = [v for v in members if v not in evicted]
    if not members or len(members) < order_threshold:
        return None, None, False, len(evicted)
    sub = g.induced_subgraph(members)
    status, _, _ = reference_backtrack_color(sub, r, node_cap)
    if status != "found":
        return None, None, status == "budget", len(evicted)
    return tuple(members), min(sub.degrees()), False, len(evicted)


def subgraph_conflict_peel_order(sub: Graph, members: list[int], r: int) -> int:
    """The conflict eviction on sub = G[members], built for the step:
    most monochromatic conflicts under a best-effort greedy r-colouring
    (ties lowest index), named on G's labels."""
    order = sorted(range(sub.n), key=lambda v: (-sub.degree(v), v))
    colors = [-1] * sub.n
    classes = [0] * r  # bitset of the vertices colored so far, per color
    for v in order:
        row = sub.neighbors_mask(v)
        counts = [(row & members_c).bit_count() for members_c in classes]
        c = counts.index(min(counts))
        colors[v] = c
        classes[c] |= 1 << v
    conflicts = [
        (sub.neighbors_mask(v) & classes[colors[v]]).bit_count() for v in range(sub.n)
    ]
    worst = max(range(sub.n), key=lambda v: (conflicts[v], -v))
    return members[worst]


def subgraph_stability_witness(
    g: Graph, r: int, order_threshold: float, degree_threshold: float
) -> tuple[tuple[int, ...] | None, tuple[int, ...] | None, int | None, bool]:
    """(vertices, colouring, min degree, capped) of the stability peel that
    builds G[members] afresh at every step, colours it with
    `is_r_partite` and evicts by `subgraph_conflict_peel_order`, then
    peels by degree and keeps the loop's colours."""
    from specturan.subgraph import SearchStatus, is_r_partite

    members = list(range(g.n))
    while True:
        if len(members) < order_threshold:
            return None, None, None, False
        sub = g.induced_subgraph(members)
        res = is_r_partite(sub, r)
        if res.status is SearchStatus.BUDGET:
            return None, None, None, True
        if res.status is SearchStatus.FOUND:
            break
        members.remove(subgraph_conflict_peel_order(sub, members, r))
    evicted = set(reference_degree_peel_order(g, members, degree_threshold))
    kept = [i for i, v in enumerate(members) if v not in evicted]
    if not kept or len(kept) < order_threshold:
        return None, None, None, False
    vertices = tuple(members[i] for i in kept)
    coloring = tuple(res.coloring[i] for i in kept)
    return vertices, coloring, g.induced_subgraph(vertices).min_degree(), False


def reference_class_pairs_table(g: Graph) -> list[tuple[int, int, int]]:
    """(-|row(u) & row(v)|, u, v) for every edge uv between twin-class
    representatives u < v, one bitset AND per edge, sorted."""
    reps = [(m & -m).bit_length() - 1 for m in reference_twin_classes(g).values()]
    table = []
    for i, u in enumerate(reps):
        for v in reps[i + 1 :]:
            if g.has_edge(u, v):
                common = g.neighbors_mask(u) & g.neighbors_mask(v)
                table.append((-common.bit_count(), u, v))
    table.sort()
    return table


def reference_embedder_rows(g: Graph) -> list[int]:
    """The rows of G relabelled by descending degree (ties lowest index),
    built one bit at a time."""
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    to_new = [0] * g.n
    for new, old in enumerate(order):
        to_new[old] = new
    adj = [0] * g.n
    for old in range(g.n):
        row = 0
        for u in _iter_bits(g.neighbors_mask(old)):
            row |= 1 << to_new[u]
        adj[to_new[old]] = row
    return adj


class ReferenceCapHit(Exception):
    pass


class ReferenceColorer:
    """Saturation-ordered backtracking r-coloring with a node cap, one
    recursive call per coloured vertex."""

    def __init__(self, g: Graph, r: int, node_cap: int) -> None:
        self.adj = g._adj
        self.r = r
        self.node_cap = node_cap
        self.colors = [-1] * g.n
        self.neighbor_colors = [0] * g.n  # bitmask of colors used in each nbhd
        self.degrees = g.degrees()
        self.nodes = 0

    def pick(self) -> int:
        colors, neighbor_colors = self.colors, self.neighbor_colors
        degrees = self.degrees
        best_v = -1
        best_key = (-1, -1)
        for v in range(len(colors)):
            if colors[v] != -1:
                continue
            key = (neighbor_colors[v].bit_count(), degrees[v])
            if key > best_key:
                best_key = key
                best_v = v
        return best_v

    def extend(self, done: int, used: int) -> bool:
        colors, neighbor_colors = self.colors, self.neighbor_colors
        if done == len(colors):
            return True
        v = self.pick()
        limit = min(self.r, used + 1)
        avail = ~neighbor_colors[v] & ((1 << limit) - 1)
        for c in _iter_bits(avail):
            self.nodes += 1
            if self.nodes > self.node_cap:
                raise ReferenceCapHit
            colors[v] = c
            touched = []
            for u in _iter_bits(self.adj[v]):
                if not (neighbor_colors[u] >> c) & 1:
                    neighbor_colors[u] |= 1 << c
                    touched.append(u)
            if self.extend(done + 1, max(used, c + 1)):
                return True
            colors[v] = -1
            for u in touched:
                neighbor_colors[u] &= ~(1 << c)
        return False


def reference_backtrack_color(
    g: Graph, r: int, node_cap: int
) -> tuple[str, tuple[int, ...] | None, int]:
    """(status value, colouring, nodes) of the recursive colourer."""
    col = ReferenceColorer(g, r, node_cap)
    try:
        if col.extend(0, 0):
            return "found", tuple(col.colors), col.nodes
        return "absent", None, col.nodes
    except ReferenceCapHit:
        return "budget", None, col.nodes


def reference_spectral_radius(g: Graph, tol: float = 1e-10, max_iter: int | None = None):
    """(value, residual, iterations, converged) by per-component power
    iteration on the full adjacency matrix: A + I for 100 steps, then
    A + sI with s = max(1, m/k) for m edges on the component's k vertices.
    The residual is taken at every step; at most `max_iter` (default
    100 n + 1000) steps per component."""
    if max_iter is None:
        max_iter = 100 * g.n + 1000
    if g.n == 0:
        return 0.0, 0.0, 0, True
    a_full = g.to_numpy()
    best_value = -math.inf
    best_res = 0.0
    total_iters = 0
    all_converged = True
    for comp in g.components():
        if len(comp) == 1:
            value, res, iters, conv = 0.0, 0.0, 0, True
        else:
            a_sub = a_full if len(comp) == g.n else a_full[np.ix_(comp, comp)]
            value, res, iters, conv = _reference_component_iteration(
                a_sub, tol, max_iter
            )
        total_iters += iters
        all_converged = all_converged and conv
        if value > best_value:
            best_value = value
            best_res = res
    return best_value, best_res, total_iters, all_converged


def _reference_component_iteration(a_sub, tol, max_iter):
    k = a_sub.shape[0]
    x = np.full(k, 1.0 / math.sqrt(k))
    rho_prev = math.inf
    shift = 1.0
    rho = 1.0
    res = 0.0
    iters = 0
    converged = False
    while iters < max_iter:
        if iters == 100:
            raise_by = np.maximum(1.0, a_sub.sum(axis=(-2, -1)) / (2 * k)) - 1.0
            diagonal = np.einsum("...ii->...i", a_sub)
            diagonal += raise_by[..., None]
            raise_by = float(raise_by)
            shift += raise_by
            rho_prev += raise_by
        y = a_sub @ x + x
        rho = float(x @ y)
        res = float(np.max(np.abs(y - rho * x)))
        iters += 1
        if abs(rho - rho_prev) < tol and res <= 10.0 * tol:
            converged = True
            break
        rho_prev = rho
        x = y / np.linalg.norm(y)
    return rho - shift, res, iters, converged


# Full-vertex reference paths kept from before validation and the clique
# and book searches moved onto the twin quotient.


def reference_check_well_formed(n: int, rows: list[int]) -> None:
    """Rows in range and loop-free, scanned in vertex order, then symmetry
    on the whole n x n bit matrix; raises the library's ValueError
    messages naming the first offender."""
    full = (1 << n) - 1
    for v, row in enumerate(rows):
        if row & ~full:
            raise ValueError(f"row {v} has bits outside 0..{n - 1}")
        if (row >> v) & 1:
            raise ValueError(f"self-loop at vertex {v}")
    for v in range(n):
        for u in range(n):
            if (rows[v] >> u) & 1 and not (rows[u] >> v) & 1:
                raise ValueError(f"asymmetric adjacency between {u} and {v}")


def reference_twin_classes(g: Graph) -> dict[int, int]:
    """{row: members} regrouped from the rows, in order of least member."""
    classes: dict[int, int] = {}
    for v in range(g.n):
        row = g.neighbors_mask(v)
        classes[row] = classes.get(row, 0) | (1 << v)
    return classes


def _reference_clique_rec(g: Graph, cand: int, need: int, out: list[int]) -> bool:
    if need == 0:
        return True
    for v in _iter_bits(cand):
        out.append(v)
        above = cand & ~((2 << v) - 1)
        if _reference_clique_rec(g, g.neighbors_mask(v) & above, need - 1, out):
            return True
        out.pop()
    return False


def reference_clique_exists(g: Graph, r: int) -> tuple[int, ...] | None:
    """Lexicographically least r-clique, searched over all n vertices."""
    if r < 1:
        raise ValueError("clique order must be at least 1")
    if r > g.n:
        return None
    out: list[int] = []
    if _reference_clique_rec(g, (1 << g.n) - 1, r, out):
        return tuple(out)
    return None


def reference_book_size(g: Graph, r: int) -> tuple[int, tuple[int, ...] | None]:
    """(book size, least maximizing r-clique), with base cliques searched
    over all n vertices; (0, None) when G has no r-clique."""
    best: list = [-1, None]

    def rec(cand: int, common: int, stack: list[int]) -> None:
        if len(stack) == r:
            if common.bit_count() > best[0]:
                best[0], best[1] = common.bit_count(), tuple(stack)
            return
        for v in _iter_bits(cand):
            row = g.neighbors_mask(v)
            rec(row & cand & ~((2 << v) - 1), common & row, stack + [v])

    if 1 <= r <= g.n:
        rec((1 << g.n) - 1, (1 << g.n) - 1, [])
    return (0, None) if best[0] < 0 else (best[0], best[1])


def shuffled_twin_blowup(
    base: Graph, sizes: list[int], seed: int
) -> tuple[list[int], list[list[int]]]:
    """Rows of the blow-up of `base` that replaces vertex i by sizes[i]
    pairwise non-adjacent twins, relabelled by a seeded shuffle; also the
    relabelled vertex lists of the classes, in base order."""
    n = sum(sizes)
    perm = list(range(n))
    rng = SplitMix64(seed)
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    classes, start = [], 0
    for s in sizes:
        classes.append(sorted(perm[start : start + s]))
        start += s
    rows = [0] * n
    for i, j in base.edges():
        for u in classes[i]:
            for v in classes[j]:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return rows, classes
