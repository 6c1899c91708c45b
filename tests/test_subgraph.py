import gc
import itertools
import sys

import pytest

from oracles import (
    all_cliques,
    brute_book_size,
    brute_clique_count,
    brute_greedy_colorable,
    brute_has_multipartite,
    brute_joint_size,
    brute_per_edge,
    listed_cliques,
    reference_backtrack_color,
    reference_embedder_rows,
    reference_find_kr_plus,
    reference_kr_plus_edge_order,
    reference_two_color,
)
from specturan.graph import (
    Graph,
    complete_graph,
    graph_from_edge_mask,
    make_complete_multipartite,
    make_kr_plus,
    make_turan,
    make_turan_plus_edge,
    random_gnm,
)
from specturan.rng import SplitMix64
from specturan.subgraph import (
    DEFAULT_BUDGET,
    DEFAULT_COLOR_CAP,
    Embedding,
    _Embedder,
    _InducedView,
    _class_pairs,
    _edge_order,
    _greedy_colorable,
    _two_color,
    EmbeddingValidationError,
    SearchStatus,
    book_size,
    clique_exists,
    count_cliques,
    find_complete_multipartite,
    find_kr_plus,
    is_r_partite,
    joint_size,
    validate_embedding,
)


def cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


class TestCountCliques:
    def test_k5_triangles(self):
        assert count_cliques(complete_graph(5), 3).count == 10

    def test_t36_triangles(self):
        assert count_cliques(make_turan(6, 3), 3).count == 8

    def test_bipartite_triangle_free(self):
        assert count_cliques(make_turan(6, 2), 3).count == 0

    def test_r_bigger_than_n(self):
        assert count_cliques(complete_graph(3), 5).count == 0

    def test_vertices_and_edges(self):
        g = make_turan(7, 3)
        assert count_cliques(g, 1).count == 7
        assert count_cliques(g, 2).count == g.edge_count()

    def test_large_count_no_overflow(self):
        # C(40, 5) = 658008; would overflow 16-bit counters, not Python ints
        assert count_cliques(complete_graph(40), 5).count == 658008

    def test_rejects_r_zero(self):
        with pytest.raises(ValueError):
            count_cliques(complete_graph(3), 0)


class TestCliqueExists:
    def test_through_added_edge(self):
        g = make_turan_plus_edge(6, 2)
        found = clique_exists(g, 3)
        assert found is not None
        assert set(found) >= {0, 1}  # lex-least triangle uses the added edge

    def test_turan_has_no_larger_clique(self):
        for r in (2, 3, 4):
            assert clique_exists(make_turan(20, r), r + 1) is None

    def test_k4(self):
        assert clique_exists(complete_graph(4), 4) == (0, 1, 2, 3)

    def test_lex_least(self):
        g = Graph.from_edges(5, [(1, 2), (2, 3), (1, 3), (0, 4)])
        assert clique_exists(g, 3) == (1, 2, 3)

    def test_large_turan_fast(self):
        # The search runs on T_5(500)'s 5 twin-class representatives, so it
        # ends at once even without the greedy-colouring certificate.
        assert clique_exists(make_turan(500, 5), 6) is None

    def test_greedy_certificate_decides_twin_free_multipartite_host(self, monkeypatch):
        # A random 3-partite host with contiguous parts has no twins, so the
        # search would walk its 450 vertices (roughly n^3 work); greedy
        # colouring by index 3-colours it, which proves K_4-freeness alone.
        from specturan import subgraph

        n = 450
        rng = SplitMix64(101)
        part = [3 * v // n for v in range(n)]
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n)
            if part[u] != part[v] and rng.below(2)
        ]
        g = Graph.from_edges(n, edges)
        assert len(g.twin_classes()) == n

        def no_search(*args):
            raise AssertionError("clique search ran")

        monkeypatch.setattr(subgraph, "_clique_rec", no_search)
        assert clique_exists(g, 4) is None

    def test_large_turan_plus_edge(self):
        assert clique_exists(make_turan_plus_edge(4096, 2), 3) == (0, 1, 2048)


class TestGreedyColorable:
    """The colour-class bitset greedy against the per-neighbour definition."""

    @pytest.mark.parametrize("n", range(7))
    def test_every_small_graph(self, n):
        for mask in range(1 << (n * (n - 1) // 2)):
            g = graph_from_edge_mask(n, mask)
            for colors in range(5):
                assert _greedy_colorable(g, colors) == brute_greedy_colorable(g, colors)

    @pytest.mark.parametrize("n", [64, 1024])
    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_turan_hosts(self, n, r):
        for g in (make_turan(n, r), make_turan_plus_edge(n, r)):
            for colors in range(5):
                assert _greedy_colorable(g, colors) == brute_greedy_colorable(g, colors)


class TestJointSize:
    def test_k4(self):
        rep = joint_size(complete_graph(4), 3)
        assert rep.size == 2 and rep.witness_edge == (0, 1)

    def test_k5_order4(self):
        assert joint_size(complete_graph(5), 4).size == 3

    def test_added_edge_witness(self):
        g = make_turan_plus_edge(6, 2)  # parts (3, 3), edge (0, 1) inside part 1
        rep = joint_size(g, 3)
        assert rep.size == 3
        assert rep.witness_edge == (0, 1)

    def test_no_edges(self):
        rep = joint_size(Graph(4), 3)
        assert rep.size == 0 and rep.witness_edge is None

    def test_js2_is_one_with_any_edge(self):
        rep = joint_size(Graph.from_edges(3, [(1, 2)]), 2)
        assert rep.size == 1 and rep.witness_edge == (1, 2)

    def test_per_edge_map(self):
        g = make_kr_plus((2, 2))
        rep = joint_size(g, 3, with_per_edge=True)
        assert rep.per_edge == brute_per_edge(g, all_cliques(g)[3])

    def test_pruned_equals_per_edge_on_random(self):
        rng = SplitMix64(21)
        for _ in range(40):
            n = 4 + rng.below(5)
            m = rng.below(n * (n - 1) // 2 + 1)
            g = random_gnm(n, m, rng.next_u64())
            cliques = all_cliques(g)
            for r in range(2, n + 1):
                fast = joint_size(g, r)
                full = joint_size(g, r, with_per_edge=True)
                assert fast.size == full.size
                assert fast.witness_edge == full.witness_edge
                assert full.per_edge == brute_per_edge(g, cliques[r]), (g._adj, r)
                assert listed_cliques(g, r) == cliques[r]

    def test_pruned_equals_per_edge_on_structured_hosts(self):
        # Twin classes of every size: one weighted count per class pair
        # serves all of its edges, and the table-order break cuts the scan.
        for r in range(2, 5):
            hosts = []
            for n in range(r, 31, 3):
                hosts.append(make_turan(n, r))
                if n >= 2 * r:
                    hosts.append(make_turan_plus_edge(n, r))
            for s in range(1, 6):
                hosts.append(make_kr_plus((2,) + tuple(range(s, s + r - 1))))
            for g in hosts:
                for q in (r, r + 1, r + 2):
                    fast = joint_size(g, q)
                    full = joint_size(g, q, with_per_edge=True)
                    assert (fast.size, fast.witness_edge) == (
                        full.size,
                        full.witness_edge,
                    ), (g, q)
                    # all_cliques tries every vertex subset, out of reach at
                    # n = 30; listed_cliques visits only the cliques.
                    assert full.per_edge == brute_per_edge(g, listed_cliques(g, q)), (g, q)

    @pytest.mark.parametrize("r", range(2, 6))
    def test_twin_blowups_match_brute(self, r):
        # Every graph on 4 vertices, each vertex replaced by 1..3 twins and
        # the result relabelled: classes of identical rows of every size.
        rng = SplitMix64(71)
        for mask in range(1 << 6):
            base = graph_from_edge_mask(4, mask)
            for _ in range(3):
                mult = [1 + rng.below(3) for _ in range(4)]
                while sum(mult) > 9:
                    mult[rng.below(4)] = 1
                origin = [b for b in range(4) for _ in range(mult[b])]
                perm = list(range(len(origin)))
                for i in range(len(perm) - 1, 0, -1):
                    j = rng.below(i + 1)
                    perm[i], perm[j] = perm[j], perm[i]
                g = Graph.from_edges(
                    len(origin),
                    [
                        (perm[a], perm[b])
                        for a, b in itertools.combinations(range(len(origin)), 2)
                        if base.has_edge(origin[a], origin[b])
                    ],
                )
                rep = joint_size(g, r)
                assert (rep.size, rep.witness_edge) == brute_joint_size(g, r), (g._adj, r)

    def test_js4_matches_brute_on_seeded_r3_hosts(self):
        # Cliques of order 2 inside common neighbourhoods, on hosts just
        # around e(T_3(n)).
        rng = SplitMix64(113)
        for n in range(5, 15):
            for offset in (-2, 0, 1, 3):
                m = min(make_turan(n, 3).edge_count() + offset, n * (n - 1) // 2)
                g = random_gnm(n, m, rng.next_u64())
                rep = joint_size(g, 4)
                assert (rep.size, rep.witness_edge) == brute_joint_size(g, 4), (g._adj,)
            g = make_turan_plus_edge(n, 3)
            rep = joint_size(g, 4)
            assert (rep.size, rep.witness_edge) == brute_joint_size(g, 4), n


class TestBookSize:
    def test_k5_edges(self):
        rep = book_size(complete_graph(5), 2)
        assert rep.size == 3 and rep.base_clique == (0, 1)

    def test_t39_edge_book(self):
        rep = book_size(make_turan(9, 3), 2)
        assert rep.size == 3  # third part

    def test_no_triangle(self):
        rep = book_size(make_turan(8, 2), 3)
        assert rep.size == 0 and rep.base_clique is None

    def test_r1_is_max_degree(self):
        g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
        rep = book_size(g, 1)
        assert rep.size == 3 and rep.base_clique == (0,)


class TestBruteForceEquivalence:
    def test_exhaustive_n_up_to_4(self):
        for n in range(5):
            for mask in range(1 << (n * (n - 1) // 2)):
                g = graph_from_edge_mask(n, mask)
                for r in range(1, n + 1):
                    assert count_cliques(g, r).count == brute_clique_count(g, r)
                    if r >= 2:
                        size, witness = brute_joint_size(g, r)
                        rep = joint_size(g, r)
                        assert (rep.size, rep.witness_edge) == (max(size, 0), witness)
                    bsize, bwitness = brute_book_size(g, r)
                    rep2 = book_size(g, r)
                    assert (rep2.size, rep2.base_clique) == (bsize, bwitness)

    def test_random_n7_sample(self):
        rng = SplitMix64(77)
        for _ in range(120):
            n = 1 + rng.below(7)
            m = rng.below(n * (n - 1) // 2 + 1)
            g = random_gnm(n, m, rng.next_u64())
            for r in range(1, n + 1):
                assert count_cliques(g, r).count == brute_clique_count(g, r)
                if r >= 2:
                    size, witness = brute_joint_size(g, r)
                    rep = joint_size(g, r)
                    assert (rep.size, rep.witness_edge) == (max(size, 0), witness)
                bsize, bwitness = brute_book_size(g, r)
                rep2 = book_size(g, r)
                assert (rep2.size, rep2.base_clique) == (bsize, bwitness)


class TestCrossInvariants:
    def test_joint_positive_iff_clique_exists(self):
        rng = SplitMix64(31)
        for _ in range(40):
            n = 2 + rng.below(6)
            m = rng.below(n * (n - 1) // 2 + 1)
            g = random_gnm(n, m, rng.next_u64())
            if g.edge_count() == 0:
                continue
            for r in range(2, n + 1):
                assert (joint_size(g, r).size > 0) == (clique_exists(g, r) is not None)

    def test_clique_count_dominates_joint(self):
        rng = SplitMix64(32)
        for _ in range(30):
            n = 3 + rng.below(5)
            g = random_gnm(n, rng.below(n * (n - 1) // 2 + 1), rng.next_u64())
            for r in range(2, n + 1):
                assert count_cliques(g, r).count >= joint_size(g, r).size

    def test_monotone_under_edge_addition(self):
        rng = SplitMix64(33)
        for _ in range(25):
            n = 4 + rng.below(4)
            m = rng.below(n * (n - 1) // 2)
            g = random_gnm(n, m, rng.next_u64())
            non_edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if not g.has_edge(u, v)
            ]
            u, v = non_edges[rng.below(len(non_edges))]
            g2 = g.with_edge(u, v)
            for r in range(2, n + 1):
                assert count_cliques(g2, r).count >= count_cliques(g, r).count
                assert joint_size(g2, r).size >= joint_size(g, r).size
                assert book_size(g2, r).size >= book_size(g, r).size


class TestFindCompleteMultipartite:
    def test_turan_is_its_own_witness(self):
        res = find_complete_multipartite(make_turan(9, 3), (3, 3, 3))
        assert res.status is SearchStatus.FOUND
        assert res.embedding.parts == ((0, 1, 2), (3, 4, 5), (6, 7, 8))

    def test_k5_contains_c4(self):
        res = find_complete_multipartite(complete_graph(5), (2, 2))
        assert res.status is SearchStatus.FOUND
        validate_embedding(
            complete_graph(5), (2, 2), res.embedding, require_extra_edge=False
        )

    def test_bipartite_has_no_triangle_target(self):
        res = find_complete_multipartite(make_turan(8, 2), (2, 2, 2))
        assert res.status is SearchStatus.ABSENT

    def test_unsorted_sizes_map_back(self):
        g = make_complete_multipartite((2, 4))
        res = find_complete_multipartite(g, (2, 4))
        assert res.status is SearchStatus.FOUND
        assert [len(p) for p in res.embedding.parts] == [2, 4]

    def test_budget_exhaustion_is_distinct(self):
        g = make_turan(30, 3)
        res = find_complete_multipartite(g, (3, 3, 3, 3), budget=5)
        assert res.status is SearchStatus.BUDGET
        assert res.embedding is None

    def test_matches_brute_force_on_random(self):
        rng = SplitMix64(41)
        for _ in range(25):
            n = 4 + rng.below(4)
            g = random_gnm(n, rng.below(n * (n - 1) // 2 + 1), rng.next_u64())
            for sizes in [(2, 2), (1, 1, 1), (2, 1, 1), (3, 2)]:
                res = find_complete_multipartite(g, sizes)
                assert res.status is not SearchStatus.BUDGET
                expected = brute_has_multipartite(g, sizes)
                assert (res.status is SearchStatus.FOUND) == expected
                if res.embedding is not None:
                    validate_embedding(g, sizes, res.embedding, False)


class TestEmbedderRelabelling:
    @staticmethod
    def _hosts():
        """Seeded G(n, m), and shuffled twin blow-ups of them with class
        sizes 1..3, where many degrees tie."""
        rng = SplitMix64(127)
        for _ in range(150):
            n = 1 + rng.below(14)
            g = random_gnm(n, rng.below(n * (n - 1) // 2 + 1), rng.next_u64())
            yield g
            origin = [v for v in range(n) for _ in range(1 + rng.below(3))]
            perm = list(range(len(origin)))
            for i in range(len(perm) - 1, 0, -1):
                j = rng.below(i + 1)
                perm[i], perm[j] = perm[j], perm[i]
            yield Graph.from_edges(
                len(origin),
                [
                    (perm[a], perm[b])
                    for a, b in itertools.combinations(range(len(origin)), 2)
                    if g.has_edge(origin[a], origin[b])
                ],
            )

    def test_rows_match_bit_by_bit_relabelling(self):
        for g in self._hosts():
            emb = _Embedder(g, 1)
            assert emb.adj == reference_embedder_rows(g), g._adj
            assert [emb.to_new[v] for v in emb.to_orig] == list(range(g.n))


class TestFindKrPlus:
    def test_k4_contains_k2_plus(self):
        res = find_kr_plus(complete_graph(4), (2, 2))
        assert res.status is SearchStatus.FOUND
        emb = res.embedding
        assert emb.extra_edge is not None
        a, b = emb.extra_edge
        assert set(emb.parts[0]) == {a, b}

    def test_turan_plus_edge_uses_added_edge(self):
        g = make_turan_plus_edge(9, 3)
        res = find_kr_plus(g, (2, 2, 2))
        assert res.status is SearchStatus.FOUND
        assert res.embedding.extra_edge == (0, 1)

    def test_turan_absent_exhaustively(self):
        for r in (2, 3, 4):
            res = find_kr_plus(make_turan(6 * r, r), (2,) * r)
            assert res.status is SearchStatus.ABSENT

    def test_rejects_first_part_one(self):
        with pytest.raises(ValueError):
            find_kr_plus(complete_graph(4), (1, 2))

    def test_budget_exhaustion(self):
        res = find_kr_plus(make_turan(40, 4), (2, 2, 2, 2), budget=3)
        assert res.status is SearchStatus.BUDGET

    def test_found_embedding_validates(self):
        rng = SplitMix64(51)
        for _ in range(20):
            n = 5 + rng.below(4)
            g = random_gnm(n, rng.below(n * (n - 1) // 2 + 1), rng.next_u64())
            res = find_kr_plus(g, (2, 2))
            if res.status is SearchStatus.FOUND:
                validate_embedding(g, (2, 2), res.embedding, require_extra_edge=True)

    def test_oracle_equivalence_small(self):
        # K_2^+(2,2) present iff K_4 minus an edge embeds with the part-1
        # pair adjacent; cross-check against subset brute force.
        rng = SplitMix64(52)
        for _ in range(30):
            n = 4 + rng.below(3)
            g = random_gnm(n, rng.below(n * (n - 1) // 2 + 1), rng.next_u64())
            res = find_kr_plus(g, (2, 2))
            expected = any(
                g.has_edge(p[0][0], p[0][1])
                for p in _all_two_two_splits(g)
            )
            assert (res.status is SearchStatus.FOUND) == expected


class TestEdgeOrder:
    """The lazy walk over the class-pair table against a full sort of every
    edge, and find_kr_plus on it against a search on the full sort."""

    @staticmethod
    def _hosts():
        """T_r(n) - e, T_r(n) + e and a relabelled T_r(n) + e for r = 2..4,
        then seeded G(n, m) and shuffled twin blow-ups of them."""
        rng = SplitMix64(0xED6E)
        for r in (2, 3, 4):
            for n in range(2 * r, 15):
                t = make_turan(n, r)
                yield t.without_edge(*next(t.edges()))
                plus = make_turan_plus_edge(n, r)
                yield plus
                perm = list(range(n))
                for i in range(n - 1, 0, -1):
                    j = rng.below(i + 1)
                    perm[i], perm[j] = perm[j], perm[i]
                yield plus.induced_subgraph(perm)
        yield from TestEmbedderRelabelling._hosts()

    def test_walk_equals_full_sort(self):
        merged = 0
        for g in self._hosts():
            pairs = _class_pairs(g)
            assert list(_edge_order(pairs)) == reference_kr_plus_edge_order(g), g._adj
            merged += len(g.twin_classes()) < g.n
        assert merged > 100

    def test_search_equals_full_sort_search(self):
        statuses = set()
        for i, g in enumerate(self._hosts()):
            for spec in ((2, 2), (2, 2, 2), (3, 2)):
                for budget in (DEFAULT_BUDGET, 1 + i % 9):
                    got = find_kr_plus(g, spec, budget)
                    assert got == reference_find_kr_plus(g, spec, budget), (g._adj, spec)
                    statuses.add(got.status)
        assert statuses == set(SearchStatus)

    def test_shared_table_gives_the_graphs_results(self):
        for g in itertools.islice(self._hosts(), 0, None, 7):
            pairs = _class_pairs(g)
            for q in (2, 3, 4):
                assert joint_size(pairs, q) == joint_size(g, q)
            assert find_kr_plus(pairs, (2, 2)) == find_kr_plus(g, (2, 2))

    @pytest.mark.parametrize("r", (2, 3, 4))
    def test_large_turan_plus_edge_stays_small(self, r):
        # The host is built before tracing starts; the degree-sorted rows of
        # the embedder alone take about 32 MiB, a full edge sort ~700 MiB.
        import tracemalloc

        g = make_turan_plus_edge(4096, r)
        tracemalloc.start()
        try:
            res = find_kr_plus(g, (2,) * r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.status is SearchStatus.FOUND and res.embedding.extra_edge == (0, 1)
        assert peak < 64 * 2**20, peak / 2**20


def _all_two_two_splits(g: Graph):
    out = []
    for quad in itertools.combinations(range(g.n), 4):
        for first in itertools.combinations(quad, 2):
            second = tuple(v for v in quad if v not in first)
            if all(g.has_edge(a, b) for a in first for b in second):
                out.append((first, second))
    return out


class TestValidateEmbedding:
    def test_rejects_wrong_sizes(self):
        with pytest.raises(EmbeddingValidationError):
            validate_embedding(
                complete_graph(4), (2, 2), Embedding(((0,), (1, 2)), None), False
            )

    def test_rejects_missing_cross_edge(self):
        g = make_turan(4, 2)
        # mixing the Turan parts puts non-adjacent mates in opposite slots
        bad = Embedding(((0, 2), (1, 3)), None)
        with pytest.raises(EmbeddingValidationError):
            validate_embedding(g, (2, 2), bad, False)
        # the Turan parts themselves are a valid (independent-part) witness
        validate_embedding(g, (2, 2), Embedding(((0, 1), (2, 3)), None), False)

    def test_rejects_reuse_and_bad_extra(self):
        g = complete_graph(4)
        with pytest.raises(EmbeddingValidationError):
            validate_embedding(g, (2, 2), Embedding(((0, 1), (1, 2)), None), False)
        with pytest.raises(EmbeddingValidationError):
            validate_embedding(g, (2, 2), Embedding(((0, 1), (2, 3)), (2, 3)), True)

    def test_accepts_valid(self):
        g = complete_graph(4)
        validate_embedding(g, (2, 2), Embedding(((0, 1), (2, 3)), (0, 1)), True)


class TestIsRPartite:
    def test_odd_cycle_not_bipartite(self):
        assert is_r_partite(cycle(5), 2).status is SearchStatus.ABSENT

    def test_odd_cycle_3_colorable(self):
        res = is_r_partite(cycle(5), 3)
        assert res.status is SearchStatus.FOUND
        c = res.coloring
        for u, v in cycle(5).edges():
            assert c[u] != c[v]

    def test_turan_coloring_recovers_parts(self):
        g = make_turan(7, 3)
        res = is_r_partite(g, 3)
        assert res.status is SearchStatus.FOUND
        c = res.coloring
        # any proper 3-coloring of a complete 3-partite graph equals the parts
        assert c[0] == c[1] == c[2]
        assert c[3] == c[4]
        assert c[5] == c[6]
        assert len({c[0], c[3], c[5]}) == 3

    def test_k4_not_3_colorable(self):
        assert is_r_partite(complete_graph(4), 3).status is SearchStatus.ABSENT

    def test_bipartite_coloring(self):
        res = is_r_partite(make_turan(10, 2), 2)
        assert res.status is SearchStatus.FOUND

    def test_r_at_least_n_trivial(self):
        assert is_r_partite(complete_graph(4), 4).status is SearchStatus.FOUND

    def test_r1(self):
        assert is_r_partite(Graph(3), 1).status is SearchStatus.FOUND
        assert is_r_partite(complete_graph(2), 1).status is SearchStatus.ABSENT

    def test_cap_is_distinct(self):
        # K_{4,4,4} misses 3-colorings only after heavy search when capped at 1
        g = make_turan(40, 4)
        res = is_r_partite(g, 3, node_cap=1)
        assert res.status is SearchStatus.BUDGET

    def test_matches_brute_on_random(self):
        rng = SplitMix64(61)
        for _ in range(30):
            n = 3 + rng.below(4)
            g = random_gnm(n, rng.below(n * (n - 1) // 2 + 1), rng.next_u64())
            for r in (2, 3):
                res = is_r_partite(g, r)
                brute = _brute_colorable(g, r)
                assert (res.status is SearchStatus.FOUND) == brute
                if res.coloring is not None:
                    for u, v in g.edges():
                        assert res.coloring[u] != res.coloring[v]


class TestBacktrackColorer:
    """The explicit-stack colourer against the recursive one it replaced:
    same colourings, node counts and cap outcomes, at any depth."""

    def test_matches_recursive_reference(self):
        rng = SplitMix64(67)
        seen = set()
        for _ in range(400):
            n = 4 + rng.below(24)
            g = random_gnm(n, rng.below(n * (n - 1) // 2 + 1), rng.next_u64())
            r = 3 + rng.below(3)
            cap = (5, 40, 10**4)[rng.below(3)]
            res = is_r_partite(g, r, node_cap=cap)
            if r >= n:
                continue
            want = reference_backtrack_color(g, r, cap)
            assert (res.status.value, res.coloring, res.nodes_expanded) == want
            seen.add(res.status)
        assert seen == set(SearchStatus)

    @pytest.mark.parametrize("n", [1000, 1024])
    def test_turan_deeper_than_recursion_limit(self, n):
        assert n >= sys.getrecursionlimit()
        g = make_turan(n, 3)
        res = is_r_partite(g, 3)
        assert res.status is SearchStatus.FOUND
        assert len(res.coloring) == n and res.nodes_expanded == n
        classes = [0] * 3
        for v, c in enumerate(res.coloring):
            classes[c] |= 1 << v
        for v, c in enumerate(res.coloring):
            assert not g.neighbors_mask(v) & classes[c]


class TestInducedView:
    """`is_r_partite` on an `_InducedView` against the same call on the
    induced subgraph built from its members: status, colouring and nodes,
    with node caps small enough to end some searches on BUDGET."""

    CAPS = (1, 3, 10, 50, DEFAULT_COLOR_CAP)

    def test_matches_the_built_subgraph(self):
        rng = SplitMix64(71)
        seen = set()
        for _ in range(600):
            n = 2 + rng.below(30)
            g = random_gnm(n, rng.below(n * (n - 1) // 2 + 1), rng.next_u64())
            members = [v for v in range(n) if rng.below(4)] or [rng.below(n)]
            r = 1 + rng.below(4)
            cap = self.CAPS[rng.below(len(self.CAPS))]
            got = is_r_partite(_InducedView(g, members), r, node_cap=cap)
            assert got == is_r_partite(g.induced_subgraph(members), r, node_cap=cap)
            seen.add((r >= 3, got.status))
        assert seen == {(big, s) for big in (False, True) for s in SearchStatus} - {
            (False, SearchStatus.BUDGET)
        }

    def test_evictions_track_the_built_subgraph(self):
        # T_r(n)+e, which has r + 2 twin classes, and seeded G(n, m).
        rng = SplitMix64(73)
        hosts = [make_turan_plus_edge(n, r) for r in (2, 3, 4) for n in (9, 16)]
        hosts += [random_gnm(n, n * (n - 1) // 3, rng.next_u64()) for n in (8, 14, 20)]
        for g in hosts:
            view = _InducedView(g, list(range(g.n)))
            while view.n:
                assert view.alive == sum(1 << v for v in view.members)
                sub = g.induced_subgraph(view.members)
                for r in (2, 3):
                    cap = self.CAPS[rng.below(len(self.CAPS))]
                    assert is_r_partite(view, r, cap) == is_r_partite(sub, r, cap)
                view.evict(view.members[rng.below(view.n)])


class TestTwoColor:
    """Bitset BFS layers against the depth-first reference colouring."""

    @pytest.mark.parametrize("n", range(7))
    def test_every_small_graph(self, n):
        for mask in range(1 << (n * (n - 1) // 2)):
            g = graph_from_edge_mask(n, mask)
            assert _two_color(g) == reference_two_color(g)

    def test_cycles_and_disjoint_unions(self):
        c5, c6 = cycle(5), cycle(6)
        assert _two_color(c5) is None
        assert _two_color(c6) == (0, 1, 0, 1, 0, 1)
        for parts in ((c6, c6), (c6, Graph(2), c6), (c6, c5), (Graph(3), c6, c6)):
            rows, offset = [], 0
            for h in parts:
                rows.extend(row << offset for row in h._adj)
                offset += h.n
            g = Graph(offset, rows)
            assert _two_color(g) == reference_two_color(g)

    def test_turan_hosts(self):
        for n in range(1, 101):
            hosts = [make_turan(n, 2)]
            if n >= 3:
                hosts.append(make_turan_plus_edge(n, 2))
            for g in hosts:
                assert _two_color(g) == reference_two_color(g)


def _brute_colorable(g: Graph, r: int) -> bool:
    for assignment in itertools.product(range(r), repeat=g.n):
        if all(assignment[u] != assignment[v] for u, v in g.edges()):
            return True
    return g.n == 0


class TestNoReferenceCycles:
    """The recursive searches leave no reference cycle holding the graph.

    The rows are ints, which the garbage collector does not track, so a
    cycle through them would only be freed by a collection that their
    allocation never triggers."""

    @pytest.mark.parametrize(
        "search, host",
        [
            (lambda g: clique_exists(g, 4), make_turan_plus_edge(30, 3)),
            (lambda g: book_size(g, 2), make_turan_plus_edge(30, 3)),
            (lambda g: is_r_partite(g, 3), make_turan(30, 3)),
            (lambda g: find_kr_plus(g, (4, 3, 3)), make_turan_plus_edge(30, 3)),
            (lambda g: find_kr_plus(g, (3, 3, 3)), make_turan(30, 3)),
        ],
        ids=["clique_exists", "book_size", "is_r_partite", "find_kr_plus", "absent"],
    )
    def test_refcounts_unchanged(self, search, host):
        gc.disable()
        try:
            before = sys.getrefcount(host._adj), sys.getrefcount(host)
            search(host)
            after = sys.getrefcount(host._adj), sys.getrefcount(host)
        finally:
            gc.enable()
        assert after == before
