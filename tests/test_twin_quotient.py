"""The twin quotient each Graph keeps: validation, the cached classes, the
clique and book searches on representatives and the clique and joint
counts weighted by class size, pinned against the full-vertex references
in `oracles` on shuffled twin blow-ups."""

import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from oracles import (
    all_cliques,
    brute_greedy_colorable,
    brute_joint_size,
    brute_per_edge,
    listed_cliques,
    reference_book_size,
    reference_check_well_formed,
    reference_class_pairs_table,
    reference_clique_exists,
    reference_twin_classes,
    shuffled_twin_blowup,
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
    read_edge_list,
    write_edge_list,
)
from specturan import subgraph
from specturan.rng import SplitMix64
from specturan.subgraph import (
    _class_pairs,
    _greedy_colorable,
    book_size,
    clique_exists,
    count_cliques,
    joint_size,
)

BLOWUP_SETTINGS = settings(max_examples=120, deadline=None, derandomize=True)


@hst.composite
def blowups(draw):
    """(rows, twin groups of the rows): G(k, m) with each vertex replaced by
    1-4 twins and the labels shuffled, all from drawn seeds."""
    k = draw(hst.integers(min_value=1, max_value=7))
    m = draw(hst.integers(min_value=0, max_value=k * (k - 1) // 2))
    base = random_gnm(k, m, draw(hst.integers(min_value=0, max_value=2**32)))
    sizes = draw(hst.lists(hst.integers(1, 4), min_size=k, max_size=k))
    rows, _ = shuffled_twin_blowup(base, sizes, draw(hst.integers(0, 2**32)))
    groups: dict[int, list[int]] = {}
    for v, row in enumerate(rows):
        groups.setdefault(row, []).append(v)
    return rows, list(groups.values())


def _message(build) -> str | None:
    try:
        build()
    except ValueError as exc:
        return str(exc)
    return None


def _assert_same_verdict(rows: list[int]) -> str | None:
    n = len(rows)
    expected = _message(lambda: reference_check_well_formed(n, list(rows)))
    assert _message(lambda: Graph(n, rows)) == expected
    return expected


class TestValidation:
    @given(blowups())
    @BLOWUP_SETTINGS
    def test_blowups_are_accepted(self, case):
        rows, groups = case
        assert _assert_same_verdict(rows) is None
        g = Graph(len(rows), rows)
        assert g.twin_classes() == reference_twin_classes(g)
        assert len(g.twin_classes()) == len(groups)

    @given(blowups())
    @BLOWUP_SETTINGS
    def test_asymmetric_bit_on_each_non_least_twin(self, case):
        # One bit x -> u, x outside u's class, with u a non-least twin: the
        # classes' least members still induce a symmetric matrix, so only
        # the compare of each class row across every class sees it.
        rows, groups = case
        for members in groups:
            outside = [w for w in range(len(rows)) if w not in members]
            for u in members[1:]:
                x = next((w for w in outside if not (rows[w] >> u) & 1), None)
                if x is None:
                    continue
                planted = list(rows)
                planted[x] |= 1 << u
                assert _assert_same_verdict(planted) is not None

    @given(blowups(), hst.integers(min_value=0, max_value=2**16))
    @BLOWUP_SETTINGS
    def test_out_of_range_bit(self, case, pick):
        rows, _ = case
        n = len(rows)
        planted = list(rows)
        planted[pick % n] |= 1 << (n + pick % 3)
        assert _assert_same_verdict(planted) is not None

    @given(blowups(), hst.integers(min_value=0, max_value=2**16))
    @BLOWUP_SETTINGS
    def test_self_loop_on_non_least_twin(self, case, pick):
        rows, groups = case
        twins = [members for members in groups if len(members) > 1]
        if not twins:
            return
        members = twins[pick % len(twins)]
        v = members[1 + pick % (len(members) - 1)]
        planted = list(rows)
        planted[v] |= 1 << v
        assert _assert_same_verdict(planted) == f"self-loop at vertex {v}"
        # With a later vertex's row also out of range, the first offender in
        # vertex order is still the self-loop.
        if v + 1 < len(rows):
            planted[-1] |= 1 << len(rows)
            assert _assert_same_verdict(planted) == f"self-loop at vertex {v}"

    def test_self_loop_shared_by_twins(self):
        # 1 and 3 keep identical rows, both holding bit 3: the loop is at 3,
        # after the out-of-range row 2.
        rows = [0b1010, 0b0001, 0b10000, 0b0001]
        rows[1] |= 1 << 3
        rows[3] |= 1 << 3
        assert _assert_same_verdict(rows) == "row 2 has bits outside 0..3"
        rows[2] = 0
        assert _assert_same_verdict(rows) == "self-loop at vertex 3"


class TestSearchesOnRepresentatives:
    @given(blowups())
    @BLOWUP_SETTINGS
    def test_clique_book_and_greedy_match_full_search(self, case):
        rows, _ = case
        g = Graph(len(rows), rows)
        for r in range(1, 6):
            assert clique_exists(g, r) == reference_clique_exists(g, r)
            rep = book_size(g, r)
            assert (rep.size, rep.base_clique) == reference_book_size(g, r)
            assert _greedy_colorable(g, r) == brute_greedy_colorable(g, r)

    def test_turan_plus_edge_least_clique_and_book(self):
        g = make_turan_plus_edge(40, 3)
        for r in range(1, 6):
            assert clique_exists(g, r) == reference_clique_exists(g, r)
            rep = book_size(g, r)
            assert (rep.size, rep.base_clique) == reference_book_size(g, r)


@hst.composite
def weighted_blowups(draw):
    """(base, sizes, two shuffled blow-ups of base by sizes): a seeded
    G(k, m) whose vertex v becomes s_v twins, labelled by two drawn seeds.
    Small enough for `brute_joint_size`, which tries every vertex subset."""
    k = draw(hst.integers(min_value=1, max_value=6))
    m = draw(hst.integers(min_value=0, max_value=k * (k - 1) // 2))
    base = random_gnm(k, m, draw(hst.integers(min_value=0, max_value=2**32)))
    sizes = draw(hst.lists(hst.integers(1, 3), min_size=k, max_size=k))
    hosts = [
        Graph(sum(sizes), shuffled_twin_blowup(base, sizes, seed)[0])
        for seed in draw(hst.lists(hst.integers(0, 2**32), min_size=2, max_size=2))
    ]
    return base, sizes, hosts


class TestWeightedCounts:
    """k_q and js_q are counted once on the representatives, weighted by
    class size; these laws hold them to counts on the whole blow-up."""

    @given(weighted_blowups())
    @BLOWUP_SETTINGS
    def test_clique_count_is_the_weighted_base_count(self, case):
        base, sizes, hosts = case
        base_cliques = all_cliques(base)
        for q in range(1, 7):
            expected = sum(
                math.prod(sizes[v] for v in c) for c in base_cliques.get(q, [])
            )
            for g in hosts:
                assert count_cliques(g, q).count == expected, (sizes, q)

    @given(weighted_blowups())
    @BLOWUP_SETTINGS
    def test_joint_size_and_per_edge_match_brute(self, case):
        _, sizes, hosts = case
        g = hosts[0]
        for q in range(2, 6):
            rep = joint_size(g, q)
            assert (rep.size, rep.witness_edge) == brute_joint_size(g, q), (sizes, q)
            full = joint_size(g, q, with_per_edge=True)
            assert (full.size, full.witness_edge) == (rep.size, rep.witness_edge)
            assert full.per_edge == brute_per_edge(g, listed_cliques(g, q)), (sizes, q)

    @given(weighted_blowups())
    @BLOWUP_SETTINGS
    def test_counts_survive_relabelling(self, case):
        _, _, (g, h) = case
        for q in range(1, 7):
            assert count_cliques(g, q) == count_cliques(h, q)
        for q in range(2, 7):
            assert joint_size(g, q).size == joint_size(h, q).size


class TestClassPairTable:
    """`_class_pairs` against the per-edge double loop of `oracles`, with
    the default popcount blocks and with blocks of one row and of three."""

    @staticmethod
    def _assert_table(g: Graph) -> None:
        want = reference_class_pairs_table(g)
        table = _class_pairs(g).table
        assert table == want, g._adj
        assert all(type(x) is int for entry in table for x in entry)
        row_bytes = len(g.twin_classes()) * 8 * ((g.n + 63) // 64)
        for block_bytes in (1, 3 * row_bytes):
            with mock.patch.object(subgraph, "_POPCOUNT_BLOCK_BYTES", block_bytes):
                assert _class_pairs(g).table == want, (g._adj, block_bytes)

    @given(blowups())
    @BLOWUP_SETTINGS
    def test_shuffled_blowups(self, case):
        rows, _ = case
        self._assert_table(Graph(len(rows), rows))

    def test_turan_hosts(self):
        for r in (2, 3, 4):
            for n in (r, r + 1, 10, 63, 64, 65, 129, 200):
                self._assert_table(make_turan(n, r))
                if n >= 2 * r:
                    self._assert_table(make_turan_plus_edge(n, r))

    def test_random_hosts_up_to_300(self):
        self._assert_table(Graph(0))
        rng = SplitMix64(0xC1A55)
        for n in (1, 2, 5, 30, 63, 64, 65, 127, 128, 129, 200, 300):
            full = n * (n - 1) // 2
            for m in (0, full // 2, full * 2 // 3, full):
                self._assert_table(random_gnm(n, m, rng.next_u64()))


def _assert_stored_form(g: Graph) -> None:
    """The graph's stored classes, {least member: members} in ascending
    order, and its representatives' bitset, against a fresh regrouping."""
    reference = reference_twin_classes(g).values()
    least = {(m & -m).bit_length() - 1: m for m in reference}
    assert list(g._twin_members().items()) == sorted(least.items())
    assert g._representatives() == sum(1 << u for u in least)
    assert g.twin_classes() == reference_twin_classes(g)


class TestTwinCache:
    """The stored twin classes must equal a fresh grouping of the rows
    after every builder and after every builder-phase edit."""

    BUILDERS = {
        "Graph(n)": lambda: Graph(5),
        "Graph(n, rows)": lambda: Graph(5, [0b00110, 0b11001, 0b11001, 0b00110, 0b00110]),
        "from_edges": lambda: Graph.from_edges(6, [(0, 2), (1, 2), (3, 4), (0, 5)]),
        "read_edge_list": lambda: read_edge_list(write_edge_list(make_turan(9, 3))),
        "graph_from_edge_mask": lambda: graph_from_edge_mask(5, 0b1011000110),
        "make_turan": lambda: make_turan(10, 4),
        "make_complete_multipartite": lambda: make_complete_multipartite((1, 3, 2)),
        "make_kr_plus": lambda: make_kr_plus((3, 2, 2)),
        "make_turan_plus_edge": lambda: make_turan_plus_edge(11, 3),
        "complete_graph": lambda: complete_graph(4),
        "random_gnm": lambda: random_gnm(12, 20, 7),
        "induced_subgraph": lambda: make_turan_plus_edge(12, 3).induced_subgraph([5, 0, 9, 1, 4]),
    }

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_builder_then_add_edge(self, name):
        g = self.BUILDERS[name]()
        _assert_stored_form(g)
        missing = next(
            ((u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)),
            None,
        )
        if missing is not None:
            g._add_edge(*missing)
            _assert_stored_form(g)

    def test_every_edit_of_a_mask_graph(self):
        # Each edge added to a stored grouping drops it, so the next read
        # regroups rather than returning the grouping of the previous rows.
        g = Graph(6)
        for u, v in [(0, 1), (2, 3), (0, 2), (1, 3), (4, 5), (0, 4)]:
            _assert_stored_form(g)
            g._add_edge(u, v)
        _assert_stored_form(g)

    def test_edits_return_fresh_classes(self):
        g = make_turan(8, 2)
        _assert_stored_form(g.with_edge(0, 1))
        _assert_stored_form(g.without_edge(0, 4))
        g.twin_classes()[0] = 1  # a caller's dict is its own
        _assert_stored_form(g)
