import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from oracles import reference_gnm, reference_pair_from_index
from specturan.graph import (
    EdgeListError,
    Graph,
    PartSpec,
    _pairs_from_indices,
    complete_graph,
    graph_from_edge_mask,
    make_complete_multipartite,
    make_kr_plus,
    make_turan,
    make_turan_plus_edge,
    random_gnm,
    read_edge_list,
    turan_part_sizes,
    write_edge_list,
)
from specturan.rng import SplitMix64


def assert_well_formed(g: Graph):
    for v in range(g.n):
        assert not g.has_edge(v, v)
        for u in range(g.n):
            assert g.has_edge(u, v) == g.has_edge(v, u)


class TestTuran:
    def test_k22(self):
        g = make_turan(4, 2)
        assert g.edge_count() == 4
        assert turan_part_sizes(4, 2) == [2, 2]

    def test_parts_7_3(self):
        g = make_turan(7, 3)
        assert turan_part_sizes(7, 3) == [3, 2, 2]
        assert g.edge_count() == 16  # 3*2 + 3*2 + 2*2

    def test_complete_when_r_equals_n(self):
        assert make_turan(5, 5) == complete_graph(5)
        assert make_turan(5, 5).edge_count() == 10

    def test_rejects_r_zero(self):
        with pytest.raises(ValueError):
            make_turan(4, 0)

    def test_n_less_than_r(self):
        # empty parts collapse: T_5(3) = K_3
        assert make_turan(3, 5) == complete_graph(3)

    def test_edge_count_matches_part_product_formula(self):
        for n in range(0, 25):
            for r in range(1, 8):
                sizes = turan_part_sizes(n, r)
                expected = sum(
                    a * b for a, b in itertools.combinations(sizes, 2)
                )
                g = make_turan(n, r)
                assert g.edge_count() == expected
                assert_well_formed(g)

    def test_divisible_case_is_regular(self):
        for r in (2, 3, 4):
            n = 4 * r
            g = make_turan(n, r)
            assert all(g.degree(v) == n - n // r for v in range(n))

    def test_contiguous_blocks_larger_first(self):
        g = make_turan(5, 2)  # parts (3, 2): vertices 0-2, 3-4
        assert not g.has_edge(0, 1) and not g.has_edge(1, 2)
        assert not g.has_edge(3, 4)
        assert g.has_edge(0, 3)


class TestMultipartite:
    def test_octahedron(self):
        g = make_complete_multipartite((2, 2, 2))
        assert g.n == 6
        assert all(g.degree(v) == 4 for v in range(6))

    def test_singletons_give_complete(self):
        assert make_complete_multipartite((1, 1, 1)) == complete_graph(3)

    def test_single_part_is_empty(self):
        g = make_complete_multipartite((3,))
        assert g.edge_count() == 0 and g.n == 3

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PartSpec(())
        with pytest.raises(ValueError):
            PartSpec((2, 0))


class TestKrPlus:
    def test_2_1_is_triangle(self):
        assert make_kr_plus((2, 1)) == complete_graph(3)

    def test_2_2_is_k4_minus_edge(self):
        g = make_kr_plus((2, 2))
        assert g.edge_count() == 5
        assert g.has_edge(0, 1)  # the added edge
        assert not g.has_edge(2, 3)  # the single non-edge, inside part 2

    def test_2_1_1_is_k4(self):
        assert make_kr_plus((2, 1, 1)) == complete_graph(4)

    def test_rejects_small_first_part(self):
        with pytest.raises(ValueError):
            make_kr_plus((1, 2))

    def test_edge_count_is_multipartite_plus_one(self):
        for sizes in [(2, 2), (3, 1), (4, 3, 2), (2, 2, 2, 2)]:
            base = make_complete_multipartite(sizes)
            plus = make_kr_plus(sizes)
            assert plus.edge_count() == base.edge_count() + 1

    def test_turan_plus_edge(self):
        g = make_turan_plus_edge(6, 2)
        assert g.edge_count() == 10
        assert g.has_edge(0, 1)
        with pytest.raises(ValueError):
            make_turan_plus_edge(2, 2)  # parts (1, 1): no room


class TestRandomGnm:
    def test_full_and_empty(self):
        assert random_gnm(5, 10, 7) == complete_graph(5)
        assert random_gnm(5, 0, 7).edge_count() == 0

    def test_exact_edge_count(self):
        for m in (0, 1, 50, 95, 190):
            assert random_gnm(20, m, 3).edge_count() == m

    def test_determinism(self):
        assert random_gnm(20, 95, 42) == random_gnm(20, 95, 42)

    def test_seed_sensitivity(self):
        assert random_gnm(20, 95, 42) != random_gnm(20, 95, 43)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            random_gnm(5, 11, 0)
        with pytest.raises(ValueError):
            random_gnm(5, -1, 0)

    def test_well_formed(self):
        for seed in range(5):
            assert_well_formed(random_gnm(12, 30, seed))

    def test_pair_unranking_matches_reference(self):
        for n in range(2, 81):
            u, v = _pairs_from_indices(n, np.arange(n * (n - 1) // 2, dtype=np.int64))
            want = [reference_pair_from_index(n, idx) for idx in range(len(u))]
            assert list(zip(u.tolist(), v.tolist())) == want

    def test_pair_unranking_exact_where_float_sqrt_is_not(self):
        # With 2^55 pairs, 8 * back + 1 no longer fits a float exactly, and
        # its square root lands a row too far just before each row start;
        # the integer correction must still invert the lexicographic rank.
        n = 1 << 28
        max_m = n * (n - 1) // 2
        ranks = [0, 1, max_m - 2, max_m - 1]
        for t in (1, 2, 3, 1000, 10**6, n - 1000, n - 3, n - 2):
            start = max_m - t * (t + 1) // 2  # first pair of row n - 1 - t
            ranks += [start - 1, start, start + 1]
        ranks = [x for x in ranks if 0 <= x < max_m]
        u, v = _pairs_from_indices(n, np.array(ranks, dtype=np.int64))
        for idx, a, b in zip(ranks, u.tolist(), v.tolist()):
            assert 0 <= a < b < n
            assert a * (2 * n - a - 1) // 2 + (b - a - 1) == idx

    def test_matches_reference_gnm(self):
        rng = SplitMix64(0x61)
        for n in range(41):
            max_m = n * (n - 1) // 2
            ms = {0, min(1, max_m), max(max_m - 1, 0), max_m, rng.below(max_m + 1)}
            for m in sorted(ms):
                seed = rng.next_u64()
                assert random_gnm(n, m, seed) == reference_gnm(n, m, seed), (n, m)

    def test_below_many_matches_below_calls(self):
        # Bounds just above 2^63 reject about half the words, so the scalar
        # fallback runs many times inside one call.
        bound_sets = [
            [],
            [1] * 5,
            list(range(1000, 0, -1)),
            [(1 << 63) + 1] * 200,
            [(1 << 64) - 1, 1 << 63, (1 << 63) + 3, 7, 1 << 40, 3] * 40,
        ]
        for bounds in bound_sets:
            for seed in (0, 1, (1 << 64) - 1, 0x5EED):
                bulk, scalar = SplitMix64(seed), SplitMix64(seed)
                got = bulk.below_many(bounds)
                assert got.dtype == np.uint64
                assert got.tolist() == [scalar.below(b) for b in bounds]
                assert bulk.next_u64() == scalar.next_u64()  # same final state

    def test_below_many_rejects_zero_bound(self):
        with pytest.raises(ValueError):
            SplitMix64(0).below_many([3, 0])

    def test_splitmix_reference_values(self):
        # First outputs for seed 0; matches the published SplitMix64 stream.
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4


class TestInducedSubgraph:
    def test_complete_restriction(self):
        assert complete_graph(5).induced_subgraph([0, 1, 2]) == complete_graph(3)

    def test_turan_part_is_independent(self):
        g = make_turan(4, 2)
        sub = g.induced_subgraph([0, 1])  # one full part
        assert sub.n == 2 and sub.edge_count() == 0

    def test_empty_subset(self):
        assert complete_graph(4).induced_subgraph([]).n == 0

    def test_rejects_bad_vertices(self):
        with pytest.raises(ValueError, match=r"^vertex 5 out of range for n=3$"):
            complete_graph(3).induced_subgraph([0, 5])
        with pytest.raises(ValueError, match=r"^vertex -1 out of range for n=3$"):
            complete_graph(3).induced_subgraph([-1])
        with pytest.raises(ValueError, match=r"^duplicate vertices in subset$"):
            complete_graph(3).induced_subgraph([0, 0])

    def test_order_preserved(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        sub = g.induced_subgraph([3, 2])
        assert sub.has_edge(0, 1)

    def test_matches_per_pair_construction(self):
        # Shuffled vertex orders and orders k that are not multiples of 8,
        # so the packed rows end in partial bytes.
        rng = SplitMix64(17)
        for trial in range(60):
            n = 1 + rng.below(40)
            g = random_gnm(n, rng.below(n * (n - 1) // 2 + 1), rng.next_u64())
            k = rng.below(n + 1)
            vertices = list(range(n))
            for i in range(n - 1, 0, -1):
                j = rng.below(i + 1)
                vertices[i], vertices[j] = vertices[j], vertices[i]
            vertices = vertices[:k]
            expected = Graph.from_edges(
                k,
                [
                    (i, j)
                    for i, j in itertools.combinations(range(k), 2)
                    if g.has_edge(vertices[i], vertices[j])
                ],
            )
            assert g.induced_subgraph(vertices) == expected, (trial, n, vertices)


def _random_symmetric_rows(n: int, seed: int) -> list[int]:
    """Rows of a seeded G(n, 1/2), drawn and symmetrised with numpy alone."""
    draws = np.random.default_rng(seed).integers(0, 2, (n, n), dtype=np.uint8)
    upper = np.triu(draws, 1)
    packed = np.packbits(upper | upper.T, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _first_asymmetry_message(rows: list[int], n: int) -> str:
    """The error text of the first offender of a whole-matrix comparison."""
    bits = np.array([[(row >> u) & 1 for u in range(n)] for row in rows], dtype=np.uint8)
    v, u = np.argwhere(bits > bits.T)[0].tolist()
    return f"asymmetric adjacency between {u} and {v}"


# (n, offenders): each offender (v, u) has u in row v but not v in row u.
# The symmetry tiles are 256 wide, so n = 255 and 257 end in a partial tile.
_ASYMMETRIC_HOSTS = [
    (255, [(3, 200)]),  # the one, partial, diagonal tile, above the diagonal
    (255, [(200, 3), (254, 0)]),  # below it, and in its last row
    (256, [(0, 255)]),  # the one, full, diagonal tile, its far corner
    (256, [(255, 254), (3, 200)]),
    (257, [(10, 256)]),  # off-diagonal tile of one column
    (257, [(256, 10), (256, 11)]),
    (257, [(256, 0), (100, 3)]),  # across the diagonal tile and off it
    (600, [(10, 300)]),  # full off-diagonal tile
    (600, [(300, 10)]),
    (600, [(260, 300), (400, 5)]),  # tile order meets (400, 5) first
    (600, [(520, 599)]),  # last, partial, diagonal tile
    (600, [(599, 520), (100, 590)]),  # and its partial off-diagonal tile
]


class TestTiledSymmetryCheck:
    @pytest.mark.parametrize("n,offenders", _ASYMMETRIC_HOSTS)
    def test_message_matches_whole_matrix(self, n, offenders):
        rows = _random_symmetric_rows(n, seed=n)
        Graph(n, rows)
        for v, u in offenders:
            rows[v] |= 1 << u
            rows[u] &= ~(1 << v)
        expected = _first_asymmetry_message(rows, n)
        v, u = min(offenders)
        assert expected == f"asymmetric adjacency between {u} and {v}"
        with pytest.raises(ValueError) as exc:
            Graph(n, rows)
        assert str(exc.value) == expected

    def test_accepts_symmetric_600(self):
        rows = _random_symmetric_rows(600, seed=6)
        assert Graph(600, rows)._adj == rows


class TestEdgeList:
    def test_write_k3(self):
        assert write_edge_list(complete_graph(3)) == "3 3\n0 1\n0 2\n1 2\n"

    def test_self_loop_rejected(self):
        with pytest.raises(EdgeListError) as exc:
            read_edge_list("2 1\n0 0\n")
        assert exc.value.line_no == 2

    def test_duplicate_rejected(self):
        with pytest.raises(EdgeListError):
            read_edge_list("3 2\n0 1\n0 1\n")

    def test_unsorted_pair_rejected(self):
        with pytest.raises(EdgeListError):
            read_edge_list("3 1\n1 0\n")

    def test_count_mismatch_rejected(self):
        with pytest.raises(EdgeListError):
            read_edge_list("3 2\n0 1\n")

    def test_bad_header(self):
        with pytest.raises(EdgeListError):
            read_edge_list("3\n")

    def test_roundtrip_turan(self):
        g = make_turan(7, 3)
        assert read_edge_list(write_edge_list(g)) == g

    @given(
        n=hst.integers(min_value=0, max_value=10),
        seed=hst.integers(min_value=0, max_value=2**32),
        density=hst.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_random(self, n, seed, density):
        m = int(density * n * (n - 1) // 2)
        g = random_gnm(n, m, seed)
        assert read_edge_list(write_edge_list(g)) == g


class TestGraphBasics:
    def test_with_edge_returns_new(self):
        g = make_turan(4, 2)
        g2 = g.with_edge(0, 1)
        assert not g.has_edge(0, 1)
        assert g2.has_edge(0, 1)
        assert g2.edge_count() == g.edge_count() + 1

    def test_without_edge(self):
        g = complete_graph(4)
        g2 = g.without_edge(1, 2)
        assert g.has_edge(1, 2) and not g2.has_edge(1, 2)
        with pytest.raises(ValueError):
            g2.without_edge(1, 2)

    def test_twin_classes_of_turan_plus_edge(self):
        # The extra edge (0, 1) splits 0 and 1 off part 1 as two singletons.
        for r in range(2, 5):
            for n in range(r + 1, 30):
                sizes = turan_part_sizes(n, r)
                classes = make_turan_plus_edge(n, r).twin_classes()
                assert len(classes) == (r + 1 if sizes[0] == 2 else r + 2)
                members = list(classes.values())
                assert members[:2] == [0b01, 0b10]
                assert sum(m.bit_count() for m in members) == n
                least = [(m & -m).bit_length() for m in members]
                assert least == sorted(least)

    def test_twin_classes_are_rows(self):
        g = Graph.from_edges(5, [(0, 2), (1, 2), (3, 4)])
        assert g.twin_classes() == {0b100: 0b11, 0b11: 0b100, 0b10000: 0b1000, 0b1000: 0b10000}

    def test_components(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (4, 5)])
        assert g.components() == [[0, 1, 2], [3], [4, 5]]

    def test_degrees_and_min_degree(self):
        g = make_turan(5, 2)
        assert sorted(g.degrees()) == [2, 2, 2, 3, 3]
        assert g.min_degree() == 2
        assert Graph(0).min_degree() == 0

    def test_mask_roundtrip(self):
        for mask in (0, 1, 37, 63):
            g = graph_from_edge_mask(4, mask)
            bits = sum(
                1 << i
                for i, (u, v) in enumerate(
                    (u, v) for u in range(4) for v in range(u + 1, 4)
                )
                if g.has_edge(u, v)
            )
            assert bits == mask

    def test_rejects_asymmetric_rows(self):
        with pytest.raises(ValueError):
            Graph(2, [0b10, 0b00])

    def test_validation_messages(self):
        with pytest.raises(ValueError) as exc:
            Graph(3, [0b000, 0b1000, 0b001])
        assert str(exc.value) == "row 1 has bits outside 0..2"
        with pytest.raises(ValueError) as exc:
            Graph(3, [0b000, 0b000, 0b100])
        assert str(exc.value) == "self-loop at vertex 2"
        # Offenders (row, column): (0, 3) and (1, 2).  A scan of the rows in
        # order meets (0, 3) first; a column-major scan would report (1, 2).
        with pytest.raises(ValueError) as exc:
            Graph(4, [0b1000, 0b0100, 0b0000, 0b0000])
        assert str(exc.value) == "asymmetric adjacency between 3 and 0"

    def test_to_numpy(self):
        g = make_turan(5, 2)
        a = g.to_numpy()
        assert a.shape == (5, 5)
        assert a.sum() == 2 * g.edge_count()
        assert (a == a.T).all()

    def test_supports_4096_vertices(self):
        n, r = 4096, 4
        g = make_turan(n, r)
        assert g.edge_count() == (n * n - 4 * 1024 * 1024) // 2
        assert g.degree(0) == n - 1024
        sub = g.induced_subgraph(range(1024, 1024 + 8))  # inside one part
        assert sub.edge_count() == 0
