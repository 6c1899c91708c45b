import inspect
import json
import math
from collections import Counter
from fractions import Fraction

import pytest

from oracles import (
    brute_joint_size,
    reference_conflict_peel_order,
    reference_degree_peel_order,
    reference_find_stability_witness,
    subgraph_stability_witness,
    turan_neighbourhood_hosts,
)
from specturan.graph import (
    Graph,
    complete_graph,
    graph_from_edge_mask,
    make_turan,
    make_turan_plus_edge,
    random_gnm,
    read_edge_list,
)
from specturan.rng import SplitMix64
from specturan.spectral import Verdict, compare_mu_to_threshold
from specturan.subgraph import _InducedView, is_r_partite
from specturan.theorems import (
    CHECKS,
    TheoremId,
    TheoremParams,
    TriState,
    _conflict_peel_order,
    _degree_peel_order,
    _lenslmm_mu_bound,
    _verify_coloring,
    ceil_n_power,
    check_book_remark,
    check_edge_implies_spectral,
    check_fact_lekd,
    check_fact_lenslmm,
    check_fact_thv4,
    check_fact_tsize,
    check_spectral_turan,
    check_stability,
    check_theorem1,
    check_theorem2,
    check_theorem3,
    find_stability_witness,
    floor_c_log_n,
    run_check,
    run_checks,
    turan_edge_count,
)


def star(n: int) -> Graph:
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


class TestSpectralTuran:
    def test_plus_edge_both_yes(self):
        v = check_spectral_turan(make_turan_plus_edge(6, 2), 2)
        assert v.hypothesis is TriState.YES
        assert v.conclusion is TriState.YES
        assert v.certificate["type"] == "clique"
        assert len(v.certificate["vertices"]) == 3

    def test_turan_hypothesis_not_yes(self):
        # exact tie: the certified comparison must not claim strictness
        v = check_spectral_turan(make_turan(6, 2), 2)
        assert v.hypothesis is not TriState.YES
        assert not v.is_counterexample

    def test_k4_r3(self):
        v = check_spectral_turan(complete_graph(4), 3)
        assert v.hypothesis is TriState.YES  # mu=3 > (1+sqrt 17)/2
        assert v.conclusion is TriState.YES
        assert v.certificate["vertices"] == [0, 1, 2, 3]


class TestTheorem1:
    def test_t2_40_plus_edge(self):
        v = check_theorem1(make_turan_plus_edge(40, 2), 2)
        assert v.hypothesis is TriState.YES
        assert v.conclusion is TriState.YES
        assert v.certificate["size"] == 20
        assert not v.in_regime  # 40 < 2^15
        assert Fraction(v.rhs) == Fraction(40, 256)

    def test_turan_no_counterexample(self):
        v = check_theorem1(make_turan(6, 2), 2)
        assert v.hypothesis is not TriState.YES
        assert not v.is_counterexample

    def test_k5(self):
        v = check_theorem1(complete_graph(5), 2)
        assert v.hypothesis is TriState.YES
        assert v.conclusion is TriState.YES
        assert int(v.lhs) == 3  # js_3(K_5)
        assert Fraction(v.rhs) == Fraction(5, 256)


class TestTheorem2:
    def test_structured_embedding(self):
        g = make_turan_plus_edge(60, 3)
        c = 0.55  # floor(0.55 * ln 60) = 2
        v = check_theorem2(g, 3, c)
        assert v.hypothesis is TriState.YES
        assert v.conclusion is TriState.YES
        assert not v.in_regime
        assert v.certificate["type"] == "embedding"
        assert v.certificate["extra_edge"] is not None

    def test_regime_empty_at_desk_scale(self):
        # r=2, n=100: need c >= 2/ln 100 ~ 0.434 and c <= 2^-39: impossible
        for c in (0.45, 1e-12, 1e-3):
            assert not TheoremParams(r=2, n=100, c=c).theorem2_regime()

    def test_turan_hypothesis_not_yes(self):
        v = check_theorem2(make_turan(30, 2), 2, 0.5)
        assert v.hypothesis is not TriState.YES

    def test_vacuous_when_floor_zero(self):
        v = check_theorem2(make_turan_plus_edge(20, 2), 2, 1e-6)
        assert v.vacuous
        assert v.conclusion is TriState.YES
        assert v.certificate is None

    def test_counterexample_serializes_graph(self):
        # out-of-regime (yes, no) record: huge c makes the target impossible
        v = check_theorem2(complete_graph(4), 2, 10.0)
        assert v.hypothesis is TriState.YES
        assert v.conclusion is TriState.NO
        assert v.is_counterexample
        assert v.graph_edges is not None
        assert read_edge_list(v.graph_edges) == complete_graph(4)
        payload = json.dumps(v.to_json_dict())
        assert "graph" in json.loads(payload)


class TestTheorem3:
    def test_default_c_vacuous_and_out_of_regime(self):
        v = check_theorem3(make_turan_plus_edge(20, 2), 2)
        assert v.vacuous  # c = 2^-39 gives floor(c ln n) = 0
        assert not v.in_regime  # needs n >= e^{2/c}

    def test_override_finds_embedding(self):
        v = check_theorem3(make_turan_plus_edge(20, 2), 2, c_override=0.7)
        assert v.conclusion is TriState.YES
        assert v.certificate["type"] == "embedding"
        sizes = [len(p) for p in v.certificate["parts"]]
        assert sizes == [2, 2]


class TestFactLenslmm:
    def test_k3(self):
        v = check_fact_lenslmm(complete_graph(3), 2)
        assert v.conclusion is TriState.YES
        assert int(v.lhs) == 3
        assert abs(Fraction(v.rhs) - Fraction(3, 8)) < Fraction(1, 10**6)

    def test_edgeless(self):
        v = check_fact_lenslmm(Graph(4), 2)
        assert v.conclusion is TriState.YES  # negative right side

    def test_k5_r4(self):
        v = check_fact_lenslmm(complete_graph(5), 4)
        assert v.conclusion is TriState.YES
        assert int(v.lhs) == 5
        expected = (Fraction(4, 5) - 1 + Fraction(1, 4)) * Fraction(12, 5) * Fraction(
            5, 4
        ) ** 5
        assert abs(Fraction(v.rhs) - expected) < Fraction(1, 10**6)

    def test_empty_order_zero(self):
        v = check_fact_lenslmm(Graph(0), 2)
        assert v.conclusion is TriState.YES

    @staticmethod
    def _hosts():
        """The n = 5 masks of the exact-agreement sweep, then T_s(n) and
        T_s(n) +/- e for s = 2..4; T_3(24) meets its r = 2 bound exactly."""
        for mask in range(0, 1 << 10, 37):
            yield graph_from_edge_mask(5, mask)
        for s in (2, 3, 4):
            for n in range(s + 1, 29):
                t = make_turan(n, s)
                yield from (t, t.without_edge(*next(t.edges())), make_turan_plus_edge(n, s))

    def test_conclusion_is_the_threshold_comparison(self):
        # The bound holds iff mu <= _lenslmm_mu_bound: GREATER is a NO,
        # NOT_GREATER a YES, and an exact settlement is reported as one.
        conclusion = {Verdict.GREATER: TriState.NO, Verdict.NOT_GREATER: TriState.YES}
        exact = 0
        for g in self._hosts():
            for r in (2, 3, 4):
                v = check_fact_lenslmm(g, r)
                cmp = compare_mu_to_threshold(g, _lenslmm_mu_bound(g, r))
                assert v.conclusion is conclusion[cmp.verdict], (g._adj, r)
                assert ("conclusion_resolved" in v.detail) == cmp.exact, (g._adj, r)
                exact += cmp.exact
        assert exact >= 1


class TestFactTsize:
    def test_7_3(self):
        v = check_fact_tsize(7, 3)
        assert v.conclusion is TriState.YES
        assert int(v.lhs) == 8 * 3 * 16
        assert int(v.rhs) == 4 * 2 * 49 - 9

    def test_6_2(self):
        v = check_fact_tsize(6, 2)
        assert v.conclusion is TriState.YES
        assert v.detail["edges"] == 9

    def test_r_equals_n(self):
        for r in (2, 3, 7, 11):
            assert check_fact_tsize(r, r).conclusion is TriState.YES


class TestFactLekd:
    def test_t2_32_plus_edge(self):
        v = check_fact_lekd(make_turan_plus_edge(32, 2), 2)
        assert v.hypothesis is TriState.YES  # delta=16 > 14, K_3 present
        assert v.conclusion is TriState.YES
        assert int(v.lhs) == 16
        assert Fraction(v.rhs) == Fraction(32, 32)

    def test_t2_32_no_clique(self):
        v = check_fact_lekd(make_turan(32, 2), 2)
        assert v.hypothesis is TriState.NO

    def test_star_fails_degree(self):
        v = check_fact_lekd(star(8), 2)
        assert v.hypothesis is TriState.NO


class TestFactThv4:
    def test_t2_32_plus_edge_with_override(self):
        v = check_fact_thv4(make_turan_plus_edge(32, 2), 2, c=0.6)
        assert v.hypothesis is TriState.YES
        assert v.conclusion is TriState.YES
        assert v.certificate["type"] == "embedding"

    def test_triangle_free_hypothesis_no(self):
        v = check_fact_thv4(make_turan(12, 2), 2, c=0.6)
        assert v.hypothesis is TriState.NO

    def test_regime_bound(self):
        # r=2 needs c <= 2^-20 and ln n >= 2/c: out of desk range
        assert not TheoremParams(r=2, n=1000, c=0.6).thv4_regime()
        assert not TheoremParams(r=2, n=1000, c=2.0**-20).thv4_regime()


class TestEdgeImpliesSpectral:
    def test_plus_edge(self):
        v = check_edge_implies_spectral(make_turan_plus_edge(6, 2), 2)
        assert v.hypothesis is TriState.YES
        assert v.conclusion is TriState.YES
        assert int(v.lhs) == 10 and int(v.rhs) == 9

    def test_turan_itself(self):
        v = check_edge_implies_spectral(make_turan(6, 2), 2)
        assert v.hypothesis is TriState.NO


class TestBookRemark:
    def test_k5(self):
        v = check_book_remark(complete_graph(5), 2)
        assert v.conclusion is TriState.YES
        assert v.certificate["size"] == 3

    def test_bipartite_no_book(self):
        v = check_book_remark(make_turan(8, 2), 3)
        assert v.conclusion is TriState.NO
        assert not v.is_counterexample  # hypothesis is not YES on T_r(n)


class TestStability:
    def test_turan_20_branch_b(self):
        v = check_stability(make_turan(20, 2), 2, b=0.001)
        assert v.hypothesis is TriState.YES  # mu=10 > 9.98 certified
        assert v.conclusion is TriState.YES
        assert v.certificate["branch"] == "b"
        assert v.certificate["order"] == 20  # G_0 = G
        assert v.detail["branch_a"] == "no"

    def test_plus_edge_branch_a(self):
        v = check_stability(make_turan_plus_edge(20, 2), 2, b=0.001)
        assert v.conclusion is TriState.YES
        assert v.certificate["branch"] == "a"
        assert int(v.lhs) == 10  # js_3 = opposite part size
        assert Fraction(v.rhs) == Fraction(20, 512)

    def test_k5_branch_a_with_witness_not_found(self):
        v = check_stability(complete_graph(5), 2, b=1e-6)
        assert v.hypothesis is TriState.YES
        assert v.detail["branch_b"] == "not_found"
        assert v.certificate["branch"] == "a"
        assert int(v.lhs) == 3  # js_3(K_5), brute-force confirmed below
        assert brute_joint_size(complete_graph(5), 3)[0] == 3

    def test_edgeless_hypothesis_no(self):
        v = check_stability(Graph(6), 2, b=1e-9)
        assert v.hypothesis is TriState.NO

    def test_t22_variant_runs(self):
        v = check_stability(make_turan(24, 2), 2, b=1e-6, which=TheoremId.T2_2)
        assert v.conclusion is TriState.YES
        assert v.vacuous or v.certificate is not None

    def test_t32_variant_with_explicit_c(self):
        v = check_stability(
            make_turan_plus_edge(30, 2), 2, b=1e-6, which=TheoremId.T3_2, c=0.7
        )
        assert v.conclusion is TriState.YES
        assert v.certificate["branch"] in ("a", "b")

    def test_weaker_coefficient_switch(self):
        # (3, 6) reproduces the companion statement's thresholds
        v = check_stability(
            make_turan(20, 2), 2, b=0.001, order_coeff=3.0, degree_coeff=6.0
        )
        assert v.conclusion is TriState.YES
        assert v.detail["order_threshold"] == pytest.approx(
            (1 - 3 * 0.1) * 20, abs=1e-9
        )

    def test_rejects_non_stability_id(self):
        with pytest.raises(ValueError):
            check_stability(complete_graph(3), 2, 1e-6, which=TheoremId.T1)


@pytest.mark.parametrize("tid", [TheoremId.T1_2, TheoremId.T2_2, TheoremId.T3_2])
def test_stability_r3_above_recursion_limit(tid):
    # Colouring the 1024-vertex host once took one Python frame per vertex.
    v = run_check(tid, make_turan_plus_edge(1024, 3), 3, c=0.3, b=0.01)
    assert v.hypothesis is TriState.YES and v.conclusion is TriState.YES
    assert v.detail["branch_b"] == "found"


class TestStabilityWitness:
    def test_turan_full_witness(self):
        g = make_turan(30, 3)
        witness, capped = find_stability_witness(g, 3, 0.9 * 30, 0.5 * 30)
        assert not capped
        assert witness is not None
        assert len(witness.vertices) == 30

    def test_k5_no_witness(self):
        witness, capped = find_stability_witness(complete_graph(5), 2, 4.8, 0.0)
        assert witness is None and not capped

    def test_low_degree_vertex_peeled(self):
        # T_2(20) with vertex 0 stripped of 3 cross edges
        g = make_turan(20, 2)
        for v in (10, 11, 12):
            g = g.without_edge(0, v)
        witness, _ = find_stability_witness(g, 2, 0.9 * 20, 8.5)
        assert witness is not None
        assert 0 not in witness.vertices
        assert len(witness.vertices) == 19

    def test_peeling_reaches_r_partite(self):
        # K_5 glued to a large bipartite body: peeling must remove the clique
        g = make_turan(24, 2)
        for u in range(3):
            for v in range(u + 1, 3):
                g = g.with_edge(u, v)  # triangle inside part 1
        witness, _ = find_stability_witness(g, 2, 0.5 * 24, -1.0)
        assert witness is not None
        sub_vertices = set(witness.vertices)
        assert len(sub_vertices & {0, 1, 2}) <= 2

    def test_colours_once_in_the_peel_loop(self, monkeypatch):
        # T_3(30) colours at once; T_3(30)+e holds a K_4, so one conflict
        # eviction precedes its colouring.  The degree peel colours nothing.
        from specturan import theorems

        calls: list[int] = []
        peeled: list[bool] = []

        def counted(sub, r):
            assert not peeled, "coloured after the degree peel"
            calls.append(sub.n)
            return is_r_partite(sub, r)

        def degree_peel(*args):
            peeled.append(True)
            return _degree_peel_order(*args)

        monkeypatch.setattr(theorems, "is_r_partite", counted)
        monkeypatch.setattr(theorems, "_degree_peel_order", degree_peel)
        for g, want in ((make_turan(30, 3), [30]), (make_turan_plus_edge(30, 3), [30, 29])):
            calls.clear()
            peeled.clear()
            witness, capped = find_stability_witness(g, 3, 0.9 * 30, 0.5 * 30)
            assert witness is not None and not capped
            assert calls == want and peeled

    def test_one_colouring_matches_the_twice_coloured_reference(self):
        evicting = 0
        for g, r, order, degree in _eviction_corpus():
            witness, capped = find_stability_witness(g, r, order, degree)
            vertices, min_degree, ref_capped, evicted = reference_find_stability_witness(
                g, r, order, degree
            )
            assert capped == ref_capped
            if witness is None:
                assert vertices is None, (g, r, order, degree)
                continue
            assert (witness.vertices, witness.min_degree) == (vertices, min_degree)
            assert len(witness.coloring) == len(vertices)
            assert set(witness.coloring) <= set(range(r))
            _verify_coloring(g.induced_subgraph(vertices), witness.coloring, r)
            evicting += evicted > 0
        assert evicting >= 80

    def test_view_peel_matches_the_subgraph_per_step_peel(self, monkeypatch):
        # The eviction corpus, then for r = 2..4 seeded G(n, m) near
        # e(T_r(n)), peeled deep, and T_r(n) overlaid with a seeded G(n, k),
        # whose edges inside the parts the conflict peel must evict.
        from specturan import theorems

        cases = _eviction_corpus()
        rng = SplitMix64(101)
        for r in (2, 3, 4):
            for _ in range(40):
                n = r + 2 + rng.below(40)
                m = min(turan_edge_count(n, r) + rng.below(2 * n), n * (n - 1) // 2)
                g = random_gnm(n, m, rng.next_u64())
                cases.append((g, r, rng.below(n) / 2, g.min_degree() + rng.below(5) / 2 - 1.5))
                noise = random_gnm(n, 1 + rng.below(n), rng.next_u64())
                g = Graph(n, [a | b for a, b in zip(make_turan(n, r)._adj, noise._adj)])
                cases.append((g, r, (0.4 + rng.below(5) / 10) * n, rng.below(2 * n) / 4 - 1))
        evictions: list[int] = []

        def counted(*args):
            evictions.append(1)
            return _conflict_peel_order(*args)

        monkeypatch.setattr(theorems, "_conflict_peel_order", counted)
        found_after_evicting = 0
        for g, r, order, degree in cases:
            before = len(evictions)
            witness, capped = find_stability_witness(g, r, order, degree)
            vertices, coloring, min_degree, ref_capped = subgraph_stability_witness(
                g, r, order, degree
            )
            assert capped == ref_capped
            if witness is None:
                assert vertices is None, (g, r, order, degree)
                continue
            got = (witness.vertices, witness.coloring, witness.min_degree)
            assert got == (vertices, coloring, min_degree), (g, r, order, degree)
            found_after_evicting += len(evictions) > before
        assert found_after_evicting >= 80 and len(evictions) >= 2000

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_conflict_peel_matches_reference(self, r):
        rng = SplitMix64(83 + r)
        for _ in range(300):
            n = 2 + rng.below(15)
            g = random_gnm(n, rng.below(n * (n - 1) // 2 + 1), rng.next_u64())
            members = [v for v in range(n) if rng.below(4)] or [rng.below(n)]
            view = _InducedView(g, members)
            assert _conflict_peel_order(view, r) == reference_conflict_peel_order(
                g, members, r
            )

    def test_degree_peel_matches_reference(self):
        rng = SplitMix64(89)
        evicted = 0
        for _ in range(300):
            n = 2 + rng.below(30)
            g = random_gnm(n, rng.below(n * (n - 1) // 2 + 1), rng.next_u64())
            members = [v for v in range(n) if rng.below(4)] or [rng.below(n)]
            threshold = rng.below(4 * n) / 4 - 1
            got = _degree_peel_order(g, members, threshold)
            assert got == reference_degree_peel_order(g, members, threshold)
            evicted += len(got)
        assert evicted > 1000

    def test_verify_coloring_names_least_monochromatic_edge(self):
        g = make_turan(10, 2)
        proper = [0] * 5 + [1] * 5
        _verify_coloring(g, proper, 2)
        for v, first_edge in ((7, "(0,7)"), (3, "(3,5)")):
            corrupted = list(proper)
            corrupted[v] ^= 1
            with pytest.raises(AssertionError) as err:
                _verify_coloring(g, corrupted, 2)
            assert str(err.value) == f"coloring not proper on edge {first_edge}"

    def test_verify_coloring_names_first_colour_outside_r(self):
        # A proper colouring with r + 1 colours is not induced r-partite.
        g = make_turan(9, 3)
        proper = [0] * 3 + [1] * 3 + [2] * 3
        _verify_coloring(g, proper, 3)
        with pytest.raises(AssertionError) as err:
            _verify_coloring(g, proper, 2)
        assert str(err.value) == "vertex 6 has colour 2 outside 0..1"
        for bad in (3, -1):
            with pytest.raises(AssertionError) as err:
                _verify_coloring(g, proper[:4] + [bad] + proper[5:], 3)
            assert str(err.value) == f"vertex 4 has colour {bad} outside 0..2"

    def test_verify_coloring_on_random_colorings(self):
        rng = SplitMix64(89)
        for _ in range(2000):
            n = 1 + rng.below(8)
            g = random_gnm(n, rng.below(n * (n - 1) // 2 + 1), rng.next_u64())
            coloring = [rng.below(3) for _ in range(n)]
            bad = [(u, v) for u, v in g.edges() if coloring[u] == coloring[v]]
            if not bad:
                _verify_coloring(g, coloring, 3)
                continue
            with pytest.raises(AssertionError) as err:
                _verify_coloring(g, coloring, 3)
            assert str(err.value) == f"coloring not proper on edge ({bad[0][0]},{bad[0][1]})"


def _eviction_corpus():
    """(host, r, order threshold, degree threshold) where the degree peel
    evicts: T_r(n) and T_r(n)+e with vertex 0 stripped of k cross edges, at
    a degree threshold just above its degree, and seeded G(n, m) at random
    thresholds, half of them near the minimum degree."""
    cases = []
    for r in (2, 3, 4):
        for n in (12, 20, 30):
            for g in (make_turan(n, r), make_turan_plus_edge(n, r)):
                for k in (2, 3, 4):
                    stripped = g
                    for v in range(n - k, n):
                        stripped = stripped.without_edge(0, v)
                    cases.append((stripped, r, 0.5 * n, stripped.degree(0) + 0.5))
    rng = SplitMix64(97)
    for _ in range(400):
        n = 2 + rng.below(17)
        g = random_gnm(n, rng.below(n * (n - 1) // 2 + 1), rng.next_u64())
        if rng.below(2):
            degree = rng.below(4 * n) / 4 - 1
        else:
            degree = g.min_degree() + rng.below(5) / 2 - 0.5
        cases.append((g, 2 + rng.below(3), rng.below(n + 1) / 2, degree))
    return cases


class TestCappedColouring:
    """A colouring that hits its node cap leaves branch (b) "capped": the
    conclusion holds only through branch (a), and stays inconclusive else."""

    @pytest.fixture(autouse=True)
    def one_node_cap(self, monkeypatch):
        from specturan import theorems

        monkeypatch.setattr(
            theorems, "is_r_partite", lambda sub, r: is_r_partite(sub, r, node_cap=1)
        )

    def test_witness_search_reports_the_cap(self):
        assert find_stability_witness(make_turan(30, 3), 3, 0.9 * 30, 0.5 * 30) == (None, True)

    @pytest.mark.parametrize("tid", [TheoremId.T1_2, TheoremId.T2_2, TheoremId.T3_2])
    def test_inconclusive_without_branch_a(self, tid):
        # T_3(30) has no K_4: branch (a) fails, and (b) is cut off.
        v = run_check(tid, make_turan(30, 3), 3, c=0.3, b=0.01)
        assert v.hypothesis is TriState.YES
        assert v.detail["branch_a"] == "no"
        assert v.detail["branch_b"] == "capped"
        assert v.conclusion is TriState.INCONCLUSIVE
        assert v.certificate is None

    def test_branch_a_still_concludes(self):
        v = run_check(TheoremId.T1_2, make_turan_plus_edge(30, 3), 3, b=0.01)
        assert v.detail["branch_a"] == "yes"
        assert v.detail["branch_b"] == "capped"
        assert v.conclusion is TriState.YES
        assert v.certificate["branch"] == "a"


class TestGuardedRounding:
    def test_floor_basic(self):
        assert floor_c_log_n(0.55, 60) == 2
        assert floor_c_log_n(0.0, 60) == 0
        assert floor_c_log_n(1.0, 1) == 0

    def test_ceil_cube_root_boundary(self):
        # float says 27**(1/3) = 3.0000000000000004; the guard must not
        # round that up to 4
        assert ceil_n_power(27, 1.0 / 3.0) == 3

    def test_ceil_basic(self):
        assert ceil_n_power(32, 0.5) == 6  # sqrt(32) = 5.657
        assert ceil_n_power(0, 0.5) == 0
        assert ceil_n_power(1, -3.0) == 1

    def test_floor_guard_consistency(self):
        import mpmath

        for c in (3.0 / math.log(8), -3.0 / math.log(8)):
            got = floor_c_log_n(c, 8)
            with mpmath.workdps(60):
                want = int(mpmath.floor(mpmath.mpf(c) * mpmath.log(8)))
            assert got == want

    def test_floor_negative_c(self):
        assert floor_c_log_n(-1.0, 100) == -5  # -ln 100 = -4.605
        assert floor_c_log_n(-0.5, 8) == -2  # -ln 8 / 2 = -1.040
        assert floor_c_log_n(-1e-12, 60) == -1
        assert floor_c_log_n(-1.0, 1) == 0
        assert floor_c_log_n(-1.0, 0) == 0
        for c in (-math.inf, math.inf, math.nan):
            with pytest.raises(ValueError, match="c must be finite"):
                floor_c_log_n(c, 100)

    def test_negative_c_reports_its_floor_and_stays_vacuous(self):
        g = make_turan_plus_edge(100, 3)
        for v in (
            check_theorem2(g, 3, -1.0),
            check_theorem3(g, 3, c_override=-1.0),
            check_fact_thv4(g, 3, -1.0),
            check_stability(g, 3, 0.0, TheoremId.T2_2, c=-1.0),
            check_stability(g, 3, 0.0, TheoremId.T3_2, c=-1.0),
        ):
            assert v.vacuous and v.conclusion is TriState.YES, v.theorem_id
            if v.theorem_id in (TheoremId.T2, TheoremId.T3, TheoremId.FACT_THV4):
                assert v.detail["floor_c_ln_n"] == -5, v.theorem_id


class TestTuranEdgeCount:
    def test_matches_constructed_graph(self):
        for n in range(0, 40):
            for r in range(1, 8):
                assert turan_edge_count(n, r) == make_turan(n, r).edge_count()


GRAPH_CHECKS = [t for t in TheoremId if not CHECKS[t].graph_free]

# Each graph-taking check through its public function, on a fresh analysis.
FRESH = {
    TheoremId.FACT_STT: lambda g, r, c, b: check_spectral_turan(g, r),
    TheoremId.T1: lambda g, r, c, b: check_theorem1(g, r),
    TheoremId.T2: lambda g, r, c, b: check_theorem2(g, r, c),
    TheoremId.T3: lambda g, r, c, b: check_theorem3(g, r, c_override=c),
    TheoremId.T1_2: lambda g, r, c, b: check_stability(g, r, b, TheoremId.T1_2, c=c),
    TheoremId.T2_2: lambda g, r, c, b: check_stability(g, r, b, TheoremId.T2_2, c=c),
    TheoremId.T3_2: lambda g, r, c, b: check_stability(g, r, b, TheoremId.T3_2, c=c),
    TheoremId.FACT_LENSLMM: lambda g, r, c, b: check_fact_lenslmm(g, r),
    TheoremId.FACT_LEKD: lambda g, r, c, b: check_fact_lekd(g, r),
    TheoremId.FACT_THV4: lambda g, r, c, b: check_fact_thv4(g, r, c),
    TheoremId.EDGE_IMPLIES_SPECTRAL: lambda g, r, c, b: check_edge_implies_spectral(g, r),
    TheoremId.BOOK_REMARK: lambda g, r, c, b: check_book_remark(g, r),
}


class TestRunChecks:
    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_shared_analysis_equals_fresh_checks(self, r):
        assert set(FRESH) == set(GRAPH_CHECKS)
        for g in turan_neighbourhood_hosts(r, 97 + r):
            for b in (0.0, 1e-6):
                shared = run_checks(GRAPH_CHECKS, g, r, c=0.6, b=b)
                fresh = [FRESH[tid](g, r, 0.6, b) for tid in GRAPH_CHECKS]
                assert [v.to_json_dict() for v in shared] == [
                    v.to_json_dict() for v in fresh
                ], (g, b)

    def test_stability_checks_peel_and_search_once(self, monkeypatch):
        # At these orders floor(0.6 ln n) = 1 and n^(1 - 2 sqrt 0.6) < 1, so
        # t3, t2.2 and t3.2 all look for the same K_r^+(2, 1, ..., 1).
        from specturan import theorems

        calls: Counter = Counter()
        for name in ("find_stability_witness", "find_kr_plus"):

            def counted(*args, _fn=getattr(theorems, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(theorems, name, counted)
        tids = [TheoremId.T3, TheoremId.T1_2, TheoremId.T2_2, TheoremId.T3_2]
        for r in (2, 3):
            hosts = [make_turan(12, r), make_turan_plus_edge(14, r)]
            hosts += [random_gnm(n, turan_edge_count(n, r) + 1, n) for n in (9, 16)]
            for g in hosts:
                calls.clear()
                shared = run_checks(tids, g, r, c=0.6, b=1e-6)
                assert calls == {"find_stability_witness": 1, "find_kr_plus": 1}, g
                fresh = [FRESH[tid](g, r, 0.6, 1e-6) for tid in tids]
                assert [v.to_json_dict() for v in shared] == [
                    v.to_json_dict() for v in fresh
                ], g

    def test_missing_c_raises_before_any_checker(self, monkeypatch):
        from specturan import theorems

        def no_estimate(*args, **kwargs):
            raise AssertionError("a checker ran")

        monkeypatch.setattr(theorems, "spectral_radius", no_estimate)
        with pytest.raises(ValueError, match="theorem t2 needs an explicit c"):
            run_checks([TheoremId.FACT_STT, TheoremId.T2], make_turan(6, 2), 2)


# The public checker API, literally: renaming a parameter or moving a
# default has to change this table too.
PUBLIC_SIGNATURES = {
    "check_book_remark": "(g: 'Graph', r: 'int', tol: 'float' = 1e-10) -> 'TheoremVerdict'",
    "check_edge_implies_spectral": (
        "(g: 'Graph', r: 'int', tol: 'float' = 1e-10) -> 'TheoremVerdict'"
    ),
    "check_fact_lekd": "(g: 'Graph', r: 'int') -> 'TheoremVerdict'",
    "check_fact_lenslmm": "(g: 'Graph', r: 'int', tol: 'float' = 1e-10) -> 'TheoremVerdict'",
    "check_fact_thv4": (
        "(g: 'Graph', r: 'int', c: 'float', budget: 'int' = 100000000)"
        " -> 'TheoremVerdict'"
    ),
    "check_fact_tsize": "(n: 'int', r: 'int') -> 'TheoremVerdict'",
    "check_spectral_turan": (
        "(g: 'Graph', r: 'int', tol: 'float' = 1e-10) -> 'TheoremVerdict'"
    ),
    "check_stability": (
        "(g: 'Graph', r: 'int', b: 'float', which: 'TheoremId' = <TheoremId.T1_2: 't1.2'>,"
        " tol: 'float' = 1e-10, budget: 'int' = 100000000, c: 'float | None' = None,"
        " order_coeff: 'float' = 4.0, degree_coeff: 'float' = 7.0) -> 'TheoremVerdict'"
    ),
    "check_theorem1": "(g: 'Graph', r: 'int', tol: 'float' = 1e-10) -> 'TheoremVerdict'",
    "check_theorem2": (
        "(g: 'Graph', r: 'int', c: 'float', tol: 'float' = 1e-10,"
        " budget: 'int' = 100000000) -> 'TheoremVerdict'"
    ),
    "check_theorem3": (
        "(g: 'Graph', r: 'int', tol: 'float' = 1e-10, budget: 'int' = 100000000,"
        " c_override: 'float | None' = None) -> 'TheoremVerdict'"
    ),
    "run_check": (
        "(tid: 'TheoremId', g: 'Graph | int', r: 'int', *, tol: 'float' = 1e-10,"
        " budget: 'int' = 100000000, c: 'float | None' = None, b: 'float' = 1e-06)"
        " -> 'TheoremVerdict'"
    ),
    "run_checks": (
        "(tids: 'Sequence[TheoremId]', g: 'Graph | int', r: 'int', *,"
        " tol: 'float' = 1e-10, budget: 'int' = 100000000, c: 'float | None' = None,"
        " b: 'float' = 1e-06) -> 'list[TheoremVerdict]'"
    ),
}


class TestPublicSignatures:
    def test_every_exported_checker_is_pinned(self):
        import specturan

        exported = {n for n in dir(specturan) if n.startswith("check_")}
        assert exported | {"run_check", "run_checks"} == set(PUBLIC_SIGNATURES)

    @pytest.mark.parametrize("name", sorted(PUBLIC_SIGNATURES))
    def test_signature_unchanged(self, name):
        from specturan import theorems

        fn = getattr(theorems, name)
        assert str(inspect.signature(fn)) == PUBLIC_SIGNATURES[name]
