import math
from fractions import Fraction

import numpy as np
import pytest

from specturan import spectral

from oracles import eig_mu
from specturan.graph import (
    Graph,
    complete_graph,
    make_complete_multipartite,
    make_turan,
    make_turan_plus_edge,
    random_gnm,
    turan_part_sizes,
)
from specturan.rng import SplitMix64
from specturan.spectral import (
    Verdict,
    compare_mu_exact_multipartite,
    compare_mu_to_threshold,
    compare_mu_to_turan,
    exact_mu_greater_than_rational,
    interval_flags,
    multipartite_mu_at_least,
    multipartite_mu_exact,
    spectral_radii,
    spectral_radius,
    turan_mu_exact,
)
from specturan.theorems import turan_edge_count


class TestSpectralRadius:
    def test_complete(self):
        est = spectral_radius(complete_graph(5))
        assert est.converged
        assert est.value == pytest.approx(4.0, abs=1e-9)

    def test_k22(self):
        est = spectral_radius(make_complete_multipartite((2, 2)))
        assert est.value == pytest.approx(2.0, abs=1e-9)

    def test_k23_matches_eigensolver(self):
        g = make_complete_multipartite((2, 3))
        est = spectral_radius(g)
        assert est.value == pytest.approx(math.sqrt(6), abs=1e-9)
        assert est.value == pytest.approx(eig_mu(g), abs=1e-8)

    def test_empty_and_single_vertex(self):
        assert spectral_radius(Graph(0)).value == 0.0
        est = spectral_radius(Graph(1))
        assert est.value == 0.0 and est.converged

    def test_edgeless(self):
        est = spectral_radius(Graph(6))
        assert est.value == 0.0 and est.converged and est.residual == 0.0

    def test_disconnected_takes_max_component(self):
        # K_4 plus a disjoint edge: mu = 3 from the K_4 component
        g = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 5)])
        est = spectral_radius(g)
        assert est.converged
        assert est.value == pytest.approx(3.0, abs=1e-9)

    def test_two_cospectral_components(self):
        # C_4 and K_{1,4} share mu = 2; whole graph converges per component
        g = Graph.from_edges(9, [(0, 1), (1, 2), (2, 3), (3, 0),
                                 (4, 5), (4, 6), (4, 7), (4, 8)])
        est = spectral_radius(g)
        assert est.converged and est.value == pytest.approx(2.0, abs=1e-9)

    def test_degree_bounds_random(self):
        rng = SplitMix64(11)
        for _ in range(30):
            n = 3 + rng.below(10)
            m = rng.below(n * (n - 1) // 2 + 1)
            g = random_gnm(n, m, rng.next_u64())
            est = spectral_radius(g)
            assert est.converged
            max_deg = max(g.degrees())
            assert est.value <= max_deg + 1e-8
            if len(g.components()) == 1 and n > 0:
                assert est.value >= 2 * g.edge_count() / n - 1e-8

    def test_edge_monotonicity_random(self):
        rng = SplitMix64(12)
        for _ in range(20):
            n = 4 + rng.below(8)
            m = rng.below(n * (n - 1) // 2)
            g = random_gnm(n, m, rng.next_u64())
            base = spectral_radius(g).value
            non_edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if not g.has_edge(u, v)
            ]
            u, v = non_edges[rng.below(len(non_edges))]
            assert spectral_radius(g.with_edge(u, v)).value >= base - 1e-8

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            spectral_radius(Graph(3), tol=0.0)

    def test_oracle_agreement_random(self):
        rng = SplitMix64(13)
        for _ in range(25):
            n = 2 + rng.below(12)
            m = rng.below(n * (n - 1) // 2 + 1)
            g = random_gnm(n, m, rng.next_u64())
            est = spectral_radius(g)
            assert est.converged
            assert est.value == pytest.approx(eig_mu(g), abs=1e-8)


def _path_union(a, b):
    """P_a on vertices 0..a-1 and P_b on the next b vertices."""
    edges = [(i, i + 1) for i in range(a - 1)]
    edges += [(a + i, a + i + 1) for i in range(b - 1)]
    return Graph.from_edges(a + b, edges)


class TestSpectralRadii:
    def test_fallback_runs_unconverged_graphs_through_spectral_radius(
        self, monkeypatch
    ):
        # mu(P_30) and mu(P_31) are too close for the whole-matrix iteration
        # to converge within the cap; the per-component path separates them.
        graphs = [_path_union(30, 31), _path_union(31, 30)]
        calls = []
        scalar = spectral.spectral_radius

        def counting(g, tol):
            calls.append(g)
            return scalar(g, tol)

        monkeypatch.setattr(spectral, "spectral_radius", counting)
        value, resid, conv = spectral_radii(graphs, 1e-10)
        assert calls == graphs
        for i, g in enumerate(graphs):
            est = scalar(g)
            assert (value[i], resid[i], conv[i]) == (
                est.value,
                est.residual,
                est.converged,
            )

    def test_rejects_order_zero_and_mixed_orders(self):
        with pytest.raises(ValueError):
            spectral_radii([Graph(0)])
        with pytest.raises(ValueError):
            spectral_radii([])
        with pytest.raises(ValueError):
            spectral_radii([Graph(3), Graph(4)])


class TestIntervalFlags:
    # (value, residual, converged, reference, ref_tol) -> (greater, not_greater)
    CASES = [
        ((3.5, 0.25, True, 3.0, 0.125), (True, False)),
        ((2.5, 0.25, True, 3.0, 0.125), (False, True)),
        ((3.25, 0.25, True, 3.0, 0.125), (False, False)),
        ((3.5, 0.25, False, 3.0, 0.125), (False, False)),
        ((2.5, 0.25, False, 3.0, 0.125), (False, False)),
        # value - residual == reference + ref_tol exactly: no flag
        ((3.375, 0.25, True, 3.0, 0.125), (False, False)),
        # value + residual == reference - ref_tol exactly: no flag
        ((2.625, 0.25, True, 3.0, 0.125), (False, False)),
    ]

    @pytest.mark.parametrize("args, want", CASES)
    def test_float_fraction_and_array_agree(self, args, want):
        value, residual, converged, reference, ref_tol = args
        as_float = interval_flags(*args)
        as_fraction = interval_flags(
            Fraction(value),
            Fraction(residual),
            converged,
            Fraction(reference),
            Fraction(ref_tol),
        )
        as_array = interval_flags(
            np.array([value]),
            np.array([residual]),
            np.array([converged]),
            reference,
            ref_tol,
        )
        assert tuple(as_float) == want
        assert tuple(as_fraction) == want
        assert tuple(flag.tolist() for flag in as_array) == ([want[0]], [want[1]])


class TestMultipartiteMuExact:
    def test_k23_closed_form(self):
        assert multipartite_mu_exact((2, 3)) == pytest.approx(math.sqrt(6), abs=1e-10)

    def test_balanced_is_regular(self):
        for r in (2, 3, 5):
            for k in (1, 3, 7):
                assert multipartite_mu_exact((k,) * r) == pytest.approx(
                    (r - 1) * k, abs=1e-10
                )

    def test_k55(self):
        assert multipartite_mu_exact((5, 5)) == pytest.approx(5.0, abs=1e-10)

    def test_unbalanced_bracket_fallback(self):
        # (1, 99): mu = sqrt(99), far below the balanced-case bracket start
        assert multipartite_mu_exact((1, 99)) == pytest.approx(
            math.sqrt(99), abs=1e-9
        )

    def test_single_part(self):
        assert multipartite_mu_exact((7,)) == 0.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            multipartite_mu_exact(())

    def test_agrees_with_power_iteration_sweep(self):
        rng = SplitMix64(99)
        for _ in range(60):
            r = 1 + rng.below(6)
            sizes = tuple(1 + rng.below(9) for _ in range(r))
            if sum(sizes) > 60:
                continue
            exact = multipartite_mu_exact(sizes)
            est = spectral_radius(make_complete_multipartite(sizes))
            assert est.converged
            assert abs(exact - est.value) < 1e-8

    def test_mu_at_least_exact(self):
        # mu(K_{2,3}) = sqrt(6) ~ 2.4494: rational probes on both sides
        assert multipartite_mu_at_least((2, 3), Fraction(61, 25))  # 2.44
        assert not multipartite_mu_at_least((2, 3), Fraction(49, 20))  # 2.45
        assert multipartite_mu_at_least((2, 3), Fraction(0))


class TestTsizeChain:
    """mu(T_r(n)) >= 2e/n >= (1-1/r)n - r/(4n), exactly, across the grid."""

    def test_chain_exact(self):
        for n in range(2, 2001):
            r_values = range(2, n) if n <= 40 else (2, 3, 5, 7, n // 2, n - 1)
            for r in r_values:
                e = turan_edge_count(n, r)
                # mu >= 2e/n via exact rational evaluation of the quotient eq
                assert multipartite_mu_at_least(
                    turan_part_sizes(n, r), Fraction(2 * e, n)
                ), (n, r)
                # 2e/n >= (1-1/r)n - r/(4n)  <=>  8re >= 4(r-1)n^2 - r^2
                assert 8 * r * e >= 4 * (r - 1) * n * n - r * r, (n, r)


class TestComparisons:
    def test_turan_itself_never_greater(self):
        cmp = compare_mu_to_turan(make_turan(6, 2), 2)
        assert cmp.verdict in (Verdict.NOT_GREATER, Verdict.INCONCLUSIVE)

    def test_plus_edge_certified_greater(self):
        cmp = compare_mu_to_turan(make_turan_plus_edge(6, 2), 2)
        assert cmp.verdict is Verdict.GREATER

    def test_empty_graph_not_greater(self):
        cmp = compare_mu_to_turan(Graph(6), 2)
        assert cmp.verdict is Verdict.NOT_GREATER
        assert cmp.mu_turan == pytest.approx(3.0, abs=1e-9)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            compare_mu_to_turan(Graph(3), 1)
        with pytest.raises(ValueError):
            compare_mu_to_turan(Graph(0), 2)

    def test_threshold_comparison(self):
        g = make_turan(20, 2)  # mu = 10 exactly
        assert (
            compare_mu_to_threshold(g, Fraction(999, 100)).verdict is Verdict.GREATER
        )
        assert (
            compare_mu_to_threshold(g, Fraction(1001, 100)).verdict
            is Verdict.NOT_GREATER
        )
        assert (
            compare_mu_to_threshold(g, Fraction(10)).verdict is Verdict.INCONCLUSIVE
        )

    def test_exact_multipartite_comparison(self):
        g = make_turan(7, 3)
        sizes = turan_part_sizes(7, 3)
        assert compare_mu_exact_multipartite(g, sizes) is Verdict.NOT_GREATER
        assert (
            compare_mu_exact_multipartite(g.with_edge(0, 1), sizes)
            is Verdict.GREATER
        )

    def test_exact_rational_comparison(self):
        g = make_turan(20, 2)
        assert exact_mu_greater_than_rational(g, Fraction(999, 100))
        assert not exact_mu_greater_than_rational(g, Fraction(10))  # strict

    def test_turan_mu_values(self):
        assert turan_mu_exact(7, 2) == pytest.approx(math.sqrt(12), abs=1e-10)
        # largest root of 3/(x+3) + 4/(x+2) = 1, i.e. 1 + sqrt(13)
        assert turan_mu_exact(7, 3) == pytest.approx(1 + math.sqrt(13), abs=1e-10)
        assert turan_mu_exact(0, 2) == 0.0
        assert turan_mu_exact(1, 2) == 0.0
