import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from specturan import spectral

from oracles import (
    canonical_mask,
    charpoly_mu,
    eig_mu,
    reference_spectral_radius,
    shuffled_twin_blowup,
    turan_neighbourhood_hosts,
    turan_plus_edge_mu,
)
from specturan.graph import (
    Graph,
    complete_graph,
    graph_from_edge_mask,
    make_complete_multipartite,
    make_turan,
    make_turan_plus_edge,
    random_gnm,
    turan_part_sizes,
)
from specturan.harness import _mask_classes, _permuted_pair_bits
from specturan.rng import SplitMix64
from specturan.spectral import (
    EXACT_MAX_CLASSES,
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


def _radii(graphs, tol=1e-10):
    """`spectral_radii` of Graphs of one order, from their stacked matrices."""
    return spectral_radii(np.stack([g.to_numpy() for g in graphs]), graphs.__getitem__, tol)


def _n7_class_graphs():
    reps, _ = _mask_classes(_permuted_pair_bits(7))
    return [graph_from_edge_mask(7, int(m)) for m in reps]


class TestSpectralRadii:
    def test_fallback_runs_unconverged_graphs_through_spectral_radius(
        self, monkeypatch
    ):
        # mu(P_30) and mu(P_31) are too close for the whole-matrix iteration
        # to converge; the per-component path separates them.
        graphs = [_path_union(30, 31), _path_union(31, 30)]
        calls = []
        scalar = spectral.spectral_radius

        def counting(g, tol):
            calls.append(g)
            return scalar(g, tol)

        monkeypatch.setattr(spectral, "spectral_radius", counting)
        value, resid, conv = _radii(graphs)
        assert calls == graphs
        for i, g in enumerate(graphs):
            est = scalar(g)
            assert (value[i], resid[i], conv[i]) == (
                est.value,
                est.residual,
                est.converged,
            )

    def test_rejects_order_zero_and_mixed_orders(self):
        # A stack holds graphs of one order by construction; it must hold
        # at least one graph, of order at least 1.
        with pytest.raises(ValueError):
            spectral_radii(np.zeros((1, 0, 0)), [Graph(0)].__getitem__)
        with pytest.raises(ValueError):
            spectral_radii(np.zeros((0, 3, 3)), [].__getitem__)

    def test_disconnected_stragglers_leave_the_batch_at_the_shift_step(
        self, monkeypatch
    ):
        # Eight n = 7 classes are disconnected and still unconverged at the
        # shift step on their whole matrices (104-333 steps to converge
        # there); they go to the per-component path.
        graphs = _n7_class_graphs()
        calls = []
        scalar = spectral.spectral_radius

        def counting(g, tol):
            calls.append(g)
            return scalar(g, tol)

        monkeypatch.setattr(spectral, "spectral_radius", counting)
        value, resid, conv = _radii(graphs)
        assert conv.all()
        assert len(calls) == 8
        assert all(len(g.components()) > 1 for g in calls)
        for g in calls:
            est = scalar(g)
            i = graphs.index(g)
            assert (value[i], resid[i]) == (est.value, est.residual)


class TestDensityShift:
    """Runs unconverged after `_SHIFT_STEP` steps on A + I go on from their
    iterate on A + sI, s = max(1, m/k); faster runs keep the A + I bits."""

    def test_turan_plus_edge_4096(self):
        # On A + I alone this needs about 2.5n = 10^4 steps.
        cmp = compare_mu_to_turan(make_turan_plus_edge(4096, 2), 2)
        assert cmp.verdict is Verdict.GREATER
        assert cmp.mu_g.converged
        assert spectral._SHIFT_STEP < cmp.mu_g.iterations <= 150
        assert abs(cmp.mu_g.value - turan_plus_edge_mu(4096, 2)) <= 1e-8

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_turan_plus_edge_1024_matches_quotient(self, r):
        est = spectral_radius(make_turan_plus_edge(1024, r))
        assert est.converged
        assert abs(est.value - turan_plus_edge_mu(1024, r)) <= 1e-8

    def test_batched_switch_matches_scalar(self, monkeypatch):
        # T_2(40)+e crosses the switch step, the connected G(40, m) do not;
        # the batch switches one graph and leaves the rest on A + I.
        graphs = [make_turan_plus_edge(40, 2)] + [
            random_gnm(40, m, seed) for m in (120, 300, 600) for seed in (1, 2)
        ]
        scalar = spectral.spectral_radius
        estimates = [scalar(g) for g in graphs]
        steps = [est.iterations for est in estimates]
        assert steps[0] > spectral._SHIFT_STEP >= max(steps[1:])
        calls = []
        monkeypatch.setattr(spectral, "spectral_radius", lambda g, tol: calls.append(g))
        value, resid, conv = _radii(graphs)
        assert calls == [] and conv.all()
        for i, est in enumerate(estimates):
            assert abs(value[i] - est.value) <= 1e-12
            assert resid[i] <= 1e-9

    def test_n7_class_representatives(self, monkeypatch):
        # Per component every n = 7 class converges on A + I before the
        # switch, so scalar estimates keep their unshifted bits.  On the
        # whole matrix a few disconnected classes separate their components
        # slowly and leave the batch; it still agrees with the scalar path.
        graphs = _n7_class_graphs()
        value, _, conv = _radii(graphs)
        assert conv.all()

        def no_shift(*args):
            raise AssertionError("a component reached the shift step")

        monkeypatch.setattr(spectral, "_shift_by_density", no_shift)
        for i, g in enumerate(graphs):
            est = spectral_radius(g)
            assert est.converged and abs(value[i] - est.value) <= 1e-12


def _shuffled_blowup(h, mult, isolated, rng):
    """h with vertex i blown up to mult[i] twins, plus `isolated` extra
    vertices, under a seeded random relabelling."""
    n = sum(mult) + isolated
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    owner = [i for i, m in enumerate(mult) for _ in range(m)] + [-1] * isolated
    edges = [
        (perm[a], perm[b])
        for a in range(n)
        for b in range(a + 1, n)
        if min(owner[a], owner[b]) >= 0 and h.has_edge(owner[a], owner[b])
    ]
    return Graph.from_edges(n, edges)


def _twin_rich_hosts(seed, count):
    """Shuffled blow-ups of G(k, m), class sizes 1..3, some with a class of
    isolated vertices and some the disjoint union of two blow-ups."""
    rng = SplitMix64(seed)
    hosts = []
    while len(hosts) < count:
        k = 2 + rng.below(9)
        m = rng.below(k * (k - 1) // 2 + 1)
        h = random_gnm(k, m, rng.next_u64())
        if rng.below(3) == 0:
            # Two pieces: drop the edges across a cut.
            cut = 1 + rng.below(k - 1)
            h = Graph.from_edges(k, [e for e in h.edges() if (e[0] < cut) == (e[1] < cut)])
        mult = [1 + rng.below(3) for _ in range(k)]
        g = _shuffled_blowup(h, mult, rng.below(3), rng)
        if len(g.twin_classes()) < g.n:
            hosts.append(g)
    return hosts


def _lifted_residuals(g, tol, max_iter):
    """Per component of the twin quotient: (residual reported by the
    quotient iteration, infinity-norm residual of its lifted unit vector
    on G's full adjacency matrix)."""
    classes = list(g.twin_classes().values())
    quotient = g.induced_subgraph([(c & -c).bit_length() - 1 for c in classes])
    a = g.to_numpy()
    out = []
    for comp in quotient.components():
        if len(comp) == 1:
            continue
        sizes = np.array([classes[i].bit_count() for i in comp], dtype=np.float64)
        q_sub = quotient.to_numpy()[np.ix_(comp, comp)]
        value, res, _, _, z = spectral._component_power_iteration(
            q_sub, sizes, tol, max_iter
        )
        x = np.zeros(g.n)
        for i, zi, s in zip(comp, z, sizes):
            members = [v for v in range(g.n) if (classes[i] >> v) & 1]
            x[members] = zi / math.sqrt(s)
        assert abs(np.linalg.norm(x) - 1.0) <= 1e-12
        out.append((res, float(np.max(np.abs(a @ x - value * x)))))
    return out


class TestTwinQuotient:
    """`spectral_radius` iterates on the twin quotient: bit-identical to the
    full-matrix loop on twin-free graphs, exact in lifted terms otherwise."""

    @staticmethod
    def _estimate(g):
        est = spectral_radius(g)
        return est.value, est.residual, est.iterations, est.converged

    def test_twin_free_random_bit_identical(self):
        rng = SplitMix64(211)
        checked = 0
        for _ in range(200):
            n = 4 + rng.below(40)
            g = random_gnm(n, rng.below(n * (n - 1) // 2 + 1), rng.next_u64())
            if len(g.twin_classes()) < n:
                continue
            assert self._estimate(g) == reference_spectral_radius(g)
            checked += 1
        assert checked >= 50

    def test_twin_free_shifted_bit_identical(self):
        # Paths and unions of paths are twin-free from P_4 on and need the
        # shift step; P_30 + P_31 also needs the per-component split.
        for a, b in ((4, 0), (60, 0), (30, 31), (12, 50)):
            g = _path_union(a, b)
            assert len(g.twin_classes()) == g.n
            got = self._estimate(g)
            assert got == reference_spectral_radius(g)
        assert got[2] > spectral._SHIFT_STEP

    @pytest.mark.parametrize("max_iter", [1, 2, 99, 100, 101, 150])
    def test_twin_free_bit_identical_at_each_cap(self, max_iter):
        # The loop takes the residual only on a step whose Rayleigh quotient
        # has settled, and on the step at the cap, whose residual it
        # returns; the reference takes it on every step.  Paths need the
        # shift and run past 150 steps, so they end at the cap.
        hosts = [_path_union(a, b) for a, b in ((4, 0), (60, 0), (30, 31), (12, 50))]
        rng = SplitMix64(229)
        while len(hosts) < 40:
            n = 4 + rng.below(40)
            g = random_gnm(n, rng.below(n * (n - 1) // 2 + 1), rng.next_u64())
            if len(g.twin_classes()) == n:
                hosts.append(g)
        outcomes = set()
        for g in hosts:
            est = spectral_radius(g, max_iter=max_iter)
            got = (est.value, est.residual, est.iterations, est.converged)
            assert got == reference_spectral_radius(g, max_iter=max_iter), g._adj
            outcomes.add(est.converged)
        assert outcomes == ({False} if max_iter <= 2 else {False, True})

    def test_twin_free_n7_class_representatives_bit_identical(self):
        checked = 0
        for g in _n7_class_graphs():
            if len(g.twin_classes()) == 7:
                assert self._estimate(g) == reference_spectral_radius(g)
                checked += 1
        assert checked >= 100

    def test_shuffled_blowups_match_eigensolver(self):
        for g in _twin_rich_hosts(223, 150):
            est = spectral_radius(g)
            assert abs(est.value - eig_mu(g)) <= 1e-9
            assert est.converged == reference_spectral_radius(g)[3]

    def test_turan_plus_edge_keeps_iteration_counts(self):
        for n, r in ((200, 2), (201, 3), (202, 4)):
            g = make_turan_plus_edge(n, r)
            assert len(g.twin_classes()) == r + 2
            est = spectral_radius(g)
            ref = reference_spectral_radius(g)
            assert est.iterations == ref[2] and est.converged
            assert abs(est.value - ref[0]) <= 1e-9

    def test_residual_is_lifted_vector_residual(self):
        # After a few steps the residual is large and compared relatively;
        # at convergence it is near rounding level, so an absolute floor of
        # 1e-13 (a thousandth of tol) stands in for the relative test.
        for g in _twin_rich_hosts(227, 60):
            for max_iter in (3, 10**4):
                for res, lifted in _lifted_residuals(g, 1e-10, max_iter):
                    assert res == pytest.approx(lifted, rel=1e-9, abs=1e-13)

    @pytest.mark.parametrize("r", [3, 4])
    def test_turan_plus_edge_4096(self, r):
        cmp = compare_mu_to_turan(make_turan_plus_edge(4096, r), r)
        assert cmp.verdict is Verdict.GREATER
        assert abs(cmp.mu_g.value - turan_plus_edge_mu(4096, r)) <= 1e-8


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
        # The float interval ties; the exact quotient roots settle it.
        cmp = compare_mu_to_turan(make_turan(6, 2), 2)
        assert cmp.verdict is Verdict.NOT_GREATER
        assert cmp.exact

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
        assert not compare_mu_to_threshold(g, Fraction(999, 100)).exact
        tie = compare_mu_to_threshold(g, Fraction(10))  # settled exactly: strict
        assert tie.verdict is Verdict.NOT_GREATER and tie.exact

    def test_exact_multipartite_comparison(self):
        g = make_turan(7, 3)
        sizes = turan_part_sizes(7, 3)
        assert compare_mu_exact_multipartite(g, sizes) is Verdict.NOT_GREATER
        assert (
            compare_mu_exact_multipartite(g.with_edge(0, 1), sizes)
            is Verdict.GREATER
        )

    def test_exact_multipartite_quotient_path(self):
        """Every complete multipartite graph on n <= 7, relabelled, gets the
        verdict of the full characteristic polynomials of host and T_r(n)."""

        def partitions(n, largest):
            if n == 0:
                yield []
            for s in range(min(n, largest), 0, -1):
                for rest in partitions(n - s, s):
                    yield [s] + rest

        cases = []
        for n in range(1, 8):
            for sizes in partitions(n, n):
                g = make_complete_multipartite(sizes)
                rng, perm = SplitMix64(n * 100 + len(sizes)), list(range(n))
                for i in range(n - 1, 0, -1):
                    j = rng.below(i + 1)
                    perm[i], perm[j] = perm[j], perm[i]
                rows = [0] * n
                for v in range(n):
                    for u in range(n):
                        if g.has_edge(v, u):
                            rows[perm[v]] |= 1 << perm[u]
                host = Graph(n, rows)
                for r in (2, 3, 4):
                    expected = bool(charpoly_mu(host) > charpoly_mu(make_turan(n, r)))
                    cases.append((host, turan_part_sizes(n, r), expected))
        assert len(cases) == 44 * 3
        for g, ref, expected in cases:
            verdict = compare_mu_exact_multipartite(g, ref)
            assert (verdict is Verdict.GREATER) == expected, (g._adj, ref)
        assert sum(expected for _, _, expected in cases) > 0

    def test_exact_tie_off_multipartite_takes_charpoly(self):
        # K3 plus an isolated vertex ties T_2(4) = C4 at mu = 2, but is not
        # complete multipartite: its twin quotient is not K(2, 2)'s.
        g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2)])
        assert charpoly_mu(g) == charpoly_mu(make_turan(4, 2)) == 2
        assert compare_mu_exact_multipartite(g, [2, 2]) is Verdict.NOT_GREATER
        plus = g.with_edge(0, 3)
        assert compare_mu_exact_multipartite(plus, [2, 2]) is Verdict.GREATER

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


def _tied_circulant(n):
    """The circulant on Z_n, 3 | n, joining i to i +- 1, ..., i +- n/3: it is
    twin-free and (2n/3)-regular, so its mu = 2n/3 ties mu(T_3(n))."""
    assert n % 3 == 0
    return Graph.from_edges(
        n, [(i, (i + d) % n) for i in range(n) for d in range(1, n // 3 + 1)]
    )


class TestExactCap:
    """The exact path builds a k x k polynomial, so it serves only hosts
    with at most EXACT_MAX_CLASSES twin classes."""

    def test_tie_above_cap_stays_inconclusive(self, monkeypatch):
        def no_polynomial(b):
            raise AssertionError("exact path taken above the cap")

        monkeypatch.setattr(spectral, "_char_poly", no_polynomial)
        n = 3 * (EXACT_MAX_CLASSES // 3 + 1)
        g = _tied_circulant(n)
        assert len(g.twin_classes()) == n > EXACT_MAX_CLASSES
        cmp = compare_mu_to_turan(g, 3)
        assert cmp.verdict is Verdict.INCONCLUSIVE and not cmp.exact
        tie = compare_mu_to_threshold(g, Fraction(2 * n, 3))
        assert tie.verdict is Verdict.INCONCLUSIVE and not tie.exact

    def test_tie_at_cap_settles_no(self):
        n = 3 * (EXACT_MAX_CLASSES // 3)
        g = _tied_circulant(n)
        assert len(g.twin_classes()) == n <= EXACT_MAX_CLASSES
        cmp = compare_mu_to_turan(g, 3)
        assert cmp.verdict is Verdict.NOT_GREATER and cmp.exact
        tie = compare_mu_to_threshold(g, Fraction(2 * n, 3))
        assert tie.verdict is Verdict.NOT_GREATER and tie.exact


def _thresholds(mu):
    """floor, ceil and a rational within about 1e-13 of an exact mu."""
    import sympy

    close = Fraction(str(sympy.N(mu, 15)))
    return [Fraction(int(sympy.floor(mu))), Fraction(int(sympy.ceiling(mu))), close]


@functools.cache
def _charpoly_turan_mu(n, r):
    return charpoly_mu(make_turan(n, r))


def _assert_exact_agrees(g, mu, thresholds=None, rs=(2, 3, 4)):
    """Both public exact decisions on g agree with the oracle value mu."""
    import sympy

    for t in _thresholds(mu) if thresholds is None else thresholds:
        expected = bool(mu > sympy.Rational(t.numerator, t.denominator))
        assert exact_mu_greater_than_rational(g, t) is expected, (g._adj, t)
    for r in rs:
        verdict = compare_mu_exact_multipartite(g, turan_part_sizes(g.n, r))
        expected = bool(mu > _charpoly_turan_mu(g.n, r))
        assert (verdict is Verdict.GREATER) == expected, (g._adj, r)


class TestExactMuAgreesWithCharpoly:
    """The exact decisions, taken on the twin quotient, against the n x n
    characteristic polynomial of `charpoly_mu`."""

    def test_every_labelled_graph_n_le_5(self):
        # One decision per graph, in turn: mu against floor, ceil or a close
        # rational, or against mu(T_r(n)) for r = 2, 3, 4.  The oracle runs
        # once per isomorphism class.
        oracle = {}
        for n in range(6):
            for mask in range(1 << (n * (n - 1) // 2)):
                g = graph_from_edge_mask(n, mask)
                key = (n, canonical_mask(n, mask))
                if key not in oracle:
                    mu = charpoly_mu(g)
                    oracle[key] = mu, _thresholds(mu)
                mu, thresholds = oracle[key]
                turn = mask % 6
                if turn < 3:
                    _assert_exact_agrees(g, mu, [thresholds[turn]], ())
                elif n:
                    _assert_exact_agrees(g, mu, [], (turn - 1,))

    def test_turan_neighbourhoods(self):
        for r in (2, 3, 4):
            for g in turan_neighbourhood_hosts(r, 0xE4AC7 + r):
                _assert_exact_agrees(g, charpoly_mu(g), rs=(r,))

    def test_twin_rich_hosts(self):
        for g in _twin_rich_hosts(229, 30):
            _assert_exact_agrees(g, charpoly_mu(g))

    def test_empty_and_edgeless(self):
        empty = Graph(0, [])
        assert not exact_mu_greater_than_rational(empty, Fraction(0))
        assert exact_mu_greater_than_rational(empty, Fraction(-1, 3))
        for sizes in ((), (0,), (0, 0, 0)):
            assert compare_mu_exact_multipartite(empty, sizes) is Verdict.NOT_GREATER
        for n in (1, 2, 5):
            g = Graph(n)
            assert not exact_mu_greater_than_rational(g, Fraction(0))
            assert exact_mu_greater_than_rational(g, Fraction(-1, 10**9))
            for r in (2, 3, 7):
                assert compare_mu_exact_multipartite(g, turan_part_sizes(n, r)) is (
                    Verdict.NOT_GREATER
                )

    def test_zero_parts(self):
        # n < r: T_r(n) is K_n, and zero-size parts add no root.
        k2 = complete_graph(2)
        assert compare_mu_exact_multipartite(k2, (1, 1, 0, 0)) is Verdict.NOT_GREATER
        assert compare_mu_exact_multipartite(k2, (2, 0)) is Verdict.GREATER
        assert compare_mu_exact_multipartite(Graph(1), (1, 0, 0)) is Verdict.NOT_GREATER
        k3 = complete_graph(3)
        assert compare_mu_exact_multipartite(k3, turan_part_sizes(3, 5)) is (
            Verdict.NOT_GREATER
        )
        assert compare_mu_exact_multipartite(k3, (1, 1, 0)) is Verdict.GREATER


class TestExactMuAtScale:
    """Ties at n ~ 4096 cost the k x k twin quotient, not n x n."""

    def test_turan_4095_rational_tie(self):
        g = make_turan(4095, 3)  # 2730-regular, so mu = 2730
        assert not exact_mu_greater_than_rational(g, Fraction(2730))
        assert exact_mu_greater_than_rational(g, Fraction(2729))

    def test_turan_4096_plus_and_minus_edge(self):
        sizes = turan_part_sizes(4096, 3)
        t = make_turan(4096, 3)
        assert compare_mu_exact_multipartite(t, sizes) is Verdict.NOT_GREATER
        plus = make_turan_plus_edge(4096, 3)
        assert compare_mu_exact_multipartite(plus, sizes) is Verdict.GREATER
        minus = t.without_edge(*next(t.edges()))
        assert compare_mu_exact_multipartite(minus, sizes) is Verdict.NOT_GREATER


EXACT_LAW = settings(max_examples=60, deadline=None, derandomize=True)


@hst.composite
def exact_hosts(draw):
    """A seeded G(k, m), or its shuffled blow-up with 1-3 twins per vertex."""
    k = draw(hst.integers(min_value=1, max_value=6))
    m = draw(hst.integers(min_value=0, max_value=k * (k - 1) // 2))
    base = random_gnm(k, m, draw(hst.integers(min_value=0, max_value=2**32)))
    if draw(hst.booleans()):
        return base
    sizes = draw(hst.lists(hst.integers(1, 3), min_size=k, max_size=k))
    rows, _ = shuffled_twin_blowup(base, sizes, draw(hst.integers(0, 2**32)))
    return Graph(len(rows), rows)


class TestIntegerExactPath:
    """The exact path's integer polynomial and Sturm counts, against sympy
    as an independent oracle."""

    @given(exact_hosts())
    @EXACT_LAW
    def test_char_poly_matches_sympy(self, g):
        import sympy

        b = spectral._mu_quotient(g)
        want = sympy.Matrix(b).charpoly(sympy.Symbol("lam")).all_coeffs()
        assert spectral._char_poly(b) == [int(c) for c in want]

    @given(exact_hosts())
    @EXACT_LAW
    def test_decisions_match_charpoly_mu(self, g):
        _assert_exact_agrees(g, charpoly_mu(g))

    @given(
        hst.lists(hst.integers(-3, 3), min_size=1, max_size=9).filter(lambda p: p[0]),
        hst.lists(hst.integers(-3, 3), min_size=2, max_size=11).filter(lambda q: q[0]),
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_remainders_are_classical_up_to_positive_factors(self, p, q):
        # The classical sequence p, q, -rem(p_{i-1}, p_i), ... over the
        # rationals; small sparse coefficients give degree gaps, deg q >
        # deg p, and negative leading coefficients, where a
        # pseudo-remainder's sign can flip.
        def rem(a, b):
            a = list(a)
            while len(a) >= len(b):
                f = a[0] / b[0]
                a = [x - f * y for x, y in zip(a[1:], b[1:] + [0] * len(a))]
                while len(a) > 1 and a[0] == 0:
                    a = a[1:]
                if a == [0]:
                    break
            return a

        classical = [[Fraction(c) for c in p], [Fraction(c) for c in q]]
        while len(classical[-1]) > 1:
            r = rem(classical[-2], classical[-1])
            if r == [0]:
                break
            classical.append([-c for c in r])
        chain = spectral._remainders(p, q)
        assert len(chain) == len(classical)
        for got, want in zip(chain, classical):
            factor = Fraction(got[0]) / want[0]
            assert factor > 0 and got == [factor * c for c in want]

    @pytest.mark.parametrize(
        "roots, h, sign, count",
        [
            # h = x - t: the distinct roots above max(t, -1/2).
            ((2, 2, -1), (0,), 1, 1),
            ((2, 2, -1), (2,), 1, 0),
            ((2, 2, -1), (-1,), 1, 1),
            ((3, 3, 3, 1, -5), (1,), 1, 1),
            ((-3, -1, 4, 7), (Fraction(-7, 2),), 1, 2),
            ((-3, -1, 4, 7), (4,), 1, 1),
            ((2, 2, -1), (-2,), 1, 1),
            ((0, 0, 5), (-1,), 1, 2),
            # h = -(x - 3)(x - 5) > 0 on (3, 5) only; h = x^2 > 0 off 0.
            ((4, 4, 7, 1, 1), (3, 5), -1, 1),
            ((5, 5, 3, 0), (3, 5), -1, 0),
            ((0, 0, 2, 2, 6), (0, 0), 1, 2),
        ],
    )
    def test_tarski_count_with_repeated_roots(self, roots, h, sign, count):
        # p and h are given by their roots, h by its sign too.  A leading
        # coefficient of -2 makes the remainders' signs matter.
        def from_roots(lead, rs):
            p = [lead]
            for root in rs:
                p = [a - root * b for a, b in zip(p + [0], [0] + p)]
            scale = math.lcm(*(Fraction(c).denominator for c in p))
            return [int(c * scale) for c in p]

        assert spectral._tarski_count(from_roots(-2, roots), from_roots(sign, h)) == count

    @given(
        hst.lists(hst.integers(0, 4), max_size=5),
        hst.one_of(
            hst.integers(0, 12).map(Fraction),
            hst.fractions(min_value=Fraction(-49, 50), max_value=30, max_denominator=50),
        ),
    )
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_secular_sign_is_the_sign_of_x_minus_mu_k(self, sizes, x):
        # Integer probes hit integer mu(K), such as K(2, 2) at 2, exactly.
        import sympy

        mu_k = _mu_of_k(sizes)
        want = sympy.sign(sympy.Rational(x.numerator, x.denominator) - mu_k)
        assert spectral._value_sign(spectral._secular(sizes), x) == want, (sizes, x)
        assert multipartite_mu_at_least(sizes, x) is bool(want <= 0)


def _mu_of_k(sizes):
    """mu(K(sizes)) from K's full adjacency characteristic polynomial."""
    return _mu_of_parts(tuple(sorted(s for s in sizes if s > 0)))


@functools.cache
def _mu_of_parts(parts):
    return charpoly_mu(make_complete_multipartite(parts) if parts else Graph(0))


class TestMultipartiteBracket:
    """compare_mu_exact_multipartite against irrational and integer mu(K),
    ties included, with unbalanced part sizes."""

    @pytest.mark.parametrize(
        "sizes", [(2, 1), (3, 1, 1), (3, 3, 2), (4, 1), (2, 2), (3, 3, 3)]
    )
    def test_k_against_itself_and_neighbours(self, sizes):
        # Vertices 0 and 1 share the first part, which has at least two.
        k = make_complete_multipartite(sizes)
        minus = k.without_edge(*next(iter(k.edges())))
        for g, want in ((k, False), (minus, False), (k.with_edge(0, 1), True)):
            got = compare_mu_exact_multipartite(g, sizes)
            assert got is (Verdict.GREATER if want else Verdict.NOT_GREATER)

    @pytest.mark.parametrize("sizes", [(1, 2), (1, 1, 3), (2, 3, 3), (1, 4)])
    def test_other_hosts_of_the_same_order(self, sizes):
        mu_k = _mu_of_k(sizes)
        n = sum(sizes)
        for seed in range(12):
            m = (seed * 7) % (n * (n - 1) // 2 + 1)
            g = random_gnm(n, m, 0xB4AC + seed)
            want = Verdict.GREATER if charpoly_mu(g) > mu_k else Verdict.NOT_GREATER
            assert compare_mu_exact_multipartite(g, sizes) is want


class TestNonFiniteTol:
    @pytest.mark.parametrize("tol", [math.inf, -math.inf, math.nan, 0.0, -1e-10])
    def test_rejected(self, tol):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            spectral_radius(make_turan_plus_edge(30, 3), tol=tol)
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            multipartite_mu_exact((3, 4), tol=tol)
