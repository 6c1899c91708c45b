import itertools
import json
import math
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from specturan import cli, harness, spectral, subgraph, theorems
from specturan.graph import edge_mask_stack, graph_from_edge_mask, make_turan
from specturan.harness import (
    ExperimentConfig,
    _mask_classes,
    _mask_clique_counts,
    _mask_radii,
    _orbit_members,
    _permuted_pair_bits,
    run_exhaustive,
    run_experiment,
    run_family_sweep,
    run_random_hunt,
    run_tightness,
)
from specturan.rng import SplitMix64
from specturan.spectral import (
    exact_mu_greater_than_rational,
    interval_flags,
    spectral_radius,
    turan_mu_exact,
)
from specturan.subgraph import count_cliques, joint_size
from specturan.theorems import (
    CHECKS,
    TheoremId,
    TriState,
    _lenslmm_mu_bound,
    check_fact_lenslmm,
    run_check,
    run_checks,
    turan_edge_count,
)
from oracles import (
    canonical_mask,
    canonical_masks,
    reference_mask_classes,
    table_canonical_mask,
    turan_neighbourhood_hosts,
)


DATA = Path(__file__).parent / "data"


def _approx_floats(value):
    """A JSON value with every float wrapped for 1e-12 comparison."""
    if isinstance(value, dict):
        return {k: _approx_floats(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_approx_floats(v) for v in value]
    if isinstance(value, float):
        return pytest.approx(value, rel=0, abs=1e-12)
    return value


def _all_masks(n):
    return np.arange(1 << (n * (n - 1) // 2), dtype=np.uint32)


def _sample_masks(n, count, seed):
    total = 1 << (n * (n - 1) // 2)
    rng = SplitMix64(seed)
    return np.array(sorted({rng.below(total) for _ in range(count)}), dtype=np.uint32)


def _graphs(masks, n):
    return [graph_from_edge_mask(n, int(m)) for m in masks]


def _classes(n):
    return _mask_classes(_permuted_pair_bits(n))


def _radii(masks, n):
    return _mask_radii(n, masks, 1e-10, lambda i: graph_from_edge_mask(n, int(masks[i])))


class TestConfig:
    def test_from_mapping_aliases(self):
        cfg = ExperimentConfig.from_mapping(
            {"mode": "exhaustive", "n": 5, "r": 2, "checks": "stt,tsize"}
        )
        assert cfg.n_min == cfg.n_max == 5
        assert cfg.checks == ("stt", "tsize")

    def test_scientific_notation_ints(self):
        cfg = ExperimentConfig.from_mapping(
            {"mode": "random_hunt", "n": 10, "budget": "1e6", "trials": "1e2"}
        )
        assert cfg.budget == 10**6 and cfg.trials == 100

    def test_int_settings_are_exact(self):
        cfg = ExperimentConfig.from_mapping(
            {"mode": "random_hunt", "n": 10, "seed": "9007199254740993", "trials": 3.0}
        )
        assert cfg.seed == 2**53 + 1 and cfg.trials == 3
        for value in ("2.5", "4/2", "inf", 2.5):
            with pytest.raises(ValueError, match="^seed: expected an integer"):
                ExperimentConfig.from_mapping({"mode": "random_hunt", "n": 10, "seed": value})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_mapping({"mode": "exhaustive", "n": 4, "bogus": 1})
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_mapping({"mode": "exhaustive", "n": 4, "threads": 1})

    @pytest.mark.parametrize(
        "settings, message",
        [
            (("checks=stt,bogus",), "error: unknown check 'bogus'"),
            (("checks=stt,tsize",), "error: check 'tsize' has no per-graph path"),
            (("checks=stt,t2",), "error: check 't2' needs c > 0"),
            (("checks=thv4", "c=0"), "error: check 'thv4' needs c > 0"),
            (("mode=exhaustive", "n_min=0", "n_max=2", "r=2", "checks=stt"),
             "error: exhaustive mode needs n_min >= 1"),
            (("n_min=0", "checks=stt"), "error: family_sweep mode needs n_min >= 1"),
            (("mode=random_hunt", "n_min=0", "checks=stt"),
             "error: random_hunt mode needs n_min >= 1"),
            (("checks=stt,t2.2", "b=-0.01"), "error: check 't2.2' needs b >= 0, got -0.01"),
        ],
    )
    def test_impossible_check_rejected_before_any_graph(
        self, settings, message, monkeypatch, capsys
    ):
        def no_run(cfg):
            raise AssertionError("the experiment started")

        monkeypatch.setattr(cli, "run_experiment", no_run)
        argv = ["experiment", "--set", "mode=family_sweep", "--set", "n_min=4"]
        argv += ["--set", "n_max=30", "--set", "r=3"]
        for item in settings:
            argv += ["--set", item]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.strip() == message

    @pytest.mark.parametrize("tol", [math.inf, -math.inf, math.nan, 0.0, "inf", "nan"])
    def test_tol_must_be_positive_and_finite(self, tol):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            ExperimentConfig.from_mapping({"mode": "exhaustive", "n": 4, "tol": tol})
        if not isinstance(tol, str):
            with pytest.raises(ValueError, match="tol must be positive and finite"):
                ExperimentConfig(mode="random_hunt", n_min=4, n_max=4, tol=tol)

    @pytest.mark.parametrize(
        "mode, key", [("exhaustive", "sample_cap"), ("random_hunt", "trials")]
    )
    def test_negative_counts_rejected(self, mode, key):
        with pytest.raises(ValueError, match=f"^{key} must be >= 0, got -2$"):
            ExperimentConfig.from_mapping({"mode": mode, "n": 5, key: -2})
        ExperimentConfig.from_mapping({"mode": mode, "n": 5, key: 0})

    def test_exhaustive_caps_n(self):
        with pytest.raises(ValueError):
            ExperimentConfig(mode="exhaustive", n_min=9, n_max=9)

    def test_exhaustive_check_whitelist(self):
        with pytest.raises(ValueError):
            ExperimentConfig(mode="exhaustive", n_min=4, n_max=4, checks=("t1",))

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            ExperimentConfig(mode="nope", n_min=1, n_max=1)

    def test_config_file_roundtrip(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "# comment\nmode = exhaustive\nn = 4\nr = 2\n"
            "checks = stt,lenslmm  # trailing comment\nseed = 7\n"
        )
        cfg = ExperimentConfig.from_file(str(path))
        assert cfg.mode == "exhaustive" and cfg.seed == 7
        assert cfg.checks == ("stt", "lenslmm")

    def test_config_file_bad_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("mode exhaustive\n")
        with pytest.raises(ValueError):
            ExperimentConfig.from_file(str(path))


class TestVectorKernelsAgainstScalar:
    """The exhaustive engine must agree with the scalar library paths."""

    def test_batched_mu_matches_scalar(self):
        masks = _sample_masks(7, 150, 8)
        graphs = _graphs(masks, 7)
        value, resid, conv = _radii(masks, 7)
        assert conv.all()
        for i, g in enumerate(graphs):
            est = spectral_radius(g)
            assert est.converged
            assert abs(value[i] - est.value) <= 1e-12


def _class_of(n):
    """(reps, the class of every mask) from the regenerated orbits of every
    class, which must cover each mask exactly once."""
    reps, _ = _classes(n)
    masks, owner = _orbit_members(_permuted_pair_bits(n), reps, np.arange(len(reps)))
    assert np.array_equal(masks, _all_masks(n))
    return reps, owner


class TestIsomorphismClasses:
    """The orbit partition behind class-based exhaustive scans."""

    A000088 = (1, 1, 2, 4, 11, 34, 156, 1044)

    @pytest.mark.parametrize("n", range(8))
    def test_class_counts_and_orbit_sizes(self, n):
        reps, sizes = _classes(n)
        assert len(reps) == len(sizes) == self.A000088[n]
        assert int(sizes.sum()) == 1 << (n * (n - 1) // 2)
        assert all(math.factorial(n) % int(s) == 0 for s in sizes)

    @pytest.mark.parametrize("n", range(8))
    def test_representative_is_smallest_mask_of_its_class(self, n):
        reps, sizes = _classes(n)
        assert np.all(np.diff(reps.astype(np.int64)) > 0)
        _, class_of = _class_of(n)
        masks = _all_masks(n)
        smallest = np.full(len(reps), masks.max(), dtype=masks.dtype)
        np.minimum.at(smallest, class_of, masks)
        assert np.array_equal(smallest, reps)
        assert np.array_equal(np.bincount(class_of, minlength=len(reps)), sizes)

    @pytest.mark.parametrize("n", range(6))
    def test_classes_match_oracle_canonical_forms(self, n):
        reps, sizes = _classes(n)
        canon = Counter(canonical_mask(n, m) for m in range(1 << (n * (n - 1) // 2)))
        assert sorted(canon) == reps.tolist()
        assert [canon[int(m)] for m in reps] == sizes.tolist()

    @pytest.mark.parametrize("n", range(6))
    def test_table_canonical_mask_matches_brute_force(self, n):
        for mask in range(1 << (n * (n - 1) // 2)):
            assert table_canonical_mask(n, mask) == canonical_mask(n, mask), mask

    @pytest.mark.parametrize("n", range(7))
    def test_regenerated_masks_match_brute_force_gather(self, n):
        reps, _ = _classes(n)
        class_of = np.searchsorted(reps, canonical_masks(n))
        assert np.array_equal(reps[class_of], canonical_masks(n))
        rng = np.random.default_rng(n)
        for density in (0.0, 0.05, 0.3, 1.0):
            flags = rng.random(len(reps)) < density
            masks, classes = _orbit_members(
                _permuted_pair_bits(n), reps, np.flatnonzero(flags)
            )
            want = np.nonzero(flags[class_of])[0]
            assert np.array_equal(masks, want)
            assert np.array_equal(classes, class_of[want])

    def test_sample_gets_identity_partition(self, monkeypatch):
        # A sampled scan decodes each sampled mask once, in order, as its
        # own class, and never marks orbits.
        def no_marking(n):
            raise AssertionError("a sampled scan marked orbits")

        decodes = []
        decode = harness.graph_from_edge_mask

        def counting_decode(n, mask):
            decodes.append(mask)
            return decode(n, mask)

        monkeypatch.setattr(harness, "_mask_classes", no_marking)
        monkeypatch.setattr(harness, "graph_from_edge_mask", counting_decode)
        masks = _sample_masks(7, 50, 4)
        out = harness._scan_order(7, 3, masks, 1e-10, ("edge-spectral",), True)
        assert decodes == masks.tolist()
        edges = np.bitwise_count(masks).astype(np.int64)
        assert out["stats"]["edge_count_distribution"] == np.bincount(edges).tolist()
        assert out["instances"] == len(masks)

    @pytest.mark.parametrize("n", range(8))
    def test_permuted_pair_bits(self, n):
        pairs = list(itertools.combinations(range(n), 2))
        index = {p: i for i, p in enumerate(pairs)}
        want = [
            [1 << index[tuple(sorted((perm[u], perm[v])))] for u, v in pairs]
            for perm in itertools.permutations(range(n))
        ]
        table = _permuted_pair_bits(n)
        assert table.dtype == np.uint32
        assert table.shape == (math.factorial(n), len(pairs))
        assert table.tolist() == want

    def test_full_scan_allocates_no_per_mask_array(self):
        # At n = 7 an int32 per mask alone would take 8 MiB; the visited
        # array takes 2 MiB.
        tracemalloc.start()
        try:
            checks = ("stt", "lenslmm", "edge-spectral")
            harness._scan_order(7, 3, None, 1e-10, checks, True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 2**20


class TestMaskKernels:
    """The half walk and the mask kernels against the references they
    replace: full orbit marking, count_cliques and Graph.to_numpy."""

    # Self-complementary graphs of order n (OEIS A000171).
    SELF_COMPLEMENTARY = (1, 1, 0, 0, 1, 2, 0, 0)

    @pytest.mark.parametrize("n", range(8))
    def test_half_walk_matches_full_marking(self, n):
        reps, sizes = _classes(n)
        want_reps, want_sizes = reference_mask_classes(n)
        assert reps.tolist() == want_reps.tolist()
        assert sizes.tolist() == want_sizes.tolist()
        # Only n = 0, 1 (mod 4) has classes with exactly half of the pairs
        # as edges, the branch that marks a complement orbit; they hold the
        # self-complementary classes (P4 at n = 4; C5 and the bull at n = 5).
        full = (1 << (n * (n - 1) // 2)) - 1
        half = [int(m) for m in reps if 2 * int(m).bit_count() == full.bit_count()]
        assert bool(half) == (n % 4 in (0, 1))
        selfc = [m for m in half if canonical_mask(n, full ^ m) == m]
        assert len(selfc) == self.SELF_COMPLEMENTARY[n]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_mask_clique_counts_match_count_cliques(self, n):
        reps, _ = _classes(n)
        graphs = _graphs(reps, n)
        for q in range(1, n + 1):
            want = [count_cliques(g, q).count for g in graphs]
            assert _mask_clique_counts(n, reps, q).tolist() == want

    @pytest.mark.parametrize("n", range(8))
    def test_mask_stack_matches_to_numpy(self, n):
        reps, _ = _classes(n)
        stack = edge_mask_stack(n, reps)
        assert stack.dtype == np.uint8
        want = np.array([g.to_numpy() for g in _graphs(reps, n)]).reshape(len(reps), n, n)
        assert np.array_equal(stack, want)

    def test_kernels_chunk_large_inputs(self, monkeypatch):
        # Chunked and unchunked passes give the same arrays.
        masks = _sample_masks(7, 300, 5)
        k4, radii = _mask_clique_counts(7, masks, 4), _radii(masks, 7)
        monkeypatch.setattr(harness, "_BATCH_CHUNK", 64)
        assert np.array_equal(_mask_clique_counts(7, masks, 4), k4)
        for got, want in zip(_radii(masks, 7), radii):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "n, cap, seed", [(5, 300, 1), (6, 500, 2), (6, 100, 3), (7, 2000, 7), (3, 7, 4)]
    )
    def test_sample_masks_are_distinct_sorted_and_cap_many(self, n, cap, seed):
        total = 1 << (n * (n - 1) // 2)
        masks = harness._sample_masks(total, cap, seed)
        assert masks.dtype == np.uint32 and len(masks) == cap
        assert np.all(np.diff(masks.astype(np.int64)) > 0)
        assert 0 <= int(masks[0]) and int(masks[-1]) < total
        # Floyd's algorithm, one scalar draw per mask.
        rng, kept = SplitMix64(seed), set()
        for j in range(total - cap, total):
            t = rng.below(j + 1)
            kept.add(j if t in kept else t)
        assert masks.tolist() == sorted(kept)
        cfg = ExperimentConfig(
            mode="exhaustive", n_min=n, n_max=n, r=2, checks=("edge-spectral",),
            sample_cap=cap, seed=seed,
        )
        rep = run_exhaustive(cfg)
        assert rep.stats[f"n={n}"]["graphs"] == rep.instances_checked == cap
        assert sum(rep.stats[f"n={n}"]["edge_count_distribution"]) == cap


class TestClassBroadcast:
    """Class estimates broadcast to masks agree with per-mask estimates."""

    @staticmethod
    def classify(value, resid, conv, mu_t, tol=1e-10):
        greater, not_greater = interval_flags(value, resid, conv, mu_t, tol)
        return greater, not_greater, ~(greater | not_greater)

    @pytest.mark.parametrize("n, sample", [(6, 0), (7, 2000)])
    def test_broadcast_matches_per_mask(self, n, sample):
        masks = _sample_masks(n, sample, 12) if sample else _all_masks(n)
        reps, class_of = _class_of(n)
        cls = class_of[masks]
        per_mask = _radii(masks, n)
        per_class = _radii(reps, n)
        value, resid, conv = (a[cls] for a in per_class)
        assert np.array_equal(conv, per_mask[2])
        assert np.abs(value - per_mask[0]).max() <= 1e-12
        assert np.abs(resid - per_mask[1]).max() <= 1e-12
        for r in (2, 3):
            mu_t = turan_mu_exact(n, r)
            expected = self.classify(*per_mask, mu_t)
            for got, want in zip(self.classify(value, resid, conv, mu_t), expected):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_full_scan_distributions_match_per_mask(self, r):
        n = 6
        graphs = [graph_from_edge_mask(n, int(m)) for m in _all_masks(n)]
        cfg = ExperimentConfig(
            mode="exhaustive", n_min=n, n_max=n, r=r, checks=("lenslmm",)
        )
        dist = run_exhaustive(cfg).stats[f"n={n}"]["distributions"]
        want = {
            f"k_{q}": np.bincount([count_cliques(g, q).count for g in graphs]).tolist()
            for q in range(2, r + 2)
        }
        if r + 1 <= 4:
            js = [joint_size(g, r + 1).size for g in graphs]
            want[f"js_{r + 1}"] = np.bincount(js).tolist()
        assert dist == want

    def test_one_decode_per_class(self, monkeypatch):
        # Edge and clique counts and the batched estimate come from the class
        # masks.  A stats=0 scan decodes only the 2 tied classes (exact
        # tie-break) and the 8 disconnected classes the batch hands to
        # spectral_radius, each once, and never counts cliques on a Graph.
        decodes = []
        decode = harness.graph_from_edge_mask

        def counting_decode(n, mask):
            decodes.append(mask)
            return decode(n, mask)

        def no_count(g, q):
            raise AssertionError("count_cliques ran in a stats=0 scan")

        monkeypatch.setattr(harness, "graph_from_edge_mask", counting_decode)
        monkeypatch.setattr(subgraph, "count_cliques", no_count)
        monkeypatch.setattr(theorems, "count_cliques", no_count)
        cfg = ExperimentConfig(
            mode="exhaustive",
            n_min=7,
            n_max=7,
            r=3,
            checks=("stt", "lenslmm", "edge-spectral"),
            stats=0,
        )
        rep = run_exhaustive(cfg)
        assert len(decodes) == len(set(decodes)) == 10
        assert all(canonical_mask(7, m) == m for m in decodes)
        assert len(rep.inconclusive_log) == 140

    @pytest.mark.parametrize(
        "r, tied_classes, ties", [(2, 1, 35), (3, 2, 140), (4, 1, 105)]
    )
    def test_one_exact_call_per_tied_class(self, r, tied_classes, ties, monkeypatch):
        calls = []
        exact = harness.compare_mu_exact_multipartite

        def counting(g, sizes):
            calls.append(g)
            return exact(g, sizes)

        monkeypatch.setattr(harness, "compare_mu_exact_multipartite", counting)
        cfg = ExperimentConfig(
            mode="exhaustive", n_min=7, n_max=7, r=r, checks=("stt",), stats=0
        )
        rep = run_exhaustive(cfg)
        log = rep.inconclusive_log
        assert len(log) == ties
        assert [e["mask"] for e in log] == sorted(e["mask"] for e in log)
        assert all(e["stage"] == "exact" for e in log)
        assert len(calls) == tied_classes
        assert len({table_canonical_mask(7, e["mask"]) for e in log}) == tied_classes
        assert rep.counterexamples == []


class TestExhaustive:
    def test_n4_r2_stt_no_counterexamples(self):
        cfg = ExperimentConfig(
            mode="exhaustive", n_min=4, n_max=4, r=2, checks=("stt",)
        )
        rep = run_exhaustive(cfg)
        assert rep.instances_checked == 64
        assert rep.counterexamples == []
        # every logged near-tie carries a definite resolution
        assert all("resolution" in e for e in rep.inconclusive_log)

    def test_n3_r2_lenslmm_min_slack_at_k3(self):
        cfg = ExperimentConfig(
            mode="exhaustive", n_min=3, n_max=3, r=2, checks=("lenslmm",)
        )
        rep = run_exhaustive(cfg)
        assert rep.counterexamples == []
        stats = rep.stats["n=3"]["lenslmm"]
        # only K_3 has a positive right side at n=3; its slack is 3 - 3/8
        assert stats["min_slack_nontrivial"] == pytest.approx(2.625, abs=1e-6)

    def test_all_checks_n5(self):
        cfg = ExperimentConfig(
            mode="exhaustive",
            n_min=5,
            n_max=5,
            r=2,
            checks=("stt", "lenslmm", "edge-spectral", "tsize"),
        )
        rep = run_exhaustive(cfg)
        assert rep.counterexamples == []
        assert rep.instances_checked == 3 * 1024 + 1

    def test_sample_cap(self):
        cfg = ExperimentConfig(
            mode="exhaustive",
            n_min=6,
            n_max=6,
            r=2,
            checks=("stt",),
            sample_cap=100,
            seed=3,
        )
        rep = run_exhaustive(cfg)
        assert rep.counterexamples == []
        assert rep.stats["n=6"]["graphs"] == 100

    @pytest.mark.parametrize(
        "recorded, settings",
        [
            # A sampled scan keeps one class per mask.
            (
                "exhaustive_sample_n6_r2.json",
                dict(n_min=6, n_max=6, r=2, sample_cap=500, seed=2),
            ),
            # A full scan evaluates classes; counts and logs are per mask.
            ("exhaustive_full_r3.json", dict(n_min=1, n_max=7, r=3)),
        ],
    )
    def test_report_matches_per_mask_recording(self, recorded, settings):
        # Recorded from the scan that evaluated every mask on its own; only
        # float minima may move, by rounding, between labellings of a class.
        cfg = ExperimentConfig(
            mode="exhaustive",
            checks=("stt", "lenslmm", "edge-spectral", "tsize"),
            **settings,
        )
        got = json.loads(run_exhaustive(cfg).to_json_text())
        want = json.loads((DATA / recorded).read_text())
        assert got == _approx_floats(want)

    def test_no_false_counterexamples_up_to_n6(self):
        # module invariant: zero (yes, no) records over every labeled graph
        # of order <= 6 for both r values
        for r in (2, 3):
            cfg = ExperimentConfig(
                mode="exhaustive",
                n_min=1,
                n_max=6,
                r=r,
                checks=("stt", "lenslmm", "edge-spectral", "tsize"),
                stats=0,
            )
            rep = run_exhaustive(cfg)
            assert rep.counterexamples == []
            assert all("resolution" in e for e in rep.inconclusive_log)

    def test_determinism_bytes(self, tmp_path):
        cfg = ExperimentConfig(
            mode="exhaustive",
            n_min=4,
            n_max=5,
            r=2,
            checks=("stt", "lenslmm"),
            output_path=str(tmp_path / "a.json"),
        )
        rep1 = run_exhaustive(cfg)
        cfg2 = ExperimentConfig(
            mode="exhaustive",
            n_min=4,
            n_max=5,
            r=2,
            checks=("stt", "lenslmm"),
            output_path=str(tmp_path / "b.json"),
        )
        rep2 = run_exhaustive(cfg2)
        a = (tmp_path / "a.json").read_bytes()
        b = (tmp_path / "b.json").read_bytes()
        # output_path is echoed in the config block; compare after masking it
        assert a.replace(b"a.json", b"X") == b.replace(b"b.json", b"X")
        assert rep1.to_json_text().replace("a.json", "X") == rep2.to_json_text().replace(
            "b.json", "X"
        )
        assert (tmp_path / "a.json.meta.json").exists()


class TestExactResolution:
    """T_3(9) is 6-regular, so mu(G) = mu(T_3(9)) = (1 - 1/3 - 0) * 9 exactly:
    every spectral flag ties in floating point and the checkers must settle
    it, with the same answer on their own and in an experiment."""

    @pytest.mark.parametrize(
        "check, flag",
        [
            ("stt", "hypothesis"),
            ("t1", "hypothesis"),
            ("t2", "hypothesis"),
            ("t3", "hypothesis"),
            ("book", "hypothesis"),
            ("edge-spectral", "conclusion"),
            ("t1.2", "hypothesis"),
            ("t2.2", "hypothesis"),
            ("t3.2", "hypothesis"),
        ],
    )
    def test_turan_tie_settles_no(self, check, flag):
        cfg = ExperimentConfig(
            mode="family_sweep", n_min=9, n_max=9, r=3, checks=(check,), c=0.6, b=0.0,
            families=("turan",),
        )
        g = make_turan(9, 3)
        v = run_check(TheoremId(check), g, 3, tol=cfg.tol, budget=cfg.budget, c=0.6, b=0.0)
        assert getattr(v, flag) is TriState.NO
        assert v.detail[f"{flag}_resolved"] == "exact"
        [row] = run_family_sweep(cfg).stats["verdicts"]
        assert row[flag] == "no"

    def test_runtime_never_imports_sympy(self):
        # sympy is only the tests' oracle: an exhaustive scan with its 140
        # ties and a checker's tie run on the integer exact path alone.
        script = (
            "import sys\n"
            "from specturan.graph import make_turan\n"
            "from specturan.harness import ExperimentConfig, run_experiment\n"
            "from specturan.theorems import TheoremId, run_check\n"
            "cfg = ExperimentConfig(mode='exhaustive', n_min=7, n_max=7, r=3,\n"
            "    checks=('stt', 'lenslmm', 'edge-spectral', 'tsize'))\n"
            "assert len(run_experiment(cfg).inconclusive_log) == 140\n"
            "v = run_check(TheoremId.FACT_STT, make_turan(9, 3), 3)\n"
            "assert v.detail['hypothesis_resolved'] == 'exact'\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'sympy'))\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"

    @pytest.mark.parametrize("r", [2, 3])
    def test_lenslmm_exact_agrees_with_float(self, r):
        decided = 0
        for mask in range(0, 1 << 10, 37):
            g = graph_from_edge_mask(5, mask)
            v = check_fact_lenslmm(g, r)
            if "conclusion_resolved" in v.detail:
                continue
            decided += 1
            greater = exact_mu_greater_than_rational(g, _lenslmm_mu_bound(g, r))
            assert (TriState.NO if greater else TriState.YES) is v.conclusion, mask
        assert decided >= 25


class TestFamilySweep:
    def test_turan_hypothesis_resolves_no(self):
        cfg = ExperimentConfig(
            mode="family_sweep",
            n_min=4,
            n_max=12,
            r=2,
            checks=("stt",),
            families=("turan",),
        )
        rep = run_family_sweep(cfg)
        assert rep.counterexamples == []
        for row in rep.stats["verdicts"]:
            assert row["hypothesis"] == "no"

    def test_turan_150_ties_settle_exactly(self):
        # T_3(150) ties its t1.2 threshold at b = 0, so the hypothesis is
        # settled exactly, on the 3 x 3 twin quotient; T_3(150) - e is
        # settled by the float interval.
        cfg = ExperimentConfig(
            mode="family_sweep",
            n_min=150,
            n_max=150,
            r=3,
            checks=("t1.2",),
            families=("turan", "turan_minus_e"),
            b=0.0,
        )
        rows = run_family_sweep(cfg).stats["verdicts"]
        assert [(row["family"], row["hypothesis"]) for row in rows] == [
            ("turan", "no"),
            ("turan_minus_e", "no"),
        ]
        v = run_check(TheoremId.T1_2, make_turan(150, 3), 3, b=0.0)
        assert v.hypothesis is TriState.NO
        assert v.detail["hypothesis_resolved"] == "exact"

    def test_plus_edge_joints_formula(self):
        cfg = ExperimentConfig(
            mode="family_sweep",
            n_min=6,
            n_max=30,
            r=2,
            checks=("t1",),
            families=("turan_plus_e",),
        )
        rep = run_family_sweep(cfg)
        assert rep.counterexamples == []
        for row in rep.stats["turan_plus_e_joints"]:
            n = row["n"]
            assert row["js"] == n // 2  # opposite part of the added edge
            assert row["js"] > n / 256

    def test_instance_count(self):
        cfg = ExperimentConfig(
            mode="family_sweep",
            n_min=5,
            n_max=9,
            r=3,
            checks=("stt", "tsize" if False else "lekd"),
            families=("turan", "turan_minus_e"),
        )
        rep = run_family_sweep(cfg)
        assert rep.instances_checked == 5 * 2 * 2

    def test_skips_impossible_family_members(self):
        # turan_plus_e needs a part of size >= 2: n=2, r=2 has none
        cfg = ExperimentConfig(
            mode="family_sweep",
            n_min=2,
            n_max=3,
            r=2,
            checks=("stt",),
            families=("turan_plus_e",),
        )
        rep = run_family_sweep(cfg)
        assert rep.instances_checked == 1  # only n=3


class TestRandomHunt:
    def test_above_turan_always_has_clique(self):
        cfg = ExperimentConfig(
            mode="random_hunt",
            n_min=12,
            n_max=12,
            r=2,
            checks=("stt",),
            trials=25,
            seed=9,
            m_offset=1,
        )
        rep = run_random_hunt(cfg)
        assert rep.counterexamples == []
        row = rep.stats["per_n"][0]
        assert row["m"] == turan_edge_count(12, 2) + 1
        # e > e(T_2(n)) forces a triangle (Turan's theorem)
        assert row["conclusion_yes"] == 25

    def test_determinism(self):
        cfg = ExperimentConfig(
            mode="random_hunt", n_min=10, n_max=10, r=2, checks=("lenslmm",),
            trials=10, seed=123,
        )
        assert run_random_hunt(cfg).to_json_text() == run_random_hunt(cfg).to_json_text()

    def test_seed_changes_report(self):
        base = {"mode": "random_hunt", "n": 14, "r": 2, "checks": "stt", "trials": 8}
        r1 = run_random_hunt(ExperimentConfig.from_mapping({**base, "seed": 1}))
        r2 = run_random_hunt(ExperimentConfig.from_mapping({**base, "seed": 2}))
        assert r1.config["seed"] != r2.config["seed"]


class TestTightness:
    def test_report_shape_and_determinism(self):
        cfg = ExperimentConfig(
            mode="tightness", n_min=24, n_max=24, r=2, trials=5,
            epsilon=0.5, seed=17, budget=10**6,
        )
        rep1 = run_tightness(cfg)
        rep2 = run_tightness(cfg)
        assert rep1.to_json_text() == rep2.to_json_text()
        row = rep1.stats["per_n"][0]
        assert row["m"] == 144  # ceil(0.5 * 24^2 / 2)
        assert len(row["max_biclique_s"]) == 5
        assert all(s >= 2 for s in row["max_biclique_s"])

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(mode="tightness", n_min=10, n_max=10, epsilon=0.0)

    def test_near_complete_graph(self):
        # small epsilon, n large enough that eps*n > 1: nearly complete
        # graph, certified mu > (1-eps)n, large bicliques
        cfg = ExperimentConfig(
            mode="tightness", n_min=24, n_max=24, r=2, trials=3,
            epsilon=0.1, seed=4, budget=10**6,
        )
        row = run_tightness(cfg).stats["per_n"][0]
        assert row["mu_greater_fraction"] == 1.0
        assert all(s >= 4 for s in row["max_biclique_s"])


class TestRunExperiment:
    def test_dispatch_and_json_loads(self):
        cfg = ExperimentConfig(
            mode="exhaustive", n_min=4, n_max=4, r=2, checks=("tsize",)
        )
        rep = run_experiment(cfg)
        payload = json.loads(rep.to_json_text())
        assert payload["instances_checked"] == 1
        assert payload["config"]["mode"] == "exhaustive"

    def test_report_instances_match_formula(self):
        cfg = ExperimentConfig(
            mode="exhaustive", n_min=3, n_max=4, r=2, checks=("stt", "edge-spectral")
        )
        rep = run_experiment(cfg)
        assert rep.instances_checked == (8 + 64) * 2


HUNT_CHECKS = ("stt", "t1", "t2", "t1.2", "lenslmm")
PER_GRAPH_CHECKS = (
    "stt", "t1", "t2", "t3", "t1.2", "t2.2", "t3.2",
    "lenslmm", "lekd", "thv4", "edge-spectral", "book",
)
# (file under tests/data, the config that recorded it)
RECORDED = [
    (
        f"random_hunt_r{r}.json",
        dict(
            mode="random_hunt", r=r, n_min=6, n_max=30, trials=4,
            checks=HUNT_CHECKS, c=0.6, seed=2, m_offset=-1,
        ),
    )
    for r in (2, 3)
] + [
    (
        f"family_sweep_r{r}.json",
        dict(
            mode="family_sweep", r=r, n_min=2, n_max=12,
            checks=PER_GRAPH_CHECKS, c=0.6, b=0.0,
        ),
    )
    for r in (2, 3)
]


class TestOneAnalysisPerGraph:
    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_resolved_together_equals_one_by_one(self, r):
        # Ties on T_r(n) (and, with b = 0, on the stability threshold when
        # r divides n) go through the exact settlement on both sides.
        tids = [TheoremId(c) for c in PER_GRAPH_CHECKS]
        assert set(tids) == {t for t in TheoremId if not CHECKS[t].graph_free}
        settled = 0
        for g in turan_neighbourhood_hosts(r, 101 + r):
            together = run_checks(tids, g, r, c=0.6, b=0.0)
            one_by_one = [run_check(tid, g, r, c=0.6, b=0.0) for tid in tids]
            assert [v.to_json_dict() for v in together] == [
                v.to_json_dict() for v in one_by_one
            ], g
            settled += sum(
                "hypothesis_resolved" in v.detail or "conclusion_resolved" in v.detail
                for v in together
            )
        assert settled > 0

    def test_one_settlement_per_graph(self, monkeypatch):
        # T_3(9) ties mu(T_3(9)), and at b = 0 the stability threshold 6.
        calls: Counter = Counter()
        for name in ("compare_mu_exact_multipartite", "exact_mu_greater_than_rational"):
            fn = getattr(spectral, name)

            def counted(*args, name=name, fn=fn):
                calls[name] += 1
                return fn(*args)

            monkeypatch.setattr(spectral, name, counted)
        g = make_turan(9, 3)
        turan = ("stt", "t1", "t2", "t3", "book", "edge-spectral")
        verdicts = run_checks([TheoremId(c) for c in turan], g, 3, c=0.6)
        assert calls == {"compare_mu_exact_multipartite": 1}
        assert all(
            "hypothesis_resolved" in v.detail or "conclusion_resolved" in v.detail
            for v in verdicts
        )
        calls.clear()
        stability = (TheoremId.T1_2, TheoremId.T2_2, TheoremId.T3_2)
        verdicts = run_checks(stability, g, 3, c=0.6, b=0.0)
        assert calls == {"exact_mu_greater_than_rational": 1}
        assert all(v.detail["hypothesis_resolved"] == "exact" for v in verdicts)

    def test_one_estimate_and_joint_per_graph(self, monkeypatch):
        # Counters bumped in a forked worker never reach this process, so
        # every order runs here.
        monkeypatch.setattr(harness, "_cpu_count", lambda: 1)
        calls: Counter = Counter()

        def counting(key, fn):
            def counted(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return counted

        estimate = counting("spectral_radius", spectral.spectral_radius)
        monkeypatch.setattr(spectral, "spectral_radius", estimate)
        monkeypatch.setattr(theorems, "spectral_radius", estimate)
        monkeypatch.setattr(
            spectral, "turan_mu_exact", counting("turan_mu_exact", spectral.turan_mu_exact)
        )
        joint = theorems.joint_size

        def counted_joint(g, q, *args):
            calls[f"joint_size/{q}"] += 1
            return joint(g, q, *args)

        monkeypatch.setattr(theorems, "joint_size", counted_joint)
        cfg = ExperimentConfig(
            mode="random_hunt", n_min=8, n_max=14, r=3, checks=HUNT_CHECKS,
            trials=3, c=0.6,
        )
        graphs = 7 * 3
        once = {"spectral_radius": graphs, "turan_mu_exact": graphs, "joint_size/4": graphs}
        run_experiment(cfg)
        assert calls == once
        # Nothing is kept from one experiment to the next.
        run_experiment(cfg)
        assert calls == {key: 2 * count for key, count in once.items()}

    @pytest.mark.parametrize("recorded, settings", RECORDED)
    def test_report_matches_per_check_recording(self, recorded, settings):
        # Recorded from the harness that ran every check on its own.
        got = json.loads(run_experiment(ExperimentConfig(**settings)).to_json_text())
        want = json.loads((DATA / recorded).read_text())
        assert got == _approx_floats(want)


def _cpus(monkeypatch, count):
    monkeypatch.setattr(harness, "_cpu_count", lambda: count)


SMALL_RUNS = {
    "family_sweep": dict(mode="family_sweep", n_min=4, n_max=11, r=3, checks=("stt", "t1")),
    "random_hunt": dict(
        mode="random_hunt", n_min=6, n_max=11, r=2, checks=("stt", "t1.2"), trials=3
    ),
    "tightness": dict(mode="tightness", n_min=6, n_max=11, trials=2, budget=10**5),
}


class TestCellsAcrossProcesses:
    """Family sweeps, random hunts and tightness studies run their orders
    in forked workers, one per CPU in the affinity set."""

    @pytest.mark.parametrize(
        "settings",
        [settings for _, settings in RECORDED]
        + [
            dict(
                mode="tightness", n_min=8, n_max=20, trials=3, epsilon=0.5,
                seed=17, budget=10**6,
            ),
            # One order: one job, so one worker whatever the CPU count.
            dict(
                mode="random_hunt", n_min=12, n_max=12, r=3, trials=4,
                checks=HUNT_CHECKS, c=0.6, seed=5,
            ),
        ],
    )
    def test_report_does_not_depend_on_worker_count(self, settings, monkeypatch):
        cfg = ExperimentConfig(**settings)
        reports = []
        for count in (1, 2):
            _cpus(monkeypatch, count)
            reports.append(run_experiment(cfg))
        assert reports[0].to_json_text() == reports[1].to_json_text()
        one_order = cfg.n_min == cfg.n_max
        assert [rep.workers for rep in reports] == [1, 1 if one_order else 2]

    @pytest.mark.parametrize("mode", sorted(SMALL_RUNS))
    def test_no_worker_outlives_a_mode(self, mode, monkeypatch):
        _cpus(monkeypatch, 2)
        assert run_experiment(ExperimentConfig(**SMALL_RUNS[mode])).workers == 2
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "mode, checker, host",  # host: the position of the graph argument
        [
            ("family_sweep", "run_checks", 1),
            ("random_hunt", "run_checks", 1),
            ("tightness", "compare_mu_to_threshold", 0),
        ],
    )
    def test_a_failing_cell_raises_in_the_caller(self, mode, checker, host, monkeypatch):
        real = getattr(harness, checker)

        def failing(*args, **kwargs):
            n = args[host].n
            if n == 9:
                raise ArithmeticError(f"checker failed at n={n}")
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, checker, failing)
        _cpus(monkeypatch, 2)
        with pytest.raises(ArithmeticError, match=r"^checker failed at n=9$") as info:
            run_experiment(ExperimentConfig(**SMALL_RUNS[mode]))
        assert info.type is ArithmeticError
        assert multiprocessing.active_children() == []

    def test_sidecar_records_workers_and_report_does_not(self, tmp_path, monkeypatch):
        _cpus(monkeypatch, 2)
        hunt = tmp_path / "hunt.json"
        run_experiment(ExperimentConfig(**SMALL_RUNS["random_hunt"], output_path=str(hunt)))
        scan = tmp_path / "scan.json"
        run_experiment(
            ExperimentConfig(mode="exhaustive", n_min=3, n_max=5, output_path=str(scan))
        )
        for path, workers in ((hunt, 2), (scan, 1)):
            meta = json.loads(Path(f"{path}.meta.json").read_text())
            assert set(meta) == {"wall_time_seconds", "workers"}
            assert meta["workers"] == workers
            report = json.loads(path.read_text())
            assert set(report) == {
                "config", "counterexamples", "inconclusive_log", "instances_checked", "stats"
            }
            assert "workers" not in report["config"]
