import json
import math
from pathlib import Path

import numpy as np
import pytest

from specturan import cli, harness
from specturan.graph import graph_from_edge_mask, make_turan
from specturan.harness import (
    ExperimentConfig,
    _apply_check_resolved,
    _exact_flag,
    _mask_classes,
    run_exhaustive,
    run_experiment,
    run_family_sweep,
    run_random_hunt,
    run_tightness,
)
from specturan.rng import SplitMix64
from specturan.spectral import (
    interval_flags,
    spectral_radii,
    spectral_radius,
    turan_mu_exact,
)
from specturan.subgraph import count_cliques, joint_size
from specturan.theorems import (
    CHECKS,
    TheoremId,
    TriState,
    check_fact_lenslmm,
    run_check,
    turan_edge_count,
)
from oracles import canonical_mask


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
        graphs = _graphs(_sample_masks(7, 150, 8), 7)
        value, resid, conv = spectral_radii(graphs, 1e-10)
        assert conv.all()
        for i, g in enumerate(graphs):
            est = spectral_radius(g)
            assert est.converged
            assert abs(value[i] - est.value) <= 1e-12


class TestIsomorphismClasses:
    """The orbit partition behind class-based exhaustive scans."""

    A000088 = (1, 1, 2, 4, 11, 34, 156, 1044)

    @pytest.mark.parametrize("n", range(8))
    def test_class_counts_and_orbit_sizes(self, n):
        masks = _all_masks(n)
        reps, class_of = _mask_classes(n, masks)
        assert len(reps) == self.A000088[n]
        sizes = np.bincount(class_of, minlength=len(reps))
        assert int(sizes.sum()) == 1 << (n * (n - 1) // 2)
        assert all(math.factorial(n) % int(s) == 0 for s in sizes)

    @pytest.mark.parametrize("n", range(8))
    def test_representative_is_smallest_mask_of_its_class(self, n):
        masks = _all_masks(n)
        reps, class_of = _mask_classes(n, masks)
        smallest = np.full(len(reps), masks.max(), dtype=masks.dtype)
        np.minimum.at(smallest, class_of, masks)
        assert np.array_equal(smallest, reps)
        assert np.array_equal(class_of[reps], np.arange(len(reps)))

    @pytest.mark.parametrize("n", range(6))
    def test_classes_match_oracle_canonical_forms(self, n):
        masks = _all_masks(n)
        reps, class_of = _mask_classes(n, masks)
        canon = [canonical_mask(n, int(m)) for m in masks]
        # Two masks share a class exactly when their canonical forms agree.
        class_of_canon: dict[int, int] = {}
        for m, form in enumerate(canon):
            assert class_of_canon.setdefault(form, int(class_of[m])) == class_of[m]
        assert len(class_of_canon) == len(reps)
        assert [int(reps[class_of[m]]) for m in masks] == canon

    def test_sample_gets_identity_partition(self):
        masks = _sample_masks(7, 50, 4)
        reps, class_of = _mask_classes(7, masks)
        assert reps is masks
        assert np.array_equal(class_of, np.arange(len(masks)))


class TestClassBroadcast:
    """Class estimates broadcast to masks agree with per-mask estimates."""

    @staticmethod
    def classify(value, resid, conv, mu_t, tol=1e-10):
        greater, not_greater = interval_flags(value, resid, conv, mu_t, tol)
        return greater, not_greater, ~(greater | not_greater)

    @pytest.mark.parametrize("n, sample", [(6, 0), (7, 2000)])
    def test_broadcast_matches_per_mask(self, n, sample):
        masks = _sample_masks(n, sample, 12) if sample else _all_masks(n)
        reps, class_of = _mask_classes(n, _all_masks(n))
        cls = class_of[masks]
        per_mask = spectral_radii(_graphs(masks, n), 1e-10)
        per_class = spectral_radii(_graphs(reps, n), 1e-10)
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
        decodes, counts = [], []
        decode, count = harness.graph_from_edge_mask, harness.count_cliques

        def counting_decode(n, mask):
            decodes.append(mask)
            return decode(n, mask)

        def counting_count(g, q):
            counts.append(q)
            return count(g, q)

        monkeypatch.setattr(harness, "graph_from_edge_mask", counting_decode)
        monkeypatch.setattr(harness, "count_cliques", counting_count)
        cfg = ExperimentConfig(
            mode="exhaustive",
            n_min=7,
            n_max=7,
            r=3,
            checks=("stt", "lenslmm", "edge-spectral"),
            stats=0,
        )
        rep = run_exhaustive(cfg)
        assert len(decodes) == len(set(decodes)) == 1044
        assert len(counts) == 3 * 1044
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
        assert len({canonical_mask(7, e["mask"]) for e in log}) == tied_classes
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
    every spectral flag ties in floating point and the hooks must settle it."""

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
            mode="family_sweep", n_min=9, n_max=9, r=3, checks=(check,), c=0.6, b=0.0
        )
        g = make_turan(9, 3)
        raw = run_check(TheoremId(check), g, 3, tol=cfg.tol, budget=cfg.budget, c=0.6, b=0.0)
        assert getattr(raw, flag) is TriState.INCONCLUSIVE
        v = _apply_check_resolved(cfg, check, g)
        assert getattr(v, flag) is TriState.NO
        assert v.detail[f"{flag}_resolved"] == "exact"

    @pytest.mark.parametrize("r", [2, 3])
    def test_lenslmm_exact_agrees_with_float(self, r):
        hook = CHECKS[TheoremId.FACT_LENSLMM].exact
        decided = 0
        for mask in range(0, 1 << 10, 37):
            g = graph_from_edge_mask(5, mask)
            v = check_fact_lenslmm(g, r)
            if v.conclusion is TriState.INCONCLUSIVE:
                continue
            decided += 1
            assert _exact_flag(hook, g, r, 0.0) is v.conclusion, mask
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
