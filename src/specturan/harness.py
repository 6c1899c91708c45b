"""Batch experiment engine: exhaustive scans, family sweeps, random hunts,
and the random-graph tightness study.

Reports are deterministic: a config (seed included) maps to byte-identical
report JSON.  Wall time and other non-reproducible metadata go to a
sidecar `<output>.meta.json`, never into the report.

The exhaustive mode enumerates every labeled graph of order n <= 8 by
edge-mask integer.  Every quantity its checks use is an isomorphism
invariant, so a full scan first partitions the masks into isomorphism
classes by orbit marking (2^21 masks, 1044 classes at n = 7) and
evaluates each class once on its smallest mask, decoded into a Graph:
`spectral.spectral_radii` and `spectral.interval_flags` estimate and
compare mu for the spectral hypothesis, and the library's exact counters
`count_cliques` and `joint_size` give clique and joint counts.  Verdicts
reach every mask of a class through its class id: counts are weighted by
class size, and the tie log and counterexample records still hold one
entry per labeled mask.  A sampled scan treats each sampled mask as its
own class.  Spectral comparisons the interval leaves open are settled
exactly by algebraic root comparison, once per class, so every instance
ends with a definite verdict and the tie log stays auditable.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .graph import (
    Graph,
    MAX_EXHAUSTIVE_N,
    graph_from_edge_mask,
    make_turan,
    make_turan_plus_edge,
    random_gnm,
    turan_part_sizes,
)
from .rng import SplitMix64
from .spectral import (
    Verdict,
    compare_mu_exact_multipartite,
    compare_mu_to_threshold,
    exact_mu_greater_than_rational,
    interval_flags,
    spectral_radii,
    turan_mu_exact,
)
from .subgraph import (
    SearchStatus,
    book_size,
    count_cliques,
    find_complete_multipartite,
    joint_size,
)
from .theorems import (
    CHECKS,
    DEFAULT_B,
    ExactHook,
    TheoremId,
    TheoremVerdict,
    TriState,
    run_check,
    turan_edge_count,
)

EXHAUSTIVE_CHECKS = ("stt", "lenslmm", "edge-spectral", "tsize")
DEFAULT_FAMILIES = ("turan", "turan_plus_e", "turan_minus_e")


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment description; see `from_file` for the text format."""

    mode: str
    n_min: int
    n_max: int
    r: int = 2
    checks: tuple[str, ...] = ("stt",)
    seed: int = 0x5EED5EED
    trials: int = 100
    budget: int = 10**8
    tol: float = 1e-10
    epsilon: float = 0.5
    m_offset: int = 1
    sample_cap: int = 0  # 0 = full enumeration
    families: tuple[str, ...] = DEFAULT_FAMILIES
    c: float = 0.0  # 0 = per-check default
    b: float = DEFAULT_B
    stats: int = 1  # 0 skips distribution summaries in exhaustive mode
    output_path: str = ""

    def __post_init__(self) -> None:
        if self.mode not in ("exhaustive", "family_sweep", "random_hunt", "tightness"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.n_min > self.n_max:
            raise ValueError("empty n range")
        if self.mode != "tightness" and self.n_min < 1:
            raise ValueError(f"{self.mode} mode needs n_min >= 1")
        if self.mode == "exhaustive" and self.n_max > MAX_EXHAUSTIVE_N:
            raise ValueError(f"exhaustive mode caps at n <= {MAX_EXHAUSTIVE_N}")
        if self.mode == "exhaustive":
            bad = [c for c in self.checks if c not in EXHAUSTIVE_CHECKS]
            if bad:
                raise ValueError(
                    f"exhaustive mode supports {EXHAUSTIVE_CHECKS}, got {bad}"
                )
        else:
            for check in self.checks:
                try:
                    tid = TheoremId(check)
                except ValueError:
                    raise ValueError(f"unknown check {check!r}") from None
                spec = CHECKS[tid]
                if spec.graph_free:
                    raise ValueError(f"check {check!r} has no per-graph path")
                if spec.needs_c and self.c <= 0:
                    raise ValueError(f"check {check!r} needs c > 0")
        if self.mode == "tightness" and not (0.0 < self.epsilon < 1.0):
            raise ValueError("epsilon must lie in (0, 1)")

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out

    @classmethod
    def from_mapping(cls, raw: dict) -> "ExperimentConfig":
        kv = dict(raw)
        if "n" in kv:
            kv["n_min"] = kv["n_max"] = int(kv.pop("n"))
        if "output" in kv:
            kv["output_path"] = str(kv.pop("output"))
        known = {f.name for f in fields(cls)}
        unknown = set(kv) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        typed: dict = {}
        for f in fields(cls):
            if f.name not in kv:
                continue
            v = kv[f.name]
            if f.name in ("checks", "families"):
                if isinstance(v, str):
                    v = tuple(s.strip() for s in v.split(",") if s.strip())
                else:
                    v = tuple(v)
            elif f.name in ("tol", "epsilon", "c", "b"):
                v = float(v)
            elif f.name in ("mode", "output_path"):
                v = str(v)
            else:
                v = int(float(v))  # int flags accept scientific notation
            typed[f.name] = v
        return cls(**typed)

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        """Parse `key = value` lines; '#' starts a comment."""
        raw: dict = {}
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                body = line.split("#", 1)[0].strip()
                if not body:
                    continue
                if "=" not in body:
                    raise ValueError(f"{path}:{line_no}: expected 'key = value'")
                key, _, val = body.partition("=")
                raw[key.strip()] = val.strip()
        return cls.from_mapping(raw)


@dataclass
class ExperimentReport:
    config: dict
    instances_checked: int
    counterexamples: list[dict]
    inconclusive_log: list[dict]
    stats: dict
    wall_time: float = 0.0

    def to_json_text(self) -> str:
        body = {
            "config": self.config,
            "instances_checked": self.instances_checked,
            "counterexamples": self.counterexamples,
            "inconclusive_log": self.inconclusive_log,
            "stats": self.stats,
        }
        return json.dumps(body, sort_keys=True, indent=1) + "\n"

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json_text())
        with open(path + ".meta.json", "w", encoding="utf-8") as fh:
            json.dump({"wall_time_seconds": self.wall_time}, fh)
            fh.write("\n")


# ---------------------------------------------------------------------------
# Order-n exhaustive scan: class partition, batched mu, per-class counters
# ---------------------------------------------------------------------------


def _permuted_pair_bits(n: int) -> np.ndarray:
    """(n!, C(n, 2)) uint32 table: row p holds, for each pair bit i, the
    single-bit mask of the pair that vertex permutation p sends pair i to."""
    pairs = np.column_stack(np.triu_indices(n, 1))  # lexicographic pair order
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    perms = perms.reshape(math.factorial(n), n)
    a, b = perms[:, pairs[:, 0]], perms[:, pairs[:, 1]]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    rank = lo * n - lo * (lo + 1) // 2 + (hi - lo - 1)  # lexicographic pair index
    return (np.uint32(1) << rank.astype(np.uint32)).astype(np.uint32)


def _mask_classes(n: int, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Isomorphism-class partition of a scan's masks: (reps, class_of).

    `reps[class_of[i]]` is the class representative of `masks[i]`.  When
    `masks` is every mask of order n in increasing order, classes are
    orbits under vertex relabelling, found by orbit marking: the smallest
    unassigned mask opens a class and all n! of its images join it, so
    each representative is the smallest mask of its class and the classes
    come out in increasing representative order.  A sample (fewer masks
    than the order has) gets the identity partition, one class per mask.
    """
    total = int(masks.shape[0])
    if total != 1 << (n * (n - 1) // 2):
        return masks, np.arange(total)
    table = _permuted_pair_bits(n)
    class_of = np.full(total, -1, dtype=np.int32)
    reps: list[int] = []
    pos, window = 0, 4096
    while pos < total:
        free = np.flatnonzero(class_of[pos : pos + window] < 0)
        if free.size == 0:
            pos += window
            continue
        rep = pos + int(free[0])
        bits = [i for i in range(table.shape[1]) if (rep >> i) & 1]
        # A permutation sends distinct pairs to distinct pairs, so the sum
        # of the images' single-bit masks is their OR.
        images = table[:, bits].sum(axis=1, dtype=np.uint32)
        class_of[images] = len(reps)
        reps.append(rep)
        pos = rep + 1
    return np.array(reps, dtype=masks.dtype), class_of


def _scan_order(
    n: int,
    r: int,
    masks: np.ndarray,
    tol: float,
    checks: Sequence[str],
    collect_stats: bool,
) -> dict:
    """Evaluate the exhaustive-mode checks on every mask of one order.

    Every array below is indexed by isomorphism class, not by mask: each
    representative is decoded into a Graph once, and the estimator and the
    clique and joint counters run on that Graph.  Only index sets
    (tie log, counterexamples, the lenslmm boundary) are expanded to the
    masks of their classes, in mask order, and counts are weighted by the
    number of masks in each class.
    """
    total = int(masks.shape[0])
    reps, class_of = _mask_classes(n, masks)
    size = np.bincount(class_of, minlength=reps.shape[0])  # masks per class
    graphs = [graph_from_edge_mask(n, int(m)) for m in reps]
    e_arr = np.bitwise_count(reps).astype(np.int64)
    k = {
        q: np.array([count_cliques(g, q).count for g in graphs], dtype=np.int64)
        for q in range(2, min(n, r + 1) + 1)
    }

    def masks_where(flags: np.ndarray) -> np.ndarray:
        """Indices of the masks whose class is flagged, increasing."""
        if not flags.any():  # skips a gather over every mask
            return np.zeros(0, dtype=np.int64)
        return np.nonzero(flags[class_of])[0]

    def mask_histogram(arr: np.ndarray) -> list[int]:
        return np.bincount(arr, weights=size).astype(np.int64).tolist()

    need_spectral = any(c in ("stt", "lenslmm", "edge-spectral") for c in checks)
    mu_t = turan_mu_exact(n, r)
    out: dict = {
        "counterexamples": [],
        "inconclusive_log": [],
        "stats": {},
        "instances": 0,
    }
    zeros = np.zeros(reps.shape[0], dtype=np.int64)
    settled: dict[int, Verdict] = {}  # class id -> exact tie resolution
    if need_spectral:
        value, resid, conv = spectral_radii(graphs, tol)
        greater, not_greater = interval_flags(value, resid, conv, mu_t, tol)
        is_open = ~(greater | not_greater)
        parts = turan_part_sizes(n, r)
        for c in np.nonzero(is_open)[0]:
            settled[int(c)] = compare_mu_exact_multipartite(graphs[c], parts)
            greater[c] = settled[int(c)] is Verdict.GREATER
        for i in masks_where(is_open):
            out["inconclusive_log"].append(
                {
                    "n": n,
                    "r": r,
                    "mask": int(masks[i]),
                    "stage": "exact",
                    "resolution": settled[int(class_of[i])].value,
                }
            )

    def record_counterexamples(check: str, idx: np.ndarray) -> None:
        for i in idx:
            g = graph_from_edge_mask(n, int(masks[i]))
            verdict = run_check(TheoremId(check), g, r, tol=tol)
            payload = verdict.to_json_dict()
            payload["mask"] = int(masks[i])
            tie = settled.get(int(class_of[i]))
            if tie is not None:
                payload["spectral_resolved_exactly"] = tie.value
            if payload["graph"] is None:
                from .graph import write_edge_list

                payload["graph"] = write_edge_list(g)
            out["counterexamples"].append(payload)

    for check in checks:
        if check == "tsize":
            continue  # handled once per (n, r) by the caller
        out["instances"] += total
        if check == "stt":
            concl_no = k.get(r + 1, zeros) == 0
            record_counterexamples(check, masks_where(greater & concl_no))
            if collect_stats:
                out["stats"]["stt"] = {
                    "hypothesis_yes": int(size[greater].sum()),
                    "min_mu_gap_over_yes": float((value - mu_t)[greater].min())
                    if greater.any()
                    else None,
                }
        elif check == "edge-spectral":
            hyp = e_arr > turan_edge_count(n, r)
            record_counterexamples(check, masks_where(hyp & ~greater))
            if collect_stats:
                out["stats"]["edge-spectral"] = {
                    "hypothesis_yes": int(size[hyp].sum()),
                    "min_mu_gap_over_yes": float((value - mu_t)[hyp].min())
                    if hyp.any()
                    else None,
                }
        elif check == "lenslmm":
            coef = r * (r - 1) / (r + 1) * (n / r) ** (r + 1)
            rhs_hi = (np.minimum(value + resid, float(n - 1)) / n - 1.0 + 1.0 / r) * coef
            lhs = k.get(r, zeros).astype(np.float64)
            margin = 1e-6 * np.maximum(1.0, np.abs(rhs_hi))
            clear_yes = lhs >= rhs_hi + margin
            boundary = masks_where(~clear_yes)
            cx_idx: list[int] = []
            for i in boundary:
                g = graph_from_edge_mask(n, int(masks[i]))
                v = run_check(TheoremId.FACT_LENSLMM, g, r, tol=tol)
                if v.conclusion is TriState.INCONCLUSIVE:
                    hook = CHECKS[TheoremId.FACT_LENSLMM].exact
                    ok = _exact_flag(hook, g, r, DEFAULT_B) is TriState.YES
                    out["inconclusive_log"].append(
                        {
                            "n": n,
                            "r": r,
                            "mask": int(masks[i]),
                            "stage": "exact",
                            "check": "lenslmm",
                            "resolution": "yes" if ok else "no",
                        }
                    )
                    if not ok:
                        cx_idx.append(int(i))
                elif v.conclusion is TriState.NO:
                    cx_idx.append(int(i))
            record_counterexamples(check, np.array(cx_idx, dtype=np.int64))
            if collect_stats:
                nontrivial = rhs_hi > 0
                out["stats"]["lenslmm"] = {
                    "min_slack": float((lhs - rhs_hi).min()),
                    "min_slack_nontrivial": float((lhs - rhs_hi)[nontrivial].min())
                    if nontrivial.any()
                    else None,
                    "boundary_rechecked": int(boundary.size),
                }
        else:
            raise ValueError(f"unsupported exhaustive check {check!r}")

    if collect_stats:
        dist: dict = {}
        for q, arr in k.items():
            dist[f"k_{q}"] = mask_histogram(arr)
        # Only for report compatibility: reports have always carried js_{r+1}
        # for r + 1 <= 4 alone; joint_size itself has no such limit.
        if r + 1 <= 4:
            js = np.array([joint_size(g, r + 1).size for g in graphs], dtype=np.int64)
            dist[f"js_{r + 1}"] = mask_histogram(js)
        out["stats"]["distributions"] = dist
        out["stats"]["edge_count_distribution"] = mask_histogram(e_arr)
    return out


def run_exhaustive(cfg: ExperimentConfig) -> ExperimentReport:
    """All labeled graphs of each order in range (or a seeded sample)."""
    t0 = time.monotonic()
    counterexamples: list[dict] = []
    log: list[dict] = []
    stats: dict = {}
    instances = 0
    for n in range(cfg.n_min, cfg.n_max + 1):
        total = 1 << (n * (n - 1) // 2)
        if cfg.sample_cap and cfg.sample_cap < total:
            rng = SplitMix64(cfg.seed)
            masks = np.array(
                sorted(rng.below(total) for _ in range(cfg.sample_cap)),
                dtype=np.uint32,
            )
        else:
            masks = np.arange(total, dtype=np.uint32)
        res = _scan_order(
            n, cfg.r, masks, cfg.tol, cfg.checks, collect_stats=bool(cfg.stats)
        )
        counterexamples.extend(res["counterexamples"])
        log.extend(res["inconclusive_log"])
        stats[f"n={n}"] = res["stats"]
        stats[f"n={n}"]["graphs"] = int(masks.shape[0])
        instances += res["instances"]
        if "tsize" in cfg.checks:
            v = run_check(TheoremId.FACT_TSIZE, n, cfg.r)
            instances += 1
            if v.is_counterexample:
                counterexamples.append(v.to_json_dict())
    report = ExperimentReport(
        cfg.to_dict(), instances, counterexamples, log, stats, time.monotonic() - t0
    )
    if cfg.output_path:
        report.write(cfg.output_path)
    return report


# ---------------------------------------------------------------------------
# Scalar-checker experiment modes
# ---------------------------------------------------------------------------


def _exact_flag(hook: ExactHook, g: Graph, r: int, b: float) -> TriState:
    """The flag a hook names, decided by exact algebraic comparison of mu(G)."""
    if hook.bound is None:
        exact = compare_mu_exact_multipartite(g, turan_part_sizes(g.n, r))
        greater = exact is Verdict.GREATER
    else:
        greater = exact_mu_greater_than_rational(g, hook.bound(g, r, b))
    return TriState.YES if greater == hook.yes_if_greater else TriState.NO


def _apply_check_resolved(cfg: ExperimentConfig, check: str, g: Graph) -> TheoremVerdict:
    """Scalar checker plus exact settlement of interval near-ties.

    The certified checkers report INCONCLUSIVE on exact spectral ties
    (e.g. G = T_r(n) itself); experiment verdicts escalate those to the
    algebraic comparison so every recorded flag is definite.
    """
    tid = TheoremId(check)
    c = cfg.c if cfg.c > 0 else None
    v = run_check(tid, g, cfg.r, tol=cfg.tol, budget=cfg.budget, c=c, b=cfg.b)
    hook = CHECKS[tid].exact
    if hook is not None and getattr(v, hook.flag) is TriState.INCONCLUSIVE:
        setattr(v, hook.flag, _exact_flag(hook, g, cfg.r, cfg.b))
        v.detail[f"{hook.flag}_resolved"] = "exact"
    if v.is_counterexample and v.graph_edges is None:
        from .graph import write_edge_list

        v.graph_edges = write_edge_list(g)
    return v


def _family_graph(name: str, n: int, r: int) -> Graph | None:
    """None means the family member does not exist at this (n, r)."""
    if name == "turan":
        return make_turan(n, r)
    if name == "turan_plus_e":
        if turan_part_sizes(n, r)[0] < 2:
            return None
        return make_turan_plus_edge(n, r)
    if name == "turan_minus_e":
        g = make_turan(n, r)
        first = next(g.edges(), None)
        if first is None:
            return None
        return g.without_edge(*first)
    raise ValueError(f"unknown family {name!r}")


def _verdict_digest(check: str, family: str, n: int, v: TheoremVerdict) -> dict:
    return {
        "check": check,
        "family": family,
        "n": n,
        "hypothesis": v.hypothesis.value,
        "conclusion": v.conclusion.value,
        "vacuous": v.vacuous,
        "in_regime": v.in_regime,
    }


def run_family_sweep(cfg: ExperimentConfig) -> ExperimentReport:
    """Structured families T_r(n), T_r(n)+e, T_r(n)-e across the n range."""
    t0 = time.monotonic()
    counterexamples: list[dict] = []
    log: list[dict] = []
    instance_rows: list[dict] = []
    js_stats: list[dict] = []
    instances = 0
    for n in range(cfg.n_min, cfg.n_max + 1):
        for family in cfg.families:
            g = _family_graph(family, n, cfg.r)
            if g is None:
                continue
            for check in cfg.checks:
                v = _apply_check_resolved(cfg, check, g)
                instances += 1
                if v.is_counterexample:
                    counterexamples.append(v.to_json_dict())
                if (
                    v.hypothesis is TriState.INCONCLUSIVE
                    or v.conclusion is TriState.INCONCLUSIVE
                ):
                    log.append(_verdict_digest(check, family, n, v))
                instance_rows.append(_verdict_digest(check, family, n, v))
            if family == "turan_plus_e":
                report = joint_size(g, cfg.r + 1)
                book = book_size(g, cfg.r)
                js_stats.append(
                    {
                        "n": n,
                        "js": report.size,
                        "witness_edge": list(report.witness_edge)
                        if report.witness_edge
                        else None,
                        "book_size": book.size,
                    }
                )
    report = ExperimentReport(
        cfg.to_dict(),
        instances,
        counterexamples,
        log,
        {"verdicts": instance_rows, "turan_plus_e_joints": js_stats},
        time.monotonic() - t0,
    )
    if cfg.output_path:
        report.write(cfg.output_path)
    return report


def run_random_hunt(cfg: ExperimentConfig) -> ExperimentReport:
    """Seeded G(n, m) samples near the Turan edge count, all checks applied."""
    t0 = time.monotonic()
    counterexamples: list[dict] = []
    log: list[dict] = []
    instances = 0
    summaries: list[dict] = []
    base = SplitMix64(cfg.seed)
    trial_seeds = [base.next_u64() for _ in range(cfg.trials)]
    for n in range(cfg.n_min, cfg.n_max + 1):
        max_m = n * (n - 1) // 2
        m = min(max(turan_edge_count(n, cfg.r) + cfg.m_offset, 0), max_m)
        hyp_yes = 0
        concl_yes = 0
        for t, s in enumerate(trial_seeds):
            g = random_gnm(n, m, s)
            for check in cfg.checks:
                v = _apply_check_resolved(cfg, check, g)
                instances += 1
                if v.is_counterexample:
                    counterexamples.append(v.to_json_dict())
                if (
                    v.hypothesis is TriState.INCONCLUSIVE
                    or v.conclusion is TriState.INCONCLUSIVE
                ):
                    log.append({"n": n, "trial": t, "check": check})
                hyp_yes += v.hypothesis is TriState.YES
                concl_yes += v.conclusion is TriState.YES
        summaries.append(
            {"n": n, "m": m, "hypothesis_yes": hyp_yes, "conclusion_yes": concl_yes}
        )
    report = ExperimentReport(
        cfg.to_dict(),
        instances,
        counterexamples,
        log,
        {"per_n": summaries},
        time.monotonic() - t0,
    )
    if cfg.output_path:
        report.write(cfg.output_path)
    return report


def run_tightness(cfg: ExperimentConfig) -> ExperimentReport:
    """Random graphs with ceil((1-eps) n^2 / 2) edges: certified check of
    mu > (1-eps) n per sample, and the largest s with K_2(s, s) embedded.

    A statistical report (the underlying remark is asymptotic), not a
    pass/fail checker.
    """
    t0 = time.monotonic()
    instances = 0
    per_n: list[dict] = []
    base = SplitMix64(cfg.seed)
    trial_seeds = [base.next_u64() for _ in range(cfg.trials)]
    for n in range(cfg.n_min, cfg.n_max + 1):
        max_m = n * (n - 1) // 2
        m = min(math.ceil((1.0 - cfg.epsilon) * n * n / 2.0), max_m)
        threshold = (1 - Fraction(cfg.epsilon)) * n
        mu_greater = 0
        mu_open = 0
        max_s_list: list[int] = []
        stop_reason: list[str] = []
        for s_seed in trial_seeds:
            g = random_gnm(n, m, s_seed)
            instances += 1
            cmp = compare_mu_to_threshold(g, threshold, cfg.tol)
            if cmp.verdict is Verdict.GREATER:
                mu_greater += 1
            elif cmp.verdict is Verdict.INCONCLUSIVE:
                mu_open += 1
            best_s = 0
            reason = "absent"
            s = 1
            while 2 * s <= n:
                res = find_complete_multipartite(g, (s, s), budget=cfg.budget)
                if res.status is SearchStatus.FOUND:
                    best_s = s
                    s += 1
                    continue
                reason = "budget" if res.status is SearchStatus.BUDGET else "absent"
                break
            max_s_list.append(best_s)
            stop_reason.append(reason)
        per_n.append(
            {
                "n": n,
                "m": m,
                "mu_greater_fraction": mu_greater / max(1, cfg.trials),
                "mu_inconclusive": mu_open,
                "max_biclique_s": max_s_list,
                "stop_reason": stop_reason,
                "c_equivalent_of_max_s": [
                    s / math.log(n) if n > 1 else 0.0 for s in max_s_list
                ],
            }
        )
    report = ExperimentReport(
        cfg.to_dict(), instances, [], [], {"per_n": per_n}, time.monotonic() - t0
    )
    if cfg.output_path:
        report.write(cfg.output_path)
    return report


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    runner: dict[str, Callable[[ExperimentConfig], ExperimentReport]] = {
        "exhaustive": run_exhaustive,
        "family_sweep": run_family_sweep,
        "random_hunt": run_random_hunt,
        "tightness": run_tightness,
    }
    return runner[cfg.mode](cfg)
