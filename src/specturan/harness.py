"""Batch experiment engine: exhaustive scans, family sweeps, random hunts,
and the random-graph tightness study.

Reports are deterministic: a config (seed included) maps to byte-identical
report JSON.  Wall time and other non-reproducible metadata go to a
sidecar `<output>.meta.json`, never into the report.

The exhaustive mode enumerates every labeled graph of order n <= 8 by
edge-mask integer.  Every quantity its checks use is an isomorphism
invariant, so a full scan first partitions the masks into isomorphism
classes by orbit marking in a visited array of one byte per mask (2^21
masks, 1044 classes at n = 7).  Only the lower half is walked: masks with
more than half of the pairs are marked up front, and each walk appends
its complement class.  Each class is evaluated once, on its smallest
mask, and mostly without building a Graph: the edge and clique counts
are popcounts and subset-mask tests on the mask, and
`spectral.spectral_radii` and `spectral.interval_flags` estimate and
compare mu on adjacency matrices unpacked from the masks.  A class is
decoded into a Graph, once, only when a step needs one: the exact
tie-break, a run the batch hands to `spectral.spectral_radius`, or the
`joint_size` statistics; counterexample records and the lenslmm boundary
decode their own labeled masks.  Counts are weighted by orbit size, and
the tie log and counterexample records still hold one entry per labeled
mask: their classes' orbits are regenerated and sorted.  No other array
has an entry per mask.  A sampled scan draws distinct masks and treats
each as its own class.  Spectral comparisons the interval leaves open are
settled exactly, by one Sturm-Tarski count on the integer quotient
polynomial, once per class, so every instance ends with a definite
verdict and the tie log stays auditable.

The family sweep and the random hunt record what one `theorems.run_checks`
call returns per graph: mu, the Turan reference, its exact tie settlement
and js_{r+1} are computed once per graph.  Nothing is kept across graphs.

Each order n of a family sweep, random hunt or tightness study is a cell
of its own: a module-level function of the config and n that returns
the order's slice of the report.  `_cells` runs the cells in worker processes
forked from this one, one per CPU in the process's affinity set, and the
slices are joined in increasing n, so the report is the same bytes for any
worker count; `taskset -c 0` runs every cell in process.  The sidecar
records the worker count.  Exhaustive scans stay in process (see
`run_exhaustive`).
"""

from __future__ import annotations

import itertools
import json
import math
import os
import sys
import time
from dataclasses import dataclass, fields
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .graph import (
    Graph,
    MAX_EXHAUSTIVE_N,
    edge_mask_stack,
    graph_from_edge_mask,
    make_turan,
    make_turan_plus_edge,
    random_gnm,
    turan_part_sizes,
    write_edge_list,
)
from .rng import SplitMix64
from .spectral import (
    Verdict,
    _checked_tol,
    compare_mu_exact_multipartite,
    compare_mu_to_threshold,
    interval_flags,
    spectral_radii,
    turan_mu_exact,
)
from .subgraph import (
    SearchStatus,
    book_size,
    find_complete_multipartite,
    joint_size,
)
from .theorems import (
    CHECKS,
    DEFAULT_B,
    TheoremId,
    TheoremVerdict,
    TriState,
    run_check,
    run_checks,
    turan_edge_count,
)

EXHAUSTIVE_CHECKS = ("stt", "lenslmm", "edge-spectral", "tsize")
DEFAULT_FAMILIES = ("turan", "turan_plus_e", "turan_minus_e")
_BATCH_CHUNK = 1 << 16  # class representatives per batched kernel pass
_PREMARK_CHUNK = 1 << 16  # masks per pass of the partition's popcount pre-marking


def integer(value) -> int:
    """An integer setting, exactly: a plain integer at any size, or
    scientific notation naming an integer (`1e8`) within float exponent
    range.  Anything else (`2.5`, `4/2`, `inf`) raises ValueError."""
    try:
        d = Decimal(str(value))
        if d.is_finite() and d == d.to_integral_value():
            if d.as_tuple().exponent <= sys.float_info.max_10_exp:
                return int(d)
    except InvalidOperation:
        pass
    raise ValueError(f"expected an integer, got {value!r}")


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
        _checked_tol(self.tol)
        for key in ("trials", "sample_cap"):
            if getattr(self, key) < 0:
                raise ValueError(f"{key} must be >= 0, got {getattr(self, key)}")
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
                if "b" in spec.params and self.b < 0:
                    raise ValueError(f"check {check!r} needs b >= 0, got {self.b}")
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
            kv["n_min"] = kv["n_max"] = integer(kv.pop("n"))
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
                try:
                    v = integer(v)
                except ValueError as exc:
                    raise ValueError(f"{f.name}: {exc}") from None
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
    workers: int = 1  # processes that ran the per-order cells

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
            json.dump({"wall_time_seconds": self.wall_time, "workers": self.workers}, fh)
            fh.write("\n")


# ---------------------------------------------------------------------------
# Per-order cells across the process's CPUs
# ---------------------------------------------------------------------------


def _cpu_count() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform has one, so `taskset -c 0` runs every cell in process."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _call(job: tuple[Callable, tuple]):
    fn, args = job
    return fn(*args)


def _cells(fn: Callable, jobs: Sequence[tuple]) -> tuple[list, int]:
    """([fn(*job) for job in jobs], the number of processes that ran them).

    `fn` is a module-level function and `jobs` its argument tuples in
    report order, one per order n, each costlier than the one before.  One
    worker per CPU in the affinity set, and no more than there are jobs,
    each forked from this process: a worker starts from the parent's
    imports (and a test's patches) in milliseconds, where a fresh
    interpreter would import numpy again for every experiment.  Jobs are
    dispatched costliest first, one at a time, and the results are put
    back in report order, so the report does not depend on the worker
    count.  With one worker, or no `fork` on the platform, the jobs run
    in this process.  The pool is joined before this returns or re-raises
    a cell's exception, so no worker outlives the call.
    """
    workers = min(_cpu_count(), len(jobs))
    if workers > 1:
        import multiprocessing  # not at module import: it costs ~10 ms

        if "fork" in multiprocessing.get_all_start_methods():
            pool = multiprocessing.get_context("fork").Pool(workers)
            try:
                costliest_first = [(fn, job) for job in reversed(jobs)]
                results = list(pool.imap(_call, costliest_first, chunksize=1))
                pool.close()
            except BaseException:
                pool.terminate()
                raise
            finally:
                pool.join()
            return results[::-1], workers
    return [fn(*job) for job in jobs], 1


def _run_cells(
    cfg: ExperimentConfig, cell: Callable, jobs: list[tuple], stats: tuple[str, ...]
) -> ExperimentReport:
    """The report of a mode whose orders are cells (see `_cells`).  Each
    cell returns its order's slice: "instances", the lists
    "counterexamples" and "inconclusive_log" where it has entries, and the
    lists named in `stats`; the slices are joined in report order."""
    t0 = time.monotonic()
    cells, workers = _cells(cell, jobs)
    out: dict = {"instances": 0, "counterexamples": [], "inconclusive_log": []}
    out.update((key, []) for key in stats)
    for part in cells:
        for key, value in part.items():
            out[key] += value
    report = ExperimentReport(
        cfg.to_dict(),
        out["instances"],
        out["counterexamples"],
        out["inconclusive_log"],
        {key: out[key] for key in stats},
        time.monotonic() - t0,
        workers,
    )
    if cfg.output_path:
        report.write(cfg.output_path)
    return report


# ---------------------------------------------------------------------------
# Order-n exhaustive scan: class partition, batched mu, per-class counters
# ---------------------------------------------------------------------------


def _permuted_pair_bits(n: int) -> np.ndarray:
    """(n!, C(n, 2)) uint32 table: row p holds, for each pair bit i, the
    single-bit mask of the pair that vertex permutation p sends pair i to."""
    pairs = np.column_stack(np.triu_indices(n, 1))  # lexicographic pair order
    perms = np.fromiter(
        itertools.chain.from_iterable(itertools.permutations(range(n))),
        dtype=np.uint8,
        count=math.factorial(n) * n,
    ).reshape(math.factorial(n), n)
    a, b = perms[:, pairs[:, 0]], perms[:, pairs[:, 1]]
    lo, hi = np.minimum(a, b).astype(np.uint32), np.maximum(a, b).astype(np.uint32)
    rank = lo * n - lo * (lo + 1) // 2 + (hi - lo - 1)  # lexicographic pair index
    return np.uint32(1) << rank


def _orbit(table: np.ndarray, mask: int) -> np.ndarray:
    """The images of `mask` under every permutation of `table`, one per
    row (a mask fixed by several permutations repeats)."""
    bits = [i for i in range(table.shape[1]) if (mask >> i) & 1]
    # A permutation sends distinct pairs to distinct pairs, so the sum of
    # the images' single-bit masks is their OR.
    return table[:, bits].sum(axis=1, dtype=np.uint32)


def _mask_classes(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Isomorphism classes of the masks of one order, given its
    `_permuted_pair_bits` table: (reps, size), the least mask of each class
    in increasing order and its orbit size.

    Orbit marking over a visited array of one byte per mask: the smallest
    unvisited mask opens a class, and its n! images are marked.  Its orbit
    size is n!/|Aut|, the number of permutations over the number that fix
    it.  Complementing every mask maps orbits to orbits, and the least mask
    of the complement class is the complement of the largest image.  With
    P pairs, a class with more than P/2 edges is the complement of one with
    fewer, so those masks are marked up front by popcount and a walk only
    appends its complement class.  Only a class with exactly P/2 edges has
    its complement in the walked half, so it marks that orbit too unless it
    is self-complementary.
    """
    pairs = table.shape[1]
    total = 1 << pairs
    full = np.uint32(total - 1)
    visited = np.empty(total, dtype=np.uint8)
    for lo in range(0, total, _PREMARK_CHUNK):
        chunk = np.arange(lo, min(lo + _PREMARK_CHUNK, total), dtype=np.uint32)
        visited[lo : lo + chunk.size] = np.bitwise_count(chunk) > pairs // 2
    unvisited = sum(math.comb(pairs, e) for e in range(pairs // 2 + 1))
    reps: list[int] = []
    sizes: list[int] = []
    pos, window = 0, 4096
    while unvisited:
        free = np.flatnonzero(visited[pos : pos + window] == 0)
        if free.size == 0:
            pos += window
            continue
        rep = pos + int(free[0])
        images = _orbit(table, rep)
        visited[images] = 1
        size = table.shape[0] // int(np.count_nonzero(images == rep))
        reps.append(rep)
        sizes.append(size)
        unvisited -= size
        complement = int(full ^ images.max())
        if complement != rep:
            reps.append(complement)
            sizes.append(size)
            if 2 * rep.bit_count() == pairs:
                visited[full ^ images] = 1
                unvisited -= size
        pos = rep + 1
    order = np.argsort(reps)
    return np.array(reps, dtype=np.uint32)[order], np.array(sizes, dtype=np.int64)[order]


def _orbit_members(
    table: np.ndarray, reps: np.ndarray, classes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(masks, class) of every mask in the given classes, by increasing
    mask, from regenerated orbits."""
    if classes.size == 0:
        return np.zeros(0, dtype=np.uint32), np.zeros(0, dtype=np.int64)
    orbits = [np.unique(_orbit(table, int(reps[c]))) for c in classes]
    masks = np.concatenate(orbits)
    owner = np.repeat(classes, [o.size for o in orbits])
    order = np.argsort(masks)
    return masks[order], owner[order]


def _mask_clique_counts(n: int, masks: np.ndarray, q: int) -> np.ndarray:
    """k_q of the graph of every mask, without building a Graph: the
    number of q-subsets whose pair mask S (the OR of its C(q, 2) pair bits)
    lies inside the mask, in chunks of `_BATCH_CHUNK` masks."""
    pair_bit = np.zeros((n, n), dtype=np.uint32)
    rows, cols = np.triu_indices(n, 1)
    pair_bit[rows, cols] = np.uint32(1) << np.arange(rows.size, dtype=np.uint32)
    subsets = np.array(list(itertools.combinations(range(n), q)), dtype=np.intp)
    s = np.bitwise_or.reduce(
        pair_bit[subsets[:, :, None], subsets[:, None, :]], axis=(1, 2)
    ).astype(masks.dtype)
    counts = np.empty(masks.shape[0], dtype=np.int64)
    for lo in range(0, masks.shape[0], _BATCH_CHUNK):
        chunk = masks[lo : lo + _BATCH_CHUNK, None]
        counts[lo : lo + chunk.shape[0]] = ((chunk & s) == s).sum(axis=1)
    return counts


def _mask_radii(
    n: int, masks: np.ndarray, tol: float, graph_of: Callable[[int], Graph]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`spectral_radii` of the graph of every mask, unpacked from the
    masks in chunks of `_BATCH_CHUNK`; `graph_of(i)` builds the Graph of
    masks[i] for a run the batch hands to `spectral_radius`."""
    parts = [
        spectral_radii(
            edge_mask_stack(n, masks[lo : lo + _BATCH_CHUNK]),
            lambda i, lo=lo: graph_of(lo + i),
            tol,
        )
        for lo in range(0, masks.shape[0], _BATCH_CHUNK)
    ]
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def _scan_order(
    n: int,
    r: int,
    sample: np.ndarray | None,
    tol: float,
    checks: Sequence[str],
    collect_stats: bool,
) -> dict:
    """Evaluate the exhaustive-mode checks on every mask of one order, or
    on the sorted `sample` of masks.

    Every array below is indexed by isomorphism class, not by mask, and
    no array has one entry per mask: a full scan holds the class
    representatives and orbit sizes of `_mask_classes`, and a sample is
    its own list of classes, one per sampled mask.  The edge and clique
    counts and the batched estimate come from the representatives' masks;
    a representative is decoded into a Graph, at most once, only for a
    class that needs one: an open interval's exact tie-break, a run the
    batch hands to `spectral_radius`, or the js_{r+1} statistics.  Counts
    are weighted by the number of masks in each class.  Only index sets
    (tie log, counterexamples, the lenslmm boundary) are expanded to the
    masks of their classes, in mask order, by regenerating the orbits of
    the flagged classes.
    """
    if sample is None:
        table = _permuted_pair_bits(n)
        reps, size = _mask_classes(table)
    else:
        reps, size = sample, np.ones(sample.shape[0], dtype=np.int64)
    total = int(size.sum())
    decoded: dict[int, Graph] = {}

    def graph_of(c: int) -> Graph:
        """The Graph of class c, decoded on first use."""
        if c not in decoded:
            decoded[c] = graph_from_edge_mask(n, int(reps[c]))
        return decoded[c]

    e_arr = np.bitwise_count(reps).astype(np.int64)
    k = {q: _mask_clique_counts(n, reps, q) for q in range(2, min(n, r + 1) + 1)}

    def masks_where(flags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(masks, class) of the masks whose class is flagged, by mask."""
        classes = np.flatnonzero(flags)
        if sample is not None:
            return sample[classes], classes
        return _orbit_members(table, reps, classes)

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
    if need_spectral:
        value, resid, conv = _mask_radii(n, reps, tol, graph_of)
        greater, not_greater = interval_flags(value, resid, conv, mu_t, tol)
        is_open = ~(greater | not_greater)
        parts = turan_part_sizes(n, r)
        for c in np.flatnonzero(is_open):
            exact = compare_mu_exact_multipartite(graph_of(int(c)), parts)
            greater[c] = exact is Verdict.GREATER
        for mask, c in zip(*masks_where(is_open)):
            tie = Verdict.GREATER if greater[c] else Verdict.NOT_GREATER
            out["inconclusive_log"].append(
                {
                    "n": n,
                    "r": r,
                    "mask": int(mask),
                    "stage": "exact",
                    "resolution": tie.value,
                }
            )

    def record_counterexamples(check: str, masks: Sequence[int]) -> None:
        for mask in masks:
            g = graph_from_edge_mask(n, int(mask))
            verdict = run_check(TheoremId(check), g, r, tol=tol)
            payload = verdict.to_json_dict()
            payload["mask"] = int(mask)
            if payload["graph"] is None:
                payload["graph"] = write_edge_list(g)
            out["counterexamples"].append(payload)

    for check in checks:
        if check == "tsize":
            continue  # handled once per (n, r) by the caller
        out["instances"] += total
        if check == "stt":
            concl_no = k.get(r + 1, zeros) == 0
            record_counterexamples(check, masks_where(greater & concl_no)[0])
            if collect_stats:
                out["stats"]["stt"] = {
                    "hypothesis_yes": int(size[greater].sum()),
                    "min_mu_gap_over_yes": float((value - mu_t)[greater].min())
                    if greater.any()
                    else None,
                }
        elif check == "edge-spectral":
            hyp = e_arr > turan_edge_count(n, r)
            record_counterexamples(check, masks_where(hyp & ~greater)[0])
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
            boundary, _ = masks_where(~clear_yes)
            cx_masks: list[int] = []
            for mask in boundary:
                g = graph_from_edge_mask(n, int(mask))
                v = run_check(TheoremId.FACT_LENSLMM, g, r, tol=tol)
                if "conclusion_resolved" in v.detail:
                    out["inconclusive_log"].append(
                        {
                            "n": n,
                            "r": r,
                            "mask": int(mask),
                            "stage": "exact",
                            "check": "lenslmm",
                            "resolution": v.conclusion.value,
                        }
                    )
                if v.conclusion is TriState.NO:
                    cx_masks.append(int(mask))
            record_counterexamples(check, cx_masks)
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
            js = np.array(
                [joint_size(graph_of(c), r + 1).size for c in range(reps.shape[0])],
                dtype=np.int64,
            )
            dist[f"js_{r + 1}"] = mask_histogram(js)
        out["stats"]["distributions"] = dist
        out["stats"]["edge_count_distribution"] = mask_histogram(e_arr)
    return out


def _sample_masks(total: int, cap: int, seed: int) -> np.ndarray:
    """`cap` distinct masks below `total`, sorted, by Floyd's algorithm
    (Bentley & Floyd, CACM 30(9), 1987): for j = total - cap .. total - 1,
    draw t uniform in [0, j] and keep t, or j when t is already kept.  One
    `SplitMix64.below` draw per mask: a repeat is never redrawn."""
    draws = SplitMix64(seed).below_many(np.arange(total - cap + 1, total + 1))
    kept: set[int] = set()
    for j, t in zip(range(total - cap, total), draws.tolist()):
        kept.add(j if t in kept else t)
    return np.array(sorted(kept), dtype=np.uint32)


def run_exhaustive(cfg: ExperimentConfig) -> ExperimentReport:
    """All labeled graphs of each order in range (or a seeded sample).

    The orders run one after another in this process, not as `_cells`: a
    full order-8 scan holds a 256 MiB visited array, and two scans side
    by side would hold two.
    """
    t0 = time.monotonic()
    counterexamples: list[dict] = []
    log: list[dict] = []
    stats: dict = {}
    instances = 0
    for n in range(cfg.n_min, cfg.n_max + 1):
        total = 1 << (n * (n - 1) // 2)
        sample = None
        if cfg.sample_cap and cfg.sample_cap < total:
            sample = _sample_masks(total, cfg.sample_cap, cfg.seed)
        res = _scan_order(
            n, cfg.r, sample, cfg.tol, cfg.checks, collect_stats=bool(cfg.stats)
        )
        counterexamples.extend(res["counterexamples"])
        log.extend(res["inconclusive_log"])
        stats[f"n={n}"] = res["stats"]
        stats[f"n={n}"]["graphs"] = total if sample is None else int(sample.shape[0])
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


def _sweep_cell(cfg: ExperimentConfig, n: int) -> dict:
    """One order of `run_family_sweep`: its slice of the report."""
    counterexamples: list[dict] = []
    log: list[dict] = []
    instance_rows: list[dict] = []
    js_stats: list[dict] = []
    instances = 0
    tids = [TheoremId(check) for check in cfg.checks]
    given = dict(tol=cfg.tol, budget=cfg.budget, c=cfg.c if cfg.c > 0 else None, b=cfg.b)
    for family in cfg.families:
        g = _family_graph(family, n, cfg.r)
        if g is None:
            continue
        verdicts = run_checks(tids, g, cfg.r, **given)
        for check, v in zip(cfg.checks, verdicts):
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
    return {
        "instances": instances,
        "counterexamples": counterexamples,
        "inconclusive_log": log,
        "verdicts": instance_rows,
        "turan_plus_e_joints": js_stats,
    }


def run_family_sweep(cfg: ExperimentConfig) -> ExperimentReport:
    """Structured families T_r(n), T_r(n)+e, T_r(n)-e across the n range."""
    jobs = [(cfg, n) for n in range(cfg.n_min, cfg.n_max + 1)]
    return _run_cells(cfg, _sweep_cell, jobs, ("verdicts", "turan_plus_e_joints"))


def _trial_seeds(cfg: ExperimentConfig) -> list[int]:
    base = SplitMix64(cfg.seed)
    return [base.next_u64() for _ in range(cfg.trials)]


def _hunt_cell(cfg: ExperimentConfig, n: int, trial_seeds: list[int]) -> dict:
    """One order of `run_random_hunt`: its slice of the report."""
    counterexamples: list[dict] = []
    log: list[dict] = []
    instances = 0
    tids = [TheoremId(check) for check in cfg.checks]
    given = dict(tol=cfg.tol, budget=cfg.budget, c=cfg.c if cfg.c > 0 else None, b=cfg.b)
    max_m = n * (n - 1) // 2
    m = min(max(turan_edge_count(n, cfg.r) + cfg.m_offset, 0), max_m)
    hyp_yes = 0
    concl_yes = 0
    for t, s in enumerate(trial_seeds):
        g = random_gnm(n, m, s)
        verdicts = run_checks(tids, g, cfg.r, **given)
        for check, v in zip(cfg.checks, verdicts):
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
    summary = {"n": n, "m": m, "hypothesis_yes": hyp_yes, "conclusion_yes": concl_yes}
    return {
        "instances": instances,
        "counterexamples": counterexamples,
        "inconclusive_log": log,
        "per_n": [summary],
    }


def run_random_hunt(cfg: ExperimentConfig) -> ExperimentReport:
    """Seeded G(n, m) samples near the Turan edge count, all checks applied."""
    seeds = _trial_seeds(cfg)
    jobs = [(cfg, n, seeds) for n in range(cfg.n_min, cfg.n_max + 1)]
    return _run_cells(cfg, _hunt_cell, jobs, ("per_n",))


def _tightness_cell(cfg: ExperimentConfig, n: int, trial_seeds: list[int]) -> dict:
    """One order of `run_tightness`: its slice of the report."""
    instances = 0
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
    row = {
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
    return {"instances": instances, "per_n": [row]}


def run_tightness(cfg: ExperimentConfig) -> ExperimentReport:
    """Random graphs with ceil((1-eps) n^2 / 2) edges: certified check of
    mu > (1-eps) n per sample, and the largest s with K_2(s, s) embedded.

    A statistical report (the underlying remark is asymptotic), not a
    pass/fail checker.
    """
    seeds = _trial_seeds(cfg)
    jobs = [(cfg, n, seeds) for n in range(cfg.n_min, cfg.n_max + 1)]
    return _run_cells(cfg, _tightness_cell, jobs, ("per_n",))


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    runner: dict[str, Callable[[ExperimentConfig], ExperimentReport]] = {
        "exhaustive": run_exhaustive,
        "family_sweep": run_family_sweep,
        "random_hunt": run_random_hunt,
        "tightness": run_tightness,
    }
    return runner[cfg.mode](cfg)
