"""Hypothesis/conclusion checkers for the spectral saturation theorems.

Every checker returns a TheoremVerdict with tri-state hypothesis and
conclusion flags plus a machine-checkable certificate.  Inequality
conclusions (joint counts against n^{r-1}/r^k bounds, degree thresholds,
edge counts) are decided in exact rational arithmetic; floating point
enters only through eigenvalue estimates, which carry certified intervals,
so a YES is rigorous.  Each spectral flag, lenslmm's conclusion included,
is a certified comparison of `spectral`, against mu(T_r(n)) or a rational
threshold.  One the interval leaves open (T_r(n) ties mu(T_r(n))) is
settled there by the exact quotient root, and the detail says so:
`hypothesis_resolved` or `conclusion_resolved` = "exact".

A verdict with hypothesis YES and conclusion NO is a counterexample
record: it serializes the full graph so the claim can be re-checked
independently.  Regime flags (n > r^15 and friends) are advisory labels,
never gates; the asymptotic regimes are far beyond desk scale.

The checks share one hypothesis, mu(G) > mu(T_r(n)), and Theorem 1 and
its stability form both bound js_{r+1}(G).  `run_checks` therefore runs
all of one graph's checks against one per-graph analysis
(`_GraphAnalysis`), which computes the mu estimate, the Turan
comparison, k_r, the least K_{r+1}, js_{r+1}, the twin-class-pair table,
each tie settlement, each K_r^+ search and each stability witness at most
once, and is dropped when the call returns.  `run_checks` hands it to the
public `check_*` functions in place of the graph; called with a `Graph`,
each builds a fresh one.  Clique and joint witnesses are still
re-checked once per verdict; a K_r^+ embedding and a stability colouring
are validated once, by the search that found them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import ROUND_CEILING, ROUND_FLOOR, Decimal, localcontext
from enum import Enum
from fractions import Fraction
from typing import Callable, Sequence

from .graph import Graph, turan_part_sizes, write_edge_list
from .spectral import (
    DEFAULT_TOL,
    SpectralComparison,
    SpectralEstimate,
    Verdict,
    _threshold_comparison,
    _turan_comparison,
    spectral_radius,
)
from .subgraph import (
    DEFAULT_BUDGET,
    Embedding,
    JointReport,
    SearchResult,
    SearchStatus,
    _class_pairs,
    _ClassPairs,
    _InducedView,
    _rows_of,
    book_size,
    clique_exists,
    count_cliques,
    find_kr_plus,
    is_r_partite,
    joint_size,
)

DEFAULT_B = 1e-6  # stability slack b when a caller gives none


class TheoremId(Enum):
    T1 = "t1"
    T2 = "t2"
    T3 = "t3"
    T1_2 = "t1.2"
    T2_2 = "t2.2"
    T3_2 = "t3.2"
    FACT_STT = "stt"
    FACT_LENSLMM = "lenslmm"
    FACT_TSIZE = "tsize"
    FACT_LEKD = "lekd"
    FACT_THV4 = "thv4"
    EDGE_IMPLIES_SPECTRAL = "edge-spectral"
    BOOK_REMARK = "book"

    @property
    def label(self) -> str:
        """How error messages name the check: 'theorem t2', 'fact thv4'."""
        return f"{'fact' if self.name.startswith('FACT_') else 'theorem'} {self.value}"


class TriState(Enum):
    YES = "yes"
    NO = "no"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class TheoremParams:
    """Parameter bundle; regime predicates are advisory, not gates."""

    r: int
    n: int
    c: float | None = None
    b: float | None = None

    def theorem2_regime(self) -> bool:
        if self.c is None or self.n < 2:
            return False
        upper = Fraction(1, self.r ** ((2 * self.r + 9) * (self.r + 1)))
        return self.c * math.log(self.n) >= 2.0 and Fraction(self.c) <= upper

    def theorem3_regime(self) -> bool:
        if self.c is None or self.c <= 0 or self.n < 1:
            return False
        return math.log(self.n) >= 2.0 / self.c

    def stability_regime(self) -> bool:
        if self.b is None:
            return False
        return 0 < Fraction(self.b) < Fraction(1, 1024 * self.r**6)

    def thv4_regime(self) -> bool:
        if self.c is None or self.n < 2:
            return False
        upper = Fraction(1, self.r ** ((self.r + 8) * self.r))
        return self.c * math.log(self.n) >= 2.0 and Fraction(self.c) <= upper


@dataclass
class TheoremVerdict:
    theorem_id: TheoremId
    n: int
    r: int
    params: dict
    hypothesis: TriState
    conclusion: TriState
    in_regime: bool
    vacuous: bool = False
    certificate: dict | None = None
    lhs: str | None = None
    rhs: str | None = None
    detail: dict = field(default_factory=dict)
    graph_edges: str | None = None

    @property
    def is_counterexample(self) -> bool:
        return self.hypothesis is TriState.YES and self.conclusion is TriState.NO

    def to_json_dict(self) -> dict:
        return {
            "theorem": self.theorem_id.value,
            "n": self.n,
            "r": self.r,
            "params": self.params,
            "hypothesis": self.hypothesis.value,
            "conclusion": self.conclusion.value,
            "in_regime": self.in_regime,
            "vacuous": self.vacuous,
            "certificate": self.certificate,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "detail": self.detail,
            "graph": self.graph_edges,
        }


def default_theorem3_c(r: int) -> float:
    """c = r^{-(2r+9)(r+1)}; underflows to 0.0 far above desk scale."""
    return float(Fraction(1, r ** ((2 * r + 9) * (r + 1))))


def _hyp_from(cmp: SpectralComparison) -> TriState:
    if cmp.verdict is Verdict.GREATER:
        return TriState.YES
    if cmp.verdict is Verdict.NOT_GREATER:
        return TriState.NO
    return TriState.INCONCLUSIVE


def _spectral_detail(cmp: SpectralComparison, flag: str = "hypothesis") -> dict:
    """The estimate behind cmp, and `<flag>_resolved` if it was settled."""
    detail = {
        "mu_value": cmp.mu_g.value,
        "mu_residual": cmp.mu_g.residual,
        "mu_converged": cmp.mu_g.converged,
        "mu_reference": cmp.mu_turan,
    }
    if cmp.exact:
        detail[f"{flag}_resolved"] = "exact"
    return detail


def _attach_graph(verdict: TheoremVerdict, g: Graph | None) -> TheoremVerdict:
    if g is not None and verdict.is_counterexample:
        verdict.graph_edges = write_edge_list(g)
    return verdict


def _verify_clique(g: Graph, vertices: Sequence[int]) -> None:
    for i, u in enumerate(vertices):
        for v in vertices[i + 1 :]:
            if not g.has_edge(u, v):
                raise AssertionError(f"claimed clique misses edge ({u},{v})")


def _joint_certificate(g: Graph, r: int, report: JointReport) -> dict:
    """The certificate of js_{r+1}'s witness edge, after recounting the
    r-cliques through it on G itself: every vertex of the common
    neighbourhood, unit sizes, so the recount never reads the twin classes
    that `joint_size` weighs its counts by."""
    from .subgraph import _count_cliques_in

    u, v = report.witness_edge
    cn = g.neighbors_mask(u) & g.neighbors_mask(v)
    if _count_cliques_in(g._adj, cn, r - 1, [1] * g.n, ()) != report.size:
        raise AssertionError("joint witness count does not re-validate")
    return {"type": "joint", "witness_edge": [u, v], "size": report.size}


def _round_guarded(rounding: str, x: float, exact: Callable[[], Decimal]) -> int:
    """math.floor or math.ceil of x (`rounding` names which); within 1e-9 of
    an integer, x is recomputed as exact() at 50 digits with `decimal`, and
    that is rounded."""
    if abs(x - round(x)) < 1e-9:
        with localcontext() as ctx:
            ctx.prec = 50
            mode = ROUND_FLOOR if rounding == "floor" else ROUND_CEILING
            return int(exact().to_integral_value(rounding=mode))
    return int(getattr(math, rounding)(x))


def floor_c_log_n(c: float, n: int) -> int:
    """floor(c * ln n), guarded against float boundary error."""
    if n <= 1:
        return 0
    if not math.isfinite(c):
        raise ValueError(f"c must be finite, got {c}")
    return _round_guarded("floor", c * math.log(n), lambda: Decimal(c) * Decimal(n).ln())


def ceil_n_power(n: int, exponent: float) -> int:
    """ceil(n ** exponent), guarded against float boundary error."""
    if n == 0:
        return 0
    if n == 1:
        return 1
    return _round_guarded(
        "ceil", float(n) ** exponent, lambda: Decimal(n) ** Decimal(exponent)
    )


def turan_edge_count(n: int, r: int) -> int:
    """e(T_r(n)) from the partition, exact integer."""
    sizes = turan_part_sizes(n, r)
    return (n * n - sum(s * s for s in sizes)) // 2


class _GraphAnalysis:
    """What several checkers of one graph share, each computed at most once:
    the mu estimate per tol, the Turan comparison per (r, tol) and each
    threshold comparison per tol (ties settled in them), k_q, the
    least K_q, js_q, the twin-class-pair table (shared by `joint_size` and
    `find_kr_plus`), the K_r^+ search per (sizes, budget) and the
    stability witness per (r, thresholds).

    `run_checks` builds one for a graph's checks and drops it with them, so
    nothing outlives them; a `check_*` called with a `Graph` builds a fresh
    one.  The values held are frozen (or tuples and ints).
    """

    def __init__(self, g: Graph) -> None:
        self.g = g
        self._memo: dict[tuple, object] = {}

    def _once(self, key: tuple, compute: Callable[[], object]):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def estimate(self, tol: float) -> SpectralEstimate:
        return self._once(("mu", tol), lambda: spectral_radius(self.g, tol))

    def turan(self, r: int, tol: float) -> SpectralComparison:
        """What `compare_mu_to_turan(g, r, tol)` returns."""
        return self._once(
            ("turan", r, tol),
            lambda: _turan_comparison(self.g, self.estimate(tol), r, tol),
        )

    def threshold(self, threshold: Fraction, tol: float) -> SpectralComparison:
        """What `compare_mu_to_threshold(g, threshold, tol)` returns."""
        return self._once(
            ("threshold", threshold, tol),
            lambda: _threshold_comparison(self.g, self.estimate(tol), threshold, tol),
        )

    def cliques(self, q: int) -> int:
        return self._once(("k", q), lambda: count_cliques(self.g, q).count)

    def clique(self, q: int) -> tuple[int, ...] | None:
        return self._once(("clique", q), lambda: clique_exists(self.g, q))

    def class_pairs(self) -> _ClassPairs:
        """The twin-class-pair table `joint_size` and `find_kr_plus` share."""
        return self._once(("pairs",), lambda: _class_pairs(self.g))

    def joint(self, q: int) -> JointReport:
        return self._once(("js", q), lambda: joint_size(self.class_pairs(), q))

    def kr_plus(self, sizes: Sequence[int], budget: int) -> SearchResult:
        """What `find_kr_plus(g, sizes, budget)` returns."""
        return self._once(
            ("kplus", tuple(sizes), budget),
            lambda: find_kr_plus(self.class_pairs(), sizes, budget=budget),
        )

    def stability_witness(
        self, r: int, order_threshold: float, degree_threshold: float
    ) -> tuple[StabilityWitness | None, bool]:
        """What `find_stability_witness(g, r, ...)` returns."""
        return self._once(
            ("stability", r, order_threshold, degree_threshold),
            lambda: find_stability_witness(self.g, r, order_threshold, degree_threshold),
        )


def _analysis(g: Graph | _GraphAnalysis) -> _GraphAnalysis:
    """The analysis `run_checks` passed in place of the graph, or a fresh
    one for a `Graph`."""
    return g if isinstance(g, _GraphAnalysis) else _GraphAnalysis(g)


# ---------------------------------------------------------------------------
# Fact checkers
#
# Every checker that takes a graph also accepts the graph's `_GraphAnalysis`
# in its place: `run_checks` passes one shared analysis to all of a graph's
# checkers, and a checker called with a `Graph` opens with a fresh one.
# ---------------------------------------------------------------------------


def check_spectral_turan(g: Graph, r: int, tol: float = DEFAULT_TOL) -> TheoremVerdict:
    """mu(G) > mu(T_r(n))  =>  G contains K_{r+1}."""
    a = _analysis(g)
    g = a.g
    cmp = a.turan(r, tol)
    clique = a.clique(r + 1)
    if clique is not None:
        _verify_clique(g, clique)
        conclusion = TriState.YES
        cert = {"type": "clique", "vertices": list(clique)}
    else:
        conclusion = TriState.NO
        cert = None
    v = TheoremVerdict(
        TheoremId.FACT_STT,
        g.n,
        r,
        {"tol": tol},
        _hyp_from(cmp),
        conclusion,
        in_regime=True,
        certificate=cert,
        detail=_spectral_detail(cmp),
    )
    return _attach_graph(v, g)


def check_theorem1(g: Graph, r: int, tol: float = DEFAULT_TOL) -> TheoremVerdict:
    """mu(G) > mu(T_r(n))  =>  js_{r+1}(G) > n^{r-1}/r^{2r+4}."""
    a = _analysis(g)
    g = a.g
    cmp = a.turan(r, tol)
    report = a.joint(r + 1)
    bound = Fraction(g.n ** (r - 1), r ** (2 * r + 4))
    holds = Fraction(report.size) > bound
    cert = None
    if report.witness_edge is not None:
        cert = _joint_certificate(g, r, report)
    v = TheoremVerdict(
        TheoremId.T1,
        g.n,
        r,
        {"tol": tol},
        _hyp_from(cmp),
        TriState.YES if holds else TriState.NO,
        in_regime=g.n > r**15,
        certificate=cert if holds else None,
        lhs=str(report.size),
        rhs=str(bound),
        detail={**_spectral_detail(cmp), "slack": float(Fraction(report.size) - bound)},
    )
    return _attach_graph(v, g)


def _embedding_cert(emb: Embedding) -> dict:
    return {
        "type": "embedding",
        "parts": [list(p) for p in emb.parts],
        "extra_edge": list(emb.extra_edge) if emb.extra_edge else None,
    }


def _kr_plus_branch(
    a: _GraphAnalysis,
    r: int,
    c: float,
    budget: int,
    last_exponent: Callable[[float], float] | None,
) -> tuple[TriState, dict | None, dict, bool]:
    """(state, certificate, detail, vacuous) for K_r^+(s, ..., s, t) with
    s = floor(c ln n) and t = ceil(n^last_exponent(c)), or t = s when
    last_exponent is None.  Vacuously YES when s <= 0, where the exponent
    is never evaluated (sqrt of a negative c would raise)."""
    n = a.g.n
    s = floor_c_log_n(c, n)
    if s <= 0:
        return TriState.YES, None, {"floor_c_ln_n": s}, True
    t = s if last_exponent is None else ceil_n_power(n, last_exponent(c))
    sizes = [max(2, s)] + [s] * (r - 2) + [t]
    result = a.kr_plus(sizes, budget)
    detail = {"target_sizes": sizes, "nodes_expanded": result.nodes_expanded}
    if result.status is SearchStatus.FOUND:
        return TriState.YES, _embedding_cert(result.embedding), detail, False
    if result.status is SearchStatus.ABSENT:
        return TriState.NO, None, detail, False
    return TriState.INCONCLUSIVE, None, detail, False


def check_theorem2(
    g: Graph,
    r: int,
    c: float,
    tol: float = DEFAULT_TOL,
    budget: int = DEFAULT_BUDGET,
) -> TheoremVerdict:
    """mu(G) > mu(T_r(n))  =>  K_r^+(floor(c ln n), ..., ceil(n^{1-sqrt c}))."""
    a = _analysis(g)
    g = a.g
    cmp = a.turan(r, tol)
    conclusion, cert, detail, vacuous = _kr_plus_branch(
        a, r, c, budget, lambda c: 1.0 - math.sqrt(c)
    )
    v = TheoremVerdict(
        TheoremId.T2,
        g.n,
        r,
        {"c": c, "tol": tol, "budget": budget},
        _hyp_from(cmp),
        conclusion,
        in_regime=TheoremParams(r=r, n=g.n, c=c).theorem2_regime(),
        vacuous=vacuous,
        certificate=cert,
        detail={**_spectral_detail(cmp), **detail},
    )
    return _attach_graph(v, g)


def check_theorem3(
    g: Graph,
    r: int,
    tol: float = DEFAULT_TOL,
    budget: int = DEFAULT_BUDGET,
    c_override: float | None = None,
) -> TheoremVerdict:
    """Balanced variant: K_r^+(floor(c ln n), ..., floor(c ln n)) with the
    paper's fixed c = r^{-(2r+9)(r+1)} unless overridden."""
    a = _analysis(g)
    g = a.g
    c = default_theorem3_c(r) if c_override is None else c_override
    cmp = a.turan(r, tol)
    conclusion, cert, detail, vacuous = _kr_plus_branch(a, r, c, budget, None)
    v = TheoremVerdict(
        TheoremId.T3,
        g.n,
        r,
        {"c": c, "tol": tol, "budget": budget},
        _hyp_from(cmp),
        conclusion,
        in_regime=TheoremParams(r=r, n=g.n, c=c).theorem3_regime(),
        vacuous=vacuous,
        certificate=cert,
        detail={**_spectral_detail(cmp), **detail},
    )
    return _attach_graph(v, g)


def _lenslmm_coef(n: int, r: int) -> Fraction:
    """r(r-1)/(r+1) * (n/r)^{r+1}, the slope of the lenslmm bound in mu/n."""
    return Fraction(r * (r - 1), r + 1) * Fraction(n, r) ** (r + 1)


def _lenslmm_mu_bound(g: Graph | _GraphAnalysis, r: int) -> Fraction:
    """lenslmm holds iff mu <= n (k_r/coef + 1 - 1/r), solving k_r >= RHS(mu)
    with coef > 0."""
    a = _analysis(g)
    n = a.g.n
    return n * (Fraction(a.cliques(r)) / _lenslmm_coef(n, r) + 1 - Fraction(1, r))


def check_fact_lenslmm(g: Graph, r: int, tol: float = DEFAULT_TOL) -> TheoremVerdict:
    """k_r(G) >= (mu/n - 1 + 1/r) * r(r-1)/(r+1) * (n/r)^{r+1}: it holds iff
    mu is not greater than `_lenslmm_mu_bound`, which the certified threshold
    comparison decides.  `rhs` and `slack` are read at mu + residual."""
    a = _analysis(g)
    if r < 2:
        raise ValueError("r must be at least 2")
    g = a.g
    n = g.n
    kr = a.cliques(r)
    if n == 0:
        return TheoremVerdict(
            TheoremId.FACT_LENSLMM,
            0,
            r,
            {"tol": tol},
            TriState.YES,
            TriState.YES,
            in_regime=True,
            lhs="0",
            rhs="0",
        )
    cmp = a.threshold(_lenslmm_mu_bound(a, r), tol)
    est = cmp.mu_g
    conclusion = {Verdict.GREATER: TriState.NO, Verdict.NOT_GREATER: TriState.YES}.get(
        cmp.verdict, TriState.INCONCLUSIVE
    )
    detail = {
        "mu_value": est.value,
        "mu_residual": est.residual,
        "mu_converged": est.converged,
    }
    rhs_str = None
    if est.converged:
        mu_hi = Fraction(est.value) + Fraction(est.residual)
        rhs_hi = (mu_hi / n - 1 + Fraction(1, r)) * _lenslmm_coef(n, r)
        rhs_str = str(rhs_hi)
        detail["slack"] = float(Fraction(kr) - rhs_hi)
    if cmp.exact:
        detail["conclusion_resolved"] = "exact"
    v = TheoremVerdict(
        TheoremId.FACT_LENSLMM,
        n,
        r,
        {"tol": tol},
        TriState.YES,
        conclusion,
        in_regime=True,
        lhs=str(kr),
        rhs=rhs_str,
        detail=detail,
    )
    return _attach_graph(v, g)


def check_fact_tsize(n: int, r: int) -> TheoremVerdict:
    """2 e(T_r(n)) >= (1 - 1/r) n^2 - r/4, checked as
    8 r e >= 4 (r-1) n^2 - r^2 in integers."""
    if r < 1:
        raise ValueError("r must be at least 1")
    e = turan_edge_count(n, r)
    lhs = 8 * r * e
    rhs = 4 * (r - 1) * n * n - r * r
    return TheoremVerdict(
        TheoremId.FACT_TSIZE,
        n,
        r,
        {},
        TriState.YES,
        TriState.YES if lhs >= rhs else TriState.NO,
        in_regime=True,
        certificate={"type": "rational", "identity": f"8*{r}*{e} >= 4*({r}-1)*{n}^2 - {r}^2"},
        lhs=str(lhs),
        rhs=str(rhs),
        detail={"edges": e, "slack": lhs - rhs},
    )


def _lekd_hypothesis(a: _GraphAnalysis, r: int) -> tuple[TriState, dict | None, dict]:
    g = a.g
    clique = a.clique(r + 1)
    n = g.n
    delta = g.min_degree()
    # delta > (1 - 1/r - 1/r^4) n  <=>  r^4 delta > (r^4 - r^3 - 1) n
    degree_ok = r**4 * delta > (r**4 - r**3 - 1) * n
    detail = {"min_degree": delta, "has_clique": clique is not None}
    if clique is not None and degree_ok:
        _verify_clique(g, clique)
        return TriState.YES, {"type": "clique", "vertices": list(clique)}, detail
    return TriState.NO, None, detail


def check_fact_lekd(g: Graph, r: int) -> TheoremVerdict:
    """K_{r+1} present and delta > (1-1/r-1/r^4)n  =>
    js_{r+1} > n^{r-1}/r^{r+3}."""
    a = _analysis(g)
    if r < 2:
        raise ValueError("r must be at least 2")
    g = a.g
    hyp, hyp_cert, hyp_detail = _lekd_hypothesis(a, r)
    report = a.joint(r + 1)
    bound = Fraction(g.n ** (r - 1), r ** (r + 3))
    holds = Fraction(report.size) > bound
    cert = None
    if holds and report.witness_edge is not None:
        cert = _joint_certificate(g, r, report)
    v = TheoremVerdict(
        TheoremId.FACT_LEKD,
        g.n,
        r,
        {},
        hyp,
        TriState.YES if holds else TriState.NO,
        in_regime=True,
        certificate=cert,
        lhs=str(report.size),
        rhs=str(bound),
        detail={**hyp_detail, "hypothesis_clique": hyp_cert},
    )
    return _attach_graph(v, g)


def check_fact_thv4(
    g: Graph,
    r: int,
    c: float,
    budget: int = DEFAULT_BUDGET,
) -> TheoremVerdict:
    """K_{r+1} present and delta > (1-1/r-1/r^4)n  =>
    K_r^+(floor(c ln n), ..., ceil(n^{1-c r^3}))."""
    a = _analysis(g)
    if r < 2:
        raise ValueError("r must be at least 2")
    g = a.g
    hyp, hyp_cert, hyp_detail = _lekd_hypothesis(a, r)
    conclusion, cert, detail, vacuous = _kr_plus_branch(
        a, r, c, budget, lambda c: 1.0 - c * r**3
    )
    v = TheoremVerdict(
        TheoremId.FACT_THV4,
        g.n,
        r,
        {"c": c, "budget": budget},
        hyp,
        conclusion,
        in_regime=TheoremParams(r=r, n=g.n, c=c).thv4_regime(),
        vacuous=vacuous,
        certificate=cert,
        detail={**hyp_detail, **detail},
    )
    return _attach_graph(v, g)


def check_edge_implies_spectral(
    g: Graph, r: int, tol: float = DEFAULT_TOL
) -> TheoremVerdict:
    """e(G) > e(T_r(n))  =>  mu(G) > mu(T_r(n))."""
    a = _analysis(g)
    if r < 2:
        raise ValueError("r must be at least 2")
    g = a.g
    e_g = g.edge_count()
    e_t = turan_edge_count(g.n, r)
    cmp = a.turan(r, tol) if g.n >= 1 else None
    if cmp is None:
        conclusion = TriState.NO
        detail = {}
    else:
        conclusion = _hyp_from(cmp)  # conclusion IS the spectral comparison
        detail = _spectral_detail(cmp, "conclusion")
    v = TheoremVerdict(
        TheoremId.EDGE_IMPLIES_SPECTRAL,
        g.n,
        r,
        {"tol": tol},
        TriState.YES if e_g > e_t else TriState.NO,
        conclusion,
        in_regime=True,
        lhs=str(e_g),
        rhs=str(e_t),
        detail=detail,
    )
    return _attach_graph(v, g)


def check_book_remark(g: Graph, r: int, tol: float = DEFAULT_TOL) -> TheoremVerdict:
    """mu(G) > mu(T_r(n))  =>  many (r+1)-cliques share an r-clique; checked
    as existence, with the book size reported for the cn-scaling remark."""
    a = _analysis(g)
    g = a.g
    cmp = a.turan(r, tol)
    report = book_size(g, r)
    cert = None
    if report.base_clique is not None:
        _verify_clique(g, report.base_clique)
        cert = {
            "type": "book",
            "base_clique": list(report.base_clique),
            "size": report.size,
        }
    v = TheoremVerdict(
        TheoremId.BOOK_REMARK,
        g.n,
        r,
        {"tol": tol},
        _hyp_from(cmp),
        TriState.YES if report.size >= 1 else TriState.NO,
        in_regime=True,
        certificate=cert if report.size >= 1 else None,
        lhs=str(report.size),
        rhs="1",
        detail={
            **_spectral_detail(cmp),
            "size_over_n": report.size / g.n if g.n else 0.0,
        },
    )
    return _attach_graph(v, g)


# ---------------------------------------------------------------------------
# Stability theorems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StabilityWitness:
    vertices: tuple[int, ...]
    coloring: tuple[int, ...]  # color of vertices[i]
    min_degree: int  # delta of the induced subgraph on `vertices`


def _conflict_peel_order(sub: Graph | _InducedView, r: int) -> int:
    """Vertex to evict: most monochromatic conflicts under a best-effort
    greedy r-coloring of sub (ties lowest index), named on the host's labels
    when sub is an induced view."""
    vertices, rows = _rows_of(sub)
    order = sorted(vertices, key=lambda v: (-rows[v].bit_count(), v))
    colors = [-1] * len(rows)
    classes = [0] * r  # bitset of the vertices colored so far, per color
    for v in order:
        row = rows[v]
        counts = [(row & members_c).bit_count() for members_c in classes]
        c = counts.index(min(counts))
        colors[v] = c
        classes[c] |= 1 << v
    return max(vertices, key=lambda v: ((rows[v] & classes[colors[v]]).bit_count(), -v))


def _degree_peel_order(
    g: Graph, members: list[int], degree_threshold: float
) -> list[int]:
    """Vertices the degree peel evicts from `members`, in eviction order:
    while some survivor has degree at most the threshold in the survivors'
    induced subgraph, the least (degree, vertex) goes.  Survivors' degrees
    are kept and decremented from each victim's row."""
    alive = 0
    for v in members:
        alive |= 1 << v
    degree = {v: (g.neighbors_mask(v) & alive).bit_count() for v in members}
    victims: list[int] = []
    while degree:
        victim = min(degree, key=lambda v: (degree[v], v))
        if degree[victim] > degree_threshold:
            break
        victims.append(victim)
        del degree[victim]
        alive ^= 1 << victim
        row = g.neighbors_mask(victim) & alive
        while row:
            low = row & -row
            degree[low.bit_length() - 1] -= 1
            row ^= low
    return victims


def find_stability_witness(
    g: Graph, r: int, order_threshold: float, degree_threshold: float
) -> tuple[StabilityWitness | None, bool]:
    """Greedy peeling toward an induced r-partite subgraph meeting the
    order and (strict, vs whole-graph n) minimum-degree thresholds.

    Sound but incomplete: (witness, capped).  A None witness means "not
    found", never a refutation; capped=True flags a coloring-cap abort.

    The peel runs on the host's rows: the members left form an
    `_InducedView`, which `is_r_partite` colours and the conflict peel
    reads, and an eviction clears one bit of its alive set, so no induced
    subgraph is built per step.  An eviction that would leave fewer
    members than `order_threshold` is not computed: the search ends
    there, not found.  The graph is coloured once, in the peel loop.  The
    degree peel then only removes vertices, and a proper colouring
    restricted to an induced subgraph stays proper, so the survivors keep
    the loop's colours.  The witness is re-verified independently on its
    one freshly built induced subgraph, which also gives its minimum
    degree.
    """
    if g.n < order_threshold:
        return None, False
    view = _InducedView(g, list(range(g.n)))
    while True:
        res = is_r_partite(view, r)
        if res.status is SearchStatus.BUDGET:
            return None, True
        if res.status is SearchStatus.FOUND:
            break
        if view.n - 1 < order_threshold:
            return None, False
        view.evict(_conflict_peel_order(view, r))
    members = view.members
    evicted = set(_degree_peel_order(g, members, degree_threshold))
    kept = [i for i, v in enumerate(members) if v not in evicted]
    if not kept or len(kept) < order_threshold:
        return None, False
    vertices = tuple(members[i] for i in kept)
    coloring = tuple(res.coloring[i] for i in kept)
    sub = g.induced_subgraph(vertices)
    _verify_coloring(sub, coloring, r)
    return StabilityWitness(vertices, coloring, sub.min_degree()), False


def _verify_coloring(g: Graph, coloring: Sequence[int], r: int) -> None:
    """Every colour must lie in 0..r-1, else the first vertex out of range
    is named, and every vertex's row must miss its own color class; only
    a failure walks the edges, to name the least monochromatic one."""
    for v, c in enumerate(coloring):
        if not 0 <= c < r:
            raise AssertionError(f"vertex {v} has colour {c} outside 0..{r - 1}")
    classes: dict[int, int] = {}
    for v, c in enumerate(coloring):
        classes[c] = classes.get(c, 0) | (1 << v)
    if not any(g.neighbors_mask(v) & classes[coloring[v]] for v in range(g.n)):
        return
    for u, v in g.edges():
        if coloring[u] == coloring[v]:
            raise AssertionError(f"coloring not proper on edge ({u},{v})")


def _stability_threshold(g: Graph, r: int, b: float) -> Fraction:
    """(1 - 1/r - b) n, the spectral threshold of the stability theorems."""
    return (1 - Fraction(1, r) - Fraction(b)) * g.n


def check_stability(
    g: Graph,
    r: int,
    b: float,
    which: TheoremId = TheoremId.T1_2,
    tol: float = DEFAULT_TOL,
    budget: int = DEFAULT_BUDGET,
    c: float | None = None,
    order_coeff: float = 4.0,
    degree_coeff: float = 7.0,
) -> TheoremVerdict:
    """Stability theorems: mu(G) > (1-1/r-b)n forces branch (a) (a large
    joint or K_r^+) or branch (b) (a large induced r-partite subgraph with
    high minimum degree).

    Both branches are always evaluated; the certificate records branch (a)
    when it holds, else branch (b).  Branch (b)'s finder is incomplete, so
    its failure alone never yields conclusion NO.  order_coeff/degree_coeff
    expose the (4, 7) constants; (3, 6) reproduces the weaker companion
    statement whose printed form mixes b and c.
    """
    a = _analysis(g)
    if which not in (TheoremId.T1_2, TheoremId.T2_2, TheoremId.T3_2):
        raise ValueError(f"not a stability theorem: {which}")
    if r < 2:
        raise ValueError("r must be at least 2")
    if b < 0:
        raise ValueError(f"stability slack b must be at least 0, got {b}")
    g = a.g
    n = g.n
    threshold = _stability_threshold(g, r, b)
    cmp = a.threshold(threshold, tol)
    params_obj = TheoremParams(r=r, n=n, c=c, b=b)

    cbrt = b ** (1.0 / 3.0)
    order_threshold = (1.0 - order_coeff * cbrt) * n
    degree_threshold = (1.0 - 1.0 / r - degree_coeff * cbrt) * n

    # Branch (a)
    vacuous = False
    a_cert: dict | None = None
    a_lhs = a_rhs = None
    if which is TheoremId.T1_2:
        report = a.joint(r + 1)
        bound = Fraction(n ** (r - 1), r ** (2 * r + 5))
        a_state = TriState.YES if Fraction(report.size) > bound else TriState.NO
        a_lhs, a_rhs = str(report.size), str(bound)
        if a_state is TriState.YES and report.witness_edge is not None:
            a_cert = _joint_certificate(g, r, report)
    else:
        if c is None:
            c = default_theorem3_c(r) / 2.0
            params_obj = TheoremParams(r=r, n=n, c=c, b=b)
        last_exponent = (
            (lambda c: 1.0 - 2.0 * math.sqrt(c)) if which is TheoremId.T2_2 else None
        )
        a_state, a_cert, _, vacuous = _kr_plus_branch(a, r, c, budget, last_exponent)

    # Branch (b)
    witness, capped = a.stability_witness(r, order_threshold, degree_threshold)
    if witness is not None:
        b_state = TriState.YES
        b_cert = {
            "type": "induced_r_partite",
            "vertices": list(witness.vertices),
            "coloring": list(witness.coloring),
            "order": len(witness.vertices),
            "min_degree": witness.min_degree,
        }
    else:
        b_state = TriState.INCONCLUSIVE  # incomplete finder: not-found only
        b_cert = None

    if a_state is TriState.YES:
        conclusion = TriState.YES
        cert = {"branch": "a", **(a_cert or {"type": "vacuous"})}
    elif b_state is TriState.YES:
        conclusion = TriState.YES
        cert = {"branch": "b", **b_cert}
    else:
        conclusion = TriState.INCONCLUSIVE
        cert = None

    in_regime = params_obj.stability_regime()
    if which is TheoremId.T2_2:
        in_regime = in_regime and params_obj.theorem2_regime()
    elif which is TheoremId.T3_2:
        in_regime = in_regime and params_obj.theorem3_regime()

    v = TheoremVerdict(
        which,
        n,
        r,
        {"b": b, "c": c, "tol": tol, "budget": budget,
         "order_coeff": order_coeff, "degree_coeff": degree_coeff},
        _hyp_from(cmp),
        conclusion,
        in_regime=in_regime,
        vacuous=vacuous,
        certificate=cert,
        lhs=a_lhs,
        rhs=a_rhs,
        detail={
            **_spectral_detail(cmp),
            "hypothesis_threshold": float(threshold),
            "branch_a": a_state.value,
            "branch_b": "found" if witness is not None else ("capped" if capped else "not_found"),
            "order_threshold": order_threshold,
            "degree_threshold": degree_threshold,
        },
    )
    return _attach_graph(v, g)


# ---------------------------------------------------------------------------
# Checker table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckSpec:
    """A checker and the run_check parameters it takes after (graph, r), in
    order.  `run_checks` passes graph-taking checkers the graph's
    `_GraphAnalysis` and graph-free ones the order n."""

    checker: Callable[..., TheoremVerdict]
    params: tuple[str, ...]
    needs_c: bool = False
    graph_free: bool = False


_STABILITY = ("b", "which", "tol", "budget", "c")

CHECKS: dict[TheoremId, CheckSpec] = {
    TheoremId.FACT_STT: CheckSpec(check_spectral_turan, ("tol",)),
    TheoremId.T1: CheckSpec(check_theorem1, ("tol",)),
    TheoremId.T2: CheckSpec(check_theorem2, ("c", "tol", "budget"), needs_c=True),
    TheoremId.T3: CheckSpec(check_theorem3, ("tol", "budget", "c")),
    TheoremId.T1_2: CheckSpec(check_stability, _STABILITY),
    TheoremId.T2_2: CheckSpec(check_stability, _STABILITY),
    TheoremId.T3_2: CheckSpec(check_stability, _STABILITY),
    TheoremId.FACT_LENSLMM: CheckSpec(check_fact_lenslmm, ("tol",)),
    TheoremId.FACT_TSIZE: CheckSpec(check_fact_tsize, (), graph_free=True),
    TheoremId.FACT_LEKD: CheckSpec(check_fact_lekd, ()),
    TheoremId.FACT_THV4: CheckSpec(check_fact_thv4, ("c", "budget"), needs_c=True),
    TheoremId.EDGE_IMPLIES_SPECTRAL: CheckSpec(check_edge_implies_spectral, ("tol",)),
    TheoremId.BOOK_REMARK: CheckSpec(check_book_remark, ("tol",)),
}


def run_checks(
    tids: Sequence[TheoremId],
    g: Graph | int,
    r: int,
    *,
    tol: float = DEFAULT_TOL,
    budget: int = DEFAULT_BUDGET,
    c: float | None = None,
    b: float = DEFAULT_B,
) -> list[TheoremVerdict]:
    """The verdicts of the checkers of `tids`, in order, on one graph g (the
    order n for tsize).  They run against one `_GraphAnalysis`, so mu, the
    Turan comparison and its tie settlement, k_r, the least K_{r+1} and
    js_{r+1} are computed at most once for all of them.  c None means each
    checker's default; t2 and thv4 have none and raise before any runs."""
    for tid in tids:
        if CHECKS[tid].needs_c and c is None:
            raise ValueError(f"{tid.label} needs an explicit c")
    analysis = _GraphAnalysis(g)
    given: dict = {"tol": tol, "budget": budget, "c": c, "b": b}
    verdicts = []
    for tid in tids:
        spec = CHECKS[tid]
        given["which"] = tid
        target = g if spec.graph_free else analysis
        verdicts.append(spec.checker(target, r, *(given[p] for p in spec.params)))
    return verdicts


def run_check(
    tid: TheoremId,
    g: Graph | int,
    r: int,
    *,
    tol: float = DEFAULT_TOL,
    budget: int = DEFAULT_BUDGET,
    c: float | None = None,
    b: float = DEFAULT_B,
) -> TheoremVerdict:
    """Run the checker of `tid` on g (the order n for tsize); see `run_checks`."""
    return run_checks((tid,), g, r, tol=tol, budget=budget, c=c, b=b)[0]
