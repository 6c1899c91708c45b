"""Largest adjacency eigenvalue: iterative estimates, exact multipartite
solver, and certified comparisons; no other module estimates or compares mu.

The estimator is power iteration on A + I (the shift defeats the +/-mu
oscillation of bipartite spectra).  `spectral_radius` runs it on every
connected component, so each run has a simple dominant eigenvalue, and
reports the max; `spectral_radii` runs it on many whole graphs of one order
at once and hands the unconverged ones to `spectral_radius`.  Both loops
stop by `_converged`.  For complete multipartite graphs the nontrivial
eigenvalues solve sum_i s_i/(lam + s_i) = 1, which is strictly decreasing
in lam, so the largest eigenvalue comes out of a bisection with no
linear-algebra dependency; that solver doubles as an independent oracle
for the power iteration.

Every comparison goes through `interval_flags`: the estimate is widened by
its residual, the reference by a tolerance, and overlapping intervals yield
INCONCLUSIVE rather than a silent float decision.  A sympy-backed exact
algebraic comparison settles the genuine ties an exhaustive scan produces.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

import numpy as np

from .graph import Graph, PartSpec, turan_part_sizes

DEFAULT_TOL = 1e-10
EXACT_SOLVER_TOL = 1e-12
_BATCH_CHUNK = 1 << 16  # graphs per batched power-iteration pass


def default_max_iter(n: int) -> int:
    return 100 * n + 1000


def _converged(rho, rho_prev, res, tol):
    """The stopping rule of both power iterations, for floats or arrays:
    the Rayleigh quotient moved by less than tol and the residual is at
    most 10 tol."""
    return (abs(rho - rho_prev) < tol) & (res <= 10.0 * tol)


@dataclass(frozen=True)
class SpectralEstimate:
    """Estimate of mu(G) with convergence evidence.

    `residual` is the infinity norm of A x - value * x for the final unit
    iterate x of the winning component.
    """

    value: float
    residual: float
    iterations: int
    converged: bool


class Verdict(Enum):
    GREATER = "greater"
    NOT_GREATER = "not_greater"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class SpectralComparison:
    mu_g: SpectralEstimate
    mu_turan: float
    verdict: Verdict


def _component_power_iteration(
    a_sub: np.ndarray, tol: float, max_iter: int
) -> tuple[float, float, int, bool]:
    """Power iteration on (A+I) restricted to one component.

    Returns (rho, residual, iterations, converged) where rho is the final
    Rayleigh quotient of A + I.
    """
    k = a_sub.shape[0]
    x = np.full(k, 1.0 / math.sqrt(k))
    rho_prev = math.inf
    rho = 1.0
    res = 0.0
    iters = 0
    converged = False
    while iters < max_iter:
        y = a_sub @ x + x
        rho = float(x @ y)
        res = float(np.max(np.abs(y - rho * x)))
        iters += 1
        if _converged(rho, rho_prev, res, tol):
            converged = True
            break
        rho_prev = rho
        x = y / np.linalg.norm(y)
    return rho, res, iters, converged


def spectral_radius(
    g: Graph, tol: float = DEFAULT_TOL, max_iter: int | None = None
) -> SpectralEstimate:
    """mu(G) by per-component power iteration on A + I.

    Non-convergence within `max_iter` is reported via converged=False,
    never raised.  mu of the empty-vertex graph is 0 by convention.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter is None:
        max_iter = default_max_iter(g.n)
    if g.n == 0:
        return SpectralEstimate(0.0, 0.0, 0, True)
    a_full = g.to_numpy()
    best_rho = -math.inf
    best_res = 0.0
    total_iters = 0
    all_converged = True
    for comp in g.components():
        if len(comp) == 1:
            rho, res, iters, conv = 1.0, 0.0, 0, True
        else:
            a_sub = a_full[np.ix_(comp, comp)]
            rho, res, iters, conv = _component_power_iteration(a_sub, tol, max_iter)
        total_iters += iters
        all_converged = all_converged and conv
        if rho > best_rho:
            best_rho = rho
            best_res = res
    return SpectralEstimate(best_rho - 1.0, best_res, total_iters, all_converged)


def spectral_radii(
    graphs: Sequence[Graph], tol: float = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """mu of graphs of one order n >= 1: (value, residual, converged) arrays.

    Batched power iteration on A + I over whole graphs, with the stopping
    rule and iteration cap of `spectral_radius`.  A graph left unconverged
    (on the full matrix two components can share the dominant eigenvalue)
    gets the entries of its `spectral_radius` estimate instead.
    """
    n = graphs[0].n if graphs else 0
    if n == 0 or any(g.n != n for g in graphs):
        raise ValueError("spectral_radii needs graphs of one order n >= 1")
    total = len(graphs)
    nbytes = (n + 7) // 8
    buf = b"".join(row.to_bytes(nbytes, "little") for g in graphs for row in g._adj)
    stack = np.unpackbits(
        np.frombuffer(buf, dtype=np.uint8).reshape(total, n, nbytes),
        axis=2,
        bitorder="little",
    )[:, :, :n]
    value, resid = np.ones(total), np.zeros(total)
    conv = np.zeros(total, dtype=bool)
    for lo in range(0, total, _BATCH_CHUNK):
        a = stack[lo : lo + _BATCH_CHUNK].astype(np.float64)
        B = a.shape[0]
        val, res, done = value[lo : lo + B], resid[lo : lo + B], conv[lo : lo + B]
        x = np.full((B, n), 1.0 / math.sqrt(n))
        rho_prev = np.full(B, np.inf)
        active = np.arange(B)
        for _ in range(default_max_iter(n)):
            xa = x[active]
            y = np.einsum("bij,bj->bi", a[active], xa) + xa
            rho = np.einsum("bi,bi->b", xa, y)
            r_now = np.max(np.abs(y - rho[:, None] * xa), axis=1)
            val[active] = rho
            res[active] = r_now
            finished = _converged(rho, rho_prev[active], r_now, tol)
            done[active[finished]] = True
            norms = np.linalg.norm(y, axis=1)
            x[active] = y / norms[:, None]
            rho_prev[active] = rho
            active = active[~finished]
            if active.size == 0:
                break
        val -= 1.0
    for c in np.flatnonzero(~conv):
        est = spectral_radius(graphs[c], tol)
        value[c], resid[c], conv[c] = est.value, est.residual, est.converged
    return value, resid, conv


def _grouped_sizes(sizes: Sequence[int]) -> list[tuple[int, int]]:
    positive = [s for s in sizes if s > 0]
    return sorted(Counter(positive).items())


def multipartite_mu_exact(
    spec: PartSpec | Sequence[int], tol: float = EXACT_SOLVER_TOL
) -> float:
    """Largest eigenvalue of K(s_1, ..., s_r) via bisection.

    Solves sum_i s_i/(lam + s_i) = 1; equal part sizes are grouped so very
    wide specs cost two terms per evaluation.  Zero-size parts are ignored
    (they arise from Turan partitions with n < r).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    sizes = spec.sizes if isinstance(spec, PartSpec) else tuple(spec)
    if len(sizes) == 0:
        raise ValueError("need at least one part")
    groups = _grouped_sizes(sizes)
    r = sum(cnt for _, cnt in groups)
    if r <= 1:
        return 0.0  # single part: no cross edges
    n = sum(s * cnt for s, cnt in groups)

    def f(lam: float) -> float:
        return sum(cnt * s / (lam + s) for s, cnt in groups) - 1.0

    lo = max(0.0, (1.0 - 1.0 / r) * n - 1.0)
    # The (1-1/r)n - 1 bracket is only guaranteed for near-balanced parts;
    # fall back to 0 (where f = r-1 > 0) when it overshoots the root.
    if f(lo) < 0.0:
        lo = 0.0
    hi = float(n)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def turan_mu_exact(n: int, r: int, tol: float = EXACT_SOLVER_TOL) -> float:
    """mu(T_r(n)); 0 for n <= 1."""
    if n == 0:
        return 0.0
    return multipartite_mu_exact(turan_part_sizes(n, r), tol)


def multipartite_mu_at_least(sizes: Sequence[int], x: Fraction) -> bool:
    """Exact test mu(K(sizes)) >= x for rational x >= 0.

    Uses monotonicity of f(lam) = sum s_i/(lam + s_i): mu >= x iff f(x) >= 1.
    """
    if x < 0:
        return True
    groups = _grouped_sizes(sizes)
    if sum(cnt for _, cnt in groups) <= 1:
        return x <= 0
    total = Fraction(0)
    for s, cnt in groups:
        total += Fraction(cnt * s, 1) / (x + s)
    return total >= 1


def interval_flags(value, residual, converged, reference, ref_tol):
    """The interval rule of every certified comparison of mu with a
    reference: (greater, not_greater).

    mu > reference is certified when value - residual exceeds
    reference + ref_tol, and mu < reference when value + residual stays
    below reference - ref_tol; an unconverged estimate certifies neither.
    Takes floats, Fractions (exact) or numpy arrays (elementwise flags).
    """
    greater = converged & (value - residual > reference + ref_tol)
    not_greater = converged & (value + residual < reference - ref_tol)
    return greater, not_greater


def _verdict(greater: bool, not_greater: bool) -> Verdict:
    if greater:
        return Verdict.GREATER
    return Verdict.NOT_GREATER if not_greater else Verdict.INCONCLUSIVE


def compare_mu_to_turan(
    g: Graph, r: int, tol: float = DEFAULT_TOL
) -> SpectralComparison:
    """Certified comparison of mu(G) against mu(T_r(n)), n = |G|.

    GREATER / NOT_GREATER are interval-rigorous; near-ties (including
    G = T_r(n) itself) come back INCONCLUSIVE.
    """
    if r < 2:
        raise ValueError("r must be at least 2")
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    mu_t = turan_mu_exact(g.n, r, tol=min(tol, EXACT_SOLVER_TOL))
    est = spectral_radius(g, tol=tol)
    flags = interval_flags(est.value, est.residual, est.converged, mu_t, tol)
    return SpectralComparison(est, mu_t, _verdict(*flags))


def compare_mu_to_threshold(
    g: Graph, threshold: Fraction, tol: float = DEFAULT_TOL
) -> SpectralComparison:
    """Certified comparison of mu(G) against an exact rational threshold.

    The estimate interval is widened by the residual plus tol, in exact
    rational arithmetic; tol covers the floating-point bias of the Rayleigh
    evaluation itself, which the residual alone does not (an exact tie can
    otherwise round to the wrong side).  Callers working far above
    n ~ 1000 should scale tol up with n^2 * eps.
    """
    est = spectral_radius(g, tol=tol)
    value, residual = Fraction(est.value), Fraction(est.residual)
    flags = interval_flags(value, residual, est.converged, threshold, Fraction(tol))
    return SpectralComparison(est, float(threshold), _verdict(*flags))


def _multipartite_char_poly_expr(sizes: Sequence[int]):
    """prod_i (lam + s_i) - sum_i s_i prod_{j != i} (lam + s_j), in sympy.

    Its largest real root is mu(K(sizes)).
    """
    import sympy

    lam = sympy.Symbol("lam")
    positive = [s for s in sizes if s > 0]
    if len(positive) <= 1:
        return lam, lam
    prod_all = sympy.Integer(1)
    for s in positive:
        prod_all *= lam + s
    total = sympy.Integer(0)
    for i, s in enumerate(positive):
        term = sympy.Integer(s)
        for j, t in enumerate(positive):
            if j != i:
                term *= lam + t
        total += term
    return lam, sympy.expand(prod_all - total)


def _exact_mu(g: Graph):
    """mu(G) as an exact sympy algebraic number: the largest real root of
    the adjacency characteristic polynomial (0 for the empty graph)."""
    import sympy

    if g.n == 0:
        return sympy.Integer(0)
    lam = sympy.Symbol("lam")
    m = sympy.Matrix(g.n, g.n, lambda i, j: 1 if i != j and g.has_edge(i, j) else 0)
    return sympy.Poly(m.charpoly(lam).as_expr(), lam).real_roots()[-1]


def exact_mu_greater_than_rational(g: Graph, threshold: Fraction) -> bool:
    """Exact decision of mu(G) > threshold for rational threshold (sympy)."""
    import sympy

    ref = sympy.Rational(threshold.numerator, threshold.denominator)
    return bool(_exact_mu(g) > ref)


def compare_mu_exact_multipartite(g: Graph, sizes: Sequence[int]) -> Verdict:
    """Exact algebraic decision of mu(G) > mu(K(sizes)); never INCONCLUSIVE.

    Both quantities are algebraic numbers: mu(G) is the largest real root
    of the adjacency characteristic polynomial, the reference the largest
    real root of the multipartite quotient polynomial.  sympy's real-root
    isolation compares them exactly.  Intended for the few near-tie
    instances per scan, not as the bulk path.
    """
    import sympy

    lam, ref_expr = _multipartite_char_poly_expr(sizes)
    mu_ref = sympy.Poly(ref_expr, lam).real_roots()[-1]
    return Verdict.GREATER if _exact_mu(g) > mu_ref else Verdict.NOT_GREATER
