"""Largest adjacency eigenvalue: iterative estimate, exact multipartite
solver, and certified comparisons.

The estimator is power iteration on A + I (the shift defeats the +/-mu
oscillation of bipartite spectra), run separately on every connected
component so each run has a simple dominant eigenvalue; the reported value
is the max over components.  For complete multipartite graphs the
nontrivial eigenvalues solve sum_i s_i/(lam + s_i) = 1, which is strictly
decreasing in lam, so the largest eigenvalue comes out of a bisection with
no linear-algebra dependency; that solver doubles as an independent oracle
for the power iteration.

Comparisons against mu(T_r(n)) are interval-certified: the iterative
estimate is widened by its residual, the exact value by the solver
tolerance, and overlapping intervals yield INCONCLUSIVE rather than a
silent float decision.  A sympy-backed exact algebraic comparison is
available to settle the handful of genuine near-ties an exhaustive scan
produces.
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


def default_max_iter(n: int) -> int:
    return 100 * n + 1000


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
        if abs(rho - rho_prev) < tol and res <= 10.0 * tol:
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


def _classify(
    est: SpectralEstimate, reference: float, ref_tol: float
) -> Verdict:
    if not est.converged:
        return Verdict.INCONCLUSIVE
    lo = est.value - est.residual
    hi = est.value + est.residual
    if lo > reference + ref_tol:
        return Verdict.GREATER
    if hi < reference - ref_tol:
        return Verdict.NOT_GREATER
    return Verdict.INCONCLUSIVE


def compare_mu_to_turan(
    g: Graph,
    r: int,
    tol: float = DEFAULT_TOL,
    max_iter: int | None = None,
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
    est = spectral_radius(g, tol=tol, max_iter=max_iter)
    return SpectralComparison(est, mu_t, _classify(est, mu_t, tol))


def compare_mu_to_threshold(
    g: Graph,
    threshold: Fraction,
    tol: float = DEFAULT_TOL,
    max_iter: int | None = None,
) -> SpectralComparison:
    """Certified comparison of mu(G) against an exact rational threshold.

    The estimate interval is widened by the residual plus tol; tol covers
    the floating-point bias of the Rayleigh evaluation itself, which the
    residual alone does not (an exact tie can otherwise round to the wrong
    side).  Callers working far above n ~ 1000 should scale tol up with
    n^2 * eps.
    """
    est = spectral_radius(g, tol=tol, max_iter=max_iter)
    slack = Fraction(est.residual) + Fraction(tol)
    if not est.converged:
        verdict = Verdict.INCONCLUSIVE
    elif Fraction(est.value) - slack > threshold:
        verdict = Verdict.GREATER
    elif Fraction(est.value) + slack < threshold:
        verdict = Verdict.NOT_GREATER
    else:
        verdict = Verdict.INCONCLUSIVE
    return SpectralComparison(est, float(threshold), verdict)


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
