"""Largest adjacency eigenvalue: iterative estimates, exact roots, and
certified comparisons; no other module estimates or compares mu.

The estimator is power iteration on A + I (the shift defeats the +/-mu
oscillation of bipartite spectra), run on the twin quotient: with the
graph's stored classes, sizes s_i, and Q the graph of their least members, the
partition is equitable, so mu is the spectral radius of the k x k matrix
D^{1/2} Q D^{1/2}, D = diag(s) (Brouwer & Haemers, Spectra of Graphs,
§2.3), and T_r(n)+e, with r + 2 classes at any n, costs k x k steps
instead of n x n.  A twin-free graph takes the same path with D = I,
whose scaling is exact, so its arithmetic is that of the plain iteration
on A.  A run still unconverged after `_SHIFT_STEP` steps goes on from its
iterate on A + sI with s = max(1, m/k) for m edges on k vertices
(`_shift_by_density`).  On bipartite-like hosts
such as T_2(n)+e the ratio |lambda_min + 1| / (mu + 1) is about 1 - 4/n, so
A + I alone needs about 2.5n steps; shifted, T_2(n)+e converges in about
110 steps at any n.  Graphs that converge within the first phase keep the
unshifted bits.  `spectral_radius` runs the iteration on every connected
component, so each run has a simple dominant eigenvalue, and reports the
max; `spectral_radii` runs it on a stack of whole adjacency matrices of
one order at once.  It hands to `spectral_radius` a disconnected graph
still running at `_SHIFT_STEP`, whose components with close mu separate
slowly on the whole matrix (at n = 7 that ends the batch at step 100
instead of 333), and any graph unconverged at the cap.
Both loops stop by `_converged`.  The per-component loop computes the
residual only on a step whose Rayleigh quotient moved by less than tol,
or on the step at `max_iter`: those are the only steps where
`_converged` can read it, and the one step whose residual is returned.
The batched loop computes it for every graph on every step.  For
complete multipartite graphs the nontrivial eigenvalues solve
sum_i s_i/(lam + s_i) = 1, which is strictly decreasing in lam, so the
largest eigenvalue comes out of a bisection with no linear-algebra
dependency; that solver doubles as an independent oracle for the power
iteration.

Every comparison goes through `interval_flags`: the estimate is widened by
its residual, the reference by a tolerance, and overlapping intervals never
yield a silent float decision.  An interval left open (a genuine tie such
as G = T_r(n) itself, or an unconverged estimate) is settled exactly on the
same twin quotient: with integer B[i][j] = |row(class i) ∩ class j| =
s_j Q[i][j], the equitable partition makes mu(G) the largest real root of
B's characteristic polynomial p (Godsil & Royle, Algebraic Graph Theory,
§9.3).  The exact path is integer arithmetic only: `_char_poly` gives p's
integer coefficients, and one Sturm-Tarski count decides mu(G) > theta
(`_mu_exceeds`): some root of p above -1/2 has h > 0, for an integer
polynomial h with the sign of x - theta there.  Against a rational
num/den, h = den x - num; against mu(K(s_1, ..., s_r)), h is K's secular
polynomial (`_secular`).  The count reads two signed remainder sequences
of primitive integer pseudo-remainders (Knuth, TAOCP vol. 2, §4.6.1) and
holds whether or not p is square-free, so no root is isolated, bracketed
or divided out.  The polynomial is k x k for k twin classes, so the exact
path serves only k <= `EXACT_MAX_CLASSES`; above it an open interval
stays INCONCLUSIVE.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .graph import Graph, PartSpec, turan_part_sizes

DEFAULT_TOL = 1e-10
EXACT_SOLVER_TOL = 1e-12
_SHIFT_STEP = 100  # power-iteration steps on A + I before a slow run is shifted
# Most twin classes the exact path serves: one exact decision takes about
# 0.055 s at k = 32 and 0.15 s at k = 40 (random twin-free
# G(k, e(T_3(k)) + 1), min of 5, 2-vCPU VM), nearly all of it the k x k
# characteristic polynomial.
EXACT_MAX_CLASSES = 32


def _checked_tol(tol: float) -> float:
    """tol itself when it is positive and finite; a ValueError otherwise
    (an infinite or NaN tol would pass every stopping test or none)."""
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    return tol


def default_max_iter(n: int) -> int:
    return 100 * n + 1000


def _converged(rho, rho_prev, res, tol):
    """The stopping rule of both power iterations, for floats or arrays:
    the Rayleigh quotient moved by less than tol and the residual is at
    most 10 tol."""
    return (abs(rho - rho_prev) < tol) & (res <= 10.0 * tol)


def _shift_by_density(a: np.ndarray, two_m, order: float) -> np.ndarray:
    """The shift rule of both power iterations, applied at step
    `_SHIFT_STEP`: A + I becomes A + sI with s = max(1, m/k).

    The average degree 2m/k is at most mu (Collatz-Sinogowitz), so
    s <= mu/2 and mu + s stays dominant, while |lambda_min + s| / (mu + s)
    drops to about 1/3 on T_2(n)+e (shifted power method: Wilkinson, The
    Algebraic Eigenvalue Problem, §9).  `a` is one iteration matrix or a
    stack of them, with zero diagonals, for graphs of `order` k vertices
    and `two_m` = 2m edge ends each; s - 1 is added to every diagonal entry
    in place, so each loop's step a @ x + x now computes (A + sI) x.
    Returns s - 1 per matrix: the caller adds it to its shift and to its
    previous Rayleigh quotient, so the jump is not read as convergence.
    """
    raise_by = np.maximum(1.0, two_m / (2 * order)) - 1.0
    diagonal = np.einsum("...ii->...i", a)
    diagonal += raise_by[..., None]
    return raise_by


@dataclass(frozen=True)
class SpectralEstimate:
    """Estimate of mu(G) with convergence evidence.

    `residual` is the infinity norm of A x - value * x for the final unit
    iterate x of the winning component.  From `spectral_radius` that
    iterate is the lift of the twin-quotient iterate z (x_v = z_i /
    sqrt(s_i) on class i), and the residual is computed on the quotient,
    without forming A.
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
    exact: bool = False  # the interval left it open; the exact roots settled it


def _component_power_iteration(
    a: np.ndarray, sizes: np.ndarray, tol: float, max_iter: int
) -> tuple[float, float, int, bool, np.ndarray]:
    """Power iteration on one component of the twin quotient, on A + I and
    then, if still unconverged, on A + sI.

    `a` is the 0/1 class graph Q of the component and `sizes` its class
    sizes s_i.  When every s_i is 1 (Q = A), multiplying and dividing by
    sqrt(s_i) = 1 is exact, so the run is the plain one on A.  `a` is
    scaled in place to M = D^{1/2} Q D^{1/2}, D = diag(s), whose spectrum
    holds mu of the component's graph.  A unit iterate z of M lifts to the
    unit vector x_v = z_i / sqrt(s_i) on the vertices v of class i, with
    the same Rayleigh quotient, so the residual reported is
    max_i |(M z - rho z)_i| / sqrt(s_i), the infinity norm of
    (A + sI) x - rho x.  The start z = sqrt(s) / sqrt(N) lifts to the
    uniform vector on the component's N vertices.

    Returns (estimate, residual, iterations, converged, z): the final
    Rayleigh quotient minus the shift, that residual, and the unit iterate
    z they were taken at.
    """
    two_m = float(sizes @ a @ sizes)
    order = float(sizes.sum())
    root = np.sqrt(sizes)
    a *= root[:, None]
    a *= root
    x = root / math.sqrt(order)
    rho_prev = math.inf
    shift = 1.0
    rho = 1.0
    res = 0.0
    iters = 0
    converged = False
    while iters < max_iter:
        if iters == _SHIFT_STEP:
            raise_by = float(_shift_by_density(a, two_m, order))
            shift += raise_by
            rho_prev += raise_by
        y = a @ x + x
        rho = float(x @ y)
        iters += 1
        # The residual is read only where the quotient has settled, or at
        # the cap, where it is returned.
        if abs(rho - rho_prev) < tol or iters == max_iter:
            res = float(np.max(np.abs(y - rho * x) / root))
            converged = _converged(rho, rho_prev, res, tol)
            if converged or iters == max_iter:
                break
        rho_prev = rho
        x = y / np.linalg.norm(y)
    return rho - shift, res, iters, converged, x


def _twin_quotient(g: Graph) -> tuple[Graph, list[int]]:
    """(Q, class sizes) of G's stored twin classes, by least member; Q is
    G itself when G is twin-free.  Twins are never adjacent, so Q, the
    graph of the classes' least members, is the 0/1 class graph."""
    classes = g._twin_members()
    if len(classes) == g.n:
        return g, [1] * g.n
    return g.induced_subgraph(list(classes)), [m.bit_count() for m in classes.values()]


def spectral_radius(
    g: Graph, tol: float = DEFAULT_TOL, max_iter: int | None = None
) -> SpectralEstimate:
    """mu(G) by power iteration on each component of the twin quotient
    (see the module docstring).

    Non-convergence within `max_iter` is reported via converged=False,
    never raised.  mu of the empty-vertex graph is 0 by convention.
    """
    _checked_tol(tol)
    if max_iter is None:
        max_iter = default_max_iter(g.n)
    if g.n == 0:
        return SpectralEstimate(0.0, 0.0, 0, True)
    # Q's components are G's, in the same order, except that G's isolated
    # vertices share one singleton class.
    quotient, counts = _twin_quotient(g)
    sizes = np.array(counts, dtype=np.float64)
    q_full = quotient.to_numpy()
    best_value = -math.inf
    best_res = 0.0
    total_iters = 0
    all_converged = True
    for comp in quotient.components():
        if len(comp) == 1:
            value, res, iters, conv = 0.0, 0.0, 0, True
        else:
            q_sub = q_full if len(comp) == quotient.n else q_full[np.ix_(comp, comp)]
            value, res, iters, conv, _ = _component_power_iteration(
                q_sub, sizes[comp], tol, max_iter
            )
        total_iters += iters
        all_converged = all_converged and conv
        if value > best_value:
            best_value = value
            best_res = res
    return SpectralEstimate(best_value, best_res, total_iters, all_converged)


def _connected(a: np.ndarray) -> np.ndarray:
    """Per matrix of a stack of adjacency matrices: is its graph connected?
    Vertex 0's reach, grown n - 1 times by one step along the edges."""
    reach = np.zeros(a.shape[:2], dtype=bool)
    reach[:, 0] = True
    for _ in range(a.shape[1] - 1):
        reach |= np.einsum("bij,bj->bi", a, reach.astype(a.dtype)) > 0
    return reach.all(axis=1)


def spectral_radii(
    stack: np.ndarray, graph_of: Callable[[int], Graph], tol: float = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """mu of graphs of one order n >= 1: (value, residual, converged) arrays.

    `stack` holds their (B, n, n) 0/1 adjacency matrices, and
    `graph_of(i)` builds graph i as a Graph; it is called only for a graph
    handed to `spectral_radius`.  Batched power iteration over whole
    matrices, with the shift rule, the stopping rule and the iteration cap
    of `spectral_radius`.  On the whole matrix of a disconnected graph two
    components with close mu separate slowly, so a disconnected graph
    still unconverged at `_SHIFT_STEP` leaves the batch, and it and any
    graph left unconverged at the cap get the entries of their
    `spectral_radius` estimate, which iterates per component.
    """
    total, n = stack.shape[:2]
    if total == 0 or n == 0:
        raise ValueError("spectral_radii needs graphs of one order n >= 1")
    a = stack.astype(np.float64)
    value, resid = np.ones(total), np.zeros(total)
    conv = np.zeros(total, dtype=bool)
    x = np.full((total, n), 1.0 / math.sqrt(n))
    rho_prev = np.full(total, np.inf)
    shift = np.ones(total)
    active = np.arange(total)
    for step in range(default_max_iter(n)):
        if step == _SHIFT_STEP:
            active = active[_connected(a[active])]
            # Finished graphs' matrices are shifted too but never read again.
            raise_by = _shift_by_density(a, a.sum(axis=(-2, -1)), n)
            rho_prev += raise_by
            shift[active] += raise_by[active]
        xa = x[active]
        y = np.einsum("bij,bj->bi", a[active], xa) + xa
        rho = np.einsum("bi,bi->b", xa, y)
        r_now = np.max(np.abs(y - rho[:, None] * xa), axis=1)
        value[active] = rho
        resid[active] = r_now
        finished = _converged(rho, rho_prev[active], r_now, tol)
        conv[active[finished]] = True
        norms = np.linalg.norm(y, axis=1)
        x[active] = y / norms[:, None]
        rho_prev[active] = rho
        active = active[~finished]
        if active.size == 0:
            break
    value -= shift
    for c in np.flatnonzero(~conv):
        est = spectral_radius(graph_of(int(c)), tol)
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
    _checked_tol(tol)
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


def _times(a: list[int], b: list[int]) -> list[int]:
    """The product of two integer polynomials (coefficients from the top)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _secular(sizes: Sequence[int]) -> list[int]:
    """The secular polynomial of K(sizes): prod_s (x + s) times
    1 - sum_s c_s s / (x + s), over the distinct positive part sizes s,
    c_s parts each; x when K has at most one part.  On x > -1 the product
    is positive and the second factor strictly increasing, vanishing at
    mu(K), so h_K(x) has the sign of x - mu(K) there."""
    groups = _grouped_sizes(sizes)
    if not groups:
        return [1, 0]
    linear = [[1, s] for s, _ in groups]
    h = functools.reduce(_times, linear)
    for i, (s, cnt) in enumerate(groups):
        rest = functools.reduce(_times, linear[:i] + linear[i + 1 :], [1])
        h = [a - cnt * s * b for a, b in zip(h, [0] + rest)]
    return h


def multipartite_mu_at_least(sizes: Sequence[int], x: Fraction) -> bool:
    """Exact test mu(K(sizes)) >= x for rational x: true for x < 0, and
    otherwise iff K's secular polynomial is <= 0 at x (`_secular`)."""
    return x < 0 or _value_sign(_secular(sizes), Fraction(x)) <= 0


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


def _turan_reference(n: int, r: int, tol: float) -> float:
    """mu(T_r(n)) as the float reference of a certified Turan comparison."""
    if r < 2:
        raise ValueError("r must be at least 2")
    if n < 1:
        raise ValueError("graph must have at least one vertex")
    return turan_mu_exact(n, r, tol=min(tol, EXACT_SOLVER_TOL))


def _certified(
    g: Graph,
    est: SpectralEstimate,
    reference: float | Fraction,
    tol: float,
    exact_greater: Callable[[], bool],
) -> SpectralComparison:
    """The verdict of est, an estimate of mu(G), against a float reference
    or, in exact rational arithmetic, a Fraction one.  An interval left open
    falls through to exact_greater() when G is within the exact path's
    reach, and the comparison is marked exact."""
    value, residual = est.value, est.residual
    if isinstance(reference, Fraction):
        value, residual, tol = Fraction(value), Fraction(residual), Fraction(tol)
    greater, not_greater = interval_flags(value, residual, est.converged, reference, tol)
    if greater or not_greater:
        verdict, exact = Verdict.GREATER if greater else Verdict.NOT_GREATER, False
    elif len(g._twin_members()) <= EXACT_MAX_CLASSES:
        verdict, exact = Verdict.GREATER if exact_greater() else Verdict.NOT_GREATER, True
    else:
        verdict, exact = Verdict.INCONCLUSIVE, False
    return SpectralComparison(est, float(reference), verdict, exact)


def _turan_comparison(
    g: Graph, est: SpectralEstimate, r: int, tol: float
) -> SpectralComparison:
    """`_certified` against mu(T_r(n)), settled by the exact count."""
    return _certified(
        g, est, _turan_reference(g.n, r, tol), tol,
        lambda: compare_mu_exact_multipartite(g, turan_part_sizes(g.n, r))
        is Verdict.GREATER,
    )


def _threshold_comparison(
    g: Graph, est: SpectralEstimate, threshold: Fraction, tol: float
) -> SpectralComparison:
    """`_certified` against a rational threshold, settled by the exact count."""
    return _certified(
        g, est, Fraction(threshold), tol,
        lambda: exact_mu_greater_than_rational(g, threshold),
    )


def compare_mu_to_turan(
    g: Graph, r: int, tol: float = DEFAULT_TOL
) -> SpectralComparison:
    """Certified comparison of mu(G) against mu(T_r(n)), n = |G|.

    GREATER / NOT_GREATER come from the interval when it decides, and
    otherwise (near-ties such as G = T_r(n) itself, or an unconverged
    estimate) from the exact quotient roots, with `exact` set.  Only a host
    with more than `EXACT_MAX_CLASSES` twin classes can come back
    INCONCLUSIVE.
    """
    return _turan_comparison(g, spectral_radius(g, tol=tol), r, tol)


def compare_mu_to_threshold(
    g: Graph, threshold: Fraction, tol: float = DEFAULT_TOL
) -> SpectralComparison:
    """Certified comparison of mu(G) against an exact rational threshold.

    The estimate interval is widened by the residual plus tol, in exact
    rational arithmetic; tol covers the floating-point bias of the Rayleigh
    evaluation itself, which the residual alone does not (an exact tie can
    otherwise round to the wrong side).  Callers working far above
    n ~ 1000 should scale tol up with n^2 * eps.  An interval left open is
    settled exactly, as in `compare_mu_to_turan`, up to the same cap.
    """
    return _threshold_comparison(g, spectral_radius(g, tol=tol), threshold, tol)


def _char_poly(b: list[list[int]]) -> list[int]:
    """Integer coefficients c_0 = 1, c_1, ..., c_k of det(lam I - b) =
    sum_j c_j lam^(k - j), for a square integer matrix b, by
    Faddeev-LeVerrier: with N_1 = b and N_j = b (N_{j-1} + c_{j-1} I),
    c_j = -tr(N_j) / j, and every division is exact because the c_j are
    integers."""
    k = len(b)
    a = np.array(b, dtype=object).reshape(k, k)
    coeffs = [1]
    n_j = a.copy()
    for j in range(1, k + 1):
        if j > 1:
            n_j = a @ n_j
        c = -sum(n_j.diagonal()) // j
        coeffs.append(c)
        n_j.flat[:: k + 1] += c
    return coeffs


def _primitive(p: list[int]) -> list[int]:
    """p divided by the gcd of its coefficients; the sign is kept."""
    g = math.gcd(*p)
    return [c // g for c in p] if g > 1 else p


def _strip(p: list[int]) -> list[int]:
    i = 0
    while i < len(p) - 1 and p[i] == 0:
        i += 1
    return p[i:]


def _positive_prem(a: list[int], b: list[int]) -> list[int]:
    """A positive multiple of the remainder of a by b (deg b >= 1): each
    step scales by |lc(b)|, not lc(b), so the remainder keeps the sign
    the variation counts need (pseudo-division, Knuth, TAOCP vol. 2,
    §4.6.1, with its factor lc(b)^(deg a - deg b + 1) made positive).
    When deg a < deg b the remainder is a itself."""
    lead, tail = abs(b[0]), b[1:]
    sign = 1 if b[0] > 0 else -1
    r = list(a)
    while len(r) >= len(b):
        c = r[0] * sign
        r = [lead * x for x in r[1:]]
        for i, y in enumerate(tail):
            r[i] -= c * y
        r = _strip(r)
        if len(r) == 1 and r[0] == 0:
            break
    return r


def _remainders(p: list[int], q: list[int]) -> list[list[int]]:
    """The signed remainder sequence p, q, -rem(p, q), ... of nonzero
    integer polynomials, as primitive integer polynomials, each a positive
    multiple of the classical term; deg q may exceed deg p."""
    chain = [_primitive(p), _primitive(q)]
    while len(chain[-1]) > 1:
        r = _positive_prem(chain[-2], chain[-1])
        if r == [0]:
            break
        chain.append(_primitive([-c for c in r]))
    return chain


def _value_sign(p: list[int], t: Fraction) -> int:
    """The sign of p(t), from the integer den^deg(p) p(num/den)."""
    num, den = t.numerator, t.denominator
    v, scale = p[0], 1
    for c in p[1:]:
        scale *= den
        v = v * num + c * scale
    return (v > 0) - (v < 0)


def _variations(chain: list[list[int]], t: Fraction | None) -> int:
    """Sign changes along the chain at t, zeros skipped; t = None is +oo."""
    signs = [
        s
        for s in (
            ((p[0] > 0) - (p[0] < 0)) if t is None else _value_sign(p, t)
            for p in chain
        )
        if s
    ]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def _mu_quotient(g: Graph) -> list[list[int]]:
    """G's integer twin quotient B[i][j] = s_j Q[i][j]; mu(G) is the largest
    real root of its characteristic polynomial."""
    quotient, sizes = _twin_quotient(g)
    return [[s * (row >> j & 1) for j, s in enumerate(sizes)] for row in quotient._adj]


def _tarski_count(p: list[int], h: list[int]) -> int:
    """The number of distinct real roots of p above -1/2 at which h > 0,
    for integer polynomials p (of degree >= 1, with no root at -1/2) and
    h != 0: (TaQ(h) + TaQ(h^2)) / 2, where the Tarski query TaQ(q) is the
    drop in sign variations from -1/2 to +oo along the signed remainder
    sequence of (p, p'q) (Sturm-Tarski: Basu, Pollack & Roy, Algorithms in
    Real Algebraic Geometry, Thm 2.58), whether or not p is square-free."""
    dp = [c * (len(p) - 1 - i) for i, c in enumerate(p[:-1])]

    def taq(q: list[int]) -> int:
        chain = _remainders(p, _times(dp, q))
        return _variations(chain, Fraction(-1, 2)) - _variations(chain, None)

    return (taq(h) + taq(_times(h, h))) // 2


def _mu_exceeds(g: Graph, h: list[int]) -> bool:
    """Exact decision of mu(G) > theta, for an integer polynomial h whose
    sign on x > -1/2 is the sign of x - theta.

    mu(G) >= 0 is the largest root of the quotient polynomial p (see the
    module docstring), so mu(G) > theta iff some root of p above -1/2 has
    h > 0 (`_tarski_count`).  p is monic with integer coefficients, so its
    rational roots are integers and -1/2 is never one of them.
    """
    b = _mu_quotient(g)
    p = _char_poly(b) if b else [1, 0]  # mu = 0 for the empty graph
    return _tarski_count(p, h) > 0


def exact_mu_greater_than_rational(g: Graph, threshold: Fraction) -> bool:
    """Exact decision of mu(G) > threshold for rational threshold
    num/den: `_mu_exceeds` with h = den x - num."""
    t = Fraction(threshold)
    return _mu_exceeds(g, [t.denominator, -t.numerator])


def compare_mu_exact_multipartite(g: Graph, sizes: Sequence[int]) -> Verdict:
    """Exact decision of mu(G) > mu(K(sizes)); never INCONCLUSIVE.

    `_mu_exceeds` with h = K's secular polynomial (`_secular`), so a tie
    such as G = T_r(n) against its own part sizes compares NOT_GREATER.
    """
    return Verdict.GREATER if _mu_exceeds(g, _secular(sizes)) else Verdict.NOT_GREATER
