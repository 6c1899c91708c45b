#!/usr/bin/env python3
"""Walkthrough: building graphs and measuring their largest eigenvalue.

Covers the structured families (Turan, complete multipartite, K_r^+), the
seeded G(n, m) model, the edge-list format, and the two routes to mu(G):
power iteration with a certified residual, and the exact bisection solver
for complete multipartite graphs.
"""

import math

from specturan import (
    compare_mu_to_turan,
    make_complete_multipartite,
    make_kr_plus,
    make_turan,
    multipartite_mu_exact,
    random_gnm,
    spectral_radius,
    turan_part_sizes,
    write_edge_list,
)

print("== Turan graphs ==")
for n, r in [(7, 3), (10, 2), (12, 4)]:
    g = make_turan(n, r)
    print(f"T_{r}({n}): parts {turan_part_sizes(n, r)}, e = {g.edge_count()}")

print()
print("== The edge-list format (round-trippable, lex-sorted) ==")
print(write_edge_list(make_turan(4, 2)), end="")

print()
print("== mu(G): iterative estimate vs exact multipartite solver ==")
for sizes in [(2, 3), (3, 2, 2), (5, 5), (1, 99)]:
    g = make_complete_multipartite(sizes)
    est = spectral_radius(g)
    exact = multipartite_mu_exact(sizes)
    print(
        f"K{sizes}: power iteration {est.value:.12f} "
        f"(residual {est.residual:.1e}, {est.iterations} iters), "
        f"bisection {exact:.12f}"
    )
print(f"sanity: mu(K_2,3) should be sqrt(6) = {math.sqrt(6):.12f}")

print()
print("== K_r^+ adds one edge inside part 1 ==")
g = make_kr_plus((2, 2, 2))
print(f"K_3^+(2,2,2): e = {g.edge_count()} (octahedron has 12), "
      f"extra edge joins vertices 0 and 1")

print()
print("== Certified comparisons against mu(T_r(n)) ==")
base = make_turan(6, 2)
for name, g in [("T_2(6)", base), ("T_2(6)+e", base.with_edge(0, 1))]:
    cmp = compare_mu_to_turan(g, 2)
    print(f"{name}: mu ~ {cmp.mu_g.value:.10f} vs mu(T_2(6)) = {cmp.mu_turan:.10f}"
          f" -> {cmp.verdict.value}{' (settled exactly)' if cmp.exact else ''}")
print("T_2(6) ties itself, so the float interval leaves it open: strict")
print("inequalities are never decided by a raw float comparison, and the tie")
print("is settled by comparing the exact roots of the twin quotients.")

print()
print("== Seeded G(n, m): reproducible by construction ==")
a = random_gnm(20, 95, seed=42)
b = random_gnm(20, 95, seed=42)
print(f"two G(20, 95) draws with seed 42 identical: {a == b}")
