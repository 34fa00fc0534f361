"""Admissible cocharacters and the maximal-lattice counting chain.

At congruence level k the relevant cocharacters pair with every root
inside the cutoff c = k+1.  The exact count, a sum over Weyl orbits (E, F,
G) or of powers in epsilon coordinates (A to D), with no scan, sits far
below the published (2k+3)**dim estimate; multiplying through the
per-prime data gives the global m**(3+2*dim) ceiling on maximal lattices
over a level-m subgroup.
"""

from commgrowth import (check_cocharacter_bound, check_two_k_plus_three,
                        count_admissible_cocharacters, maximal_lattice_bound,
                        per_prime_bound, root_system, upper_bound_profile)

print("=== exact admissible counts vs box bounds ===")
print(f"{'type':>5} {'cutoff':>6} {'exact':>8} {'(2c+1)^l':>9} {'(2c+1)^d':>12}")
for label in ("A1", "A2", "C2", "G2", "F4"):
    rs = root_system(label)
    for c in (1, 2, 3):
        cc = count_admissible_cocharacters(rs, c)
        print(f"{label:>5} {c:>6} {cc.exact:>8} {cc.box_bound:>9} "
              f"{(2 * c + 1) ** rs.dimension:>12}")

print()
print("every type is counted exactly, at every rank and cutoff the guards admit:")
for label, c in (("E7", 2), ("E8", 4), ("F4", 100), ("D12", 5)):
    cc = count_admissible_cocharacters(root_system(label), c)
    print(f"  {label} cutoff {c}: exact={cc.exact}, box bound={cc.box_bound}")

print()
print("=== the inequality ladder at one prime ===")
rs = root_system("C2")
for k in (1, 2, 3):
    lam = check_cocharacter_bound(rs, k)
    lin = check_two_k_plus_three(3, k)
    per = per_prime_bound(rs, 3, k)
    print(f"k={k}: {lam}")
    print(f"      {lin}")
    print(f"      {per}")

print()
print("=== global maximal-lattice ceiling ===")
a1 = root_system("A1")
for m in (2, 6, 30):
    print(f"m={m:>2}: at most {maximal_lattice_bound(a1, m)} maximal lattices "
          f"over the level-{m} congruence subgroup (m^9)")

print()
print("=== assembling an upper profile from subgroup-growth data ===")
print("with s_j = j (the subgroup growth of the integers) the evaluator")
print("dominates the exact rank-1 growth; this is an arithmetic stress of")
print("the formula, not a lattice-in-group statement:")
from commgrowth import growth_series_rank1

series = growth_series_rank1(10)
s = list(range(1, 11))
for n in (1, 2, 5, 10):
    print(f"  n={n:>2}: C_n = {series.C[n - 1]:>3} <= profile "
          f"{upper_bound_profile(a1, n, s)}")
