"""Chevalley group orders over finite rings, with enumeration receipts.

Steinberg's order formula gives the count over a prime field; each extra
congruence level multiplies by p**dim.  Every value small enough to scan
is re-derived by exhaustive matrix enumeration.
"""

from commgrowth import (ORACLE_FAMILIES, brute_force_order, check_order_bound,
                        order_fp, order_zm, order_zpk, root_system)

print("=== prime fields ===")
for label in ("A1", "A2", "C2", "G2"):
    rs = root_system(label)
    for p in (2, 3, 5):
        print(f"|{label}(F_{p})| = {order_fp(rs, p)}")

print()
print("=== congruence levels stack cleanly ===")
a1 = root_system("A1")
for k in range(1, 5):
    print(f"|A1(Z/2^{k})| = {order_zpk(a1, 2, k)}")

print()
print("=== enumeration receipts ===")
jobs = [("A1", (2, 3, 4, 5, 7, 8, 9)), ("A2", (2, 3)), ("C2", (2, 3))]
for label, moduli in jobs:
    rs = root_system(label)
    family = ORACLE_FAMILIES[label]
    for m in moduli:
        formula = order_zm(rs, m)
        scanned = brute_force_order(family, m)
        tag = "ok" if formula == scanned else "MISMATCH"
        print(f"{family} mod {m}: formula {formula:>6}  scan {scanned:>6}  {tag}")

print()
print("=== the p**dim ceiling ===")
for label in ("A1", "G2", "F4", "E8"):
    report = check_order_bound(root_system(label), 2)
    digits = len(str(report.lhs))
    print(f"{label}: order has {digits} digits, bound 2^{root_system(label).dimension} "
          f"holds: {report.holds}")
