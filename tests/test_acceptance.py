"""Acceptance gate: every guaranteed behavior at its stated tolerance.

Each test prints one verdict line; run with ``pytest tests/test_acceptance.py
-v -s`` to see them all.  Tolerances and windows are pinned here, not
configurable.
"""

import math
import random
import time

import numpy as np
from ball_oracles import ball_sizes, hnf_matrices

from commgrowth import commgraph as cg
from commgrowth.arith import (EULER_MASCHERONI, check_sandwich_bounds, cn_rank1,
                              growth_series_rank1)
from commgrowth.chevalley import brute_force_order, check_order_bound, order_zm
from commgrowth.commgraph import (RationalCyclic, RationalLattice,
                                  check_transfer_inequality, comm_index,
                                  enumerate_ball, run_metric_checks)
from commgrowth.parahoric import (check_cocharacter_bound, check_two_k_plus_three,
                                  maximal_lattice_bound, per_prime_bound,
                                  upper_bound_profile)
from commgrowth.root_systems import root_system, supported_labels

DESK_LIMIT = 10 ** 6


def _verdict(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")
    assert ok, f"{name} failed: {detail}"


def test_rank1_formula_vs_enumeration_oracle():
    started = time.monotonic()
    coprime_splits = np.zeros(10 ** 4 + 1, dtype=np.int64)
    for a in range(1, 10 ** 4 + 1):
        for prod_ in range(a, 10 ** 4 + 1, a):
            if math.gcd(a, prod_ // a) == 1:
                coprime_splits[prod_] += 1
    formula_ok = all(cn_rank1(n) == int(coprime_splits[n])
                     for n in range(1, 10 ** 4 + 1))

    series = growth_series_rank1(200)
    ball_ok = all(len(enumerate_ball(RationalCyclic(1, 1), n)) == series.C[n - 1]
                  for n in range(1, 201))
    elapsed = time.monotonic() - started
    _verdict("rank1 formula vs coprime-split and ball oracles",
             formula_ok and ball_ok and elapsed < 30,
             f"n<=10^4 exact, balls n<=200 exact, {elapsed:.1f}s < 30s")


def test_sandwich_windows_and_exact_chain(rank1_prefix_upto_million):
    series = growth_series_rank1(DESK_LIMIT)
    report = check_sandwich_bounds(series, 100)
    upper = report.context["upper_ratio_max"]
    lower = report.context["lower_ratio_min"]
    # independent confirmation of the prefix sums used by the comparator
    sums_match = np.array_equal(np.asarray(series.C, dtype=np.int64),
                                rank1_prefix_upto_million)
    _verdict("sandwich envelopes and pointwise chain k <= C_k <= D_k",
             report.holds and sums_match and 0 < upper <= 2 and lower >= 0.5,
             f"chain exact to 10^6, upper ratio {upper:.4f} in (0,2], "
             f"lower ratio {lower:.4f} >= 0.5")


def test_divisor_sum_residual_window(divisor_prefix_upto_million):
    n = np.arange(10 ** 3, DESK_LIMIT + 1, dtype=np.float64)
    sums = divisor_prefix_upto_million[10 ** 3 - 1:].astype(np.float64)
    residual = sums - n * np.log(n) - (2 * EULER_MASCHERONI - 1) * n
    ratio = np.abs(residual) / np.sqrt(n)
    worst = float(ratio.max())
    _verdict("divisor summatory residual within 3*sqrt(n) on [10^3, 10^6]",
             worst <= 3.0, f"max |residual|/sqrt(n) = {worst:.3f}")


def test_metric_geodesic_chain_suite():
    started = time.monotonic()
    reports = run_metric_checks(samples=1000, seed=0)
    elapsed = time.monotonic() - started
    _verdict("metric axioms, geodesics, chains (10^3 samples per family)",
             all(r.holds for r in reports) and elapsed < 60,
             f"{len(reports)} reports all pass, {elapsed:.1f}s < 60s")


def test_transfer_inequality_seeded_cases():
    rng = random.Random(0)
    rels = {step: [np.array(H, dtype=object) for H, m in hnf_matrices(2, 4) if m == step]
            for step in range(1, 5)}
    cases = 0
    all_hold = counted = True
    while cases < 50:
        dim = rng.choice((1, 2))
        if dim == 1:
            A = RationalCyclic(rng.randint(1, 12), rng.randint(1, 12))
        else:
            A = cg._random_lattice(rng)
        # derive B near A so the combined budget c(A,B)*n stays within 64
        step = rng.randint(1, 4)
        if isinstance(A, RationalCyclic):
            B = RationalCyclic(A.a * step, A.b) if rng.random() < 0.5 \
                else RationalCyclic(A.a, A.b * step)
        else:
            rel = rng.choice(rels[step])
            B = RationalLattice(A.dim, A.denom, (rel @ A.basis).tolist())
        c_ab = comm_index(A, B).value
        if c_ab > 32:
            continue
        n = max(1, 64 // c_ab)
        if c_ab * n > 64:
            continue
        cases += 1
        report = check_transfer_inequality(A, B, n)
        if not report.holds:
            all_hold = False
        # both cards are the zeta counts |ball(Z^d, n)| and |ball(Z^d, c*n)|
        C = ball_sizes(A.dim)
        if (report.context["left_card"], report.context["right_card"]) != (C[n], C[c_ab * n]):
            counted = False
    _verdict("ball transfer inequality on 50 seeded commensurable pairs",
             all_hold and counted, "c(A,B)*n <= 64, cards equal to the zeta counts")


def test_order_formulas_equal_brute_force():
    started = time.monotonic()
    jobs = [("A1", "SL2", (2, 3, 4, 5, 7, 8, 9)),
            ("A2", "SL3", (2, 3)),
            ("C2", "Sp4", (2, 3))]
    ok = True
    for label, family, moduli in jobs:
        rs = root_system(label)
        for m in moduli:
            if order_zm(rs, m) != brute_force_order(family, m):
                ok = False
    pinned = (order_zm(root_system("A1"), 2) == 6
              and order_zm(root_system("A1"), 4) == 48
              and order_zm(root_system("A2"), 2) == 168
              and order_zm(root_system("C2"), 2) == 720
              and order_zm(root_system("C2"), 3) == 51840)
    elapsed = time.monotonic() - started
    _verdict("group order formula equals exhaustive enumeration",
             ok and pinned and elapsed < 300,
             f"SL2 mod {{2,3,4,5,7,8,9}}, SL3 mod {{2,3}}, Sp4 mod {{2,3}}, "
             f"{elapsed:.1f}s < 300s")


def test_structural_identities_all_types():
    primes = [p for p in range(2, 101)
              if all(p % q for q in range(2, int(math.isqrt(p)) + 1))]
    ok = True
    for label in supported_labels(max_rank=8):
        rs = root_system(label)
        if rs.num_positive_roots != sum(d - 1 for d in rs.degrees):
            ok = False
        if rs.dimension != 2 * rs.num_positive_roots + rs.rank:
            ok = False
        for p in primes:
            if not check_order_bound(rs, p).holds:
                ok = False
    _verdict("degree/dimension identities and order bound, all 32 types, p <= 100",
             ok, "exact")


def test_counting_bound_suite():
    primes = [p for p in range(2, 51)
              if all(p % q for q in range(2, int(math.isqrt(p)) + 1))]
    rank_le_4 = [lab for lab in supported_labels() if root_system(lab).rank <= 4]
    ok = True
    for label in rank_le_4:
        rs = root_system(label)
        for k in range(0, 6):
            if not check_cocharacter_bound(rs, k).holds:
                ok = False
            for p in primes:
                if not per_prime_bound(rs, p, k).holds:
                    ok = False
    for p in primes:
        for k in range(1, 6):
            if not check_two_k_plus_three(p, k).holds:
                ok = False
    a1 = root_system("A1")
    m_ok = all(maximal_lattice_bound(a1, m) == m ** 9 for m in range(1, 10 ** 4 + 1))
    _verdict("cocharacter, linear-factor, and per-prime bounds; m^9 product law",
             ok and m_ok,
             f"{len(rank_le_4)} types, {len(primes)} primes, k <= 5, m <= 10^4")


def test_profile_evaluator_sanity_stress_on_rank1_data():
    # arithmetic stress only: the integers are not a lattice in a Chevalley
    # group, but s_n(Z) = n gives a known series to dominate
    a1 = root_system("A1")
    series = growth_series_rank1(1000)
    s = list(range(1, 1001))
    ok = all(series.C[n - 1] <= upper_bound_profile(a1, n, s) for n in range(1, 1001))
    _verdict("profile evaluator dominates rank-1 growth (sanity stress, not a "
             "lattice-in-group claim)", ok, "n <= 10^3, exact integers")
