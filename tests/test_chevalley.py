import math
import random

import numpy as np
import pytest

from commgrowth import arith, chevalley
from commgrowth.arith import _box_blocks, prime_sieve
from commgrowth.chevalley import (_SP4_FORM, ORACLE_FAMILIES, _det_mod,
                                  brute_force_order, check_order_bound,
                                  order_fp, order_zm, order_zpk)
from commgrowth.errors import DomainError, ResourceLimitError
from commgrowth.parahoric import count_admissible_cocharacters
from commgrowth.root_systems import root_system

A1 = root_system("A1")
A2 = root_system("A2")
B2 = root_system("B2")
C2 = root_system("C2")


def _full_scan(family, m):
    """brute_force_order as it was before it scanned by the last column: every one of
    the m**(n*n) candidate matrices in numpy blocks, each tested whole."""
    n = {"SL2": 2, "SL3": 3, "Sp4": 4}[family]
    one = 1 % m
    count = 0
    for digits in _box_blocks(m, n * n):
        # rows[a][b] holds entry (a, b) of every candidate in the block
        rows = [list(digits.T[a * n:(a + 1) * n]) for a in range(n)]
        if family == "Sp4":
            # M^T J M is alternating, so test its upper triangle only
            keep = np.ones(len(digits), dtype=bool)
            for i in range(4):
                for j in range(i + 1, 4):
                    pair = (rows[0][i] * rows[3][j] + rows[1][i] * rows[2][j]
                            - rows[2][i] * rows[1][j] - rows[3][i] * rows[0][j])
                    keep &= pair % m == _SP4_FORM[i][j] % m
            rows = [[entry[keep] for entry in row] for row in rows]
        count += int(np.count_nonzero(_det_mod(rows, m) == one))
    return count


#: every case the full scan checks brute_force_order on
FULL_SCAN_CASES = ([("SL2", m) for m in range(1, 21)] + [("SL3", m) for m in range(1, 5)]
                   + [("Sp4", 1), ("Sp4", 2)])


class TestOrderFp:
    @pytest.mark.parametrize("rs,p,expected", [
        (A1, 2, 6), (A2, 2, 168), (C2, 2, 720),
    ])
    def test_examples(self, rs, p, expected):
        assert order_fp(rs, p) == expected

    def test_a1_specialization(self):
        mask = prime_sieve(1000)
        for p in range(2, 1001):
            if mask[p]:
                assert order_fp(A1, p) == p * (p * p - 1)

    def test_rejects_composite(self):
        with pytest.raises(DomainError):
            order_fp(A1, 6)
        with pytest.raises(DomainError):
            order_fp(A1, 1)

    def test_huge_composite_shown_by_size(self):
        # past CPython's 4300-digit int->str limit the message shows the size
        with pytest.raises(DomainError) as caught:
            order_fp(A1, 10 ** 5000)
        assert str(caught.value) == "p must be prime, got about 10^5000"


class TestOrderZpk:
    @pytest.mark.parametrize("p,k,expected", [(2, 1, 6), (2, 2, 48), (3, 2, 648)])
    def test_examples(self, p, k, expected):
        assert order_zpk(A1, p, k) == expected

    def test_filtration_quotients(self):
        for rs in (A1, A2, C2, root_system("G2")):
            step = rs.dimension
            for p in (2, 3, 5):
                for k in range(2, 6):
                    assert order_zpk(rs, p, k) == p ** step * order_zpk(rs, p, k - 1)

    def test_divisibility_invariant(self):
        for k in range(1, 5):
            assert order_zpk(A2, 3, k) % 3 ** ((k - 1) * A2.dimension) == 0

    def test_rejects_bad_k(self):
        with pytest.raises(DomainError):
            order_zpk(A1, 2, 0)

    def test_congruence_power_past_the_output_guard_refused(self):
        with pytest.raises(ResourceLimitError) as caught:
            order_zpk(root_system("E8"), 2, 10 ** 7)
        assert str(caught.value) == ("2 to the power 2479999752 is above the output guard "
                                     "of 100000 decimal digits")
        # p and k are checked before the power is built
        with pytest.raises(DomainError):
            order_zpk(A1, 4, 10 ** 8)
        with pytest.raises(DomainError):
            order_zpk(A1, 2, -10 ** 5000)


class TestOrderZm:
    @pytest.mark.parametrize("m,expected", [(1, 1), (6, 144), (12, 1152)])
    def test_examples(self, m, expected):
        assert order_zm(A1, m) == expected

    def test_multiplicative(self):
        rng = random.Random(17)
        hits = 0
        while hits < 60:
            m, n = rng.randint(1, 40), rng.randint(1, 40)
            if math.gcd(m, n) == 1:
                hits += 1
                assert order_zm(A1, m * n) == order_zm(A1, m) * order_zm(A1, n)


class TestBruteForce:
    @pytest.mark.parametrize("family,m,expected", [
        ("SL2", 2, 6), ("SL2", 4, 48), ("SL3", 4, 43008), ("Sp4", 2, 720),
    ])
    def test_examples(self, family, m, expected):
        assert brute_force_order(family, m) == expected

    @pytest.mark.parametrize("m", [*range(1, 10), 60])
    def test_every_inguard_sl2_modulus(self, m):
        # includes the composite non-prime-power m=6 (CRT path) and
        # m=60 = 4*3*5, three primes through the multiplicative path
        assert brute_force_order("SL2", m) == order_zm(A1, m)

    @pytest.mark.parametrize("family,m", [*(("SL3", m) for m in range(1, 8)),
                                          ("Sp4", 1), ("Sp4", 2), ("Sp4", 3)])
    def test_every_inguard_sl3_and_sp4_modulus(self, family, m):
        # m = 7 and m = 3 are the last moduli under MAX_CANDIDATES
        assert brute_force_order(family, m) == order_zm(A2 if family == "SL3" else C2, m)

    @pytest.mark.parametrize("block", [None, 7])
    def test_equals_the_full_scan(self, monkeypatch, block):
        # partial chunks both ways: at the default block SL2 mod 20 takes its 400 prefixes
        # in product chunks of 163, 163 and 74; a block of 7 leaves a partial last prefix
        # block on most boxes, and takes one prefix per product chunk
        want = [_full_scan(family, m) for family, m in FULL_SCAN_CASES]
        if block:
            monkeypatch.setattr(arith, "_BOX_BLOCK", block)
        assert [brute_force_order(family, m) for family, m in FULL_SCAN_CASES] == want

    @pytest.mark.parametrize("family,n", [("SL2", 2), ("SL3", 3), ("Sp4", 4)])
    def test_int32_exact_at_guard_edge(self, family, n):
        # the largest modulus MAX_CANDIDATES admits, found in Python ints; a form's
        # coefficients are signed cofactors reduced mod m, or omega(c_i, x) = (c_i^T J) x,
        # which is a signed prefix entry as each column of J has one entry +-1; x is in
        # [0, m), so each product with X is a sum of n terms of size <= (m - 1)**2
        m = max(m for m in range(1, 10 ** 4) if m ** (n * n) <= chevalley.MAX_CANDIDATES)
        assert sorted(sorted(map(abs, col)) for col in zip(*_SP4_FORM)) == [[0, 0, 0, 1]] * 4
        assert n * (m - 1) ** 2 == {"SL2": 19602, "SL3": 108, "Sp4": 16}[family] < 2 ** 31
        with pytest.raises(ResourceLimitError):  # and m is the edge
            brute_force_order(family, m + 1)

    def test_trivial_modulus(self):
        assert brute_force_order("SL2", 1) == 1

    def test_small_odd_block_changes_nothing(self, monkeypatch):
        # an odd block leaves a partial last block on these boxes, so a
        # walker that drops it changes a count
        orders = [("SL2", 1), ("SL2", 5), ("SL3", 2), ("Sp4", 2)]
        cutoffs = [(rs, c) for rs in (A2, B2) for c in range(4)]
        want = ([brute_force_order(f, m) for f, m in orders],
                [count_admissible_cocharacters(rs, c) for rs, c in cutoffs])
        monkeypatch.setattr(arith, "_BOX_BLOCK", 7)
        assert ([brute_force_order(f, m) for f, m in orders],
                [count_admissible_cocharacters(rs, c) for rs, c in cutoffs]) == want

    def test_guard(self, monkeypatch):
        with pytest.raises(ResourceLimitError):
            brute_force_order("SL3", 30)
        # the guard is read when the scan is asked for
        monkeypatch.setattr(chevalley, "MAX_CANDIDATES", 1000)
        with pytest.raises(ResourceLimitError):
            brute_force_order("SL2", 9)

    def test_guard_message_shows_huge_counts_by_size(self, monkeypatch):
        # up to 18 digits a number is printed in full, past that by its size
        with pytest.raises(ResourceLimitError) as caught:
            brute_force_order("SL2", 31622)
        assert str(caught.value) == ("SL2 mod 31622 needs 999901770412381456 candidates, "
                                     "guard is 100000000")
        with pytest.raises(ResourceLimitError) as caught:
            brute_force_order("SL2", 31623)
        assert "needs about 10^18 candidates" in str(caught.value)
        monkeypatch.setattr(chevalley, "MAX_CANDIDATES", 10 ** 30)
        with pytest.raises(ResourceLimitError) as caught:
            brute_force_order("SL2", 2 ** 3600)
        assert str(caught.value) == ("SL2 mod about 10^1084 needs about 10^4335 candidates, "
                                     "guard is about 10^30")
        # a candidate count past the output guard is not built
        with pytest.raises(ResourceLimitError) as caught:
            brute_force_order("SL2", 2 ** 90000)
        assert str(caught.value).startswith("about 10^27093 to the power 4 is above")

    def test_unknown_family(self):
        with pytest.raises(DomainError):
            brute_force_order("SO5", 2)

    @pytest.mark.parametrize("family", [["SL2"], {}])
    def test_unhashable_family(self, family):
        # refused by the family check, not by the dict lookup it guards
        with pytest.raises(DomainError) as caught:
            brute_force_order(family, 2)
        assert str(caught.value) == (f"unsupported family {family!r}; "
                                     "choose from ['SL2', 'SL3', 'Sp4']")

    def test_oracle_families_map_to_supported_types(self):
        assert ORACLE_FAMILIES == {"A1": "SL2", "A2": "SL3", "B2": "Sp4", "C2": "Sp4"}


class TestOrderBound:
    @pytest.mark.parametrize("rs,p,lhs,rhs", [
        (A1, 2, 6, 8), (A1, 3, 24, 27),
    ])
    def test_examples(self, rs, p, lhs, rhs):
        report = check_order_bound(rs, p)
        assert report.holds and report.lhs == lhs and report.rhs == rhs

    def test_g2(self):
        report = check_order_bound(root_system("G2"), 2)
        assert report.holds and report.rhs == 2 ** 14

    def test_big_type_arbitrary_precision(self):
        # E8 at p=3 has hundreds of digits; must stay exact
        e8 = root_system("E8")
        value = order_fp(e8, 3)
        assert value % 3 ** 120 == 0
        assert check_order_bound(e8, 3).holds
