import math
import time
from decimal import Decimal
from fractions import Fraction
from itertools import count, product

import numpy as np
import pytest

from commgrowth import parahoric
from commgrowth.arith import MAX_OUTPUT_DIGITS, _box_blocks
from commgrowth.cli import main
from commgrowth.errors import DomainError, ResourceLimitError
from commgrowth.parahoric import (CocharacterCount, _epsilon_count, _orbit_count,
                                  check_cocharacter_bound, check_two_k_plus_three,
                                  count_admissible_cocharacters, maximal_lattice_bound,
                                  per_prime_bound, upper_bound_profile)
from commgrowth.root_systems import MAX_RANK, root_system, supported_labels

A1 = root_system("A1")
A2 = root_system("A2")
A48 = root_system("A48")
F4 = root_system("F4")

RANK_LE_4 = [lab for lab in supported_labels() if root_system(lab).rank <= 4]


def scan_oracle(rs, c):
    """Independent pure-python scan, roots visited in reverse order."""
    count = 0
    for a in product(range(-c, c + 1), repeat=rs.rank):
        if all(abs(sum(x * y for x, y in zip(a, r))) <= c
               for r in reversed(rs.positive_roots)):
            count += 1
    return count


def peeled_count(rs, c):
    """Numpy scan of the (2c+1)**(rank-1) coefficient prefixes: roots of last
    coefficient n whose prefix pairings span [lo, hi] admit
    ceil((-c-lo)/n) <= x <= floor((c-hi)/n) for the last coefficient x if
    n > 0, and keep or drop the prefix if n == 0."""
    roots = np.asarray(rs.positive_roots, dtype=np.int64)
    groups = [(n, roots[roots[:, -1] == n, :-1].T) for n in np.unique(roots[:, -1])]
    count = 0
    for digits in _box_blocks(2 * c + 1, rs.rank - 1):
        kept, least, most = True, -c, c
        for n, head in groups:
            pairings = (digits - c) @ head
            lo, hi = pairings.min(axis=1), pairings.max(axis=1)
            if n:
                least = np.maximum(least, -((c + lo) // n))
                most = np.minimum(most, (c - hi) // n)
            else:
                kept = (lo >= -c) & (hi <= c)
        count += int((np.maximum(most - least + 1, 0) * kept).sum())
    return count


# the peeled oracle runs wherever a box scan, (2c+1)**rank points times the
# positive roots, is at most this many pairings: 990 (label, c) points up
# to rank 8, E8 to cutoff 2, in about 2.5 s
ORACLE_PAIRINGS = 5 * 10 ** 7


class TestCount:
    def test_a1_closed_form(self):
        for c in range(0, 20):
            assert count_admissible_cocharacters(A1, c).exact == 2 * c + 1

    def test_a2_at_zero(self):
        assert count_admissible_cocharacters(A2, 0).exact == 1

    def test_exact_above_box_bound_refused(self):
        with pytest.raises(DomainError, match="^exact count cannot exceed the box bound$"):
            CocharacterCount("A1", 1, 10, 9)

    def test_a2_at_two(self):
        # frozen from the scan oracle
        cc = count_admissible_cocharacters(A2, 2)
        assert cc.exact == 19
        assert cc.exact == scan_oracle(A2, 2)

    @pytest.mark.parametrize("label", supported_labels())
    def test_matches_independent_scan(self, label):
        rs = root_system(label)
        top = 4 if rs.rank <= 3 else 3 if rs.rank == 4 else 1
        for c in range(0, top + 1):
            assert count_admissible_cocharacters(rs, c).exact == scan_oracle(rs, c)

    @pytest.mark.parametrize("label, c, exact", [("E6", 3, 6085), ("E7", 2, 1571),
                                                 ("E7", 3, 14731), ("E8", 2, 2401),
                                                 ("E8", 3, 26401)])
    def test_exceptional_pins(self, label, c, exact):
        # E6 and E8 agree with the benchmark's independent peeling count, and
        # E7 and E8 at cutoff 3 with a full scan of the coefficient box
        assert count_admissible_cocharacters(root_system(label), c).exact == exact

    @pytest.mark.parametrize("label, c, exact", [("F4", 40, 2691361), ("F4", 100, 102020401),
                                                 ("E8", 4, 188641)])
    def test_past_a_box_scan_counts_at_once(self, label, c, exact):
        # a box scan of F4 at cutoff 40 would pair 81**4 * 24 times, and of
        # E8 at 4 9**8 * 120 times; the count reads no box.  The three values
        # were read off the peeled oracle (0.3, 3.6 and 7.4 s on a 2-core host)
        rs = root_system(label)
        start = time.perf_counter()
        cc = count_admissible_cocharacters(rs, c)
        assert time.perf_counter() - start < 0.1
        assert cc.exact == exact and cc.box_bound == (2 * c + 1) ** rs.rank

    @pytest.mark.parametrize("label", supported_labels(8))
    def test_equals_the_peeled_oracle(self, label):
        rs = root_system(label)
        c = 0
        while c <= parahoric.MAX_CUTOFF and \
                (2 * c + 1) ** rs.rank * rs.num_positive_roots <= ORACLE_PAIRINGS:
            assert count_admissible_cocharacters(rs, c).exact == peeled_count(rs, c)
            c += 1
        assert c >= 3 if rs.rank < 8 else c == 3

    @pytest.mark.parametrize("label", [lab for lab in supported_labels(8) if lab[0] in "ABCD"])
    def test_orbit_sum_equals_epsilon_count(self, label):
        # the Weyl-orbit sum serves E, F and G; it holds for every type
        rs = root_system(label)
        for c in range(12):
            assert _orbit_count(rs, c) == _epsilon_count(label[0], rs.rank, c)

    @pytest.mark.parametrize("c", [0, 1, 2, 99, 100])
    def test_closed_forms_to_max_rank(self, c):
        for l in range(1, MAX_RANK + 1):
            count = count_admissible_cocharacters(root_system(f"A{l}"), c).exact
            assert count == (c + 1) ** (l + 1) - c ** (l + 1)
            if l >= 2:
                count = count_admissible_cocharacters(root_system(f"C{l}"), c).exact
                assert count == (c + 1) ** l + c ** l

    def test_every_label_at_the_cutoff_guard(self):
        # every label up to MAX_RANK answers c = 100, each in under 0.5 s
        systems = [root_system(label) for label in supported_labels(MAX_RANK)]
        started = time.perf_counter()
        for rs in systems:
            start = time.perf_counter()
            cc = count_admissible_cocharacters(rs, parahoric.MAX_CUTOFF)
            assert time.perf_counter() - start < 0.5
            assert type(cc.exact) is int and 0 < cc.exact <= cc.box_bound
        assert time.perf_counter() - started < 2

    @pytest.mark.parametrize("label", RANK_LE_4)
    def test_monotone_and_boxed(self, label):
        rs = root_system(label)
        last = 0
        for c in range(0, 5):
            cc = count_admissible_cocharacters(rs, c)
            assert cc.box_bound == (2 * c + 1) ** rs.rank
            assert cc.exact <= cc.box_bound <= (2 * c + 1) ** rs.dimension
            assert cc.exact >= last
            last = cc.exact

    @pytest.mark.parametrize("label", RANK_LE_4)
    def test_counts_are_odd(self, label):
        # negation symmetry pairs everything except zero
        rs = root_system(label)
        for c in range(0, 4):
            assert count_admissible_cocharacters(rs, c).exact % 2 == 1

    def test_count_at_zero_is_one(self):
        for label in RANK_LE_4:
            assert count_admissible_cocharacters(root_system(label), 0).exact == 1

    def test_high_rank_counts(self):
        # once past a box scan's reach, at today's cutoff guard: A8 and F4
        # at level 3 and 99, as `growth parahoric` shows them
        assert count_admissible_cocharacters(root_system("E6"), 2).exact == 883
        assert count_admissible_cocharacters(root_system("A8"), 4).exact == 1690981
        assert count_admissible_cocharacters(F4, 100).exact == 102020401
        for label in ("A5", "F4"):
            rs = root_system(label)
            assert count_admissible_cocharacters(rs, 1).exact == scan_oracle(rs, 1)

    def test_fields_are_ints(self):
        cc = CocharacterCount("A1", np.int64(1), np.int64(3), np.int64(3))
        assert (cc.cutoff, cc.exact, cc.box_bound) == (1, 3, 3)
        assert {type(cc.cutoff), type(cc.exact), type(cc.box_bound)} == {int}
        with pytest.raises(DomainError, match="^exact must be an integer, got None$"):
            CocharacterCount("A1", 1, None, 3)

    def test_guards(self):
        assert count_admissible_cocharacters(A1, 100).exact == 201
        with pytest.raises(ResourceLimitError) as caught:
            count_admissible_cocharacters(A1, 101)
        assert str(caught.value) == "cutoff 101 exceeds guard 100"
        with pytest.raises(DomainError):
            count_admissible_cocharacters(A1, -1)

    def test_huge_cutoff_shown_by_size(self):
        # past CPython's 4300-digit int->str limit the message shows the size
        with pytest.raises(ResourceLimitError) as caught:
            count_admissible_cocharacters(A1, 10 ** 5000)
        assert str(caught.value) == "cutoff about 10^5000 exceeds guard 100"
        with pytest.raises(DomainError) as caught:
            count_admissible_cocharacters(A1, -10 ** 5000)
        assert str(caught.value) == "cutoff must be >= 0, got about -10^5000"


@pytest.mark.parametrize("call, message", [
    (lambda: count_admissible_cocharacters(F4, 2.5), "cutoff must be an integer, got 2.5"),
    (lambda: check_cocharacter_bound(F4, 1.5), "k must be an integer, got 1.5"),
    (lambda: per_prime_bound(F4, 5, 1.5), "k must be an integer, got 1.5"),
    (lambda: check_two_k_plus_three(5, 1.5), "k must be an integer, got 1.5"),
    (lambda: maximal_lattice_bound(F4, 2.0), "m must be an integer, got 2.0"),
    (lambda: count_admissible_cocharacters(F4, -1), "cutoff must be >= 0, got -1"),
    (lambda: check_cocharacter_bound(F4, -1), "k must be >= 0, got -1"),
    (lambda: per_prime_bound(F4, 5, -1), "k must be >= 0, got -1"),
    (lambda: check_two_k_plus_three(5, 0), "k must be >= 1, got 0"),
    (lambda: maximal_lattice_bound(F4, 0), "m must be >= 1, got 0"),
    (lambda: CocharacterCount("A1", 1, "3", 3), "exact must be an integer, got '3'"),
    (lambda: CocharacterCount("A1", "1", 3, 3), "cutoff must be an integer, got '1'"),
    (lambda: CocharacterCount("A1", 1, None, 2.5), "box_bound must be an integer, got 2.5"),
    (lambda: upper_bound_profile(A1, 1, 5), "s must be iterable, got 5"),
], ids=["cutoff", "level", "per_prime_level", "two_k_plus_three", "modulus",
        "negative_cutoff", "negative_level", "negative_per_prime_level",
        "two_k_plus_three_at_zero", "modulus_at_zero", "count_exact", "count_cutoff",
        "count_box_bound", "growth_data"])
def test_arguments_must_be_ints(call, message):
    # a float or a str is refused like a negative int, and growth data that
    # is no iterable likewise, never run into a traceback or a float report
    with pytest.raises(DomainError) as caught:
        call()
    assert str(caught.value) == message


def test_numpy_integers_are_ints():
    # any operator.index value is an integer argument, converted to int
    # before the guards do arithmetic on it: numpy's F4 p**107 would wrap
    count = count_admissible_cocharacters(A2, np.int64(3))
    assert count == count_admissible_cocharacters(A2, 3) and type(count.cutoff) is int
    assert check_cocharacter_bound(F4, np.int64(1)).lhs == check_cocharacter_bound(F4, 1).lhs
    assert per_prime_bound(F4, 5, np.int64(1)).rhs == 5 ** 107
    assert check_two_k_plus_three(5, np.uint8(2)).rhs == 25
    assert maximal_lattice_bound(F4, np.int64(6)) == 6 ** 107
    with pytest.raises(DomainError) as caught:
        count_admissible_cocharacters(F4, np.int64(-1))
    assert str(caught.value) == "cutoff must be >= 0, got -1"
    with pytest.raises(ResourceLimitError) as caught:
        count_admissible_cocharacters(A1, np.int64(101))
    assert str(caught.value) == "cutoff 101 exceeds guard 100"
    with pytest.raises(DomainError) as caught:
        maximal_lattice_bound(F4, np.float64(2.5))
    assert str(caught.value) == "m must be an integer, got 2.5"
    for flag in ("--k", "--m"):
        argv = ["parahoric", "--type", "F4", "--k", "1", flag, "2.5"]
        with pytest.raises(SystemExit) as caught:
            main(argv)
        assert caught.value.code == 2


class TestCocharacterBound:
    def test_a1_examples(self):
        r1 = check_cocharacter_bound(A1, 1)
        assert r1.holds and r1.lhs == 5 and r1.rhs == 125
        r0 = check_cocharacter_bound(A1, 0)
        assert r0.holds and r0.lhs == 3 and r0.rhs == 27

    def test_a2_level_one(self):
        report = check_cocharacter_bound(A2, 1)
        assert report.holds and report.rhs == 5 ** 8

    def test_context_carries_sharper_bound(self):
        report = check_cocharacter_bound(A2, 1)
        assert report.context["rank_box_bound"] == 5 ** 2

    def test_high_rank_reports(self):
        # level 0 is cutoff 1
        A5 = root_system("A5")
        assert check_cocharacter_bound(A5, 0).lhs == scan_oracle(A5, 1) == 2 ** 6 - 1

    def test_reports_wherever_the_scan_fits(self):
        report = check_cocharacter_bound(root_system("E7"), 1)
        assert report.holds and report.lhs == 1571 and report.rhs == 5 ** 133
        # levels past a box scan's reach report too: level 3 is cutoff 4
        report = check_cocharacter_bound(root_system("E8"), 3)
        assert report.holds and report.lhs == 188641 and report.rhs == 9 ** 248
        report = check_cocharacter_bound(A48, 99)
        assert report.holds and report.lhs == 101 ** 49 - 100 ** 49
        with pytest.raises(ResourceLimitError, match="^cutoff 101 exceeds guard 100$"):
            check_cocharacter_bound(A48, 100)


class TestTwoKPlusThree:
    @pytest.mark.parametrize("p,k,rhs", [(5, 1, 5), (2, 1, 8), (3, 2, 729)])
    def test_examples(self, p, k, rhs):
        report = check_two_k_plus_three(p, k)
        assert report.holds and report.lhs == 2 * k + 3 and report.rhs == rhs

    def test_sharp_boundary(self):
        report = check_two_k_plus_three(5, 1)
        assert report.lhs == report.rhs == 5

    def test_context_names_the_bound_checked(self):
        assert check_two_k_plus_three(5, 2).context == {"p": 5, "k": 2, "sharp_applies": True}
        assert check_two_k_plus_three(3, 2).context == {"p": 3, "k": 2, "sharp_applies": False}

    def test_builds_only_the_power_it_checks(self):
        # for p >= 5 the verdict needs p**k alone: 5**50000 has 34,949 digits,
        # while the crude 5**150000 would be past the output guard
        report = check_two_k_plus_three(5, 50000)
        assert report.holds and report.rhs == 5 ** 50000

    def test_output_guard_boundary_at_five(self):
        # 10^5 / log10(5) = 143067.6...
        assert check_two_k_plus_three(5, 143067).holds
        with pytest.raises(ResourceLimitError) as caught:
            check_two_k_plus_three(5, 143068)
        assert "is above the output guard of 100000 decimal digits" in str(caught.value)

    def test_rejects_k_zero(self):
        with pytest.raises(DomainError):
            check_two_k_plus_three(5, 0)

    def test_rejects_composite(self):
        with pytest.raises(DomainError):
            check_two_k_plus_three(4, 1)


class TestPerPrimeBound:
    def test_value_example(self):
        report = per_prime_bound(A1, 5, 1)
        assert report.lhs == 4 * 5 ** 6 == 62500

    def test_level_zero_single_subgroup(self):
        report = per_prime_bound(A1, 7, 0)
        assert report.holds and report.lhs == 1 and report.rhs == 1

    def test_crude_dominates(self):
        report = per_prime_bound(A1, 2, 1)
        assert report.holds and report.lhs == 256 and report.rhs == 512

    def test_rejects_composite(self):
        with pytest.raises(DomainError):
            per_prime_bound(A1, 9, 1)


@pytest.mark.parametrize("bound", [
    lambda: check_two_k_plus_three(2, 200000),
    lambda: per_prime_bound(A1, 2, 10 ** 5),
    # lhs 2**240000 is admitted, rhs 2**360000 is not
    lambda: per_prime_bound(A1, 2, 40000),
    lambda: maximal_lattice_bound(A1, 10 ** 20000),
], ids=["two_k_plus_three", "per_prime_lhs", "per_prime_rhs", "maximal_lattice"])
def test_power_past_the_output_guard_refused(bound):
    with pytest.raises(ResourceLimitError) as caught:
        bound()
    assert "is above the output guard of 100000 decimal digits" in str(caught.value)


class TestMaximalLatticeBound:
    def test_examples(self):
        assert maximal_lattice_bound(A1, 2) == 512
        assert maximal_lattice_bound(A1, 1) == 1
        assert maximal_lattice_bound(A2, 3) == 3 ** 19

    def test_completely_multiplicative(self):
        for m1 in range(1, 30):
            for m2 in range(1, 10):
                assert maximal_lattice_bound(A1, m1 * m2) == \
                    maximal_lattice_bound(A1, m1) * maximal_lattice_bound(A1, m2)

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            maximal_lattice_bound(A1, 0)


class TestProfile:
    def test_trivial(self):
        assert upper_bound_profile(A1, 1, [1]) == 1

    def test_example(self):
        assert upper_bound_profile(A1, 2, [1, 3]) == (1 + 2 ** 9) * 3 == 1539

    def test_monotone_in_n(self):
        s = list(range(1, 21))
        values = [upper_bound_profile(A1, n, s) for n in range(1, 21)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_fractional_constants_ceil(self):
        s = [1, 2, 3, 4, 5, 6]
        # ceil(3/2 * 3) = 5 on both the sum cutoff and the index
        expected = sum(j ** 9 for j in range(1, 6)) * s[4]
        assert upper_bound_profile(A1, 3, s, Fraction(3, 2), Fraction(3, 2)) == expected

    @pytest.mark.parametrize("s, shown", [(["1", "2"], "'2'"), ([[0]], "[0]"), ([2.5], "2.5")],
                             ids=["str", "list", "float"])
    def test_growth_value_must_be_an_integer(self, s, shown):
        # a str value would be repeated 513 times here, and about 1.6*10^9
        # times at n = 10, so no value but an integer is multiplied
        with pytest.raises(DomainError) as caught:
            upper_bound_profile(A1, len(s), s)
        assert str(caught.value) == f"growth value must be an integer, got {shown}"

    def test_growth_value_is_an_int(self):
        value = upper_bound_profile(A1, 1, [np.int64(3)])
        assert value == 3 and type(value) is int
        with pytest.raises(DomainError, match="^growth value must be >= 0, got -1$"):
            upper_bound_profile(A1, 1, [-1])

    def test_short_data_rejected(self):
        with pytest.raises(DomainError):
            upper_bound_profile(A1, 3, [1, 2])
        with pytest.raises(DomainError, match="need index 3, got 2 values"):
            upper_bound_profile(A1, 3, iter([1, 2]))

    def test_nonpositive_constants_rejected(self):
        with pytest.raises(DomainError):
            upper_bound_profile(A1, 1, [1], c_const=0)

    @pytest.mark.parametrize("value", [float("inf"), float("nan"), "x", None, "1e3000000",
                                       Decimal("1e3000000")])
    def test_constants_fraction_refuses_are_domain_errors(self, value):
        # every value that Fraction refuses is one refusal, for either constant;
        # a string or Decimal is refused before Fraction would parse it
        for constants in ({"c_const": value}, {"D_const": value}):
            started = time.monotonic()
            with pytest.raises(DomainError) as caught:
                upper_bound_profile(A1, 1, [1], **constants)
            assert time.monotonic() - started < 0.1
            assert str(caught.value) == "profile constants must be finite rational numbers"

    def test_term_guard_boundary(self, monkeypatch):
        # the work, terms times M0+1, is refused before the loop and before
        # any growth value is read: 10**12 terms, and one term past the
        # budget at A1 (M0 = 9, 10**6 terms) and at A48 (M0 = 4803, 2081)
        started = time.monotonic()
        with pytest.raises(ResourceLimitError) as caught:
            upper_bound_profile(A1, 1, [1], c_const=10 ** 12)
        assert str(caught.value) == ("profile work 10000000000000 exceeds guard 10000000: "
                                     "j**9 summed to 1000000000000, growth index 1")
        for rs, top in [(A1, 10 ** 6), (A48, 2081)]:
            assert top * (3 + 2 * rs.dimension + 1) <= parahoric.MAX_PROFILE_WORK
            with pytest.raises(ResourceLimitError):
                upper_bound_profile(rs, top + 1, [])
        assert time.monotonic() - started < 1
        monkeypatch.setattr(parahoric, "MAX_PROFILE_WORK", 50)
        assert upper_bound_profile(A1, 5, [1] * 5) == sum(j ** 9 for j in range(1, 6))
        with pytest.raises(ResourceLimitError) as caught:
            upper_bound_profile(A1, 6, [1] * 6)
        assert str(caught.value) == ("profile work 60 exceeds guard 50: "
                                     "j**9 summed to 6, growth index 6")
        monkeypatch.setattr(parahoric, "MAX_PROFILE_WORK", 2 * 4804)
        assert upper_bound_profile(A48, 2, [1, 1]) == 1 + 2 ** 4803
        with pytest.raises(ResourceLimitError):
            upper_bound_profile(A48, 3, [1] * 3)

    def test_endless_growth_data(self):
        # only s_1 .. s_ceil(D*n) are read, once the guards pass, so an
        # endless iterable is answered or refused at once; the values read
        # count toward the work
        started = time.monotonic()
        assert upper_bound_profile(A1, 3, count(1)) == (1 + 2 ** 9 + 3 ** 9) * 3
        assert upper_bound_profile(A1, 2, count(1), D_const=50) == (1 + 2 ** 9) * 100
        with pytest.raises(ResourceLimitError):
            upper_bound_profile(A1, 10 ** 6 + 1, count(1))
        with pytest.raises(ResourceLimitError) as caught:
            upper_bound_profile(A1, 1, count(1), D_const=10 ** 12)
        assert time.monotonic() - started < 1
        assert str(caught.value) == ("profile work 1000000000000 exceeds guard 10000000: "
                                     "j**9 summed to 1, growth index 1000000000000")

    def test_digit_guard_boundary(self):
        # the sum of top powers j**M0 is below top**(M0+1); the work guard caps
        # top*(M0+1), so no admitted sum reaches arith.MAX_OUTPUT_DIGITS, for
        # any label, and a huge top is refused by the work it would take
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError) as caught:
            upper_bound_profile(A1, 1, [1], c_const=10 ** 20000)
        assert time.perf_counter() - start < 0.1
        assert str(caught.value) == ("profile work about 10^20001 exceeds guard 10000000: "
                                     "j**9 summed to about 10^20000, growth index 1")
        digits = max((m := 4 + 2 * root_system(label).dimension)
                     * math.log10(parahoric.MAX_PROFILE_WORK / m)
                     for label in supported_labels(MAX_RANK))
        assert digits < MAX_OUTPUT_DIGITS  # about 28,200 digits, at C48
