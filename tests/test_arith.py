import itertools
import math
import random
import time
import tracemalloc

import numpy as np
import pytest

from commgrowth import arith
from commgrowth.errors import DomainError, ResourceLimitError
from conftest import (DESK_LIMIT, divisor_count_sieve_oracle, factorize_oracle, is_prime_oracle,
                      omega_sieve_oracle)


def coprime_pair_count(n):
    """Independent oracle: ordered pairs (a, b) with gcd(a, b) = 1, a*b = n."""
    return sum(1 for a in range(1, n + 1) if n % a == 0 and math.gcd(a, n // a) == 1)


class TestFactorize:
    def test_one_gives_empty_product(self):
        assert arith.factorize(1).factors == ()

    def test_twelve(self):
        assert arith.factorize(12).factors == ((2, 2), (3, 1))

    def test_prime(self):
        assert arith.factorize(97).factors == ((97, 1),)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            arith.factorize(0)
        with pytest.raises(DomainError):
            arith.factorize(-5)

    def test_roundtrip_and_invariants(self):
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randint(1, 10 ** 7)
            fac = arith.factorize(n)
            assert fac.expand() == n
            primes = [p for p, _ in fac.factors]
            assert primes == sorted(primes) and len(set(primes)) == len(primes)
            assert all(arith.is_prime(p) for p in primes)
            assert all(e >= 1 for _, e in fac.factors)

    def test_against_trial_division(self):
        # log-uniform n up to 10**12, so most cofactors go past the wheel
        rng = random.Random(13)
        for _ in range(300):
            n = round(10 ** rng.uniform(0, 12))
            factors = arith.factorize(n).factors
            assert factors == factorize_oracle(n)
            assert arith.omega(n) == len(factors)
            assert arith.divisor_count(n) == math.prod(e + 1 for _, e in factors)

    @pytest.mark.parametrize("p, q", [(999999937, 999999929), (999999999989, 999999999961)])
    def test_two_large_primes(self, p, q):
        assert arith.factorize(p * q).factors == ((q, 1), (p, 1))

    @pytest.mark.parametrize("n", [1009 ** 2, 1009 ** 3 * 1013, 1000003 ** 2,
                                   2 ** 40 * 3 ** 5 * 1000003, 10 ** 12 + 1])
    def test_prime_powers_and_mixed_cofactors(self, n):
        assert arith.factorize(n).factors == factorize_oracle(n)

    @pytest.mark.parametrize("n, factors", [
        (1009 ** 9, ((1009, 9),)),
        (1009 ** 8 * 1013, ((1009, 8), (1013, 1))),
        (1009 ** 3 * 999999929 * 999999937, ((1009, 3), (999999929, 1), (999999937, 1))),
    ])
    def test_cofactor_past_psi13_stays_on_the_wheel(self, n, factors):
        # each is past psi_13 after the primes up to 1000, so the wheel goes
        # on to 1009; the last one then falls below psi_13 and goes to rho
        assert n >= 3317044064679887385961981
        assert arith.factorize(n).factors == factors

    @pytest.mark.parametrize("n", [2 * (2 ** 89 - 1), 3 * (2 ** 89 - 1)])
    def test_cofactor_past_psi13_without_small_factor_refused(self, n):
        # 2**89 - 1 is a prime past psi_13, so no wheel divisor splits it
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError) as caught:
            arith.factorize(n)
        assert time.perf_counter() - start < 1
        assert str(caught.value) == ("factoring about 10^27 leaves a cofactor of at least "
                                     "3317044064679887385961981 after 1000000 trial divisors")

    def test_wheel_budget_boundary(self):
        # 3749971 is the last prime among the first 10**6 wheel divisors
        # (2, 3, 5, 7, 11, ..., 3749989) and 3750001 the first past them; q is
        # the least prime with 3749971 * q >= psi_13
        low, high, q = 3749971, 3750001, 884551924449519113
        assert arith._WHEEL_BUDGET == 10 ** 6
        assert all(map(is_prime_oracle, (low, high))) and arith.is_prime(q)
        assert low * q >= 3317044064679887385961981
        assert arith.factorize(low * q).factors == ((low, 1), (q, 1))
        with pytest.raises(ResourceLimitError):
            arith.factorize(high * q)


class TestIsPrime:
    def test_against_sieve(self):
        mask = arith.prime_sieve(10 ** 5)
        assert [n for n in range(10 ** 5 + 1) if arith.is_prime(n)] == \
            np.flatnonzero(mask).tolist()

    def test_against_trial_division(self):
        # odd n prime to 3 and 5 of 1-14 digits, so about one in eight of
        # the largest is prime
        rng = random.Random(17)
        for digits in range(1, 15):
            for _ in range(25):
                n = rng.randrange(10 ** (digits - 1), 10 ** digits) | 1
                while n % 3 == 0 or n % 5 == 0:
                    n += 2
                assert arith.is_prime(n) == is_prime_oracle(n), n

    @pytest.mark.parametrize("n", [2047, 1373653, 25326001, 3215031751, 2152302898747,
                                   3474749660383, 341550071728321, 3825123056546413051,
                                   318665857834031151167461])
    def test_strong_pseudoprimes_below_psi13(self, n):
        # psi_1 ... psi_12 (OEIS A014233) each pass a prefix of the bases
        assert not arith.is_prime(n)

    def test_mersenne_prime_2_61(self):
        assert arith.is_prime(2 ** 61 - 1)

    @pytest.mark.parametrize("n, size", [(3317044064679887385961981, 25), (2 ** 89 - 1, 27)],
                             ids=["psi13", "2^89-1"])
    def test_undecided_above_psi13(self, n, size):
        with pytest.raises(ResourceLimitError) as caught:
            arith.is_prime(n)
        assert str(caught.value) == (f"primality of about 10^{size} is not decided at or above "
                                     "3317044064679887385961981, the least strong pseudoprime "
                                     "to bases 2..41")

    @pytest.mark.parametrize("n", [41 * 3317044064679887385961981, 3 * (2 ** 89 - 1), 10 ** 5000],
                             ids=["41*psi13", "3*(2^89-1)", "10^5000"])
    def test_base_prime_factor_above_psi13(self, n):
        assert not arith.is_prime(n)


class TestArithmeticFunctions:
    @pytest.mark.parametrize("n,expected", [(1, 0), (6, 2), (8, 1)])
    def test_omega_examples(self, n, expected):
        assert arith.omega(n) == expected

    @pytest.mark.parametrize("n,expected", [(1, 1), (12, 6), (16, 5)])
    def test_divisor_count_examples(self, n, expected):
        assert arith.divisor_count(n) == expected

    def test_divisor_count_by_listing(self):
        for n in range(1, 500):
            assert arith.divisor_count(n) == sum(1 for d in range(1, n + 1) if n % d == 0)

    def test_divisor_count_multiplicative(self):
        rng = random.Random(11)
        hits = 0
        while hits < 200:
            m, n = rng.randint(1, 3000), rng.randint(1, 3000)
            if math.gcd(m, n) == 1:
                hits += 1
                assert arith.divisor_count(m * n) == \
                    arith.divisor_count(m) * arith.divisor_count(n)

    def test_two_pow_omega_at_most_divisor_count(self):
        for n in range(1, 5000):
            assert 2 ** arith.omega(n) <= arith.divisor_count(n)

    def test_divisors_sorted_and_complete(self):
        assert arith.divisors(12) == [1, 2, 3, 4, 6, 12]
        assert arith.divisors(1) == [1]

    def test_divisor_guard_boundary(self, monkeypatch):
        # the product of the first 22 primes has 2**22 divisors, counted from
        # its factorization and refused before any list is built
        primorial = math.prod(p for p in range(80) if arith.is_prime(p))
        started = time.monotonic()
        with pytest.raises(ResourceLimitError) as caught:
            arith.divisors(primorial)
        assert time.monotonic() - started < 1
        assert str(caught.value) == "4194304 divisors of about 10^31 exceed guard 1000000"
        # a count past 18 digits is still printed in full
        with pytest.raises(ResourceLimitError) as caught:
            arith.divisors(math.prod(p for p in range(282) if arith.is_prime(p)))
        assert str(caught.value) == ("1152921504606846976 divisors of about 10^115 "
                                     "exceed guard 1000000")
        # the guard is a module constant read when the divisors are asked for
        monkeypatch.setattr(arith, "MAX_DIVISORS", 12)
        assert len(arith.divisors(60)) == 12
        with pytest.raises(ResourceLimitError) as caught:
            arith.divisors(2 ** 12)
        assert str(caught.value) == "13 divisors of 4096 exceed guard 12"

    def test_is_prime_against_sieve(self):
        mask = arith.prime_sieve(2000)
        for n in range(2000):
            assert arith.is_prime(n) == bool(mask[n])


class TestRank1Series:
    @pytest.mark.parametrize("n,expected", [(1, 1), (6, 4), (30, 8)])
    def test_cn_examples(self, n, expected):
        assert arith.cn_rank1(n) == expected

    def test_cn_against_coprime_pairs(self):
        for n in range(1, 2000):
            assert arith.cn_rank1(n) == coprime_pair_count(n)

    def test_series_small(self):
        assert arith.growth_series_rank1(1).C.tolist() == [1]
        assert arith.growth_series_rank1(6).c.tolist() == [1, 2, 2, 2, 2, 4]
        assert arith.growth_series_rank1(10).C[-1] == 23

    @pytest.mark.parametrize("n", [1, 6, 10 ** 4])
    def test_series_is_read_only_int32(self, n):
        series = arith.growth_series_rank1(n)
        c = [2 ** int(w) for w in omega_sieve_oracle(n)[1:]]
        assert series.upto == n and type(series.upto) is int
        for values in (series.c, series.C):
            assert type(values) is np.ndarray and values.dtype == np.int32
            assert values.shape == (n,) and not values.flags.writeable
            with pytest.raises(ValueError):
                values[0] = 0
            # a view of a read-only base: no holder can make it writeable again
            with pytest.raises(ValueError):
                values.flags.writeable = True
        assert {type(v) for v in series.c.tolist() + series.C.tolist()} == {int}
        assert series.c.tolist() == c and series.C.tolist() == list(itertools.accumulate(c))
        # arrays have no truth value: a series equals only itself
        assert series == series and series != arith.growth_series_rank1(n)

    def test_series_takes_two_arrays_of_memory(self):
        # the two int32 arrays of 10**6 values are 8 MB; boxing them into
        # tuples of Python ints took 64 MB
        arith.growth_series_rank1(10)  # numpy is imported and warm
        tracemalloc.start()
        try:
            series = arith.growth_series_rank1(10 ** 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert int(series.C[-1]) == int(series.c.sum(dtype=np.int64))
        assert peak < 16 * 2 ** 20

    def test_rank1_arrays_are_int32_up_to_the_sieve_guard(self):
        # int32 is exact because C_n <= sum_{k<=n} d(k), the sandwich chain,
        # and that sum is below 2**31 at the largest n the sieve admits
        series = arith.growth_series_rank1(1000)
        assert series.c.dtype == series.C.dtype == np.int32
        assert arith.sum_divisor_count(arith.MAX_SIEVE_LIMIT) < 2 ** 31

    def test_series_prefix_sums_exact(self):
        series = arith.growth_series_rank1(500)
        total = 0
        for k, (ck, Ck) in enumerate(zip(series.c, series.C), 1):
            assert ck == arith.cn_rank1(k)
            total += ck
            assert Ck == total

    def test_prefix_sums_nondecreasing(self):
        series = arith.growth_series_rank1(300)
        assert all(a <= b for a, b in zip(series.C, series.C[1:]))

    def test_sieves_match_scalar_functions(self):
        w = arith.omega_sieve(3000)
        t = arith.divisor_count_sieve(3000)
        for n in range(1, 3001):
            assert int(w[n]) == arith.omega(n)
            assert int(t[n]) == arith.divisor_count(n)

    def test_sieves_match_slice_oracles_at_every_small_limit(self):
        # every limit up to 300 covers isqrt(limit) < 2, and prime squares
        # and prime powers at or just below the limit
        for limit in range(1, 301):
            w = arith.omega_sieve(limit)
            t = arith.divisor_count_sieve(limit)
            assert w.dtype == np.uint8 and t.dtype == np.int32
            assert np.array_equal(w, omega_sieve_oracle(limit)), limit
            assert np.array_equal(t, divisor_count_sieve_oracle(limit)), limit

    def test_sieves_match_slice_oracles_at_desk_limit(self, omega_upto_million,
                                                      divisor_count_upto_million):
        assert np.array_equal(arith.omega_sieve(DESK_LIMIT), omega_upto_million)
        assert np.array_equal(arith.divisor_count_sieve(DESK_LIMIT),
                              divisor_count_upto_million)

    def test_sieves_reject_empty_range(self):
        for sieve in (arith.omega_sieve, arith.divisor_count_sieve):
            with pytest.raises(DomainError):
                sieve(0)
        with pytest.raises(DomainError):
            arith.prime_sieve(-1)

    def test_sieve_guard_boundary(self, monkeypatch):
        monkeypatch.setattr(arith, "MAX_SIEVE_LIMIT", 30)
        assert np.array_equal(arith.omega_sieve(30), omega_sieve_oracle(30))
        assert arith.growth_series_rank1(30).C[-1] == arith.cn_rank1(30) + \
            arith.growth_series_rank1(29).C[-1]
        for call in (arith.omega_sieve, arith.divisor_count_sieve,
                     arith.growth_series_rank1, arith.sum_omega):
            with pytest.raises(ResourceLimitError) as caught:
                call(31)
            assert str(caught.value) == "sieve limit 31 exceeds guard 30"

    @pytest.mark.parametrize("limit, shown", [(10 ** 7 + 1, "10000001"),
                                              (10 ** 400, "about 10^400")])
    def test_sieve_refuses_before_any_work(self, limit, shown):
        # 10**7 itself is never run here: it takes about 115 MB in the CLI
        assert arith.MAX_SIEVE_LIMIT == 10 ** 7
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError) as caught:
                arith.growth_series_rank1(limit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 ** 6
        assert str(caught.value) == f"sieve limit {shown} exceeds guard 10000000"

    @pytest.mark.parametrize("limit", [10 ** 7 + 1, 10 ** 20])
    def test_prime_sieve_refuses_before_any_work(self, limit):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError):
                arith.prime_sieve(limit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 ** 6

    def test_prime_sieve_guard_boundary(self, monkeypatch):
        monkeypatch.setattr(arith, "MAX_SIEVE_LIMIT", 30)
        assert np.flatnonzero(arith.prime_sieve(30)).tolist() == [2, 3, 5, 7, 11, 13, 17,
                                                                   19, 23, 29]
        with pytest.raises(ResourceLimitError) as caught:
            arith.prime_sieve(31)
        assert str(caught.value) == "sieve limit 31 exceeds guard 30"


class TestSummatory:
    def test_hand_sums(self):
        assert arith.sum_omega(10) == 11
        assert arith.sum_divisor_count(10) == 27
        assert arith.sum_omega(1) == 0

    def test_against_direct_loop(self):
        for n in (1, 2, 17, 100, 541):
            assert arith.sum_omega(n) == sum(arith.omega(k) for k in range(1, n + 1))
            assert arith.sum_divisor_count(n) == \
                sum(arith.divisor_count(k) for k in range(1, n + 1))

    def test_divisor_sum_closed_form_against_sieve(self, divisor_prefix_upto_million):
        # the hyperbola closed form against the conftest sieve: every n up to
        # 5000, every square up to 10**6 (where r = isqrt(n) is exact), and
        # the last 50 values
        squares = [r * r for r in range(1, math.isqrt(DESK_LIMIT) + 1)]
        for n in [*range(1, 5001), *squares, *range(DESK_LIMIT - 49, DESK_LIMIT + 1)]:
            assert arith.sum_divisor_count(n) == divisor_prefix_upto_million[n - 1], n

    def test_hyperbola_term_guard_boundary(self, monkeypatch):
        # isqrt(960) = 30 terms are admitted, isqrt(961) = 31 are not
        monkeypatch.setattr(arith, "MAX_SIEVE_LIMIT", 30)
        assert arith.sum_divisor_count(960) == \
            sum(arith.divisor_count(k) for k in range(1, 961))
        for call in (arith.sum_divisor_count, arith.dirichlet_residual):
            with pytest.raises(ResourceLimitError) as caught:
                call(961)
            assert str(caught.value) == "divisor sum to 961 exceeds guard 30 hyperbola terms"

    def test_dirichlet_residual_refuses_huge_n_at_once(self):
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError) as caught:
            arith.dirichlet_residual(10 ** 400)
        assert time.perf_counter() - start < 1.0
        assert "about 10^400" in str(caught.value)

    def test_dirichlet_residual_is_small(self):
        # the test reports the constant K it observed; the acceptance suite
        # pins the hard window
        worst = max(abs(arith.dirichlet_residual(n)) / math.sqrt(n)
                    for n in (10 ** 2, 10 ** 3, 10 ** 4))
        print(f"observed dirichlet residual constant K = {worst:.3f}")
        assert worst < 3.0

    def test_omega_sum_ratio_reported_not_asserted(self):
        # the limiting constant is not pinned anywhere in the package
        ratio = arith.omega_sum_ratio(10 ** 4)
        print(f"observed omega summatory ratio = {ratio:.4f}")
        assert math.isfinite(ratio)


class TestSandwich:
    def test_chain_holds_on_exact_series(self):
        report = arith.check_sandwich_bounds(arith.growth_series_rank1(5000), 3)
        assert report.holds
        assert report.lhs <= 0

    def test_ratios_match_direct_evaluation(self):
        series = arith.growth_series_rank1(200)
        report = arith.check_sandwich_bounds(series, 3)
        upper = max(series.C[k - 1] / (k * math.log(k)) for k in range(3, 201))
        lower = min(series.C[k - 1] / (k * math.log(k) ** math.log(2))
                    for k in range(3, 201))
        assert report.context["upper_ratio_max"] == pytest.approx(upper, rel=1e-12)
        assert report.context["lower_ratio_min"] == pytest.approx(lower, rel=1e-12)

    def test_rejects_small_n_min(self):
        series = arith.growth_series_rank1(10)
        with pytest.raises(DomainError):
            arith.check_sandwich_bounds(series, 2)

    def test_rejects_short_series(self):
        with pytest.raises(DomainError):
            arith.check_sandwich_bounds(arith.growth_series_rank1(5), 8)

    def test_rejects_series_shorter_than_upto(self):
        with pytest.raises(DomainError):
            arith.check_sandwich_bounds(arith.GrowthSeries(5, (1, 2), (1, 3)), 3)

    def test_upto_is_checked_as_an_int(self):
        # the series' own upto is named when refused, and reported as an int
        series = arith.growth_series_rank1(10)
        with pytest.raises(DomainError) as caught:
            arith.check_sandwich_bounds(arith.GrowthSeries(10.0, series.c, series.C), 3)
        assert str(caught.value) == "upto must be an integer, got 10.0"
        report = arith.check_sandwich_bounds(
            arith.GrowthSeries(np.int64(10), series.c, series.C), 3)
        assert type(report.context["upto"]) is int
        assert report == arith.check_sandwich_bounds(series, 3)

    @pytest.mark.parametrize("series, shown", [(None, "NoneType"), ((5, (1,), (1,)), "tuple")],
                             ids=["None", "tuple"])
    def test_rejects_non_series(self, series, shown):
        with pytest.raises(DomainError) as caught:
            arith.check_sandwich_bounds(series, 3)
        assert str(caught.value) == f"series must be a GrowthSeries, got {shown}"

    @pytest.mark.parametrize("upto", [10 ** 7 + 1, 10 ** 12])
    def test_upto_past_the_sieve_guard_refused_before_any_array(self, upto):
        # a range holds upto prefix sums in O(1) memory; the sieve guard refuses
        # it before np.fromiter or np.arange allocate upto int64s
        series = arith.GrowthSeries(upto, (), range(upto))
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError) as caught:
                arith.check_sandwich_bounds(series, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(caught.value) == f"sieve limit {upto} exceeds guard {arith.MAX_SIEVE_LIMIT}"
        assert peak < 64 * 1024

    @pytest.mark.parametrize("C", [None, iter(range(1, 6)), (1, 2, 3, 4, 2 ** 63),
                                   (1, 2, 3, 4, -2 ** 63 - 1), (1, 2, 3, 4, None),
                                   (1, 2, 3, 4, "x"), (1, 2, 3, 4, 5.5), (1, 2, 3, 4, "5"),
                                   np.arange(1, 6, dtype=np.float64),
                                   np.arange(1, 6, dtype=np.uint64), np.ones(5, dtype=bool),
                                   np.arange(1, 6).reshape(5, 1)],
                             ids=["None", "iterator", "past-int64", "below-int64", "None-item",
                                  "str-item", "float-item", "numeric-str-item", "float64-array",
                                  "uint64-array", "bool-array", "column"])
    def test_prefix_sums_not_held_as_int64_refused(self, C):
        # one DomainError line, never numpy's TypeError, ValueError or OverflowError
        with pytest.raises(DomainError) as caught:
            arith.check_sandwich_bounds(arith.GrowthSeries(5, (), C), 3)
        assert str(caught.value) == "series must hold upto prefix sums"

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64, np.uint32])
    def test_prefix_sums_held_by_any_int64_dtype_are_read(self, dtype):
        series = arith.growth_series_rank1(20)
        report = arith.check_sandwich_bounds(series, 3)
        cast = arith.GrowthSeries(20, series.c, series.C.astype(dtype))
        assert arith.check_sandwich_bounds(cast, 3) == report
        assert arith.check_sandwich_bounds(arith.GrowthSeries(20, (), series.C.tolist()), 3) \
            == report

    def test_detects_violated_chain(self):
        # doctored series breaking C_k >= k must fail
        fake = arith.GrowthSeries(4, (1, 0, 0, 0), (1, 1, 1, 1))
        report = arith.check_sandwich_bounds(fake, 3)
        assert not report.holds


def test_parallel_aggregation_order_independent():
    # series construction must not depend on evaluation order: build the
    # same data from shuffled per-k evaluations
    series = arith.growth_series_rank1(400)
    ks = list(range(1, 401))
    random.Random(3).shuffle(ks)
    values = {k: arith.cn_rank1(k) for k in ks}
    assert [values[k] for k in range(1, 401)] == series.c.tolist()


def test_euler_mascheroni_constant_digits():
    assert abs(arith.EULER_MASCHERONI - 0.5772156649015329) < 1e-15


@pytest.mark.parametrize("side,width", [(1, 3), (3, 4), (4, 2), (5, 1)])
def test_box_blocks_walk_the_box_in_order(monkeypatch, side, width):
    monkeypatch.setattr(arith, "_BOX_BLOCK", 7)
    blocks = list(arith._box_blocks(side, width))
    assert all(b.shape[1] == width and 0 < len(b) <= 7 for b in blocks)
    want = list(itertools.product(range(side), repeat=width))
    assert np.concatenate(blocks).tolist() == [list(point) for point in want]


class TestPower:
    def test_equals_pow_below_the_limit(self):
        for base in (0, 1, 2, 3, 7, 10, 1000003):
            for exponent in (0, 1, 2, 5, 100, 4000):
                assert arith._power(base, exponent) == base ** exponent

    # the largest admitted exponent keeps p**e at most 100000 digits long
    @pytest.mark.parametrize("p, largest", [(2, 332192), (3, 209590), (1000003, 16666)])
    def test_boundary(self, p, largest):
        assert arith.MAX_OUTPUT_DIGITS == 100000
        value = arith._power(p, largest)
        assert value == p ** largest < 10 ** arith.MAX_OUTPUT_DIGITS
        assert p ** (largest + 1) >= 10 ** arith.MAX_OUTPUT_DIGITS
        with pytest.raises(ResourceLimitError) as caught:
            arith._power(p, largest + 1)
        assert str(caught.value) == (f"{p} to the power {largest + 1} is above the output "
                                     "guard of 100000 decimal digits")

    def test_refuses_before_any_work(self):
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(ResourceLimitError) as caught:
                arith._power(2, 10 ** 12)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.01 and peak < 10 ** 6
        assert str(caught.value).startswith("2 to the power 1000000000000 is above")

    def test_huge_exponent_needs_no_float_product(self):
        # 6e307 * log10(2) would overflow a float
        with pytest.raises(ResourceLimitError) as caught:
            arith._power(2, 6 * 10 ** 307)
        assert str(caught.value).startswith("2 to the power about 10^308 is above")
