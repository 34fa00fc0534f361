import math
from fractions import Fraction
from itertools import accumulate, chain, cycle

import numpy as np
import pytest

from commgrowth import commgraph

DESK_LIMIT = 10 ** 6


def wheel_divisors():
    """2, 3, 5 and then every integer from 7 on that is prime to 30."""
    return chain((2, 3, 5), accumulate(cycle((4, 2, 4, 2, 4, 6, 2, 6)), initial=7))


def is_prime_oracle(n):
    """Primality by wheel trial division up to isqrt(n), independent of
    commgrowth.arith's Miller-Rabin; about 0.4 s at 14 digits."""
    if n < 2:
        return False
    for p in wheel_divisors():
        if p * p > n:
            return True
        if n % p == 0:
            return False


def factorize_oracle(n):
    """(prime, exponent) pairs of n >= 1 by wheel trial division."""
    factors = []
    for p in wheel_divisors():
        if p * p > n:
            break
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            factors.append((p, e))
    if n > 1:
        factors.append((n, 1))
    return tuple(factors)


def omega_sieve_oracle(limit):
    """omega(k) for 0 <= k <= limit by one slice per prime; independent of
    commgrowth.arith so the fixtures below check the library, not echo it."""
    prime = np.ones(limit + 1, dtype=bool)
    prime[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if prime[p]:
            prime[p * p:: p] = False
    w = np.zeros(limit + 1, dtype=np.uint8)
    for p in np.flatnonzero(prime):
        w[p::p] += 1
    return w


def divisor_count_sieve_oracle(limit):
    """divisor_count(k) for 0 <= k <= limit by one slice per divisor."""
    t = np.zeros(limit + 1, dtype=np.int32)
    for q in range(1, limit + 1):
        t[q::q] += 1
    return t


def lattice_contains_oracle(sup, sub):
    """Whether the RationalLattice sub lies in sup: each row of sub, over
    sup's denominator, must solve against sup's upper-triangular basis by
    back-substitution over the rationals."""
    for row in sub.basis:
        target = [Fraction(sup.denom * v, sub.denom) for v in row]
        x = []
        for j in range(sup.dim):
            q = (target[j] - sum(x[i] * sup.basis[i][j] for i in range(j))) / sup.basis[j][j]
            if q.denominator != 1:
                return False
            x.append(q)
    return True


def upper_row_span_mask(H, points):
    """For each row of the integer array points, whether it is an integer
    combination of the rows of the square upper-triangular matrix H."""
    rem = points.copy()
    inside = np.ones(len(points), dtype=bool)
    for j, row in enumerate(H):
        x, r = np.divmod(rem[:, j], row[j])
        inside &= r == 0
        rem -= np.outer(x, row)
    return inside


def square_stack(columns, dim):
    """The (N, dim, dim) int64 stack of the upper triangles given as their
    columns {(r, c): entries}, with zeros below the diagonal."""
    stack = np.zeros((len(columns[0, 0]), dim, dim), dtype=np.int64)
    for (r, c), column in columns.items():
        stack[:, r, c] = column
    return stack


def empty_ball_cache():
    commgraph._ball_cache.clear()
    commgraph._ball_cache_bytes = 0


@pytest.fixture(autouse=True)
def cold_ball_cache():
    """Every test starts and leaves with no ball kept by _ball_keys, so each
    one runs the ball kernel cold and sees no ball another test built."""
    empty_ball_cache()
    yield
    empty_ball_cache()


@pytest.fixture(scope="session")
def omega_upto_million():
    return omega_sieve_oracle(DESK_LIMIT)


@pytest.fixture(scope="session")
def divisor_count_upto_million():
    return divisor_count_sieve_oracle(DESK_LIMIT)


@pytest.fixture(scope="session")
def rank1_prefix_upto_million(omega_upto_million):
    c = np.left_shift(np.int64(1), omega_upto_million[1:].astype(np.int64))
    return np.cumsum(c)


@pytest.fixture(scope="session")
def divisor_prefix_upto_million(divisor_count_upto_million):
    return np.cumsum(divisor_count_upto_million[1:], dtype=np.int64)
