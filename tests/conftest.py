import math

import numpy as np
import pytest

DESK_LIMIT = 10 ** 6


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
