"""Exact arithmetic functions and the rank-1 commensurability growth series.

Every value in a series is an exact integer: Python ints in the scalar
functions, read-only int32 arrays in a GrowthSeries.  Floating point appears
only inside the asymptotic comparators and never feeds back into series data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, chain, count, cycle, islice

from .errors import DomainError, _at_least, _guard, _integer, _shown
from .reporting import BoundReport, compare

#: Euler-Mascheroni constant, 20 significant digits.
EULER_MASCHERONI = 0.57721566490153286061

#: Largest power of a caller's base, and largest printed result, in decimal
#: digits; documented inputs stay near 15,000 digits.
MAX_OUTPUT_DIGITS = 10 ** 5
#: Largest sieve, and most hyperbola terms (about 1 s); `growth rank1 --n
#: 10**7` peaks at 114 MB RSS, about 8 bytes a row over 36 MB.
MAX_SIEVE_LIMIT = 10 ** 7
#: Most divisors `divisors` lists: 2**20 of them take about 1 s and 90 MB.
MAX_DIVISORS = 10 ** 6

# increments of the 2/3/5 trial-division wheel, starting from 7
_WHEEL = (4, 2, 4, 2, 4, 6, 2, 6)
# factorize divides by the wheel up to here, then splits a cofactor below
# _PSI13 by Miller-Rabin and Brent's rho
_WHEEL_LIMIT = 1000
# trial divisors, from 2 on, past which a cofactor at or above _PSI13 is
# refused (the last is 3749989, so about 0.2 s of wheel)
_WHEEL_BUDGET = 10 ** 6

# Miller-Rabin bases 2..41 and psi_13, the least odd composite that passes
# all thirteen (Sorenson and Webster 2015): below it they decide primality
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI13 = 3317044064679887385961981

# rows per block of the exhaustive box walker and of omega_sieve's last step, and the
# products (prefixes times last columns) per chunk of chevalley.brute_force_order
_BOX_BLOCK = 1 << 16


@dataclass(frozen=True)
class Factorization:
    """Prime factorization ``n = prod p_i**e_i`` with strictly increasing p_i."""

    n: int
    factors: tuple[tuple[int, int], ...]

    def expand(self) -> int:
        out = 1
        for p, e in self.factors:
            out *= p ** e
        return out


@dataclass(frozen=True, eq=False)
class GrowthSeries:
    """Counts c_k and their prefix sums C_k for k = 1..upto as read-only int32 arrays
    (.tolist() gives Python ints), exact as C_n <= sum_{k<=n} d(k), the chain
    check_sandwich_bounds checks, and sum_divisor_count(MAX_SIEVE_LIMIT) < 2**31.
    Arrays have no truth value, so a series equals only itself."""

    upto: int
    c: np.ndarray
    C: np.ndarray


def _trial_divisors():
    """2, 3, 5 and then every integer from 7 on that is prime to 30."""
    return chain((2, 3, 5), accumulate(cycle(_WHEEL), initial=7))


def factorize(n: int) -> Factorization:
    """Factor n >= 1 by the 2/3/5 wheel up to _WHEEL_LIMIT, then a cofactor
    below _PSI13 by Miller-Rabin and Brent's rho; a larger cofactor stays
    on the wheel until it falls below _PSI13, and is refused with
    ResourceLimitError if it is still there after _WHEEL_BUDGET divisors.

    n = 1 yields the empty factor sequence.
    """
    n = _at_least("n", n, 1)
    factors, m = [], n
    for p in islice(_trial_divisors(), _WHEEL_BUDGET):
        if p * p > m or p > _WHEEL_LIMIT and m < _PSI13:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
    else:
        # m >= _PSI13 still: the last divisor, 3749989 = 23*47*3469, divides no m
        _guard(m, _PSI13 - 1, lambda: f"factoring {_shown(n)} leaves a cofactor of at least "
                                      f"{_PSI13} after {_WHEEL_BUDGET} trial divisors")
    # m has no prime factor up to _WHEEL_LIMIT, so below its square it is 1 or prime
    if _WHEEL_LIMIT ** 2 <= m < _PSI13:
        large = _rho_primes(m)
        factors += [(q, large.count(q)) for q in sorted(set(large))]
        m = 1
    if m > 1:
        factors.append((m, 1))
    return Factorization(n, tuple(factors))


def _rho_primes(m: int) -> list[int]:
    """The prime factors, with repeats, of an m < _PSI13 with no base prime."""
    if is_prime(m):
        return [m]
    d = _brent_factor(m)
    return _rho_primes(d) + _rho_primes(m // d)


def _brent_factor(n: int) -> int:
    """A proper factor of an odd composite n by Pollard's rho with Brent's
    cycle search (Brent 1980): y -> y*y + c from 2 is compared with its
    value x at the last power of two, and c moves on when the gcd meets n."""
    for c in count(1):
        y, r, g = 2, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
                g = math.gcd(x - y, n)
                if g != 1:
                    break
            r *= 2
        if g != n:
            return g


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the bases 2..41, exact below _PSI13.

    At or above _PSI13 an n with a base prime as factor is composite; any
    other n raises ResourceLimitError, since no base set is proven there.
    """
    n = _integer("n", n)
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    _guard(n, _PSI13 - 1, lambda: f"primality of {_shown(n)} is not decided at or above "
                                  f"{_PSI13}, the least strong pseudoprime to bases 2..41")
    s = ((n - 1) & -(n - 1)).bit_length() - 1  # 2**s exactly divides n - 1
    for a in _MR_BASES:
        # a passes when x = a**((n-1) >> s) is 1, or -1 after j < s squarings
        x = pow(a, (n - 1) >> s, n)
        if x != 1 and n - 1 not in accumulate(range(s - 1), lambda y, _: y * y % n, initial=x):
            return False
    return True


def _prime(p) -> int:
    """p as an int, refused with DomainError unless it is a prime."""
    p = _integer("p", p)
    if not is_prime(p):
        raise DomainError(f"p must be prime, got {_shown(p)}")
    return p


def divisors(n: int) -> list[int]:
    """All positive divisors of n, sorted increasingly; refused past
    MAX_DIVISORS of them, counted from the factorization before any list."""
    factors = factorize(n).factors
    _guard(count := math.prod(e + 1 for _, e in factors), MAX_DIVISORS,
           lambda: f"{count} divisors of {_shown(n)} exceed guard {MAX_DIVISORS}")
    out = [1]
    for p, e in factors:
        out = [d * p ** j for d in out for j in range(e + 1)]
    return sorted(out)


def omega(n: int) -> int:
    """Number of distinct prime divisors of n."""
    return len(factorize(n).factors)


def divisor_count(n: int) -> int:
    """Number of positive divisors of n."""
    out = 1
    for _, e in factorize(n).factors:
        out *= e + 1
    return out


def cn_rank1(n: int) -> int:
    """Number of subgroups of the rationals at commensurability index
    exactly n from the integers: 2**omega(n)."""
    return 1 << omega(n)


def _power(base: int, exponent: int) -> int:
    """base**exponent, refused before any work past MAX_OUTPUT_DIGITS digits;
    an int compares with a float exactly, so no float product can overflow."""
    budget = MAX_OUTPUT_DIGITS / math.log10(base) if base > 1 else math.inf
    return base ** _guard(exponent, budget,
                          lambda: f"{_shown(base)} to the power {_shown(exponent)} is above "
                                  f"the output guard of {MAX_OUTPUT_DIGITS} decimal digits")


def _box_blocks(side: int, width: int):
    """The points of [0, side)**width in lexicographic order, as int64
    digit arrays of shape (rows, width), at most _BOX_BLOCK rows each."""
    import numpy as np
    total = side ** width
    for start in range(0, total, _BOX_BLOCK):
        rem = np.arange(start, min(start + _BOX_BLOCK, total), dtype=np.int64)
        digits = np.empty((width, len(rem)), dtype=np.int64)  # contiguous columns
        for col in range(width - 1, -1, -1):  # np.divmod and % cost several times //
            rem, digits[col] = (quot := rem // side), rem - quot * side
        yield digits.T


def _check_sieve_limit(limit: int, least: int) -> int:
    """The sieve limit as an int, refused below least or past MAX_SIEVE_LIMIT,
    before any array is allocated."""
    limit = _at_least("limit", limit, least)
    return _guard(limit, MAX_SIEVE_LIMIT,
                  lambda: f"sieve limit {_shown(limit)} exceeds guard {MAX_SIEVE_LIMIT}")


def prime_sieve(limit: int) -> np.ndarray:
    """Boolean mask of length limit+1 with mask[p] == True iff p is prime."""
    limit = _check_sieve_limit(limit, 0)
    import numpy as np
    mask = np.ones(limit + 1, dtype=bool)
    mask[: min(2, limit + 1)] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p:: p] = False
    return mask


def omega_sieve(limit: int) -> np.ndarray:
    """Array w with w[k] = omega(k) for 0 <= k <= limit (w[0] = w[1] = 0),
    from one pass over the primes p <= isqrt(limit).

    Each p adds one to w on its multiples and multiplies part by p on the
    multiples of each power p**j <= limit, so part[k] is the part of k over the
    primes up to isqrt(limit), and part[k] < k exactly when k has a larger one.
    """
    limit = _check_sieve_limit(limit, 1)
    import numpy as np
    w = np.zeros(limit + 1, dtype=np.uint8)
    part = np.ones(limit + 1, dtype=np.int32)
    for p in np.flatnonzero(prime_sieve(math.isqrt(limit))).tolist():
        w[p::p] += 1
        q = p
        while q <= limit:
            part[q::q] *= p
            q *= p
    for lo in range(0, limit + 1, _BOX_BLOCK):  # in slices: no second array of limit ints
        k = np.arange(lo, min(lo + _BOX_BLOCK, limit + 1), dtype=np.int32)
        w[lo:lo + len(k)] += part[lo:lo + len(k)] < k
    return w


def divisor_count_sieve(limit: int) -> np.ndarray:
    """Array t with t[k] = divisor_count(k) for 0 <= k <= limit (t[0] = 0),
    by the hyperbola rule and no primes: each m <= isqrt(k) that divides k
    pairs with k/m and counts 2, or 1 when k = m*m."""
    limit = _check_sieve_limit(limit, 1)
    import numpy as np
    t = np.zeros(limit + 1, dtype=np.int32)
    for m in range(1, math.isqrt(limit) + 1):
        t[m * m::m] += 2
        t[m * m] -= 1
    return t


def growth_series_rank1(n: int) -> GrowthSeries:
    """Exact series c_k = 2**omega(k) and prefix sums C_k for k = 1..n, as GrowthSeries."""
    n = _at_least("series length", n, 1)
    w = omega_sieve(n)[1:]  # refuses n past the sieve guard before numpy is imported
    import numpy as np
    c = np.left_shift(np.int32(1), w)
    C = np.cumsum(c, dtype=np.int32)
    c.flags.writeable = C.flags.writeable = False  # views of read-only bases stay read-only
    return GrowthSeries(n, c[:], C[:])


def sum_omega(n: int) -> int:
    """Exact value of sum_{k<=n} omega(k)."""
    n = _at_least("n", n, 1)
    return int(omega_sieve(n).sum(dtype="int64"))


def sum_divisor_count(n: int) -> int:
    """Exact value of sum_{k<=n} divisor_count(k) by Dirichlet's hyperbola
    method: 2*sum_{m<=r} floor(n/m) - r**2 with r = isqrt(n), refused
    before the loop when r passes MAX_SIEVE_LIMIT terms."""
    n = _at_least("n", n, 1)
    r = _guard(math.isqrt(n), MAX_SIEVE_LIMIT,
               lambda: f"divisor sum to {_shown(n)} exceeds guard "
                       f"{MAX_SIEVE_LIMIT} hyperbola terms")
    return 2 * sum(n // m for m in range(1, r + 1)) - r * r


def omega_sum_ratio(n: int) -> float:
    """Empirical Mertens-style ratio (sum_omega(n) - n*log(log(n))) / n.

    The limiting constant is cited in the literature without a closed form
    convenient here, so this comparator only reports the ratio; nothing in
    the package asserts a specific value for it.
    """
    n = _at_least("n", n, 3)  # log(log(n)) is undefined below 3
    return (sum_omega(n) - n * math.log(math.log(n))) / n


def dirichlet_residual(n: int) -> float:
    """Error term of the divisor summatory function against its
    n*log(n) + (2*gamma - 1)*n main term."""
    n = _at_least("n", n, 1)
    total = sum_divisor_count(n)  # refuses a huge n before any float overflows
    return total - (n * math.log(n) + (2 * EULER_MASCHERONI - 1) * n)


def check_sandwich_bounds(series: GrowthSeries, n_min: int) -> BoundReport:
    """Check the exact chain k <= C_k <= sum_{j<=k} d(j) and report the
    extremal comparison ratios against the k*log(k) envelopes.

    The verdict tracks only the constant-free pointwise chain; the float
    ratios (max of C_k/(k log k), min of C_k/(k (log k)**log 2)) are
    reported in the context for window assertions made by callers.
    """
    if not isinstance(series, GrowthSeries):
        raise DomainError(f"series must be a GrowthSeries, got {type(series).__name__}")
    n_min = _at_least("n_min", n_min, 3)  # log(log(k)) is undefined below 3
    upto = _integer("upto", series.upto)
    if upto < n_min:
        raise DomainError("series too short for requested n_min")
    _check_sieve_limit(upto, n_min)  # before any array of upto ints
    import numpy as np
    try:  # a C with no len, or not of integers int64 holds, is refused as a short one is
        C = np.asarray(series.C) if len(series.C) == upto else None
    except (TypeError, ValueError, OverflowError):
        C = None
    if C is None or C.shape != (upto,) or C.dtype.kind not in "iu" or C.dtype == np.uint64:
        raise DomainError("series must hold upto prefix sums")
    k = np.arange(1, upto + 1, dtype=np.int64)
    dsum = np.cumsum(divisor_count_sieve(upto)[1:], dtype=np.int32)  # exact: see GrowthSeries
    worst = max(int((C - dsum).max()), int((k - C).max()))

    ks, cs = k[n_min - 1:].astype(np.float64), C[n_min - 1:].astype(np.float64)
    logs = np.log(ks)
    ratio = np.multiply(ks, logs)  # one buffer for both ratios, cs / (ks * logs**e)
    upper_ratio = float(np.divide(cs, ratio, out=ratio).max())
    np.multiply(ks, np.power(logs, math.log(2), out=ratio), out=ratio)
    lower_ratio = float(np.divide(cs, ratio, out=ratio).min())
    return compare("rank1_sandwich_chain", worst, 0, upper_ratio_max=upper_ratio,
                   lower_ratio_min=lower_ratio, n_min=n_min, upto=upto)
