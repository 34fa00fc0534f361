"""Expected answers for benchmark jobs, computed without importing commgrowth.

Each oracle uses a different route from the package: root systems come from
Euclidean simple roots and Weyl reflections (not root strings), cocharacter
counts from peeling the last coordinate (not a box scan), ball sizes from
Macdonald's double-coset formula (not enumeration), commensurability indices
from gcds of minors (not Hermite normal forms), and divisor sums from the
hyperbola method (not a sieve).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

EULER_MASCHERONI = 0.57721566490153286061

# Weyl group degrees of every supported simple type
_EXCEPTIONAL_DEGREES = {
    "E6": (2, 5, 6, 8, 9, 12),
    "E7": (2, 6, 8, 10, 12, 14, 18),
    "E8": (2, 8, 12, 14, 18, 20, 24, 30),
    "F4": (2, 6, 8, 12),
    "G2": (2, 6),
}

LABELS = ([f"A{l}" for l in range(1, 9)] + [f"B{l}" for l in range(2, 9)]
          + [f"C{l}" for l in range(2, 9)] + [f"D{l}" for l in range(4, 9)]
          + ["E6", "E7", "E8", "F4", "G2"])
SMALL_RANK_LABELS = [t for t in LABELS if int(t[1:]) <= 4]


def degrees(label: str) -> tuple[int, ...]:
    family, l = label[0], int(label[1:])
    if family == "A":
        return tuple(range(2, l + 2))
    if family in "BC":
        return tuple(range(2, 2 * l + 1, 2))
    if family == "D":
        return tuple(sorted(list(range(2, 2 * l - 1, 2)) + [l]))
    return _EXCEPTIONAL_DEGREES[label]


def type_data(label: str) -> tuple[int, int, int]:
    """(rank, number of positive roots, group dimension)."""
    ds = degrees(label)
    n_pos = sum(d - 1 for d in ds)
    return len(ds), n_pos, 2 * n_pos + len(ds)


def order_zpk(label: str, p: int, k: int) -> int:
    """Steinberg's order over F_p, times p**dim for each congruence layer."""
    _, n_pos, dim = type_data(label)
    value = p ** n_pos
    for d in degrees(label):
        value *= p ** d - 1
    return value * p ** ((k - 1) * dim)


# ---------------------------------------------------------------------------
# root systems from Euclidean simple roots (Bourbaki numbering)


def _unit(i: int, n: int) -> list[Fraction]:
    return [Fraction(int(i == t)) for t in range(n)]


def _sub(u, v):
    return [a - b for a, b in zip(u, v)]


def _simple_roots(label: str) -> list[list[Fraction]]:
    family, l = label[0], int(label[1:])
    if family == "A":
        return [_sub(_unit(i, l + 1), _unit(i + 1, l + 1)) for i in range(l)]
    if family in "BCD":
        chain = [_sub(_unit(i, l), _unit(i + 1, l)) for i in range(l - 1)]
        last = {"B": _unit(l - 1, l),
                "C": [2 * v for v in _unit(l - 1, l)],
                "D": [a + b for a, b in zip(_unit(l - 2, l), _unit(l - 1, l))]}[family]
        return chain + [last]
    if family == "G":
        return [[Fraction(1), Fraction(-1), Fraction(0)],
                [Fraction(-2), Fraction(1), Fraction(1)]]
    if family == "F":
        half = Fraction(1, 2)
        return [_sub(_unit(1, 4), _unit(2, 4)), _sub(_unit(2, 4), _unit(3, 4)),
                _unit(3, 4), [half, -half, -half, -half]]
    half = Fraction(1, 2)
    e8 = [[half, -half, -half, -half, -half, -half, -half, half],
          [a + b for a, b in zip(_unit(0, 8), _unit(1, 8))]]
    e8 += [_sub(_unit(i, 8), _unit(i - 1, 8)) for i in range(1, 7)]
    return e8[:l]


@lru_cache(maxsize=None)
def positive_roots(label: str) -> tuple[tuple[int, ...], ...]:
    """Positive roots on the simple roots, sorted by height then lexically:
    the Weyl-group orbit of the simple roots, keeping nonnegative vectors."""
    simple = _simple_roots(label)
    l = len(simple)

    def dot(u, v):
        return sum(a * b for a, b in zip(u, v))

    # cartan[j][i] = <alpha_j, alpha_i^vee>
    cartan = [[int(2 * dot(simple[j], simple[i]) / dot(simple[i], simple[i]))
               for i in range(l)] for j in range(l)]
    start = [tuple(int(i == j) for j in range(l)) for i in range(l)]
    seen = set(start)
    todo = list(start)
    while todo:
        beta = todo.pop()
        for i in range(l):
            pair = sum(beta[j] * cartan[j][i] for j in range(l))
            image = tuple(b - pair * int(t == i) for t, b in enumerate(beta))
            if image not in seen:
                seen.add(image)
                todo.append(image)
    pos = [r for r in seen if all(v >= 0 for v in r)]
    if len(pos) != type_data(label)[1]:
        raise AssertionError(f"oracle root count for {label} disagrees with degrees")
    return tuple(sorted(pos, key=lambda r: (sum(r), r)))


@lru_cache(maxsize=256)
def admissible_count(label: str, c: int) -> int:
    """Integer a with |a . r| <= c for every positive root r, counted by
    peeling the last coordinate: for each prefix the roots cut out one
    interval of admissible last coefficients."""
    roots = np.asarray(positive_roots(label), dtype=np.int64)
    rank = roots.shape[1]
    if rank == 1:
        return 2 * c + 1
    axes = [np.arange(-c, c + 1, dtype=np.int64)] * (rank - 1)
    prefix = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, rank - 1)
    partial = prefix @ roots[:, :-1].T          # (prefixes, roots)
    last = roots[:, -1]
    ok = np.all(np.abs(partial[:, last == 0]) <= c, axis=1)
    lo = np.full(len(prefix), -c, dtype=np.int64)
    hi = np.full(len(prefix), c, dtype=np.int64)
    for j in np.flatnonzero(last):
        r = int(last[j])
        # -c <= P + r*a <= c  with r > 0
        lo = np.maximum(lo, -((c + partial[:, j]) // r))
        hi = np.minimum(hi, (c - partial[:, j]) // r)
    return int(np.maximum(hi - lo + 1, 0)[ok].sum())


# ---------------------------------------------------------------------------
# lattices in Q^d


def det(rows) -> int:
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def comm_index(denom_a: int, rows_a, denom_b: int, rows_b) -> int:
    """c(A, B) = [A : A&B][B : A&B] = covol(A) covol(B) / covol(A+B)**2,
    with covol(A+B) the gcd of the maximal minors of the stacked rows."""
    q = math.lcm(denom_a, denom_b)
    a = [[v * (q // denom_a) for v in row] for row in rows_a]
    b = [[v * (q // denom_b) for v in row] for row in rows_b]
    stacked = a + b
    g = 0
    for pick in itertools.combinations(range(len(stacked)), len(a)):
        g = math.gcd(g, det([stacked[i] for i in pick]))
    return abs(det(a)) * abs(det(b)) // (g * g)


def index_from_standard(denom: int, rows) -> int:
    dim = len(rows)
    return comm_index(1, [[int(i == j) for j in range(dim)] for i in range(dim)],
                      denom, rows)


def _factor_small(n: int) -> list[tuple[int, int]]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def _q_factorial(m: int, t: Fraction) -> Fraction:
    out = Fraction(1)
    for i in range(1, m + 1):
        out *= sum(t ** j for j in range(i))
    return out


def _local_factor(dim: int, p: int, k: int) -> int:
    """Lattices at index exactly p**k from Z_p^dim: the sum over dominant
    lambda with sum|lambda_i| = k of |K p^lambda K / K|
    = p**<2rho, lambda> W(1/p) / W_lambda(1/p)  (Macdonald 1971)."""
    t = Fraction(1, p)
    total = Fraction(0)
    for lam in itertools.product(range(-k, k + 1), repeat=dim):
        if sum(map(abs, lam)) != k or any(x < y for x, y in zip(lam, lam[1:])):
            continue
        two_rho = sum((dim - 1 - 2 * i) * x for i, x in enumerate(lam))
        stabilizer = Fraction(1)
        for _, block in itertools.groupby(lam):
            stabilizer *= _q_factorial(len(list(block)), t)
        total += Fraction(p) ** two_rho * _q_factorial(dim, t) / stabilizer
    if total.denominator != 1:
        raise AssertionError("double-coset count is not an integer")
    return int(total)


@lru_cache(maxsize=None)
def _ball_sizes(dim: int, n: int) -> tuple[int, ...]:
    sizes, running = [0], 0
    for m in range(1, n + 1):
        exact = 1
        for p, k in _factor_small(m):
            exact *= _local_factor(dim, p, k)
        running += exact
        sizes.append(running)
    return tuple(sizes)


def ball_size(dim: int, n: int) -> int:
    """|ball(Z^dim, n)|; by transport also |ball(gamma, n)| for every
    full-rank gamma in Q^dim (GL_dim(Q) preserves indices)."""
    top = max(n, 64)  # grow the cached table in steps, not per radius
    return _ball_sizes(dim, 1 << (top - 1).bit_length())[n]


# ---------------------------------------------------------------------------
# rank-1 series and divisor sums


def omega_upto(limit: int) -> np.ndarray:
    """omega(k) for 0 <= k <= limit by a plain sieve of Eratosthenes."""
    composite = np.zeros(limit + 1, dtype=bool)
    w = np.zeros(limit + 1, dtype=np.int64)
    for p in range(2, limit + 1):
        if not composite[p]:
            composite[p * p::p] = True
            w[p::p] += 1
    return w


def divisor_sum(n: int) -> int:
    """sum_{k<=n} d(k) = 2 * sum_{q<=sqrt n} floor(n/q) - floor(sqrt n)**2."""
    r = math.isqrt(n)
    return 2 * sum(n // q for q in range(1, r + 1)) - r * r


def dirichlet_residual(n: int) -> float:
    return divisor_sum(n) - (n * math.log(n) + (2 * EULER_MASCHERONI - 1) * n)


def self_test() -> None:
    """Pin the oracles to values obtained independently of them."""
    pins = [
        (ball_size(2, 64), 18051), (ball_size(3, 8), 1395), (ball_size(2, 16), 813),
        (ball_size(2, 2), 7), (ball_size(1, 6), 13),
        (admissible_count("E6", 3), 6085), (admissible_count("B6", 2), 741),
        (admissible_count("E8", 1), 1), (admissible_count("A1", 5), 11),
        (order_zpk("A1", 5, 1), 120), (order_zpk("C2", 3, 1), 51840),
        (divisor_sum(10), 27), (index_from_standard(2, [[2, 1], [0, 3]]), 6),
    ]
    for got, want in pins:
        if got != want:
            raise AssertionError(f"oracle self-test: got {got}, expected {want}")
