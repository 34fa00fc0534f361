"""Pure-Python oracles of the lattice ball around Z^d.

They know nothing of how commgraph lays out its ball kernel: every
sublattice by brute Hermite-normal-form enumeration, every overlattice by a
brute filter, the (relation, frame) search with no deduplication but a set,
and the ball sizes from zeta_{Z^d}(s)^2 / zeta_{Z^d}(2s).  The ball tests
check `_ball_keys`, `enumerate_ball`, `growth ball`, `_ball_census` and the
guard messages against this module, so a change to the kernel's layout
alone changes no test.
"""

import functools
import itertools
import math

from commgrowth.commgraph import RationalLattice, comm_index


def _diagonals(dim, m):
    """Every dim-tuple of positive integers whose product is m."""
    if dim == 0:
        yield from [()] if m == 1 else []
        return
    for head in range(1, m + 1):
        if m % head == 0:
            for rest in _diagonals(dim - 1, m // head):
                yield (head,) + rest


def hnf_of_index(dim, m):
    """Every dim x dim Hermite normal form of determinant m, as a tuple of
    rows: upper triangular, positive diagonal, each entry above a pivot in
    [0, pivot).  These are the sublattices of index m of Z^dim."""
    above = list(itertools.combinations(range(dim), 2))
    for diag in _diagonals(dim, m):
        for entries in itertools.product(*(range(diag[c]) for _, c in above)):
            H = [[0] * dim for _ in range(dim)]
            for r in range(dim):
                H[r][r] = diag[r]
            for (r, c), v in zip(above, entries):
                H[r][c] = v
            yield tuple(map(tuple, H))


@functools.cache
def hnf_matrices(dim, n):
    """(H, det) for every dim x dim Hermite normal form H of determinant
    det <= n, by determinant, each determinant's in lexicographic order."""
    return tuple((H, m) for m in range(1, n + 1) for H in hnf_of_index(dim, m))


def frames(dim, j):
    """Every K = j*L for L an overlattice of index j of Z^dim, by brute
    filter: the Hermite normal forms of determinant j**(dim-1) whose row span
    holds each j*e_t."""
    units = [[j * (t == c) for c in range(dim)] for t in range(dim)]
    return [K for K in hnf_of_index(dim, j ** (dim - 1))
            if all(_in_row_span(K, v) for v in units)]


def overlattices(dim, j):
    """Every overlattice of index j of Z^dim, as the lattices (1/j)*K."""
    return {RationalLattice.from_rows(K, denom=j) for K in frames(dim, j)}


def _in_row_span(K, v):
    """Whether the integer row v is an integer combination of the rows of
    the upper triangular K, by back-substitution."""
    for r, row in enumerate(K):
        x, rest = divmod(v[r], row[r])
        if rest:
            return False
        v = [a - x * b for a, b in zip(v, row)]
    return True


def _product(A, B):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*B)] for row in A]


def undeduplicated_ball(gamma, n):
    """ball(gamma, n) by search around gamma itself, without transport from
    Z^d: each sublattice M = rel*gamma of index i, with each overlattice
    (1/j)*K*M of index j, i*j <= 2n, kept when comm_index(gamma, L) <= n;
    duplicates fall together only in the set."""
    dim, seen = gamma.dim, set()
    by_index = {j: frames(dim, j) for j in range(1, 2 * n + 1)}
    for rel, i in hnf_matrices(dim, 2 * n):
        M = RationalLattice(dim, gamma.denom, _product(rel, gamma.basis))
        for j in range(1, 2 * n // i + 1):
            for K in by_index[j]:
                L = RationalLattice(dim, M.denom * j, _product(K, M.basis))
                if comm_index(gamma, L).value <= n:
                    seen.add(L)
    return seen


@functools.cache
def sublattice_counts(dim, n=1000):
    """a(m) for m <= n, the number of sublattices of index m of Z^dim:
    zeta_{Z^dim}(s) = zeta(s)*zeta(s-1)*...*zeta(s-dim+1), so a is the
    Dirichlet convolution of m -> m**e over e < dim."""
    a = [0] + [1] * n
    for e in range(1, dim):
        for k in range(n // 2, 0, -1):  # a[k] is still the last level's here
            a[2 * k::k] = [x + q ** e * a[k] for q, x in enumerate(a[2 * k::k], 2)]
    return tuple(a)


def candidate_count(dim, n):
    """The candidates (relation of index i, frame of index j), i*j <= n:
    a(i) times A(n // i), summed over every i <= n, each prefix sum taken
    afresh."""
    a = sublattice_counts(dim)
    return sum(a[i] * sum(a[:n // i + 1]) for i in range(1, n + 1))


@functools.cache
def ball_sizes(dim, n=1000):
    """C(x) = |ball(Z^dim, x)| for x <= n (C(0) = 0): the prefix sums of
    c = a*a*nu, since the commensurability series of Z^dim is
    zeta(s)^2/zeta(2s), zeta = sum a(m) m^-s (Lubotzky-Segal, Subgroup
    Growth, 2003), and nu is the Dirichlet inverse of a(e) at e^2."""
    a = sublattice_counts(dim, n)
    c = [0] * (n + 1)
    for i in range(1, n + 1):  # a*a
        for k in range(i, n + 1, i):
            c[k] += a[i] * a[k // i]
    for m in range(1, n + 1):  # c*(a(e) at e^2) = a*a, solved for c one m at a time
        c[m] -= sum(a[e] * c[m // (e * e)] for e in range(2, math.isqrt(m) + 1)
                    if m % (e * e) == 0)
    return tuple(itertools.accumulate(c))
