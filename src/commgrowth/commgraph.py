"""The commensurability graph over one concrete subgroup family: full-rank
lattices (1/q)*rowspan(H) in Q^d, H in Hermite normal form.  RationalCyclic is
the d = 1 case (a/b)Z = (1/b)*rowspan((a)), shown and ordered by (a, b) and kept
apart from RationalLattice by type.  Edges carry the commensurability index
[A : A&B]*[B : A&B]; path length is the product of edge weights and the metric
is its logarithm.  All comparisons that matter are done on the exact integer
indices, never on logs.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from .errors import DomainError, _at_least, _guard, _integer, _items, _shown
from .reporting import BoundReport, compare

#: Largest ball radius, lattice dimension and candidate count enumerate_ball
#: admits (a ball is finite, not small), largest run_metric_checks samples,
#: most basis entries (dim**2) RationalLattice.scaled builds, and most items
#: read from a basis, a basis row or a chain.
MAX_BALL_RADIUS = 1000
MAX_BALL_DIM = 3
MAX_BALL_CANDIDATES = 3 * 10 ** 5
MAX_SAMPLES = 10 ** 5
MAX_LATTICE_ENTRIES = 10 ** 6
#: Most bytes of ball keys _ball_keys keeps for reuse, the least recently used let go first:
#: 2^25 holds the largest admitted ball, (41, 3) at 14.8 MB, twice.
MAX_BALL_CACHE_BYTES = 2 ** 25


# ---------------------------------------------------------------------------
# exact integer linear algebra on small row matrices


def _row_hnf(rows, cols):
    """Hermite normal form of the row span: upper triangular, positive
    pivots, entries above each pivot reduced into [0, pivot)."""
    if cols == len(rows) == 2 and (hnf := _plane_hnf(*rows[0], *rows[1])):
        return [[hnf[0], hnf[1]], [0, hnf[2]]]
    m, pivot_row = [list(r) for r in rows], 0
    for j in range(cols):
        pivot = next((i for i in range(pivot_row, len(m)) if m[i][j]), None)
        if pivot is None:
            continue
        m[pivot_row], m[pivot] = m[pivot], m[pivot_row]
        for i in range(pivot_row + 1, len(m)):
            while m[i][j]:
                q = m[pivot_row][j] // m[i][j]
                m[pivot_row] = [a - q * b for a, b in zip(m[pivot_row], m[i])]
                m[pivot_row], m[i] = m[i], m[pivot_row]
        if m[pivot_row][j] < 0:
            m[pivot_row] = [-a for a in m[pivot_row]]
        for i in range(pivot_row):
            q = m[i][j] // m[pivot_row][j]
            if q:
                m[i] = [a - q * b for a, b in zip(m[i], m[pivot_row])]
        pivot_row += 1
    return m[:pivot_row]


def _plane_hnf(a, b, c, d):
    """The HNF ((g, v), (0, k)) of the rows (a, b), (c, d) as (g, v, k), None if singular."""
    if det := abs(a * d - b * c):  # one gcd step s*a + t*c = g, and second pivot k = |det|/g
        g = math.gcd(a, c)  # when c is 0, s = a // g is the sign of a, and t = 0
        s = pow(a // g, -1, abs(c) // g) if c else a // g
        return g, (s * b + (g - s * a) // (c or 1) * d) % (det // g), det // g


def _intersect_integer(A, B):
    """HNF basis of A & B for full-rank integer d x d row bases A and B:
    the rows (a, a) and (b, 0) span S = {(x + y, x) : x in A, y in B}, and
    (0, x) lies in S exactly when x is in A & B.  The first halves span the
    full-rank A + B, so the echelon HNF of S puts its first d pivots there,
    and its last d rows, with a zero first half, span those (0, x)."""
    d = len(A)
    stacked = [list(a) + list(a) for a in A] + [list(b) + [0] * d for b in B]
    return [row[d:] for row in _row_hnf(stacked, 2 * d)[d:]]


def _hnf_det(hnf):
    """Determinant of a full-rank lattice from its HNF basis: the product
    of the pivots."""
    return math.prod(row[t] for t, row in enumerate(hnf))


# ---------------------------------------------------------------------------
# the subgroup family: lattices, with (a/b)Z as the dim-1 case


@dataclass(frozen=True)
class RationalLattice:
    """A full-rank subgroup (1/denom)*rowspan(basis) of Q^dim.

    The constructor canonicalizes: it accepts any generating integer rows,
    brings them to Hermite normal form, and strips the common content of
    the basis from the denominator.  Two values are equal exactly when the
    canonical fields coincide, so instances can be deduplicated in sets.
    """

    dim: int
    denom: int
    basis: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        dim, denom = _at_least("dim", self.dim, 1), _at_least("denom", self.denom, 1)
        rows = [_items("basis row", r, MAX_LATTICE_ENTRIES)
                for r in _items("basis", self.basis, MAX_LATTICE_ENTRIES)]
        if any(len(r) != dim for r in rows):
            raise DomainError("basis rows must have length dim")
        hnf = _row_hnf([[_integer("basis entry", v) for v in r] for r in rows], dim)
        if len(hnf) != dim:
            raise DomainError("basis does not span a full-rank lattice")
        self.__dict__.update(vars(self._from_hnf(dim, denom, hnf)))

    @classmethod
    def _canonical(cls, dim: int, denom: int, basis):
        """The value of these fields, already in canonical form: unchecked."""
        self = object.__new__(cls)
        fields = self.__dict__
        fields["dim"], fields["denom"], fields["basis"] = dim, denom, basis
        return self

    @classmethod
    def _from_hnf(cls, dim: int, denom: int, hnf) -> "RationalLattice":
        """(1/denom)*rowspan(hnf), for a full-rank HNF of ints: the common content
        of denom and the entries is stripped, and nothing else is checked."""
        content = math.gcd(denom, *itertools.chain.from_iterable(hnf))
        if content > 1:
            denom, hnf = denom // content, [[v // content for v in row] for row in hnf]
        return cls._canonical(dim, denom, tuple(map(tuple, hnf)))

    @classmethod
    def _plane(cls, denom: int, a: int, b: int, c: int) -> "RationalLattice":
        """(1/denom)*rowspan(((a, b), (0, c))), for a plane HNF of ints: _from_hnf at dim 2."""
        if (content := math.gcd(denom, a, b, c)) > 1:
            denom, a, b, c = denom // content, a // content, b // content, c // content
        return cls._canonical(2, denom, ((a, b), (0, c)))

    @classmethod
    def from_rows(cls, rows, denom: int = 1) -> "RationalLattice":
        rows = [_items("basis row", r, MAX_LATTICE_ENTRIES)
                for r in _items("basis", rows, MAX_LATTICE_ENTRIES)]
        if not rows:
            raise DomainError("need at least one generating row")
        return cls(len(rows[0]), denom, tuple(tuple(r) for r in rows))

    @classmethod
    def standard(cls, dim: int) -> "RationalLattice":
        """The integer lattice Z^dim."""
        return cls.scaled(dim, 1)

    @classmethod
    def scaled(cls, dim: int, num: int, den: int = 1) -> "RationalLattice":
        """(num/den) * Z^dim."""
        dim = _at_least("dim", dim, 1)
        _guard(dim * dim, MAX_LATTICE_ENTRIES,
               lambda: f"dimension {_shown(dim)} needs {_shown(dim * dim)} basis "
                       f"entries, guard is {MAX_LATTICE_ENTRIES}")
        return cls(dim, den, tuple(tuple(num if i == j else 0 for j in range(dim))
                                   for i in range(dim)))

    def _numerators(self, q: int):
        """Basis rows written over the denominator q, a multiple of denom."""
        return [[v * (q // self.denom) for v in row] for row in self.basis]

    def intersection(self, other: "RationalLattice") -> "RationalLattice":
        _require_same_family(self, other)
        if self.dim == 1:  # (a/b)Z & (a'/b')Z is (lcm(a, a')/gcd(b, b'))Z, already canonical
            a = math.lcm(self.basis[0][0], other.basis[0][0])
            return type(self)._canonical(1, math.gcd(self.denom, other.denom), ((a,),))
        if self.dim == 2:  # A & B has pivots a, c with a*c = det(A)*[A : A & B]
            q, a1, b1, c1, a2, b2, c2, total = self._plane_pair(other)
            c, g = math.lcm(c1, c2), math.gcd(c1, c2)  # (0, c) spans it on the second axis
            a = a1 * c1 * (a2 * c2 // total) // c
            r1, r2 = b1 * (a // a1), b2 * (a // a2)  # its corner b = r1 mod c1, r2 mod c2
            b = (r1 + c1 * ((r2 - r1) // g * pow(c1 // g, -1, c2 // g))) % c  # by the CRT
            return type(self)._plane(q, a, b, c)
        q = math.lcm(self.denom, other.denom)
        return type(self)._from_hnf(self.dim, q,
                                    _intersect_integer(self._numerators(q), other._numerators(q)))

    def _plane_pair(self, other: "RationalLattice"):
        """q = lcm(denoms), each plane HNF ((a, b), (0, c)) over q as a, b, c, and det(A + B)."""
        q = math.lcm(self.denom, other.denom)
        s, t = q // self.denom, q // other.denom
        ((a1, b1), (_, c1)), ((a2, b2), (_, c2)) = self.basis, other.basis
        a1, b1, c1, a2, b2, c2 = a1 * s, b1 * s, c1 * s, a2 * t, b2 * t, c2 * t
        # det(A + B) is the gcd of the 2x2 minors of the four stacked rows
        total = math.gcd(math.gcd(a1, a2) * math.gcd(c1, c2), a1 * b2 - a2 * b1)
        return q, a1, b1, c1, a2, b2, c2, total

    def _indices(self, other: "RationalLattice") -> tuple[int, int]:
        _require_same_family(self, other)
        if self.dim == 1:  # the intersection is (lcm(a, a')/gcd(b, b'))Z
            (a1,), (a2,) = self.basis[0], other.basis[0]
            a, b = math.lcm(a1, a2), math.gcd(self.denom, other.denom)
            return a // a1 * (self.denom // b), a // a2 * (other.denom // b)
        # [A : A & B] = [A + B : B]; over a common denominator each
        # index is a ratio of determinants, and A and B are already HNF
        if self.dim == 2:
            _, a1, _, c1, a2, _, c2, total = self._plane_pair(other)
            return a2 * c2 // total, a1 * c1 // total
        q = math.lcm(self.denom, other.denom)
        A, B = self._numerators(q), other._numerators(q)
        total = _hnf_det(_row_hnf([*A, *B], self.dim))
        return _hnf_det(B) // total, _hnf_det(A) // total

    def contains(self, other) -> bool:
        return self._indices(other)[1] == 1

    def index_of(self, sub) -> int:
        index, outside = self._indices(sub)
        if outside != 1:
            raise DomainError(f"{sub} is not a subgroup of {self}")
        return index

    def sort_key(self):
        return (self.denom,) + tuple(v for row in self.basis for v in row)

    def __str__(self):
        rows = ",".join("[" + ",".join(map(str, r)) + "]" for r in self.basis)
        return f"(1/{self.denom})<{rows}>"


class RationalCyclic(RationalLattice):
    """The subgroup (a/b)Z of the additive rationals, kept with gcd(a,b)=1, and (1, 1) is
    Z itself: the dim-1 lattice (1/b)*rowspan((a)), shown and ordered by (a, b)."""

    def __init__(self, a: int, b: int, *basis):
        if basis:  # the inherited standard, scaled and from_rows pass (dim, denom, basis)
            raise DomainError("build (a/b)Z as RationalCyclic(a, b)")
        self.__dict__.update(vars(self._reduced(_at_least("a", a, 1), _at_least("b", b, 1))))

    @classmethod
    def _reduced(cls, a: int, b: int) -> "RationalCyclic":  # ints a, b >= 1, unchecked
        g = math.gcd(a, b)
        return cls._canonical(1, b // g, ((a // g,),))

    a = property(lambda self: self.basis[0][0])
    b = property(lambda self: self.denom)

    def sort_key(self):
        return (self.a, self.b)

    def __str__(self):
        return f"({self.a}/{self.b})Z"

    def __repr__(self):
        return f"RationalCyclic(a={self.a!r}, b={self.b!r})"


def _subgroups(*groups) -> tuple:
    """groups, refused with DomainError unless each is a RationalLattice (a RationalCyclic is one)."""
    for g in groups:
        if not isinstance(g, RationalLattice):
            raise DomainError(f"unsupported family {type(g).__name__}")
    return groups


def _require_same_family(A, B):
    if type(A) is not type(B):
        raise DomainError(f"mixed families: {type(A).__name__} vs {type(B).__name__}")
    if A.dim != B.dim:
        raise DomainError(f"dimension mismatch: {A.dim} vs {B.dim}")


# ---------------------------------------------------------------------------
# graph operations


@dataclass(frozen=True)
class CommIndex:
    """The pair of indices over the common intersection; the edge weight
    of the commensurability graph is their product."""

    left_index: int
    right_index: int

    @property
    def value(self) -> int:
        return self.left_index * self.right_index


@dataclass(frozen=True)
class GeodesicPath:
    vertices: tuple
    length: int


def intersect(L1, L2):
    """Intersection inside either family (canonical form)."""
    _subgroups(L1, L2)
    return L1.intersection(L2)


def index_in(sub, sup) -> int:
    """[sup : sub] for nested subgroups of one family."""
    _subgroups(sub, sup)
    return sup.index_of(sub)


def comm_index(A, B) -> CommIndex:
    """Exact commensurability index data of two commensurable subgroups."""
    _subgroups(A, B)
    ci = object.__new__(CommIndex)  # both fields set as its __init__ would; it checks nothing
    ci.__dict__["left_index"], ci.__dict__["right_index"] = A._indices(B)
    return ci


def distance(A, B) -> float:
    """log of the commensurability index; zero exactly on equal subgroups."""
    return math.log(comm_index(A, B).value)


def geodesic(A, B) -> GeodesicPath:
    """A shortest path through the intersection.

    The generic shape is [A, A&B, B]; when one subgroup contains the other
    the degenerate vertex is merged away.
    """
    ci = comm_index(A, B)
    if A == B:
        return GeodesicPath((A,), 1)
    if 1 in (ci.left_index, ci.right_index):  # nested: a single edge
        return GeodesicPath((A, B), ci.value)
    return GeodesicPath((A, intersect(A, B), B), ci.value)


def chain_length(chain) -> int:
    """Product of the successive indices along a nested chain
    H_1 <= H_2 <= ... <= H_n; equals the endpoint commensurability index."""
    groups = _subgroups(*_items("chain", chain, MAX_LATTICE_ENTRIES))
    if not groups:
        raise DomainError("chain must contain at least one subgroup")
    return math.prod(sup.index_of(sub) for sub, sup in zip(groups, groups[1:]))


# ---------------------------------------------------------------------------
# ball enumeration


def _offsets(count):
    """0, 1, ..., c - 1 for each c of the int64 array count, one after another."""
    import numpy as np
    return np.arange(count.sum()) - (count.cumsum() - count).repeat(count)


def _sublattice_counts(dim: int, n: int):
    """a(m) for m <= n: the sublattices of index m of Z^dim, the rows of determinant m of
    _hnf_stack, counted by its level step on int64 counts (exact: see _ball_census)."""
    import numpy as np
    a, i = np.minimum(np.arange(n + 1), 1), np.arange(1, n + 1)  # a(m) = 1 at dim 1
    if dim > 1:  # the pairs (j, t) with t*j <= n, the same at every level
        j, t = i.repeat(c := n // i), _offsets(c) + 1
    for _ in range(dim - 1):  # a first row (t, v) on a row of determinant j: j choices of v
        a, below = np.zeros(n + 1, np.int64), a
        np.add.at(a, j * t, j * below[j])
    return a


def _hnf_stack(dim: int, n: int):
    """Every dim x dim HNF matrix of determinant <= n, as the int64 columns {(r, c): entries}
    of its upper triangle, and the determinants, in the order they are built.  These index
    the sublattices of index <= n of Z^dim; _ball_keys counts them before it builds them."""
    import numpy as np
    H, det = {}, np.ones(1, np.int64)  # the 0 x 0 matrix, of determinant 1
    for s in range(1, dim + 1):
        # a first row (a, v) on top of H' of size s - 1, with a*det(H') <= n and
        # 0 <= v_c < H'_cc: det(H') choices of v, the mixed-radix digits of one code
        count = n // det * det
        code = _offsets(count)
        H = {(r + 1, c + 1): col.repeat(count) for (r, c), col in H.items()}
        for c in range(1, s):
            code, H[0, c] = code // H[c, c], code % H[c, c]
        H[0, 0] = code + 1
        det = H[0, 0] * det.repeat(count)
    return H, det


def _frames(H, det):
    """The frame of each HNF matrix H of determinant j: K = j * rowspan(H)^*, so
    (1/j)*K*L runs over the overlattices of index j of any lattice L in its basis.
    K is spanned by the rows of adj(H)^T; reversing the coordinates, an automorphism
    of Z^dim, makes them the upper triangular anti-transpose of adj(H), left unreduced:
    rowspan(K*L) is the same for every basis of K, and _triangular_canonical reduces K*L."""
    dim, adj = max(H)[0] + 1, {}
    for r in range(dim - 1, -1, -1):  # row r of H*adj(H) = j*I, by back-substitution
        adj[r, r] = det // H[r, r]
        for x in range(r + 1, dim):
            adj[r, x] = -sum(H[r, c] * adj[c, x] for c in range(r + 1, x + 1)) // H[r, r]
    return {(r, c): adj[dim - 1 - c, dim - 1 - r] for r, c in adj}


def _triangular_canonical(q, a, b, dim: int):
    """Key columns (q, P row by row) of (1/q)*rowspan(P) for P = A*B, upper triangles with
    positive diagonals and entries a(r, t) and b(t, c) (int64 or Python ints).  P is the sum
    over t of column t of A times row t of B, each entry fetched once and dropped after, then
    brought to HNF as by _row_hnf: each entry above a pivot into [0, pivot)."""
    import numpy as np
    P, g = {}, q
    for t in range(dim):
        col, row = [a(r, t) for r in range(t + 1)], [b(t, c) for c in range(t, dim)]
        for (r, x), (c, y) in itertools.product(enumerate(col), enumerate(row, t)):
            P[r, c] = P[r, c] + x * y if r < t else x * y
    for r, c in itertools.combinations(range(dim), 2):  # row c still as given
        k = P[r, c] // P[c, c]
        for t in range(c, dim):
            P[r, t] = P[r, t] - k * P[c, t]
    for col in P.values():
        g = np.gcd(g, col)
    return np.stack([q // g] + [P[rc] // g for rc in sorted(P)])


_ball_cache, _ball_cache_bytes = {}, 0  # (n, dim) -> keys, least recently used first; their bytes


def _ball_keys(n: int, dim: int):
    """Sorted, distinct int64 key rows (q, upper triangle row by row) of the ball of radius n
    around Z^dim, its candidate count refused before the stack is built.  S = rel*Z^dim of index i
    lies in L & Z^dim for L = (1/j)*frame*rel, so c(Z^dim, L) <= i*j <= n; each L arises with
    S = L & Z^dim.  int64 is exact: as 0 <= H_rc < H_cc, induction up from adj_xx = j/H_xx
    bounds H_rr*adj_rx and each of its terms and partial sums in _frames by 2^(x-r-1)*j, so
    |F_rt| <= 2^(dim-2)*j (j if dim = 1).  As 0 <= R_tc <= R_cc <= i, frame*rel has terms of
    size <= 2^(dim-2)*n and entries of size <= B = dim*2^(dim-2)*n; _triangular_canonical
    then subtracts k*(row c) from row r with |k| < (B + 1)^(c-r), by induction on c - r: all
    it forms is below (B + 1)^dim.  At dim 2 the frame of [[a, b], [0, c]] is [[a, -b], [0, c]].
    The sort code's radices multiply to 2.1e9 at (n, dim) = (213, 2) and 2.1e11 at (41, 3), the
    largest balls admitted, under the 1.7e10 and 1.5e14 that entries below dim*n allow.
    Each (n, dim) the census admits is built once and kept within MAX_BALL_CACHE_BYTES: every
    later call, around any basepoint, gets the same array, which lies over bytes, so neither it
    nor any array in its .base chain can be made writeable."""
    global _ball_cache_bytes
    n, _, A, _ = _ball_census(n, dim)
    if (keys := _ball_cache.pop(key := (n, _integer("dim", dim)), None)) is not None:
        _ball_cache[key] = keys  # last in the dict: the most recently used
        return keys
    import numpy as np
    R, det = _hnf_stack(dim, n)
    order = det.argsort(kind="stable")  # then those frames are a prefix of the stack
    R, det = {rc: col[order] for rc, col in R.items()}, det[order]
    counts, F = A[n // det], _frames(R, det)
    frame_of = _offsets(counts)
    columns = _triangular_canonical(det[frame_of], lambda r, t: F[r, t][frame_of],
                                    lambda t, c: R[t, c].repeat(counts), dim)
    # one int64 per row: its mixed-radix digits, most significant first, of radix max + 1
    radices = [int(col.max()) + 1 for col in columns]
    _guard(size := math.prod(radices), 2 ** 63,
           lambda: f"ball sort code range {size} exceeds guard {2 ** 63}")
    code = 0
    for col, radix in zip(columns, radices):  # a column of zeros, of radix 1, adds no digit
        code = code * radix + col
    order = code.argsort()
    keys = columns[:, order[np.diff(code[order], prepend=-1) != 0]]
    keys = np.frombuffer(keys.tobytes(), np.int64).reshape(keys.shape).T
    if keys.nbytes <= MAX_BALL_CACHE_BYTES:  # a larger ball is returned, not kept
        while _ball_cache_bytes + keys.nbytes > MAX_BALL_CACHE_BYTES:
            _ball_cache_bytes -= _ball_cache.pop(next(iter(_ball_cache))).nbytes
        _ball_cache[key], _ball_cache_bytes = keys, _ball_cache_bytes + keys.nbytes
    return keys


def _ball_census(n: int, dim: int):
    """n as _check_ball returns it; a(m) and A(m) = a(1) + ... + a(m) for m <= n; and K, where
    K(x) = sum a(i)*A(x // i) over i <= x counts the candidates (a relation of index i, a frame of
    index j <= x // i) of the ball of radius x <= n, refused past the guard at n.  All int64, and
    exact, as _check_ball caps dim <= 3 and n <= 1000: K(n) <= 8,172,554,483, at (3, 1000)."""
    n = _check_ball(n, dim)
    import numpy as np
    A = (a := _sublattice_counts(dim, n)).cumsum()
    K = lambda x: int(a[1:x + 1] @ A[x // np.arange(1, x + 1)])
    _guard(total := K(n), MAX_BALL_CANDIDATES,
           lambda: f"{total} ball candidates exceed guard {MAX_BALL_CANDIDATES}")
    return n, a, A, K


def _check_ball(n: int, dim: int):
    """Refuse a lattice dimension or ball radius that is no integer, below 1 or past its
    guard; return n as an int.  _ball_census calls it before it counts or builds anything."""
    dim = _at_least("dim", dim, 1)
    n = _at_least("ball radius", n, 1)
    _guard(n, MAX_BALL_RADIUS, lambda: f"ball bound {_shown(n)} exceeds guard {MAX_BALL_RADIUS}")
    _guard(dim, MAX_BALL_DIM,
           lambda: f"lattice dimension {_shown(dim)} exceeds guard {MAX_BALL_DIM}")
    return n


def enumerate_ball(gamma, n: int):
    """All subgroups in gamma's family at commensurability index <= n, in canonical form,
    sorted, duplicate free, within MAX_BALL_RADIUS, MAX_BALL_DIM and MAX_BALL_CANDIDATES,
    all three checked by the kernel before it builds anything."""
    d = _subgroups(gamma)[0].dim
    keys, upper = _ball_keys(n, d), list(itertools.combinations_with_replacement(range(d), 2))
    import numpy as np
    cyclic = isinstance(gamma, RationalCyclic)  # its members are sorted by (a, b)
    moved = (gamma.denom, _hnf_det(gamma.basis)) != (1, 1)  # not Z^d, whose HNF is the identity
    if moved:  # x -> x*gamma maps ball(Z^d) onto ball(gamma) injectively; in Python ints
        K = dict(zip(upper, keys.T[1:].astype(object)))
        keys = _triangular_canonical(keys[:, 0].astype(object) * gamma.denom, lambda r, t: K[r, t],
                                     lambda t, c: gamma.basis[t][c], d).T
    rows = np.zeros((len(keys), 1 + d * d), keys.dtype)  # (q, basis row by row)
    rows[:, [0] + [1 + r * d + c for r, c in upper]] = keys
    # sorted around Z^d; a cyclic row (b, a) reads as (a, b): (b/a)Z lies at a*b from Z too
    rows = sorted(rows[:, ::-1 if cyclic else 1].tolist()) if moved else rows.tolist()
    if cyclic:
        return [RationalCyclic._canonical(1, b, ((a,),)) for a, b in rows]
    return [RationalLattice._canonical(d, q, tuple(zip(*[iter(flat)] * d))) for q, *flat in rows]


def check_transfer_inequality(A, B, n: int) -> BoundReport:
    """Ball-size transfer: |ball(A, n)| <= |ball(B, c(A,B)*n)|.  x -> x*gamma carries ball(Z^d, n)
    onto ball(gamma, n): both are counted around Z^d by _ball_census at c(A,B)*n, building nothing.
    As sum c_m m^-s = zeta(s)^2/zeta(2s), zeta(s) = sum a(m) m^-s (Lubotzky-Segal 2003), K sums
    a*a = c*(a(e) at e^2): C(x) = |ball(Z^d, x)| = K(x) - sum a(e)*C(x // e^2), e = 2..isqrt(x)."""
    c_ab, n = comm_index(A, B).value, _check_ball(n, A.dim)
    top, a, _, K = _ball_census(c_ab * n, A.dim)
    C = {}  # in Python ints, at each top // k: every x // e^2 and n = top // c_ab are one
    for x in sorted({top // k for k in range(1, top + 1)}):
        C[x] = K(x) - sum(int(a[e]) * C[x // e ** 2] for e in range(2, math.isqrt(x) + 1))
    left, right = C[n], C[top]
    return compare("ball_transfer", left, right, n=n, c_ab=c_ab, left_card=left, right_card=right)


# ---------------------------------------------------------------------------
# seeded property sampling


def _below(getrandbits, k: int) -> int:
    """A draw from [0, k) as Random._randbelow(k) makes it: k.bit_length() bits until < k."""
    while (r := getrandbits(k.bit_length())) >= k:
        pass
    return r


def _random_cyclic(rng: random.Random) -> RationalCyclic:
    bits = rng.getrandbits
    return RationalCyclic._reduced(_below(bits, 60) + 1, _below(bits, 60) + 1)


def _random_lattice(rng: random.Random, dim: int = 2) -> RationalLattice:
    bits = rng.getrandbits
    while True:  # dim * dim entries in [-4, 4], row by row
        if dim != 2:
            hnf = _row_hnf([[_below(bits, 9) - 4 for _ in range(dim)] for _ in range(dim)], dim)
            if len(hnf) == dim:
                return RationalLattice._from_hnf(dim, _below(bits, 6) + 1, hnf)
        elif hnf := _plane_hnf(_below(bits, 9) - 4, _below(bits, 9) - 4,  # faster than a loop
                               _below(bits, 9) - 4, _below(bits, 9) - 4):
            return RationalLattice._plane(_below(bits, 6) + 1, *hnf)


# the 2x2 HNFs ((a, v), (0, k // a)) of determinant k <= 4, by a and then v, as (a, v, k // a)
_CHAIN_STEPS = {k: [(a, v, k // a) for a in range(1, k + 1) if k % a == 0
                    for v in range(k // a)] for k in range(1, 5)}


def _random_chain(rng: random.Random, sample):
    """A nested chain down from sample(rng), a cyclic or a dim-2 lattice sampler."""
    bits, desc = rng.getrandbits, [sample(rng)]
    for _ in range(_below(bits, 4) + 1):
        last = desc[-1]
        if isinstance(last, RationalCyclic):
            desc.append(RationalCyclic._reduced(last.a * (_below(bits, 4) + 1), last.b))
        else:
            steps = _CHAIN_STEPS[_below(bits, 4) + 1]
            a, v, d = steps[_below(bits, len(steps))]
            (p, u), (_, r) = last.basis  # rel*basis is triangular: only its corner is reduced
            desc.append(type(last)._plane(last.denom, a * p, (a * u + v * r) % (d * r), d * r))
    return list(reversed(desc))


def run_metric_checks(samples: int = 1000, seed: int = 0) -> list[BoundReport]:
    """Seeded property suite over both families: metric axioms on triples,
    geodesic length against the product of its edge indices on pairs, and
    nested-chain length against the endpoint index.

    Each report counts violations (lhs) against zero (rhs), so the suite
    passes exactly when every counter stays at zero.
    """
    samples = _at_least("samples", samples, 1)
    _guard(samples, MAX_SAMPLES,
           lambda: f"sample count {_shown(samples)} exceeds guard {MAX_SAMPLES}")
    seed = _integer("seed", seed)
    rng = random.Random(seed)
    reports = []
    for family, sample in (("cyclic", _random_cyclic), ("lattice2", _random_lattice)):
        sym = ident = tri = 0
        for _ in range(samples):
            H, K, L = sample(rng), sample(rng), sample(rng)
            hk = comm_index(H, K).value
            if hk != comm_index(K, H).value:
                sym += 1
            if (hk == 1) != (H == K):
                ident += 1
            if hk > comm_index(H, L).value * comm_index(L, K).value:
                tri += 1
        geo = 0
        for _ in range(samples):
            A, B = sample(rng), sample(rng)
            path = geodesic(A, B)
            edges = zip(path.vertices, path.vertices[1:])
            if path.length != math.prod(comm_index(u, v).value for u, v in edges):
                geo += 1
        chains = 0
        for _ in range(samples):
            chain = _random_chain(rng, sample)
            if chain_length(chain) != comm_index(chain[0], chain[-1]).value:
                chains += 1
        ctx = {"family": family, "samples": samples, "seed": seed}
        reports.append(compare("metric_symmetry", sym, 0, **ctx))
        reports.append(compare("metric_identity", ident, 0, **ctx))
        reports.append(compare("metric_triangle", tri, 0, **ctx))
        reports.append(compare("geodesic_length", geo, 0, **ctx))
        reports.append(compare("chain_length", chains, 0, **ctx))
    return reports
