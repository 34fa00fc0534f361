"""The commensurability graph over two concrete subgroup families.

Vertices are cyclic subgroups (a/b)Z of the rationals or finite-rank
lattices (1/q)*rowspan(H) in Q^d with H in Hermite normal form.  Edges
carry the commensurability index [A : A&B]*[B : A&B]; path length is the
product of edge weights and the metric is its logarithm.  All comparisons
that matter are done on the exact integer indices, never on logs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .arith import divisors
from .errors import DomainError, ResourceLimitError, _at_least, _integer, _shown
from .reporting import BoundReport, compare

#: Largest ball radius, lattice dimension and candidate count enumerate_ball
#: admits (a ball is finite, not small), and largest run_metric_checks samples.
MAX_BALL_RADIUS = 1000
MAX_BALL_DIM = 3
MAX_BALL_CANDIDATES = 3 * 10 ** 5
MAX_SAMPLES = 10 ** 5


# ---------------------------------------------------------------------------
# exact integer linear algebra on small row matrices


def _row_hnf(rows, cols):
    """Hermite normal form of the row span: upper triangular, positive
    pivots, entries above each pivot reduced into [0, pivot)."""
    m = [list(r) for r in rows]
    pivot_row = 0
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
# the two subgroup families


class _Subgroup:
    """contains and index_of, read off [self : self&other], [other : self&other]."""

    @classmethod
    def _canonical(cls, fields: dict):
        """The value of fields, by name, already in canonical form: unchecked."""
        self = object.__new__(cls)
        self.__dict__.update(fields)
        return self

    def contains(self, other) -> bool:
        return self._indices(other)[1] == 1

    def index_of(self, sub) -> int:
        index, outside = self._indices(sub)
        if outside != 1:
            raise DomainError(f"{sub} is not a subgroup of {self}")
        return index


@dataclass(frozen=True)
class RationalCyclic(_Subgroup):
    """The subgroup (a/b)Z of the additive rationals, kept with gcd(a,b)=1.

    (1, 1) is the integers themselves.
    """

    a: int
    b: int

    def __post_init__(self):
        a, b = _at_least("a", self.a, 1), _at_least("b", self.b, 1)
        g = math.gcd(a, b)
        object.__setattr__(self, "a", a // g)
        object.__setattr__(self, "b", b // g)

    def intersection(self, other: "RationalCyclic") -> "RationalCyclic":
        _require_same_family(self, other)
        return RationalCyclic(math.lcm(self.a, other.a), math.gcd(self.b, other.b))

    def _indices(self, other: "RationalCyclic") -> tuple[int, int]:
        # the intersection is (lcm(a, a')/gcd(b, b'))Z
        _require_same_family(self, other)
        a, b = math.lcm(self.a, other.a), math.gcd(self.b, other.b)
        return a // self.a * (self.b // b), a // other.a * (other.b // b)

    def sort_key(self):
        return (self.a, self.b)

    def __str__(self):
        return f"({self.a}/{self.b})Z"


@dataclass(frozen=True)
class RationalLattice(_Subgroup):
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
        rows = [list(r) for r in self.basis]
        if any(len(r) != dim for r in rows):
            raise DomainError("basis rows must have length dim")
        hnf = _row_hnf([[_integer("basis entry", v) for v in r] for r in rows], dim)
        if len(hnf) != dim:
            raise DomainError("basis does not span a full-rank lattice")
        content = math.gcd(denom, math.gcd(*(abs(v) for row in hnf for v in row)))
        if content > 1:
            hnf = [[v // content for v in row] for row in hnf]
            denom //= content
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "denom", denom)
        object.__setattr__(self, "basis", tuple(tuple(row) for row in hnf))

    @classmethod
    def from_rows(cls, rows, denom: int = 1) -> "RationalLattice":
        rows = [list(r) for r in rows]
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
        return cls(dim, den, tuple(tuple(num * int(i == j) for j in range(dim))
                                   for i in range(dim)))

    def _numerators(self, q: int):
        """Basis rows written over the denominator q, a multiple of denom."""
        return [[v * (q // self.denom) for v in row] for row in self.basis]

    def intersection(self, other: "RationalLattice") -> "RationalLattice":
        _require_same_family(self, other)
        q = math.lcm(self.denom, other.denom)
        return RationalLattice(self.dim, q,
                               _intersect_integer(self._numerators(q), other._numerators(q)))

    def _indices(self, other: "RationalLattice") -> tuple[int, int]:
        # [A : A & B] = [A + B : B]; over a common denominator each
        # index is a ratio of determinants, and A and B are already HNF
        _require_same_family(self, other)
        q = math.lcm(self.denom, other.denom)
        A, B = self._numerators(q), other._numerators(q)
        total = _hnf_det(_row_hnf(A + B, self.dim))
        return _hnf_det(B) // total, _hnf_det(A) // total

    def sort_key(self):
        return (self.denom,) + tuple(v for row in self.basis for v in row)

    def __str__(self):
        rows = ",".join("[" + ",".join(map(str, r)) + "]" for r in self.basis)
        return f"(1/{self.denom})<{rows}>"


def _require_same_family(A, B):
    if type(A) is not type(B):
        raise DomainError(f"mixed families: {type(A).__name__} vs {type(B).__name__}")
    if isinstance(A, RationalLattice) and A.dim != B.dim:
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
    return L1.intersection(L2)


def index_in(sub, sup) -> int:
    """[sup : sub] for nested subgroups of one family."""
    return sup.index_of(sub)


def comm_index(A, B) -> CommIndex:
    """Exact commensurability index data of two commensurable subgroups."""
    return CommIndex(*A._indices(B))


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
    groups = list(chain)
    if not groups:
        raise DomainError("chain must contain at least one subgroup")
    total = 1
    for sub, sup in zip(groups, groups[1:]):
        total *= sup.index_of(sub)
    return total


# ---------------------------------------------------------------------------
# ball enumeration


def _hnf_stack(dim: int, n: int):
    """Every dim x dim HNF matrix of determinant <= n, as one int64 stack, and
    the determinants: by determinant, then diagonal, then the entries above the
    pivots column by column.  These index the sublattices of index <= n of Z^dim."""
    import numpy as np
    H, det = np.arange(1, n + 1).reshape(-1, 1, 1), np.arange(1, n + 1)
    for s in range(2, dim + 1):
        # a first row (a, v) on top of H' of size s - 1, with a*det(H') <= n and
        # 0 <= v_c < H'_cc: det(H') choices of v, the mixed-radix digits of one code
        count = n // det * det
        of = np.repeat(np.arange(len(H)), count)
        code = np.arange(len(of)) - np.repeat(np.cumsum(count) - count, count)
        new = np.zeros((len(of), s, s), np.int64)
        new[:, 1:, 1:] = H[of]
        new[:, 0, 0], code = code // det[of] + 1, code % det[of]
        for c in range(1, s):
            code, new[:, 0, c] = np.divmod(code, H[of, c - 1, c - 1])
        H, det = new, new[:, 0, 0] * det[of]
    order = np.lexsort([H[:, r, c] for c in range(dim - 1, 0, -1) for r in range(c - 1, -1, -1)]
                       + [H[:, t, t] for t in range(dim - 1, -1, -1)] + [det])
    return H[order], det[order]


def _frames(H, det):
    """The frame of each HNF matrix H of determinant j: K = j * rowspan(H)^*, so
    (1/j)*K*L runs over the overlattices of index j of any lattice L in its basis.
    K is spanned by the rows of adj(H)^T; reversing the coordinates, an
    automorphism of Z^dim, makes them the upper triangular anti-transpose of adj(H)."""
    import numpy as np
    dim, adj = H.shape[1], np.zeros_like(H)
    for r in range(dim - 1, -1, -1):
        # row r of H*adj(H) = det*I by back-substitution: |adj| <= 2n^2 and every
        # partial sum is at most 4n^3 < 2^63 for n <= MAX_BALL_RADIUS, so int64 is exact
        rest = np.einsum("kc,kcx->kx", H[:, r, r + 1:], adj[:, r + 1:])
        adj[:, r] = (det[:, None] * (np.arange(dim) == r) - rest) // H[:, r, r, None]
    return _reduced(adj[:, ::-1, ::-1].transpose(0, 2, 1).copy())


def _reduced(P):
    """P, a stack of upper triangular matrices with positive diagonals, brought
    in place to HNF as by _row_hnf: each entry above a pivot into [0, pivot)."""
    for c in range(1, P.shape[1]):
        for r in range(c):
            P[:, r] -= (P[:, r, c] // P[:, c, c])[:, None] * P[:, c]
    return P


def _triangular_canonical(q, P):
    """Key rows (q, P row by row) of (1/q)*rowspan(P), P a stack of upper
    triangular matrices with positive diagonals, reduced in place."""
    import numpy as np
    flat = _reduced(P).reshape(len(P), -1)
    g = np.gcd(np.gcd.reduce(flat, axis=1), q)
    return np.column_stack([q // g, flat // g[:, None]])


def _ball_keys(n: int, dim: int | None):
    """Sorted, distinct int64 key rows (q, P) of the ball of radius n around Z^dim, or Z
    for dim None (rows (b, a), sorted as (a, b)).  S = rel*Z^dim of index i lies in L & Z^dim
    for L = (1/j)*frame*rel, so c(Z^dim, L) <= i*j <= n; each L arises with S = L & Z^dim."""
    import numpy as np
    R, det = _hnf_stack(dim or 1, n)
    F = _frames(R, det)
    # the frames of index j <= n // i are a prefix of the stack
    counts = np.searchsorted(det, n // det, side="right")
    rel_of = np.repeat(np.arange(len(R)), counts)
    frame_of = np.arange(len(rel_of)) - np.repeat(np.cumsum(counts) - counts, counts)
    # frame*rel is upper triangular with entries <= dim*n: int64 is exact
    keys = _triangular_canonical(det[frame_of], F[frame_of] @ R[rel_of])
    keys = keys[np.lexsort(keys.T[::-1] if dim else keys.T)]  # np.unique is slower
    return keys[np.r_[True, (keys[1:] != keys[:-1]).any(axis=1)]]


def _ball_candidates(n: int, dim: int) -> int:
    """How many candidates _ball_keys builds: the sum of a(i)*A(n // i) over
    i <= n, for the counts a of sublattices of Z^dim by index and their prefix sums A."""
    a = [0] + [1] * n
    for e in range(1, dim):
        a = [0] + [sum(q ** e * a[m // q] for q in divisors(m)) for m in range(1, n + 1)]
    return sum(a[i] * sum(a[:n // i + 1]) for i in range(1, n + 1))


def _check_ball(n: int, dim: int | None):
    """Refuse a lattice dimension (None for the cyclic family), ball radius or
    candidate count past its guard, before any of the ball is built; return n as an int."""
    dim = None if dim is None else _at_least("dim", dim, 1)
    n = _at_least("ball radius", n, 1)
    if n > MAX_BALL_RADIUS:
        raise ResourceLimitError(f"ball bound {_shown(n)} exceeds guard {MAX_BALL_RADIUS}")
    if dim is not None and dim > MAX_BALL_DIM:
        raise ResourceLimitError(f"lattice dimension {_shown(dim)} "
                                 f"exceeds guard {MAX_BALL_DIM}")
    if (count := _ball_candidates(n, dim or 1)) > MAX_BALL_CANDIDATES:
        raise ResourceLimitError(f"{count} ball candidates exceed guard {MAX_BALL_CANDIDATES}")
    return n


def enumerate_ball(gamma, n: int):
    """All subgroups in gamma's family at commensurability index <= n,
    in canonical form, sorted, duplicate free, within MAX_BALL_RADIUS,
    MAX_BALL_CANDIDATES and (lattices only) MAX_BALL_DIM."""
    if isinstance(gamma, RationalCyclic):
        dim, denom, basis = None, gamma.b, ((gamma.a,),)
    elif isinstance(gamma, RationalLattice):
        dim, denom, basis = gamma.dim, gamma.denom, gamma.basis
    else:
        raise DomainError(f"unsupported family {type(gamma).__name__}")
    n = _check_ball(n, dim)
    import numpy as np
    d, keys = len(basis), _ball_keys(n, dim)
    if (denom, basis) != (1, RationalLattice.standard(d).basis):
        # x -> x*gamma maps ball(Z^d) onto ball(gamma) injectively; in Python ints
        P = keys[:, 1:].reshape(-1, d, d).astype(object) @ np.array(basis, dtype=object)
        keys = _triangular_canonical(keys[:, 0].astype(object) * denom, P)
    if dim is None:
        return [RationalCyclic._canonical({"a": a, "b": b})
                for a, b in sorted((a, b) for b, a in keys.tolist())]
    return [RationalLattice._canonical({"dim": d, "denom": q,
                                        "basis": tuple(zip(*[iter(flat)] * d))})
            for q, *flat in sorted(keys.tolist())]


def check_transfer_inequality(A, B, n: int) -> BoundReport:
    """Ball-size transfer between commensurable basepoints: the ball of
    radius n around A injects into the ball of radius c(A,B)*n around B."""
    c_ab = comm_index(A, B).value
    n = _at_least("ball radius", n, 1)
    ball_a = enumerate_ball(A, n)
    ball_b = enumerate_ball(B, c_ab * n)
    return compare("ball_transfer", len(ball_a), len(ball_b),
                   n=n, c_ab=c_ab, left_card=len(ball_a), right_card=len(ball_b))


# ---------------------------------------------------------------------------
# seeded property sampling


def _random_cyclic(rng: random.Random) -> RationalCyclic:
    return RationalCyclic(rng.randint(1, 60), rng.randint(1, 60))


def _random_lattice(rng: random.Random, dim: int = 2) -> RationalLattice:
    while True:
        rows = [[rng.randint(-4, 4) for _ in range(dim)] for _ in range(dim)]
        hnf = _row_hnf(rows, dim)
        if len(hnf) == dim:
            return RationalLattice(dim, rng.randint(1, 6), hnf)


def _random_chain(rng: random.Random, sample, relations):
    """A nested chain down from sample(rng); relations is _hnf_stack(dim, 4)."""
    top = sample(rng)
    desc = [top]
    H, det = relations
    for _ in range(rng.randint(1, 4)):
        last = desc[-1]
        if isinstance(last, RationalCyclic):
            desc.append(RationalCyclic(last.a * rng.randint(1, 4), last.b))
        else:
            rel = rng.choice(H[det == rng.randint(1, 4)])
            desc.append(RationalLattice(last.dim, last.denom,
                                        (rel.astype(object) @ last.basis).tolist()))
    return list(reversed(desc))


def run_metric_checks(samples: int = 1000, seed: int = 0) -> list[BoundReport]:
    """Seeded property suite over both families: metric axioms on triples,
    geodesic length against the product of its edge indices on pairs, and
    nested-chain length against the endpoint index.

    Each report counts violations (lhs) against zero (rhs), so the suite
    passes exactly when every counter stays at zero.
    """
    samples = _at_least("samples", samples, 1)
    if samples > MAX_SAMPLES:
        raise ResourceLimitError(f"sample count {_shown(samples)} exceeds guard {MAX_SAMPLES}")
    seed = _integer("seed", seed)
    rng, relations = random.Random(seed), _hnf_stack(2, 4)
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
            chain = _random_chain(rng, sample, relations)
            if chain_length(chain) != comm_index(chain[0], chain[-1]).value:
                chains += 1
        ctx = {"family": family, "samples": samples, "seed": seed}
        reports.append(compare("metric_symmetry", sym, 0, **ctx))
        reports.append(compare("metric_identity", ident, 0, **ctx))
        reports.append(compare("metric_triangle", tri, 0, **ctx))
        reports.append(compare("geodesic_length", geo, 0, **ctx))
        reports.append(compare("chain_length", chains, 0, **ctx))
    return reports
