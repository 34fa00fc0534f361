"""Finite crystallographic root systems in the simple-root basis.

Roots are stored purely as integer coefficient vectors over the simple
roots; no Euclidean embedding is kept.  Positive roots are generated by
root-string closure from the Cartan matrix, and the Weyl degrees are read
off their heights (Kostant 1959); the test suite checks the degrees against
the Weyl group orders for every label up to rank 16.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

from .errors import DomainError, _guard, _integer, _iterable, _shorten, _shown

_LABEL_RE = re.compile(r"^([A-Ga-g])(\d+)$")

# root-string closure costs about rank**4 steps, so the rank is bounded
# before it runs
MAX_RANK = 48

# least and greatest rank per family; None: no greatest (A-D)
_RANKS = {"A": (1, None), "B": (2, None), "C": (2, None), "D": (4, None),
          "E": (6, 8), "F": (4, 4), "G": (2, 2)}


@dataclass(frozen=True)
class RootSystem:
    """Combinatorial data of one simple Lie type.

    ``cartan[i][j]`` is the pairing of simple root i against the coroot of
    simple root j.  ``positive_roots`` lists coefficient vectors in the
    simple-root basis, sorted by height then lexicographically; the simple
    roots themselves appear as unit vectors.
    """

    label: str
    rank: int
    cartan: tuple[tuple[int, ...], ...]
    positive_roots: tuple[tuple[int, ...], ...]
    degrees: tuple[int, ...]

    @property
    def num_positive_roots(self) -> int:
        return len(self.positive_roots)

    @property
    def dimension(self) -> int:
        """Group dimension 2N + l for N positive roots and rank l."""
        return 2 * len(self.positive_roots) + self.rank

    @property
    def highest_root(self) -> tuple[int, ...]:
        return self.positive_roots[-1]

    def pairing(self, coeffs, root) -> int:
        """Pair a coweight written on the fundamental coweights against a
        root written on the simple roots.

        Fundamental coweights are dual to the simple roots, so the pairing
        is the plain dot product of the two coefficient vectors.
        """
        # rank + 1 items at most are read, enough to refuse a longer vector
        coeffs = tuple(islice(_iterable("coeffs", coeffs), self.rank + 1))
        root = tuple(islice(_iterable("root", root), self.rank + 1))
        if len(coeffs) != self.rank or len(root) != self.rank:
            raise DomainError(
                f"expected length-{self.rank} vectors, got {len(coeffs)} and {len(root)}")
        return sum(a * r for a, r in zip(coeffs, root))


def _checked(rs) -> RootSystem:
    """rs, refused with DomainError unless it is a RootSystem equal to root_system(rs.label)."""
    if not isinstance(rs, RootSystem):
        raise DomainError(f"rs must be a RootSystem, got {type(rs).__name__}")
    if rs is not (built := root_system(rs.label)) and rs != built:
        raise DomainError(f"rs is not root_system({built.label!r}), the system of its label")
    return rs


def _parse_label(label: str) -> tuple[str, int]:
    if not isinstance(label, str):
        raise DomainError(f"type label must be a string, got {_shown(label)}")
    m = _LABEL_RE.match(label.strip())
    if not m:
        raise DomainError(f"malformed type label {_shorten(label, 'characters', repr)}")
    family, digits = m.group(1).upper(), m.group(2).lstrip("0") or "0"
    # int() refuses past 4300 digits; a rank of more than 18 digits
    # exceeds every bound anyway
    rank = int(digits) if len(digits) <= 18 else 10 ** 18
    shown = _shorten(digits, "digits")
    least, greatest = _RANKS[family]
    if rank < least:
        raise DomainError(f"type {family} requires rank >= {least}, got {shown}")
    if greatest is not None and rank > greatest:
        raise DomainError(f"type {family} requires rank <= {greatest}, got {shown}")
    return family, _guard(rank, MAX_RANK, lambda: f"rank {shown} exceeds guard {MAX_RANK}")


def _cartan_matrix(family: str, l: int) -> list[list[int]]:
    """2 on the diagonal and -1 on each edge of the Dynkin diagram, in
    Bourbaki node order, then the one multiple bond: entry [i][j] pairs
    simple root i against the coroot of simple root j."""
    if family == "D":
        edges = [(i, i + 1) for i in range(l - 2)] + [(l - 3, l - 1)]
    elif family == "E":
        # chain 1-3-4-5-..., node 2 hangs off node 4
        edges = [(0, 2), (2, 3), (3, 4), (1, 3)] + [(i, i + 1) for i in range(4, l - 1)]
    else:
        edges = [(i, i + 1) for i in range(l - 1)]
    c = [[2 * (i == j) for j in range(l)] for i in range(l)]
    for i, j in edges:
        c[i][j] = c[j][i] = -1
    # B: the last simple root is short; C: it is long
    bond = {"B": (l - 2, l - 1, -2), "C": (l - 1, l - 2, -2),
            "F": (1, 2, -2), "G": (1, 0, -3)}.get(family)
    if bond:
        i, j, value = bond
        c[i][j] = value
    return c


def _closure(cartan) -> list[tuple[int, ...]]:
    """All positive roots by root-string closure from the simple roots.

    A candidate alpha + alpha_i is a root iff q >= 1 in the alpha_i-string
    alpha - p*alpha_i ... alpha + q*alpha_i, where p - q equals the pairing
    of alpha against the coroot of alpha_i.  Each root keeps p for every i:
    one more than at root - alpha_i, set as that root is processed, else 0;
    and its pairings, row i of the Cartan matrix added for each step by i.
    """
    l = len(cartan)
    p = {tuple(int(i == j) for j in range(l)): ([0] * l, cartan[i]) for i in range(l)}
    frontier = list(p)
    while frontier:
        fresh = []
        for alpha in frontier:
            below, pairs = p[alpha]
            for i in range(l):
                if below[i] - pairs[i] >= 1:
                    t = alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:]
                    if t not in p:
                        p[t] = ([0] * l, [a + b for a, b in zip(pairs, cartan[i])])
                        fresh.append(t)
                    p[t][0][i] = below[i] + 1
        frontier = fresh
    return sorted(p, key=lambda r: (sum(r), r))


def root_system(label: str) -> RootSystem:
    """Build the root system for a type label such as "A3", "C2", "E8".

    Well-formed labels: A_l (l >= 1), B_l (l >= 2), C_l (l >= 2),
    D_l (l >= 4), E6, E7, E8, F4, G2.  A rank above MAX_RANK raises
    ResourceLimitError before any root is built.  Every spelling of one
    type ("a3", "A03") gives the same object.
    """
    return _root_system(*_parse_label(label))


@lru_cache(maxsize=None)
def _root_system(family: str, rank: int) -> RootSystem:
    cartan = _cartan_matrix(family, rank)
    positive = _closure(cartan)
    return RootSystem(
        label=f"{family}{rank}",
        rank=rank,
        cartan=tuple(tuple(row) for row in cartan),
        positive_roots=tuple(positive),
        degrees=_degrees(positive),
    )


def _degrees(positive) -> tuple[int, ...]:
    """The Weyl degrees of the positive roots given, of an irreducible or a
    reducible system (Kostant): as many degrees equal k + 1 as there are
    roots of height k less roots of height k + 1."""
    heights = Counter(sum(r) for r in positive)
    return tuple(k + 1 for k in sorted(heights) for _ in range(heights[k] - heights[k + 1]))


def supported_labels(max_rank: int = 8) -> list[str]:
    """Every label that root_system builds, with rank up to max_rank."""
    max_rank = _integer("max_rank", max_rank)
    return [f"{family}{l}" for family, (least, greatest) in _RANKS.items()
            for l in range(least, min(max_rank, greatest or MAX_RANK) + 1)]
