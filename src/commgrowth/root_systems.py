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

from .errors import DomainError, ResourceLimitError, _integer

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
        coeffs = tuple(coeffs)
        root = tuple(root)
        if len(coeffs) != self.rank or len(root) != self.rank:
            raise DomainError(
                f"expected length-{self.rank} vectors, got {len(coeffs)} and {len(root)}")
        return sum(a * r for a, r in zip(coeffs, root))


def _shorten(text: str, unit: str, show=str) -> str:
    """text as shown in a message: past 18 characters only its first 8
    and its length, so a diagnostic stays one short line."""
    if len(text) <= 18:
        return show(text)
    return f"{show(text[:8])}... ({len(text)} {unit})"


def _parse_label(label: str) -> tuple[str, int]:
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
    if rank > MAX_RANK:
        raise ResourceLimitError(f"rank {shown} exceeds guard {MAX_RANK}")
    return family, rank


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
    of alpha against the coroot of alpha_i.
    """
    l = len(cartan)
    simple = [tuple(int(i == j) for j in range(l)) for i in range(l)]
    found = set(simple)
    frontier = list(simple)
    while frontier:
        fresh = []
        for alpha in frontier:
            for i in range(l):
                pair = sum(a * cartan[j][i] for j, a in enumerate(alpha))
                p = 0
                down = list(alpha)
                while True:
                    down[i] -= 1
                    if tuple(down) not in found:
                        break
                    p += 1
                if p - pair >= 1:
                    up = list(alpha)
                    up[i] += 1
                    t = tuple(up)
                    if t not in found:
                        found.add(t)
                        fresh.append(t)
        frontier = fresh
    return sorted(found, key=lambda r: (sum(r), r))


@lru_cache(maxsize=None)
def root_system(label: str) -> RootSystem:
    """Build the root system for a type label such as "A3", "C2", "E8".

    Well-formed labels: A_l (l >= 1), B_l (l >= 2), C_l (l >= 2),
    D_l (l >= 4), E6, E7, E8, F4, G2.  A rank above MAX_RANK raises
    ResourceLimitError before any root is built.
    """
    family, rank = _parse_label(label)
    cartan = _cartan_matrix(family, rank)
    positive = _closure(cartan)
    # Kostant: as many degrees equal k + 1 as there are roots of height k
    # less roots of height k + 1
    heights = Counter(sum(r) for r in positive)
    degrees = [k + 1 for k in sorted(heights) for _ in range(heights[k] - heights[k + 1])]
    return RootSystem(
        label=f"{family}{rank}",
        rank=rank,
        cartan=tuple(tuple(row) for row in cartan),
        positive_roots=tuple(positive),
        degrees=tuple(degrees),
    )


def supported_labels(max_rank: int = 8) -> list[str]:
    """Every well-formed label with rank up to max_rank."""
    max_rank = _integer("max_rank", max_rank)
    return [f"{family}{l}" for family, (least, greatest) in _RANKS.items()
            for l in range(least, min(max_rank, greatest or max_rank) + 1)]
