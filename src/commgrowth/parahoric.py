"""Admissible cocharacter counts and the maximal-lattice counting bounds.

A cocharacter written on the fundamental coweights is admissible at cutoff
c when its pairing against every root (positive and negative) stays within
c; the coefficient box |a| <= c is implied, since the simple roots are
among the positive roots.  The exact count is a sum over Weyl orbits for
E, F and G, and a sum of powers in epsilon coordinates for A to D; next to
it are the (2c+1)-power box bounds, and the per-prime and global
maximal-lattice estimates built from them, all exposed as checkable
inequalities.  Level k means cutoff k+1 and the bound (2k+3)**dim: one
rule, in check_cocharacter_bound, for the library and the CLI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

from .arith import _power, _prime
from .errors import DomainError, _at_least, _guard, _integer, _iterable, _rational, _shown
from .reporting import BoundReport, compare
from .root_systems import RootSystem, _checked, _degrees

#: Largest cutoff, and most work upper_bound_profile may do: its terms
#: times M0+1, or the growth values it reads if more (0.2-0.8 s at the
#: budget, from A1 to A48).
MAX_CUTOFF = 100
MAX_PROFILE_WORK = 10 ** 7


@dataclass(frozen=True)
class CocharacterCount:
    """Exact admissible count at a cutoff, next to its coefficient-box
    bound (2c+1)**rank; the three counts are stored as Python ints."""

    label: str
    cutoff: int
    exact: int
    box_bound: int

    def __post_init__(self):
        for name in ("cutoff", "box_bound", "exact"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.exact > self.box_bound:
            raise DomainError("exact count cannot exceed the box bound")


def _orbit_count(rs: RootSystem, c: int) -> int:
    """Sum over the node sets J of |W|/|W_J| times the dominant coweights
    whose zeros are J: x_i >= 1 off J with sum m_i x_i <= c.  Each W-orbit
    meets the dominant chamber once, where the largest pairing is the one
    with the highest root (marks m_i), and the stabilizer of x is the
    parabolic W_J (Humphreys 1990, 1.12), the product of the degrees of
    the roots supported on J."""
    order, total = math.prod(rs.degrees), 0
    for J in range(1 << rs.rank):
        off = [m for i, m in enumerate(rs.highest_root) if not J >> i & 1]
        room = c - sum(off)
        if room < 0:
            continue
        ways = [1] + [0] * room  # z >= 0 off J with sum m_i z_i = t, for t <= room
        for m in off:
            for t in range(m, room + 1):
                ways[t] += ways[t - m]
        inside = [r for r in rs.positive_roots
                  if all(J >> i & 1 for i, a in enumerate(r) if a)]
        total += order // math.prod(_degrees(inside)) * sum(ways)
    return total


def _epsilon_count(family: str, l: int, c: int) -> int:
    """The count in epsilon coordinates.  A_l: x in Z^(l+1) up to shifts
    with max - min <= c.  B_l, C_l, D_l: x in Z^l (B), or Z^l and
    Z^l + (1/2, ..., 1/2) (C, D), with |x_i| + |x_j| <= c for i != j, and
    2|x_i| <= c for C.  At most one coordinate is above c/2, so in doubled
    units d = 2|x_i| a coset counts its points with every d <= c, and those
    with one d in (c, top] and the others at most 2c - d."""
    if family == "A":
        return (c + 1) ** (l + 1) - c ** (l + 1)

    def upto(n, parity):  # points x of the coset with 2|x| <= n
        return 2 * ((n + parity) // 2) + 1 - parity

    top = c if family == "C" else 2 * c
    return sum(upto(c, parity) ** l + l * sum(2 * upto(2 * c - d, parity) ** (l - 1)
                                              for d in range(c + 1, top + 1) if d % 2 == parity)
               for parity in ((0,) if family == "B" else (0, 1)))


def count_admissible_cocharacters(rs: RootSystem, c: int) -> CocharacterCount:
    """Count coweight coefficient vectors whose pairing with every root
    lies in [-c, c]: by epsilon coordinates for A to D, by Weyl orbits for
    E, F and G, exactly and with no scan.  Past MAX_CUTOFF the request is
    refused."""
    rs, c = _checked(rs), _at_least("cutoff", c, 0)
    _guard(c, MAX_CUTOFF, lambda: f"cutoff {_shown(c)} exceeds guard {MAX_CUTOFF}")
    family = rs.label[0]
    exact = _epsilon_count(family, rs.rank, c) if family in "ABCD" else _orbit_count(rs, c)
    return CocharacterCount(rs.label, c, exact, (2 * c + 1) ** rs.rank)


def check_cocharacter_bound(rs: RootSystem, k: int) -> BoundReport:
    """At level k the admissible count (cutoff k+1) is at most (2k+3)**dim;
    the sharper box (2k+3)**rank is carried along in the context."""
    k = _at_least("k", k, 0)
    cc = count_admissible_cocharacters(rs, k + 1)
    return compare("cocharacter_count_le_(2k+3)^d", cc.exact, (2 * k + 3) ** rs.dimension,
                   label=rs.label, k=k, rank_box_bound=cc.box_bound)


def check_two_k_plus_three(p: int, k: int) -> BoundReport:
    """The linear factor 2k+3 is absorbed by p**k once p >= 5, and by the
    cruder p**(3k) for every prime; only the sharpest that applies is built."""
    p, k = _prime(p), _at_least("k", k, 1)
    return compare("2k+3_absorbed_by_prime_power", 2 * k + 3,
                   _power(p, k if p >= 5 else 3 * k), p=p, k=k, sharp_applies=p >= 5)


def _per_prime_lhs(rs: RootSystem, p: int, k: int) -> int:
    """(d+1)*p**((3+d)k) for a prime p and level k >= 1, and 1 at level 0; unchecked."""
    return (rs.dimension + 1) * _power(p, (3 + rs.dimension) * k) if k else 1


def per_prime_bound(rs: RootSystem, p: int, k: int) -> BoundReport:
    """Bound on the maximal compact open subgroups over Q_p containing the
    level-k principal congruence subgroup: (d+1)*p**((3+d)k), dominated by
    the cruder p**((3+2d)k) for k >= 1.  At level 0 there is exactly one
    such subgroup, so the report carries 1 on both sides."""
    rs, p, k = _checked(rs), _prime(p), _at_least("k", k, 0)
    return compare("per_prime_maximal_count", _per_prime_lhs(rs, p, k),
                   _power(p, (3 + 2 * rs.dimension) * k), label=rs.label, p=p, k=k)


def maximal_lattice_bound(rs: RootSystem, m: int) -> int:
    """Global bound m**(3+2d) on the number of maximal lattices containing
    the level-m principal congruence subgroup; completely multiplicative,
    and equal to the product of the per-prime crude bounds."""
    rs, m = _checked(rs), _at_least("m", m, 1)
    return _power(m, 3 + 2 * rs.dimension)


def upper_bound_profile(rs: RootSystem, n: int, s, c_const=1, D_const=1) -> int:
    """Evaluate (sum_{j=1}^{ceil(c*n)} j**M0) * s_{ceil(D*n)} with M0 = 3 + 2*dim.

    Under the counting hypotheses this dominates the full commensurability growth C_n
    for lattices in the group; s is caller-supplied subgroup-growth data s_1, s_2, ...
    (computing it is out of scope here), any iterable of counts, read only up to
    s_{ceil(D*n)} and only once the guards pass.  The constants c and D are not pinned by
    the theory, so they are parameters, defaulting to 1: a Rational or a Real, numpy's
    too.  The work guard caps top*(M0+1), so the sum has at most
    (M0+1)*log10(MAX_PROFILE_WORK/(M0+1)) digits, about 28,200 for C48.
    """
    rs, n = _checked(rs), _at_least("n", n, 1)
    top, s_index = (math.ceil(_rational("profile constants", v) * n) for v in (c_const, D_const))
    if top <= 0 or s_index <= 0:  # n >= 1, so c <= 0 or D <= 0
        raise DomainError("profile constants must be positive")
    m0 = 3 + 2 * rs.dimension
    # top powers j**m0, each about m0+1 times a small one, or the values read
    _guard(work := max(top * (m0 + 1), s_index), MAX_PROFILE_WORK,
           lambda: f"profile work {_shown(work)} exceeds guard {MAX_PROFILE_WORK}: "
                   f"j**{m0} summed to {_shown(top)}, growth index {_shown(s_index)}")
    read = 0
    for read, last in enumerate(islice(_iterable("s", s), s_index), 1):
        pass  # only the last value is kept, so memory stays flat
    if read < s_index:
        raise DomainError(
            f"growth data too short: need index {_shown(s_index)}, got {read} values")
    return _at_least("growth value", last, 0) * sum(j ** m0 for j in range(1, top + 1))
