"""Admissible cocharacter counts and the maximal-lattice counting bounds.

A cocharacter written on the fundamental coweights is admissible at cutoff
c when its pairing against every root (positive and negative) stays within
c; the coefficient box |a| <= c is implied, since the simple roots are
among the positive roots.  The exact count (the last coefficient peeled
off as an interval per prefix), the (2c+1)-power box bounds, and the
per-prime and global maximal-lattice estimates built from them are all
exposed as checkable inequalities.  Level k means cutoff k+1 and the
bound (2k+3)**dim: one rule, in _level_count, for the library and the CLI.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .arith import MAX_OUTPUT_DIGITS, _box_blocks, _power, _prime
from .errors import DomainError, _at_least, _guard, _integer, _iterable, _shown
from .reporting import BoundReport, compare
from .root_systems import RootSystem, _checked

#: Largest cutoff, most root pairings a box scan would compute (2c+1 times
#: what peeling does), and most work upper_bound_profile may do: its terms
#: times M0+1, or the growth values it reads if more (0.2-0.8 s at the
#: budget, from A1 to A48).
MAX_CUTOFF = 100
MAX_SCAN_PAIRINGS = 10 ** 9
MAX_PROFILE_WORK = 10 ** 7


@dataclass(frozen=True)
class CocharacterCount:
    """Exact admissible count at a cutoff, next to its coefficient-box
    bound (2c+1)**rank.  ``exact`` is None past MAX_SCAN_PAIRINGS root
    pairings, where only the box bound is available."""

    label: str
    cutoff: int
    exact: int | None
    box_bound: int

    def __post_init__(self):
        _integer("cutoff", self.cutoff), _integer("box_bound", self.box_bound)
        if self.exact is not None and _integer("exact", self.exact) > self.box_bound:
            raise DomainError("exact count cannot exceed the box bound")


def _peeled_count(rs: RootSystem, c: int) -> int:
    import numpy as np
    # the box walked blockwise without its last coordinate x: roots of last
    # coefficient n whose prefix pairings span [lo, hi] admit ceil((-c-lo)/n)
    # <= x <= floor((c-hi)/n) if n > 0, and keep or drop the prefix if n == 0
    roots = np.asarray(rs.positive_roots, dtype=np.int64)
    groups = [(n, roots[roots[:, -1] == n, :-1].T) for n in np.unique(roots[:, -1])]
    count = 0
    for digits in _box_blocks(2 * c + 1, rs.rank - 1):
        kept, least, most = True, -c, c
        for n, head in groups:
            pairings = (digits - c) @ head
            lo, hi = pairings.min(axis=1), pairings.max(axis=1)
            if n:
                least = np.maximum(least, -((c + lo) // n))
                most = np.minimum(most, (c - hi) // n)
            else:
                kept = (lo >= -c) & (hi <= c)
        count += int((np.maximum(most - least + 1, 0) * kept).sum())
    return count


def count_admissible_cocharacters(rs: RootSystem, c: int) -> CocharacterCount:
    """Count coweight coefficient vectors whose pairing with every root
    lies in [-c, c], peeling the last coefficient off the coefficient box.

    The guard prices a box scan, (2c+1)**rank points times the positive
    roots: an upper bound, 2c+1 times the pairings peeling does.  Past
    MAX_SCAN_PAIRINGS only the box bound is reported (exact=None); past
    MAX_CUTOFF the request is refused.
    """
    rs, c = _checked(rs), _at_least("cutoff", c, 0)
    _guard(c, MAX_CUTOFF, lambda: f"cutoff {_shown(c)} exceeds guard {MAX_CUTOFF}")
    box = (2 * c + 1) ** rs.rank
    if box * rs.num_positive_roots > MAX_SCAN_PAIRINGS:
        return CocharacterCount(rs.label, c, None, box)
    return CocharacterCount(rs.label, c, _peeled_count(rs, c), box)


def _level_count(rs: RootSystem, k: int) -> tuple[int, CocharacterCount, int]:
    """Level k as an int, the count at level k, which is cutoff k+1, and its
    bound (2k+3)**dim."""
    k = _at_least("k", k, 0)
    return k, count_admissible_cocharacters(rs, k + 1), (2 * k + 3) ** rs.dimension


def check_cocharacter_bound(rs: RootSystem, k: int) -> BoundReport:
    """At level k the admissible count (cutoff k+1) is at most (2k+3)**dim.
    Where the count's scan is past MAX_SCAN_PAIRINGS the check is refused;
    the sharper box (2k+3)**rank is carried along in the context."""
    k, cc, paper_bound = _level_count(rs, k)
    _guard(pairings := cc.box_bound * rs.num_positive_roots, MAX_SCAN_PAIRINGS,
           lambda: f"cocharacter scan of {_shown(pairings)} "
                   f"root pairings exceeds guard {MAX_SCAN_PAIRINGS}")
    return compare("cocharacter_count_le_(2k+3)^d", cc.exact, paper_bound,
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
    """Evaluate (sum_{j=1}^{ceil(c*n)} j**M0) * s_{ceil(D*n)} with
    M0 = 3 + 2*dim.

    Under the counting hypotheses this dominates the full commensurability
    growth C_n for lattices in the group; s is caller-supplied
    subgroup-growth data s_1, s_2, ... (computing it is out of scope here),
    any iterable of counts, read only up to s_{ceil(D*n)} and only once the
    guards pass.  The constants c and D exist but are not pinned by the theory, so
    they are parameters, defaulting to 1.
    """
    rs, n = _checked(rs), _at_least("n", n, 1)
    try:
        # Fraction parses a string or Decimal in time that grows with its exponent
        if not all(isinstance(v, (numbers.Rational, float)) for v in (c_const, D_const)):
            raise TypeError
        c_frac, d_frac = Fraction(c_const), Fraction(D_const)
    except (ArithmeticError, TypeError, ValueError):  # inf, nan, no number
        raise DomainError("profile constants must be finite rational numbers") from None
    if c_frac <= 0 or d_frac <= 0:
        raise DomainError("profile constants must be positive")
    top = math.ceil(c_frac * n)
    s_index = math.ceil(d_frac * n)
    m0 = 3 + 2 * rs.dimension
    # the sum is below top**(m0+1), refused as _power refuses a power; kept in
    # case MAX_PROFILE_WORK is raised, as today it caps the sum near 28,000 digits
    _guard(m0 + 1, MAX_OUTPUT_DIGITS / math.log10(top) if top > 1 else math.inf,
           lambda: f"sum of {_shown(top)} powers j**{m0} is above "
                   f"the output guard of {MAX_OUTPUT_DIGITS} decimal digits")
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
