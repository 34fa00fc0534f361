"""Orders of split simply-connected Chevalley groups over finite rings.

Over a prime field the order comes from Steinberg's formula
p**N * prod_i (p**d_i - 1); over Z/p**k the congruence filtration
contributes a clean factor p**((k-1)*d).  Both are cross-checkable against
exhaustive matrix enumeration for the small special-linear and symplectic
cases, which ``brute_force_order`` provides by scanning in numpy blocks.
"""

from __future__ import annotations

from .arith import _box_blocks, _power, _prime, factorize
from .errors import DomainError, _at_least, _guard, _integer, _shown
from .reporting import BoundReport, compare
from .root_systems import RootSystem, _checked

# antidiagonal alternating form fixed for the 4x4 symplectic oracle
_SP4_FORM = (
    (0, 0, 0, 1),
    (0, 0, 1, 0),
    (0, -1, 0, 0),
    (-1, 0, 0, 0),
)

#: matrix oracle attached to each type that has one at desk scale
ORACLE_FAMILIES = {"A1": "SL2", "A2": "SL3", "B2": "Sp4", "C2": "Sp4"}

#: Largest number of candidate matrices brute_force_order scans.
MAX_CANDIDATES = 10 ** 8


def order_fp(rs: RootSystem, p: int) -> int:
    """Order of the group of F_p-points: p**N * prod_i (p**d_i - 1)."""
    return order_zpk(rs, p, 1)


def order_zpk(rs: RootSystem, p: int, k: int) -> int:
    """Order over Z/p**k: the prime-field order p**N * prod_i (p**d_i - 1),
    and a full p**d factor from each of the k-1 congruence layers."""
    rs, k, p = _checked(rs), _at_least("k", k, 1), _prime(p)
    value = _power(p, rs.num_positive_roots)
    for d in rs.degrees:
        value *= _power(p, d) - 1
    return value * _power(p, (k - 1) * rs.dimension)


def order_zm(rs: RootSystem, m: int) -> int:
    """Order over Z/m, multiplicative over the prime powers of m."""
    rs, m = _checked(rs), _at_least("m", m, 1)
    value = 1
    for p, k in factorize(m).factors:
        value *= order_zpk(rs, p, k)
    return value


def _det_mod(rows, m: int):
    """Determinant mod m of a small matrix whose entries are integers or
    equal-length integer arrays (one determinant per array position)."""
    n = len(rows)
    if n == 1:
        return rows[0][0] % m
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * _det_mod(minor, m)
        total += -term if j % 2 else term
    return total % m


def brute_force_order(family: str, m: int) -> int:
    """Exhaustively count matrices over Z/m in one of the supported
    families: "SL2", "SL3" (determinant one) or "Sp4" (standard
    antidiagonal alternating form preserved, determinant one).

    This is the independent oracle for the closed-form orders; it scans
    every candidate matrix in numpy blocks and must stay well inside desk
    scale, hence MAX_CANDIDATES on m**(n*n).
    """
    m = _at_least("modulus", m, 1)
    sizes = {"SL2": 2, "SL3": 3, "Sp4": 4}
    if not isinstance(family, str) or family not in sizes:
        raise DomainError(f"unsupported family {family!r}; choose from {sorted(sizes)}")
    n = sizes[family]
    _guard(candidates := _power(m, n * n), MAX_CANDIDATES,
           lambda: f"{family} mod {_shown(m)} needs {_shown(candidates)} "
                   f"candidates, guard is {_shown(MAX_CANDIDATES)}")
    import numpy as np
    one = 1 % m
    count = 0
    for digits in _box_blocks(m, n * n):
        # rows[a][b] holds entry (a, b) of every candidate in the block
        rows = [list(digits.T[a * n:(a + 1) * n]) for a in range(n)]
        if family == "Sp4":
            # M^T J M is alternating, so test its upper triangle only
            keep = np.ones(len(digits), dtype=bool)
            for i in range(4):
                for j in range(i + 1, 4):
                    pair = (rows[0][i] * rows[3][j] + rows[1][i] * rows[2][j]
                            - rows[2][i] * rows[1][j] - rows[3][i] * rows[0][j])
                    keep &= pair % m == _SP4_FORM[i][j] % m
            rows = [[entry[keep] for entry in row] for row in rows]
        count += int(np.count_nonzero(_det_mod(rows, m) == one))
    return count


def check_order_bound(rs: RootSystem, p: int) -> BoundReport:
    """Check the crude estimate: the F_p-point count is at most p**dim."""
    p = _integer("p", p)  # order_fp refuses it unless it is prime
    lhs = order_fp(rs, p)
    return compare("order_fp_le_p_pow_dim", lhs, _power(p, rs.dimension),
                   label=rs.label, p=p)
