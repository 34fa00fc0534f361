"""Orders of split simply-connected Chevalley groups over finite rings.

Over a prime field the order comes from Steinberg's formula
p**N * prod_i (p**d_i - 1); over Z/p**k the congruence filtration
contributes a clean factor p**((k-1)*d).  Both are cross-checkable against
exhaustive matrix enumeration for the small special-linear and symplectic
cases, which ``brute_force_order`` provides: it scans the first n - 1
columns in numpy blocks and decides every last column at once by int32
products of linear forms, still checking all m**(n*n) candidates.
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
    equal-shape integer arrays (one determinant per array position)."""
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

    This is the independent oracle for the closed-form orders.  It scans
    the first n - 1 columns of every candidate in numpy blocks against a
    table of every last column x: each condition on the matrix is then a
    linear form in x, so each block is decided by int32 products of its
    forms with the table, at most _BOX_BLOCK of them at a time.  Every
    one of the m**(n*n) candidates is still decided, so it must stay well
    inside desk scale, hence MAX_CANDIDATES on m**(n*n).
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
    from .arith import _BOX_BLOCK  # read at call time
    # X: every last column.  A form's coefficients are signed cofactors mod m or prefix entries
    # (J is a signed permutation), so int32 is exact: |form @ X| <= n*(m - 1)**2 <= 19,602
    J, X = np.array(_SP4_FORM), np.indices((m,) * n, np.int32).reshape(n, -1)
    # det by the last column: cofactor a is (-1)^(a + n - 1) times the minor without row a
    others = np.array([[r for r in range(n) if r != a] for a in range(n)])
    sign = (-1) ** (np.arange(n) + n - 1)[:, None]
    step = max(1, _BOX_BLOCK // len(X[0]))  # prefixes per product chunk
    count = 0
    for digits in _box_blocks(m, n * (n - 1)):
        C, omega = digits.T.reshape(n - 1, n, -1), ()  # C[b, a]: entry (a, b) of each prefix
        if family == "Sp4":
            # (M^T J M)_ij = omega(c_i, c_j) for omega(u, v) = (u^T J) v: the rows c_i^T J
            # are the forms in x, and the entries i < j < 3 involve the prefix only
            omega = J.T @ C
            keep = np.ones(len(digits), dtype=bool)
            for i, j in ((0, 1), (0, 2), (1, 2)):
                keep &= (omega[i] * C[j]).sum(axis=0) % m == J[i, j] % m
            C, omega = C[..., keep], omega[..., keep]
        # all n minors in one call: entry (b, r) of minor a is C[b, others[a, r]]
        cof = sign * _det_mod([[C[b, others[:, r]] for r in range(n - 1)] for b in range(n - 1)], m)
        # det = 1, and for Sp4 omega(c_i, x) = J_i3: each a form in x and its value
        forms = [(cof, 1)] + [(form, J[i, 3]) for i, form in enumerate(omega)]
        for lo in range(0, cof.shape[1], step):
            hits = True
            for form, value in forms:  # as in _box_blocks, % costs several times // on int32
                P = form[:, lo:lo + step].T.astype(X.dtype) @ X
                hits &= P - P // m * m == value % m
            count += int(np.count_nonzero(hits))
    return count


def check_order_bound(rs: RootSystem, p: int) -> BoundReport:
    """Check the crude estimate: the F_p-point count is at most p**dim."""
    p = _integer("p", p)  # order_fp refuses it unless it is prime
    lhs = order_fp(rs, p)
    return compare("order_fp_le_p_pow_dim", lhs, _power(p, rs.dimension),
                   label=rs.label, p=p)
