"""Uniform pass/fail carrier for every inequality check in the package."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class BoundReport:
    """Outcome of evaluating a single inequality ``lhs <= rhs``.

    ``context`` carries the parameters the check ran with (prime, level,
    type label, auxiliary ratios), keyed by name.  The verdict ``holds``
    is derived from ``lhs <= rhs``, not stored.
    """

    name: str
    lhs: Any
    rhs: Any
    context: dict = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return bool(self.lhs <= self.rhs)

    def __str__(self):
        verdict = "PASS" if self.holds else "FAIL"
        extra = " ".join(f"{k}={_decimal_text(v)}" for k, v in sorted(self.context.items()))
        line = f"{verdict} {self.name}: {_decimal_text(self.lhs)} <= {_decimal_text(self.rhs)}"
        return f"{line} [{extra}]" if extra else line


def _decimal_text(value) -> str:
    """str(value), but an int past 2000 bits (603 digits, under the smallest
    int->str limit CPython allows) is split on a power of ten first."""
    if type(value) is not int or value.bit_length() <= 2000:
        return str(value)
    if value < 0:
        return "-" + _decimal_text(-value)
    k = value.bit_length() * 3 // 20
    high, low = divmod(value, 10 ** k)
    return _decimal_text(high) + _decimal_text(low).zfill(k)


def compare(name: str, lhs, rhs, **context) -> BoundReport:
    """Build the report of ``lhs <= rhs``; every check builds its report
    here."""
    return BoundReport(name=name, lhs=lhs, rhs=rhs, context=context)
