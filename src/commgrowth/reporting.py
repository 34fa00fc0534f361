"""Uniform pass/fail carrier for every inequality check in the package."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .errors import DomainError


@dataclass(frozen=True)
class BoundReport:
    """Outcome of evaluating a single inequality ``lhs <= rhs``.

    ``context`` carries the parameters the check ran with (prime, level,
    type label, auxiliary ratios), keyed by name.  Every way of building one
    refuses operands whose ``<=`` gives no bool; ``holds`` is derived, not stored.
    """

    name: str
    lhs: Any
    rhs: Any
    context: dict = field(default_factory=dict)

    def __post_init__(self):
        try:
            holds = self.lhs <= self.rhs
        except TypeError:  # None, or a str against a number
            holds = None
        if type(holds).__name__ not in ("bool", "bool_"):  # numpy's bool was bool_ before 2.0
            left, right = type(self.lhs).__name__, type(self.rhs).__name__
            raise DomainError(f"{self.name}: {left} <= {right} gives no bool")

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
    """The report of ``lhs <= rhs``, its context given as keywords."""
    return BoundReport(name, lhs, rhs, context)
