"""Exception types shared by every module, how a message shows a value, the one integer
check (_at_least, and _integer where no bound applies), the one rational intake, _rational,
the one iterable check (_iterable, and _items where the items are kept), and the one guard,
_guard, the only raiser of ResourceLimitError."""

import math
import operator
import reprlib
from array import array
from collections import deque
from itertools import islice


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ResourceLimitError(RuntimeError):
    """A computation would exceed its resource guard, a module constant
    such as commgraph.MAX_BALL_RADIUS or arith.MAX_OUTPUT_DIGITS.

    Distinct from DomainError on purpose: the input is legal, but the
    requested computation is not affordable within the guard.
    """


def _shorten(text: str, unit: str, show=str, count=None) -> str:
    """text as shown in a message: past 18 characters only its first 8
    and its length, or count, so a diagnostic stays one short line."""
    if len(text) <= 18:
        return show(text)
    return f"{show(text[:8])}... ({len(text) if count is None else count} {unit})"


def _shown(value) -> str:
    """A value for a one-line message: an int past 18 digits as its sign and a power of ten,
    a container by a bounded repr and its item count, else its str, as _shorten shows it;
    a value that str or repr refuses (it holds an int past CPython's int->str digit limit)
    by its type name and item count, and never by lifting that limit."""
    try:
        if isinstance(value, (list, tuple, dict, set, frozenset, deque, array, bytes, bytearray)):
            text = reprlib.repr(value[:19] if isinstance(value, (bytes, bytearray)) else value)
            return _shorten(text, "items", count=len(value))
        if not isinstance(value, int):
            return _shorten(str(value), "characters")
    except ValueError:
        try:
            return f"{type(value).__name__}... ({len(value)} items)"
        except TypeError:
            return type(value).__name__
    if abs(value) < 10 ** 18:
        return str(value)
    shift = abs(value).bit_length() - 53
    sign = "-" if value < 0 else ""
    return f"about {sign}10^{round(math.log10(abs(value) >> shift) + shift * math.log10(2))}"


def _integer(name: str, value) -> int:
    """value as an int, refused when it is no integer: any operator.index
    value counts, a numpy integer too, and is converted.  A refused str is
    shown by its repr, so that "12" reads apart from 12."""
    try:
        return operator.index(value)
    except TypeError:
        shown = _shorten(value, "characters", repr) if isinstance(value, str) else _shown(value)
        raise DomainError(f"{name} must be an integer, got {shown}") from None


def _rational(name: str, value):
    """value, a Rational (numpy's too) or a Real such as a float, as a Fraction of Python ints."""
    import numbers  # here, not above: fractions loads decimal, and every process loads errors
    from fractions import Fraction
    try:  # a str or Decimal, no Real, is refused before Fraction would parse it
        ratio = (value.numerator, value.denominator) if isinstance(value, numbers.Rational) \
            else value.as_integer_ratio() if isinstance(value, numbers.Real) else None
        return Fraction(*map(operator.index, ratio))
    except (ArithmeticError, AttributeError, TypeError, ValueError):  # inf, nan, no number
        raise DomainError(f"{name} must be finite rational numbers") from None


def _iterable(name: str, value):
    """iter(value), refused with DomainError when value is not iterable."""
    try:
        return iter(value)
    except TypeError:
        raise DomainError(f"{name} must be iterable, got {_shown(value)}") from None


def _items(name: str, value, budget: int) -> list:
    """The items of value as a list, refused as by _iterable and by _guard
    past budget items; at most budget + 1 are read."""
    items = list(islice(_iterable(name, value), budget + 1))
    _guard(len(items), budget,
           lambda: f"{name} of more than {budget} items exceeds guard {budget}")
    return items


def _at_least(name: str, value, least: int) -> int:
    """value as an int, as _integer converts it, refused below least."""
    value = _integer(name, value)
    if value < least:
        raise DomainError(f"{name} must be >= {least}, got {_shown(value)}")
    return value


def _guard(value, budget, message):
    """value, refused with ResourceLimitError(message()) when it is above
    budget (an int, or a float bound); message is called only then."""
    if value > budget:
        raise ResourceLimitError(message())
    return value
