"""Exception types shared by every module, how a message shows an int, and
the one integer check: _at_least, and _integer where no bound applies."""

import math
import operator


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ResourceLimitError(RuntimeError):
    """A computation would exceed its resource guard, a module constant
    such as commgraph.MAX_BALL_RADIUS or arith.MAX_OUTPUT_DIGITS.

    Distinct from DomainError on purpose: the input is legal, but the
    requested computation is not affordable within the guard.
    """


def _shown(value) -> str:
    """A value for a one-line message, in full unless it is an int of more
    than 18 digits: that is its sign and a power of ten off its bit length."""
    if not isinstance(value, int) or abs(value) < 10 ** 18:
        return str(value)
    shift = abs(value).bit_length() - 53
    sign = "-" if value < 0 else ""
    return f"about {sign}10^{round(math.log10(abs(value) >> shift) + shift * math.log10(2))}"


def _integer(name: str, value) -> int:
    """value as an int, refused when it is no integer: any operator.index
    value counts, a numpy integer too, and is converted."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {_shown(value)}") from None


def _at_least(name: str, value, least: int) -> int:
    """value as an int, as _integer converts it, refused below least."""
    value = _integer(name, value)
    if value < least:
        raise DomainError(f"{name} must be >= {least}, got {_shown(value)}")
    return value
