"""Exception types shared by every module, and how a message shows an int."""

import math


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
