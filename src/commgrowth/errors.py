"""Exception types shared by every module, and how a message shows an int."""

import math


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ResourceLimitError(RuntimeError):
    """An enumeration would exceed its configured resource guard.

    Distinct from DomainError on purpose: the input is legal, but the
    requested computation is not affordable at the current guard settings.
    """


def _shown(value: int) -> str:
    """A positive int for a one-line message: in full up to 18 digits, past
    that as a power of ten read off its bit length, never as decimal text."""
    if value < 10 ** 18:
        return str(value)
    shift = value.bit_length() - 53
    return f"about 10^{round(math.log10(value >> shift) + shift * math.log10(2))}"
