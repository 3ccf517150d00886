"""Exception hierarchy. Every error raised by the library derives from EtfkitError.

It also holds the one integer rule, _is_integer, by which every module
checks its integer fields and arguments, each check raising its own error
class.
"""

import numpy as np


class EtfkitError(Exception):
    """Base class for all etfkit errors."""


class InvariantViolation(EtfkitError):
    """A fact that mathematics guarantees failed to hold: a library bug, not bad input."""


class BadDimensions(EtfkitError, ValueError):
    """A size or parameter outside the range a construction or bound is defined on."""


def _is_integer(x) -> bool:
    """The one integer rule: x is a Python or numpy integer, not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _integers(**values) -> tuple[int, ...]:
    """The named values as Python ints, checked before any arithmetic or cache
    is asked: each must meet _is_integer, else BadDimensions (2.0 would find
    the cached entry of 2)."""
    if not all(map(_is_integer, values.values())):
        got = ", ".join(f"{name}={x!r}" for name, x in values.items())
        raise BadDimensions(f"{' and '.join(values)} must be integers, got {got}")
    return tuple(map(int, values.values()))


# -- finite fields ----------------------------------------------------------

class FieldConstructionError(EtfkitError):
    """A finite field could not be constructed from the given parameters."""


class NonPrimeCharacteristic(FieldConstructionError):
    pass


class SizeLimitExceeded(FieldConstructionError):
    pass


class NotADivisor(EtfkitError):
    pass


class NotASubfield(EtfkitError):
    pass


# -- designs ----------------------------------------------------------------

class OddPointCount(EtfkitError):
    pass


class DesignFormatError(EtfkitError):
    pass


# -- unimodular matrices ----------------------------------------------------

class UnsupportedHadamardOrder(EtfkitError):
    pass


class RowOutOfRange(EtfkitError):
    pass


class IndexOutOfRange(EtfkitError):
    pass


class NotUnimodular(EtfkitError):
    """A matrix whose entries break the invariants of its unimodular kind."""


# -- frames -----------------------------------------------------------------

class NotResolvable(EtfkitError):
    pass


class SimplexShapeMismatch(EtfkitError):
    pass


class BasisShapeMismatch(EtfkitError, ValueError):
    pass


class GroupOrderMismatch(EtfkitError):
    pass


class GroupMismatch(EtfkitError):
    pass


class NotADifferenceSet(EtfkitError, ValueError):
    """A subset whose nonzero differences are not all hit equally often."""


class NotTight(EtfkitError):
    pass


class FrameFormatError(EtfkitError, ValueError):
    pass


# -- metrics ----------------------------------------------------------------

class TooFewColumns(EtfkitError):
    pass


class NotUnitNorm(EtfkitError):
    pass


class ShapeMismatch(EtfkitError):
    pass


class EnumerationBudgetExceeded(EtfkitError):
    pass


# -- binary codes -----------------------------------------------------------

class NotRealConstantAmplitude(EtfkitError):
    pass


class NotSelfComplementary(EtfkitError):
    pass


class TooFewWords(EtfkitError):
    pass


class CodeFormatError(EtfkitError):
    pass
