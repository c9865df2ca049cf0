"""Exception hierarchy for weyldecomp.

Every error raised for a caller's value derives from :class:`WeylError`, so
callers (including the CLI) can catch one base class, except the documented
``ValueError("matrix is not a Weyl group element")`` that ``reduced_word_of``,
``length_of``, ``descents`` and ``count_reduced_words`` raise for a matrix
outside W.  A message shows an int of 13 or more digits by its first 12
digits and its digit count, so no int is too long for it.
"""
from __future__ import annotations

__all__ = [
    "BadLetter",
    "BadRange",
    "DimensionMismatch",
    "DisconnectedSubset",
    "InvalidType",
    "NoRelation",
    "NotARoot",
    "Orthogonal",
    "Proportional",
    "TooLarge",
    "UnrecognizedDiagram",
    "WeylError",
    "WrongFamily",
]


class WeylError(Exception):
    """Base class for all weyldecomp errors."""


class InvalidType(WeylError):
    """Raised for an inadmissible (family, rank) combination, e.g. E5 or G3."""


class DimensionMismatch(WeylError):
    """Raised for a wrong-size vector or matrix, a non-integer entry, or a wrong-kind argument."""


class NotARoot(WeylError):
    """Raised when a coefficient vector is required to be a root but is not."""


class DisconnectedSubset(WeylError):
    """Raised for an index set that is empty, out of range, or disconnected
    in the Dynkin diagram where a connected subset is required."""


class UnrecognizedDiagram(WeylError):
    """Raised when an induced subdiagram matches no admissible system type."""


class BadLetter(WeylError):
    """Raised when a word contains a letter that is not an integer in 1..rank."""


class BadRange(WeylError):
    """Raised when index arguments (k, n) fall outside their allowed range."""


class Orthogonal(WeylError):
    """Raised when two roots are orthogonal but a conjugation rule needs a
    non-orthogonal pair."""


class Proportional(WeylError):
    """Raised when two roots are proportional but a conjugation rule needs a
    non-proportional pair."""


class TooLarge(WeylError):
    """Raised when a search or enumeration would exceed its size guard."""


class NoRelation(WeylError):
    """Raised when no cross-type recursion relation is defined for a system."""


class WrongFamily(WeylError):
    """Raised when an operation is applied to a family it is not defined for."""
