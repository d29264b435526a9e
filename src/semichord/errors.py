"""Exception types shared across the package.

Each class carries a short machine-readable ``code`` so the CLI can map
failures to structured error payloads without string matching.  Range
guards are one negated comparison with both bounds, such as
``not 0.0 < x < math.inf``, so that nan and inf fail them.  A message
names a value only once it is known to be finite, so CLI output never
carries a ``nan`` or ``inf``.
"""

from __future__ import annotations


class SemichordError(Exception):
    """Base class for all errors raised by this package."""

    code = "error"


class DomainError(SemichordError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""

    code = "domain"


class IndexRangeError(DomainError, IndexError):
    """An index, or a vertex count, lies outside what a polygon allows."""


class InvalidAnglesError(SemichordError, ValueError):
    """An arc partition violates the semicircle invariants."""

    code = "invalid_angles"


class PlacementError(SemichordError, ValueError):
    """A chord chain cannot be placed without leaving the semicircle."""

    code = "placement"


class ConvergenceError(SemichordError, RuntimeError):
    """Root finding hit the iteration cap; carries the final bracket.

    The bracket is in the root finder's normalised variable, not in d:
    t = max(sides) / d in ``solver._solve`` and u = d / max(sides) in
    :func:`~semichord.quads.diameter_cubic`.
    """

    code = "no_convergence"

    def __init__(self, message: str, bracket_low: float, bracket_high: float):
        super().__init__(message)
        self.bracket_low = bracket_low
        self.bracket_high = bracket_high


class ParseError(SemichordError, ValueError):
    """Command-line input could not be parsed."""

    code = "parse"


class WriteError(SemichordError, OSError):
    """An output file could not be written."""

    code = "write"
