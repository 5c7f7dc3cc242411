"""Exception types shared across the package.

Every error raised on purpose by this package derives from ShopfloorError,
so callers can catch the whole family with one clause.
"""

from __future__ import annotations


class ShopfloorError(Exception):
    """Base class for all package errors."""


class ParseError(ShopfloorError):
    """Raised when an input document is malformed (syntax, shape, unknown keys)."""


class ValidationError(ShopfloorError):
    """Raised when a structurally well-formed document violates an invariant.

    The message always names the violated invariant.
    """


class InstanceTooLarge(ShopfloorError):
    """Raised when the exact solver's search budget runs out before a proof."""


class NoBranch(ShopfloorError):
    """Raised when no process-tree branch matches an operation.

    Names the deepest node that still matched, to aid debugging tree coverage.
    """


class AmbiguousBranch(ShopfloorError):
    """Raised when more than one process-tree branch matches an operation."""


class EmptyGtStatus(ShopfloorError):
    """Raised when the reference status set is empty and recall is undefined."""


class DegenerateDenominator(ShopfloorError):
    """Raised when the efficiency ratio's denominator is zero and makespans differ."""


class PlannerUnavailable(ShopfloorError):
    """Raised when a remote planner backend cannot be reached or is misconfigured."""


class GenerationRetryExhausted(ShopfloorError):
    """Raised when instance generation keeps producing unsatisfiable draws."""
