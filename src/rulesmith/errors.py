"""Exception hierarchy, and field checks, shared across the package."""

from __future__ import annotations

from collections import namedtuple


class RulesmithError(Exception):
    """Base class for all errors raised by this package."""


class ArgumentError(RulesmithError, ValueError):
    """A malformed option or setting; a ``ValueError`` too, for library callers."""


def check_ratio(name: str, value: float) -> float:
    if not 0.0 <= value <= 1.0:  # NaN fails too
        raise ArgumentError(f"{name} must be in [0, 1], got {value!r}")
    return value


def check_at_least(name: str, value: int, low: int) -> int:
    if value < low:
        raise ArgumentError(f"{name} must be >= {low}, got {value!r}")
    return value


def checked_tuple(name: str, fields: str) -> type:
    """The named tuple base of a record whose subclass checks its fields in
    ``__new__``. ``_make``, and so ``_replace``, builds through that
    ``__new__``: a changed copy is checked as the constructor checks."""
    base = namedtuple(name, fields)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base


class DatasetError(RulesmithError):
    """Malformed dataset or taxonomy input."""


class PredicateSyntaxError(RulesmithError):
    """Predicate text that does not match the DSL grammar.

    Carries the byte offset of the offending position and a description of
    what was expected there.
    """

    def __init__(self, message: str, *, offset: int, expected: str) -> None:
        super().__init__(f"{message} (byte offset {offset}, expected {expected})")
        self.offset = offset
        self.expected = expected


class AgentError(RulesmithError):
    """Base class for agent-side failures."""


class AgentUnavailableError(AgentError):
    """Transport kept failing after the retry budget was spent."""


class AgentProtocolError(AgentError):
    """The agent replied, but the payload violated the reply schema."""


class RuleBaseError(RulesmithError):
    """Invalid rule base content, on construction or on load."""


class PredictorError(RulesmithError):
    """The classifier endpoint failed or returned an invalid label."""


class PredictionFileError(RulesmithError):
    """Malformed prediction file."""


class EvaluationError(RulesmithError):
    """Predictions and gold data cannot be scored together."""
