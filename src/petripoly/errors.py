"""Exception types shared across the package, and the work-counter collector."""

from contextvars import ContextVar

__all__ = ["PetripolyError", "ParseError", "NetStructureError", "PreconditionError"]

# A Counter while ``petripoly --stats`` runs a verb, else None.  Each call of
# a search or of the factorizer looks it up once and adds to it only if set.
_counters = ContextVar("counters", default=None)


class PetripolyError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(PetripolyError):
    """Malformed polynomial text or net document."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class NetStructureError(ParseError):
    """A net violates structural rules: duplicate ids, dangling references, bad labels."""


class PreconditionError(PetripolyError):
    """An operation was called outside its stated domain."""
