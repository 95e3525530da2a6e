"""Exception types shared across the package."""

__all__ = ["PetripolyError", "ParseError", "NetStructureError", "PreconditionError"]


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
