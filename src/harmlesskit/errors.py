"""Exception types shared across the package."""


class InvalidArgumentError(ValueError):
    """An operation was called outside its contract (bad ids, bad sets)."""


class ResourceLimitError(RuntimeError):
    """An exact routine was asked to exceed its configured size cap."""


class InvariantError(RuntimeError):
    """A result failed its own self-check: a bug in the library, not bad input."""


class ParseError(ValueError):
    """A file could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
