"""Exception types shared across the package."""


class FreshblendError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(FreshblendError):
    """Input data violates a documented invariant or precondition."""


class ParseError(ValidationError):
    """A data file could not be parsed, or one of its lines breaks a record
    invariant; `path` and `line` locate the fault where they are known."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        if path is not None and line is not None:
            message = f"{path}:{line}: {message}"
        elif path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.path = path
        self.line = line


class ConfigError(FreshblendError):
    """A configuration value is out of its legal range."""


class UnknownQueryError(FreshblendError, KeyError):
    """A query_id was requested that the data does not contain."""

    def __str__(self) -> str:  # KeyError would repr() the message
        return Exception.__str__(self)
