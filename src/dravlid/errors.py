"""Exception hierarchy shared across the toolkit."""


class DravlidError(Exception):
    """Base class for all toolkit errors."""


class UnknownLabelCodeError(DravlidError):
    """A gold label code is not in the task's code table."""


class CorpusParseError(DravlidError):
    """A corpus file line could not be parsed."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class TransportError(DravlidError):
    """The chat endpoint failed after exhausting retries."""

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


class ResponseFormatError(DravlidError):
    """The chat endpoint returned a body that does not match the wire contract."""


class CacheReadError(DravlidError):
    """A cache or replay file holds a line that is not a cache record."""


class CacheWriteError(DravlidError):
    """A response could not be persisted to the cache file."""


class FixtureMissError(DravlidError):
    """A replay backend was asked for a word outside its recorded fixture."""


class UnparseableResponseError(DravlidError):
    """Strict failure policy hit a raw reply that normalizes to no category."""
