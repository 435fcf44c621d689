"""Exception types raised across the package."""


class VeiltrainError(Exception):
    """Base class for all package errors."""


class InvalidArgument(VeiltrainError, ValueError):
    """A parameter lies outside its domain."""


class MagnitudeOverflow(VeiltrainError):
    """A real value does not fit the representable fixed-point range."""


class SessionMismatch(VeiltrainError):
    """A frame arrived tagged with another session's id."""


class RoundDesync(VeiltrainError):
    """Peers disagree on the current round counter."""


class ConfigMismatch(VeiltrainError):
    """The two computing parties loaded different public configs."""

    def __init__(self, key, mine=None, theirs=None):
        self.key = key
        self.mine = mine
        self.theirs = theirs
        detail = f" (mine={mine!r}, peer={theirs!r})" if mine is not None else ""
        super().__init__(f"config mismatch on key {key!r}{detail}")


class ConnectTimeout(VeiltrainError):
    """A peer was unreachable within the configured deadline."""


class PeerClosed(ConnectTimeout):
    """The peer closed the channel while a frame was still due."""


class Exhausted(VeiltrainError):
    """The parties requested more correlated randomness than was provisioned."""


class ParseError(VeiltrainError):
    """A CSV or config file could not be parsed."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class LabelDomainError(VeiltrainError):
    """A label outside {0, 1} was encountered."""

    def __init__(self, value, line=None, index=None):
        self.line = line
        self.index = index
        at = f" at line {line}" if line is not None else ""
        at += f" at index {index}" if index is not None else ""
        super().__init__(f"label value {value!r}{at} is not in {{0, 1}}")


class PlanInvalid(VeiltrainError):
    """A partition plan is inconsistent with the dataset shape."""


class DimensionMismatch(VeiltrainError):
    """Model and data dimensions disagree."""


class VerticalUnsupported(VeiltrainError):
    """The federated baseline only supports horizontally partitioned data."""
