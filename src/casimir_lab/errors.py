"""Exception types shared across the package."""


class CasimirLabError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(CasimirLabError, ValueError):
    """A scalar parameter is out of its admissible range (non-finite, wrong sign, ...)."""


class DomainError(CasimirLabError, ValueError):
    """An operation was evaluated outside its mathematical domain."""


class RankError(CasimirLabError, ValueError):
    """A differential-form operation was applied at an impossible rank."""


class BlowUpError(CasimirLabError, RuntimeError):
    """Time integration produced a non-finite state."""

    def __init__(self, message: str, time: float):
        super().__init__(f"{message} (t = {time:g})")
        self.time = time


class PreconditionError(CasimirLabError, ValueError):
    """An operation's precondition (integrability, tangency, closedness...) failed."""


class InconsistencyError(CasimirLabError, RuntimeError):
    """A defining identity exceeded its residual tolerance after a solve."""


class ParseError(CasimirLabError, ValueError):
    """Expression text could not be parsed; ``offset`` is the byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class EvalError(CasimirLabError, ValueError):
    """Expression evaluation produced a non-finite value; ``node`` is the grid index."""

    def __init__(self, message: str, node: tuple):
        super().__init__(f"{message} (node {node})")
        self.node = node


class ConfigError(CasimirLabError, ValueError):
    """A scenario configuration file is missing, malformed, or has unknown keys."""


class FormatError(CasimirLabError, ValueError):
    """A serialized field container or curve file is malformed."""
