"""Exception hierarchy shared across the package."""


class ProcnetError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ProcnetError, ValueError):
    """An argument violates an operation's precondition."""


class WiringError(ProcnetError):
    """A network's variable names do not define a valid wiring."""


class StructureError(ProcnetError):
    """The network's shape rules out the requested analysis."""


class StationarityError(ProcnetError):
    """A supplied distribution is not stationary for the global process."""


class ResourceLimitError(ProcnetError):
    """The requested computation exceeds a size cap."""


class ParseError(ProcnetError):
    """A network file is malformed."""
