"""Exception types shared across the simulator."""


class NdftError(Exception):
    """Base class for all simulator errors."""


class DomainError(NdftError, ValueError):
    """An argument is outside the operation's domain (negative AI, zero bytes, ...)."""


class ConfigurationError(NdftError, ValueError):
    """A config or fixture is missing or violates an invariant.

    ``key`` carries the dotted key path of the first offending field.
    """

    def __init__(self, message: str, key: str = ""):
        super().__init__(f"{key}: {message}" if key else message)
        self.key = key

    @classmethod
    def from_diagnostic(cls, line: str) -> "ConfigurationError":
        """Error for one '<key>: <problem>' line of a validate() list."""
        key, sep, message = line.partition(": ")
        return cls(message, key=key) if sep else cls(line)


class CapacityError(NdftError):
    """A placement or allocation does not fit in the target memory."""


class ScheduleError(NdftError):
    """A schedule does not cover the task graph it is simulated against."""


class RangeError(NdftError, ValueError):
    """Out-of-bounds access into a shared block."""


class LocalityError(NdftError):
    """Local access to a block owned by another stack without a cached copy."""


class UnknownBlockError(NdftError, KeyError):
    """Block id not present in the directory."""


class DataError(NdftError, ValueError):
    """Malformed pseudopotential data (index out of grid range, empty payload)."""
