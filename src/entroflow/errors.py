"""Exception types shared across the package."""


class EntroflowError(Exception):
    """Base class for all package-specific errors."""


class UnsupportedOrderError(EntroflowError, ValueError):
    """Requested derivative order is outside the supported range."""


class NotLocallyConvexError(EntroflowError):
    """A support function failed the strict local convexity check.

    Carries the offending node index and the measured margin min(h_thth + h).
    """

    def __init__(self, message, node=None, margin=None):
        super().__init__(message)
        self.node = node
        self.margin = margin


class CurveIngestionError(EntroflowError):
    """Input curve data could not be converted to a valid support function."""


class FlowBreakdownError(EntroflowError):
    """Adaptive stepping underflowed after repeated rejections.

    ``last_state`` holds the last accepted flow state so callers can inspect
    or persist where the discrete flow lost convexity.
    """

    def __init__(self, message, last_state=None):
        super().__init__(message)
        self.last_state = last_state


class ConfigError(EntroflowError, ValueError):
    """A run configuration is malformed (unknown keys, bad values)."""


class DegenerateGraphError(EntroflowError):
    """The composite curve of a graph scene is not regular."""
