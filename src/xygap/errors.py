"""Exception types shared across the package."""


class XYGapError(Exception):
    """Base class for all package-specific errors."""


class BitBudgetError(XYGapError):
    """An exact computation would need integers beyond the configured bit budget.

    This signals resource exhaustion, not a mathematical failure: the
    engineered sequences grow double-exponentially or factorially, so the
    next term can jump from kilobytes to more memory than exists.
    """


class DegenerateDeltaError(XYGapError):
    """The fractional offset is exactly 1/2: two levels tie for the ground state.

    The h = 0 gap law has no single ground level here; callers are expected
    to report the point as degenerate rather than assign it a gap.
    """

    def __init__(self, size, gamma):
        super().__init__(
            f"level crossing at N={size}, gamma={gamma}: offset is exactly 1/2"
        )
        self.size = size
        self.gamma = gamma


class TruncationInsufficientError(XYGapError):
    """The certified truncation tail straddles a decision boundary.

    Raised when a comparison (offset vs 1/2, classification band edge)
    cannot be decided at the current series truncation.
    """

