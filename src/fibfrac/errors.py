"""Exception types shared across the package."""


class FibfracError(Exception):
    """Base class for all package-specific errors."""


class DomainError(FibfracError, ValueError):
    """An argument is outside the domain an operation is defined on."""


class OrderOverflowError(DomainError, OverflowError):
    """A word order whose length does not fit in a signed 64-bit integer."""


class StructureError(FibfracError, ValueError):
    """A word or decomposition violates a structural invariant."""


class DegenerateLandmarksError(FibfracError, ValueError):
    """Landmark configuration too degenerate to fit a similarity."""


class SelfSimilarityError(FibfracError, RuntimeError):
    """A curve failed the self-similarity consistency check."""
