"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Input or invariant violation detected before any side effect."""


class PersistenceError(OSError):
    """Failed to read or write an on-disk artifact."""


class TrainingDivergenceError(RuntimeError):
    """Training loss became non-finite."""


class StageError(RuntimeError):
    """A pipeline stage is missing a prerequisite artifact."""
