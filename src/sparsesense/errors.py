"""Exception hierarchy shared by all modules.

The CLI maps these onto exit codes (see cli.py): validation-type errors
exit with 2, convergence/training failures with 3, I/O problems with 4.
"""


class SparseSenseError(Exception):
    """Base class for all library errors."""


class ValidationError(SparseSenseError):
    """Input violates a contract (non-finite entries, shape mismatch, a rank
    out of range, bad config)."""


class TrainingDivergenceError(SparseSenseError):
    """Training loss, or a trained model's forecast, became non-finite.
    Carries the offending epoch index, None for a forecast."""

    def __init__(self, epoch: int | None, message: str | None = None):
        self.epoch = epoch
        super().__init__(message or f"training diverged at epoch {epoch}")
