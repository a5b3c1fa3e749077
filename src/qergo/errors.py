"""Exception and warning types shared across the package."""


class ModelError(ValueError):
    """Raised when a model construction recipe yields an invalid Markov model."""


class BadKeyError(ModelError):
    """Raised by ``models.read_keys`` for a key that its table does not hold or that is required
    and left out, or for a value not of its key's type or range; ``key`` names the key."""

    def __init__(self, key: str, msg: str):
        super().__init__(msg)
        self.key = key


class NondegeneracyError(RuntimeError):
    """Raised when the dominant eigenvalue is not simple within tolerance."""


class PositivityError(RuntimeError):
    """Raised when a principal eigenvector has genuinely mixed signs.

    This signals a reducible chain, a violated positivity-improving
    assumption, or an irreducible chain's eigenvector below round-off.
    """


class DegenerateSupportError(ValueError):
    """Raised when an initial measure gives zero surviving mass."""


class FitError(ValueError):
    """Raised when a log-linear rate fit is impossible (nonpositive values)."""


class ClassifierError(ValueError):
    """Raised for profile/potential combinations the regime rules do not cover."""


class NonuniquenessWarning(UserWarning):
    """Emitted when the dominant transition eigenvalue is (nearly) degenerate,
    so the quasi-stationary measure need not be unique."""
