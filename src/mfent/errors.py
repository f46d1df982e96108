"""Exception types shared across the package."""


class MfentError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(MfentError):
    """Invalid experiment configuration (CLI exit code 2)."""


class AdmissibilityError(MfentError):
    """A word violates the transition structure of its shift space."""


class SpaceMismatchError(MfentError):
    """Two objects defined over different shift spaces were combined."""


class BracketError(MfentError):
    """Root bracketing for a critical exponent failed (CLI exit code 1)."""


class ConvergenceError(MfentError):
    """A numeric routine failed to converge, or under- or overflowed (CLI exit code 1)."""


class TooLargeError(MfentError):
    """A brute-force enumeration was refused because it would be too big."""


class UnreachableBetaError(MfentError):
    """Requested local-entropy level lies outside the attainable interval."""
