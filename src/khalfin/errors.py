"""Exception types shared across the package."""


class KhalfinError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(KhalfinError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class RangeOverflowError(KhalfinError, OverflowError):
    """Result magnitude exceeds the representable floating-point range.

    Raised by the plain exponential-integral when e^{-z} overflows; callers
    should switch to the scaled form.
    """


class ConvergenceError(KhalfinError, RuntimeError):
    """An iterative scheme (quadrature, continued fraction, Newton root)
    exhausted its budget without reaching the requested tolerance."""


class AmplitudeUnderflowError(KhalfinError, ArithmeticError):
    """The survival amplitude (or a series denominator) is too small to
    divide by safely."""


class FitError(KhalfinError, ValueError):
    """Tail fit rejected: too few samples or ill-conditioned time span."""


class CatalogError(KhalfinError, ValueError):
    """Spectral-line catalog inconsistency (duplicate ids, mismatched
    threshold energies, degenerate ratio denominators)."""


class ConfigError(KhalfinError, ValueError):
    """Invalid run configuration or command-line input."""
