"""Exception types shared across the package."""


class KhalfinError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(KhalfinError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class RangeOverflowError(KhalfinError, OverflowError):
    """Result magnitude exceeds the representable floating-point range.

    Raised by every route whose arguments or result leave the double range,
    and by the plain E1 where e^{-z} overflows (the scaled E1 does not).
    """


class ConvergenceError(KhalfinError, RuntimeError):
    """A Newton iteration (Lambert W, crossover roots) or the Gauss-Kronrod
    rule did not reach its tolerance, or met a non-finite value."""


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
