"""Exception types shared across the toolkit."""


class TlwError(Exception):
    """Base class for all toolkit errors."""


class DomainError(TlwError, ValueError):
    """Point or cube lies (partly) outside the domain box."""


class LevelRangeError(TlwError, ValueError):
    """Dyadic level or exponent outside the supported range."""


class LevelMismatchError(TlwError, ValueError):
    """Level ranges or lattice shapes of two objects disagree."""


class PositivityError(TlwError, ValueError):
    """A weight has a zero or negative cell, or a subset is too thin."""


class NonFiniteError(TlwError, ValueError):
    """A value that must be finite is NaN or infinite."""


class ResolutionError(TlwError, ValueError):
    """Grid too coarse for the requested operation."""


class UndefinedRatioError(TlwError, ArithmeticError):
    """Ratio with zero denominator (degenerate input), signalled distinctly."""


class ConfigError(TlwError, ValueError):
    """Invalid experiment configuration; message carries the field path."""
