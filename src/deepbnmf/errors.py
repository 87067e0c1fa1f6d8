"""Exception hierarchy shared by all deepbnmf modules."""


class DeepBnmfError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(DeepBnmfError):
    """A scalar or matrix argument lies outside the mathematical domain."""


class DimensionError(DeepBnmfError):
    """Matrix shapes are inconsistent with the requested operation."""


class ConfigError(DeepBnmfError):
    """A solver configuration value is unsupported or inconsistent."""


class PreconditionError(DeepBnmfError):
    """A documented precondition of a numerical kernel does not hold."""


class NoRootError(DeepBnmfError):
    """Root bracketing or refinement failed."""


class DegenerateInputError(DeepBnmfError):
    """Input data is degenerate (e.g. an all-zero matrix)."""


class ParseError(DeepBnmfError):
    """A matrix or trace file could not be parsed."""


class ComparisonError(DeepBnmfError):
    """Two runs are not comparable (different ranks or data)."""


class MonotonicityError(DeepBnmfError):
    """The solver objective increased beyond the allowed slack."""
