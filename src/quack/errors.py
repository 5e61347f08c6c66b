"""Exception hierarchy shared across the package.

Each class carries the process exit code the CLI returns for it:
configuration and installation problems exit with 2, data problems with
3, numerical failures with 4.
"""


class QuackError(Exception):
    """Base class for all package errors."""

    exit_code = 2


class InputError(QuackError, ValueError):
    """Malformed arguments: dimension mismatches, values out of domain."""


class ParameterError(QuackError, ValueError):
    """Kernel or model hyperparameter outside its valid domain."""


class ResourceError(QuackError, RuntimeError):
    """Request exceeds a resource limit: the qubit ceiling, or memory that cannot be allocated."""


class ConfigError(QuackError, ValueError):
    """Invalid experiment configuration."""


class LibraryError(QuackError, RuntimeError):
    """numpy's bundled OpenBLAS, or a routine quack calls in it, cannot be found."""


class DataError(QuackError, ValueError):
    """Unusable input data: a degenerate series, too few points for a window."""

    exit_code = 3


class NumericalError(QuackError, RuntimeError):
    """A numerical routine failed beyond recovery (e.g. Cholesky breakdown)."""

    exit_code = 4
