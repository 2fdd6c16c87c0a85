"""Exception types shared across the package."""


class ApmiError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(ApmiError, ValueError):
    """An argument violates a documented precondition."""


class DegenerateNoiseError(InvalidArgumentError):
    """Total noise power W + rho*J is zero or too small to invert; infinite SNR is rejected."""


class NumericalError(ApmiError, RuntimeError):
    """A numerical routine failed to reach its documented tolerance."""


class FlatnessCheckError(NumericalError):
    """A generated sequence failed its spectral self-check.

    This signals an internal defect (e.g. a bad polynomial table entry),
    not a user error.
    """
