"""Exception types shared across the package.

Every error is a DworkZetaError, and the command line gives each class one
exit code:

- ConfigError (exit 2): a bad parameter, including a non-prime p and a
  precision override too low to certify the counts;
- CapExceeded (exit 3): a resource cap refused a field or an enumeration;
- RecoveryFailure (exit 6): the counts did not determine a valid zeta
  function, or a finding that a structural claim failed on data
  (divisibility of P by Q, the functional-equation sign);
- any other DworkZetaError (exit 4): a broken mathematical contract, which
  signals an implementation bug (integrality of certified quantities, exact
  divisions).
"""


class DworkZetaError(Exception):
    """Base class for all package errors."""


class ConfigError(DworkZetaError):
    """A bad parameter: an unknown config key or value, or a value out of
    range."""


class NotPrime(ConfigError):
    def __init__(self, p):
        super().__init__(f"{p} is not prime")


class CapExceeded(DworkZetaError):
    """A resource cap refused the job."""


class FieldTooLarge(CapExceeded):
    def __init__(self, q, cap):
        super().__init__(f"field size {q} exceeds table cap {cap}")


class LogOfZero(DworkZetaError):
    def __init__(self):
        super().__init__("discrete log of 0 is undefined")


class EnumerationTooLarge(CapExceeded):
    def __init__(self, size, cap):
        super().__init__(f"enumeration of {size} points exceeds cap {cap}")


class DivisibilityViolation(DworkZetaError):
    """An exact integer division failed; always an implementation bug."""


class PrecisionInsufficient(ConfigError):
    """`caps.precision_override` is too low to certify a count."""

    def __init__(self, needed, have):
        super().__init__(
            f"p-adic precision too low: need modulus > {needed}, have {have}"
        )


class NonIntegralResult(DworkZetaError):
    """A character sum certified to be a rational integer was not one."""


class RecoveryFailure(DworkZetaError):
    """The counts did not determine a valid zeta function."""


class InsufficientData(RecoveryFailure):
    """Not enough point counts to determine the numerator."""


class NoConsistentSign(RecoveryFailure):
    """Neither (or both) functional-equation signs produce a valid numerator."""


class NonIntegralCoefficient(RecoveryFailure):
    """Newton's identities produced a non-integer coefficient."""


class NotDivisible(RecoveryFailure):
    """Q does not divide P.  A finding, not a bug."""


class SubstitutionNotIntegral(RecoveryFailure):
    """P/Q is not a polynomial in qT with integer coefficients.  A finding."""


class DimensionMismatch(DworkZetaError):
    pass
