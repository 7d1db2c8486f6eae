"""Exception types shared across the package.

Errors fall into three groups: configuration/resource guards (caps,
primality), mathematical contract violations that signal an implementation
bug (integrality of certified quantities), and genuine findings that a
structural claim failed on data (divisibility, functional-equation sign).
"""


class DworkZetaError(Exception):
    """Base class for all package errors."""


class ConfigError(DworkZetaError):
    """A bad parameter: an unknown config key or value, or a value out of
    range."""


class NotPrime(ConfigError):
    def __init__(self, p):
        super().__init__(f"{p} is not prime")
        self.p = p


class FieldTooLarge(DworkZetaError):
    def __init__(self, q, cap):
        super().__init__(f"field size {q} exceeds table cap {cap}")
        self.q = q
        self.cap = cap


class LogOfZero(DworkZetaError):
    def __init__(self):
        super().__init__("discrete log of 0 is undefined")


class EnumerationTooLarge(DworkZetaError):
    def __init__(self, size, cap):
        super().__init__(f"enumeration of {size} points exceeds cap {cap}")
        self.size = size
        self.cap = cap


class DivisibilityViolation(DworkZetaError):
    """An exact integer division failed; always an implementation bug."""


class PrecisionInsufficient(DworkZetaError):
    def __init__(self, needed, have):
        super().__init__(
            f"p-adic precision too low: need modulus > {needed}, have {have}"
        )
        self.needed = needed
        self.have = have


class NonIntegralResult(DworkZetaError):
    """A character sum certified to be a rational integer was not one."""


class InsufficientData(DworkZetaError):
    """Not enough point counts to determine the numerator."""


class NoConsistentSign(DworkZetaError):
    """Neither (or both) functional-equation signs produce a valid numerator."""


class NonIntegralCoefficient(DworkZetaError):
    """Newton's identities produced a non-integer coefficient."""


class NotDivisible(DworkZetaError):
    """Q does not divide P.  A finding, not a bug."""


class SubstitutionNotIntegral(DworkZetaError):
    """P/Q is not a polynomial in qT with integer coefficients.  A finding."""


class RootFindingFailure(DworkZetaError):
    pass


class DimensionMismatch(DworkZetaError):
    pass
