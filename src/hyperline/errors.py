"""Exception types shared across the library.

Every "soft" failure of the finite-depth proxy gets its own class so callers
can distinguish genuine mathematical errors (division by zero) from verdicts
the inspection budget could not settle.
"""

from .intervals import _to_decimal


class HyperlineError(Exception):
    """Base class for all library errors."""


class NotConvergentAtDepth(HyperlineError):
    """No Cauchy window was found within the inspected depth."""


class UnlimitedValue(HyperlineError):
    """The sequence classified as unlimited where a limited one was required."""


class OutOfRange(UnlimitedValue):
    """Standard-part extraction attempted outside the limited range."""


class IdentityViolated(HyperlineError, ArithmeticError):
    """An exact identity a computation relies on failed to hold, such as a
    division that must leave no remainder."""


class DivisionByZeroAtIndex(HyperlineError):
    def __init__(self, index):
        super().__init__(f"division by zero at index {index}")
        self.index = index


class ZeroTailAtDepth(HyperlineError):
    """An operand was zero on the whole inspected suffix."""


class ClassUndetermined(HyperlineError):
    """An archimedean-class comparison could not be settled at this depth."""


class SignUndetermined(HyperlineError):
    """The sign of a scalar could not be settled at this depth."""


class NotInfinitesimal(HyperlineError):
    """A scale required to be infinitesimal failed classification."""


class ConvergenceUnknown(HyperlineError):
    """Neither a convergence certificate nor a divergence witness is available."""


class InvalidPermutation(HyperlineError):
    """The supplied permutation is not a bijection within its stated displacement."""


class DepthTooSmall(HyperlineError, ValueError):
    """The sieve ran out of candidates below the requested depth."""


class ZeroRoot(HyperlineError):
    """Symmetric polynomials of reciprocals need nonzero roots."""


class ZeroLeadingCoefficient(HyperlineError, ValueError):
    """Certificate coefficients must have b_0 != 0."""


class SearchExhausted(HyperlineError):
    def __init__(self, p_max):
        super().__init__(f"no qualifying prime below {_to_decimal(p_max)}")
        self.p_max = p_max


class PrecisionExhausted(HyperlineError):
    """The interval oracle could not separate a partial quotient."""


class RadiusViolation(HyperlineError):
    """Evaluation point lies outside the certified radius of the series."""
