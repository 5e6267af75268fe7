"""Exception types shared across the package."""

from __future__ import annotations


# More bits than this and str() of an integer may exceed CPython's
# int-string digit limit (4300 digits by default, about 14,284 bits).
TEXT_BITS = 10_000


def count_text(n: int) -> str:
    """A nonnegative integer for a message: its digits, or a power-of-two bound when long."""
    if n.bit_length() <= TEXT_BITS:
        return str(n)
    return f"more than 2^{n.bit_length() - 1}"


class UnknotOneError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(UnknotOneError, ValueError):
    """Invalid input data (malformed records, asymmetric matrices, ...)."""


class SingularFormError(ValidationError):
    """A nonsingular Gram matrix was required."""


class NonCyclicCokernelError(UnknotOneError):
    """The cokernel of the form is not cyclic.

    For a record coming from a knot this is itself conclusive: the double
    branched cover has non-cyclic first homology, so the knot cannot be
    unknotted with a single crossing change.
    """

    def __init__(self, invariant_factors):
        self.invariant_factors = tuple(invariant_factors)
        super().__init__(
            "cokernel is not cyclic; invariant factors "
            + " x ".join(str(d) for d in self.invariant_factors)
        )


class MissingSignatureError(UnknotOneError):
    """A signed test was requested for a record without a signature."""


class TorsionExtractionError(UnknotOneError):
    """The two preimages of a surgery class carry different matching values.

    This signals a matching that cannot arise from a genuine half-integer
    surgery; it is reported rather than silently repaired.
    """
