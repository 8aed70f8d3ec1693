"""Exception hierarchy shared by all homsum modules.

Two branches matter to callers: ValidationError (bad inputs, CLI exit 2)
and CapacityError (a requested computation exceeds a hard size cap,
CLI exit 3).
"""

import contextlib


class HomsumError(Exception):
    pass


class ValidationError(HomsumError):
    pass


class CapacityError(HomsumError):
    pass


class NonCanonicalTuple(ValidationError):
    """Entry tuple is not strictly increasing (diagonal or unsorted)."""


class IndexOutOfRange(ValidationError):
    """Index outside 1..N."""


class DuplicateTuple(ValidationError):
    """Same canonical tuple supplied twice."""


class NonFiniteValue(ValidationError):
    """Kernel coefficient is NaN or infinite."""


class DimensionMismatch(ValidationError):
    """Vector or tuple length does not match the kernel."""


class ZeroKernel(ValidationError):
    """Operation requires a kernel with nonzero norm."""


class UnsupportedFamilyParameters(ValidationError):
    """Family parameters outside the supported range."""


class RankOutOfRange(ValidationError):
    """Contraction rank r outside 0..d."""


class OddOrder(ValidationError):
    """Operation requires an even kernel order."""


class InvalidDegrees(ValidationError):
    """Chi-square degrees of freedom must be a positive integer."""

    @classmethod
    def check(cls, nu) -> None:
        """The one degrees-of-freedom check: raise unless nu is a positive
        integer (NaN and infinity fail)."""
        if not (nu >= 1 and float(nu).is_integer()):
            raise cls(f"degrees of freedom must be a positive integer, got {nu}")


class NotNormalized(ValidationError):
    """Kernel second moment is not the required value."""


class NotNormalizedToTwoNu(NotNormalized):
    """Kernel second moment is not 2*nu."""


class ParameterOutOfRange(ValidationError):
    """Numeric parameter outside the admissible range."""


class UndecodableFile(ValidationError):
    """A text input file is not valid UTF-8."""

    @classmethod
    @contextlib.contextmanager
    def reading(cls, path):
        """Turn a UTF-8 decode failure within the block into this error,
        naming `path`."""
        try:
            yield
        except UnicodeDecodeError as exc:
            raise cls(f"{path} is not UTF-8 text: {exc.reason}") from None


class OrderMismatch(ValidationError):
    """Kernel orders supplied in the wrong relation (need d_i <= d_j)."""


class MaterializationTooLarge(CapacityError):
    """Dense tensor would exceed the materialization cap."""


class EnumerationTooLarge(CapacityError):
    """Exact sign enumeration would exceed the 2^N cap."""
