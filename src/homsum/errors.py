"""The two exceptions homsum raises: ValidationError (bad inputs, CLI exit 2)
and CapacityError (a requested computation exceeds a hard size cap, CLI
exit 3).  The message names the failed check.
"""

import contextlib


class ValidationError(Exception):
    pass


class CapacityError(Exception):
    pass


def check_degrees(nu) -> None:
    """The one degrees-of-freedom check: raise unless nu is a positive
    integer (NaN and infinity fail)."""
    if not (nu >= 1 and float(nu).is_integer()):
        raise ValidationError(f"degrees of freedom must be a positive integer, got {nu}")


@contextlib.contextmanager
def reading(path):
    """Turn a UTF-8 decode failure within the block into a ValidationError
    naming `path`."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8 text: {exc.reason}") from None
