"""Exception types shared across the toolkit, and ``check_fields``, the
one type check of the fields of a record read from a file or built in
code: a spec, a solve configuration, a feature vector, a cost entry or a
sample record."""

import math


def check_fields(obj, integers=(), reals=(), strings=(), optional=(), error=ValueError) -> None:
    """Raise ``error`` at the first field of ``obj`` named in ``strings``
    that is no str, then in ``integers`` that is no int, then in ``reals``
    that is no finite int or float; a bool is neither number, and a field
    named in ``optional`` may also be None."""
    for names, kind, ok in (
        (strings, "a string", lambda value: isinstance(value, str)),
        (integers, "an integer", lambda value: type(value) is int),
        (reals, "a finite number", _finite_real),
    ):
        for name in names:
            value = getattr(obj, name)
            if not ok(value) and not (value is None and name in optional):
                raise error(f"{name} must be {kind}, got {value!r}")


def _finite_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


class AsymmetricInputError(ValueError):
    """A stored entry (i, j) has no matching (j, i) with the identical value."""


class MissingDiagonalError(ValueError):
    """A row lacks its diagonal entry."""


class DuplicateEntryError(ValueError):
    """The same (row, col) position was supplied more than once."""


class DimensionMismatchError(ValueError):
    """Vector length does not match the matrix dimension."""


class PrecisionMismatchError(TypeError):
    """Vector precision does not match the matrix storage precision."""


class SinglePrecisionOverflowError(OverflowError):
    """A finite value exceeds the binary32 range; the reduced stage cannot run."""


class MatrixMarketParseError(ValueError):
    """Malformed Matrix Market input; carries the offending line number."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class CgBreakdownError(ArithmeticError):
    """d'Ad <= 0 or a non-finite quantity appeared: the operand is not SPD
    at the operating precision."""


class NonpositiveDiagonalError(ValueError):
    """An operation requiring a positive diagonal met a nonpositive entry."""


class Stage2NotConvergedError(RuntimeError):
    """The full-precision refinement stage did not reach its tolerance."""


class EmptyIntersectionError(ValueError):
    """Interval intersection came out inverted; the input is inconsistent."""


class DegenerateIntervalError(ValueError):
    """Spread is undefined because the interval endpoints cancel."""


class InvalidSpecError(ValueError):
    """Graph specification parameters are internally inconsistent."""


class GraphFullError(ValueError):
    """No non-edges remain to add."""


class EmptyTrainingSetError(ValueError):
    """Model fitting received no valid labeled record."""


class SampleTooSmallError(ValueError):
    """The requested split would leave the train or test side empty."""


class MissingCostEntryError(LookupError):
    """A record lacks the stored cost entry for the predicted class."""
