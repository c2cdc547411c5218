"""Exception and warning types shared across the package, the config value checks and the warnings' stacklevel."""

import numbers
import sys


class UnlinkEvalError(Exception):
    """Base class for all errors raised by unlinkeval."""


class MissingFileError(UnlinkEvalError):
    """A required input file does not exist."""


class FileParseError(UnlinkEvalError):
    """An input file contains a line that cannot be read or parsed.

    Carries the path and the 1-based line number of the offending line.
    """

    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


class ScoreParseError(FileParseError):
    """A score file contains a record that cannot be parsed."""


class NonFiniteScoreError(ScoreParseError):
    """A score file contains NaN or an infinite value."""


class TooFewScoresError(UnlinkEvalError):
    """A score collection has fewer than the minimum 2 entries per side."""

    def __init__(self, side, count):
        super().__init__(f"{side} side has {count} scores, need at least 2")
        self.side = side
        self.count = count


class DegenerateSupportError(UnlinkEvalError):
    """All scores on one side are identical and point-mass handling is off."""


class GridMismatchError(UnlinkEvalError):
    """A grid cannot hold the scores, or arrays that must share one disagree in length."""


class LengthMismatchError(UnlinkEvalError):
    """Two sequences that must have equal length do not."""


class NotNormalizedError(UnlinkEvalError):
    """A probability mass function does not sum to 1."""


class NotDivisibleError(UnlinkEvalError):
    """Template length is not a multiple of the block size."""


class ShapeMismatchError(UnlinkEvalError):
    """A template cannot be reshaped to the requested block geometry."""


class SchemeNotInvertibleError(UnlinkEvalError):
    """Reconstruction was requested for a scheme that cannot be inverted."""


class InvalidConfigError(UnlinkEvalError):
    """A configuration object violates its invariants."""


class InvalidEnrollmentCountError(InvalidConfigError):
    """Enrollment counts below 2 admit no non-mated comparison."""


# bools are ints to isinstance, but a config's true is no count, seed or
# rate; NumPy's integer and float scalars pass like Python's
def check_int(name: str, value, low: int) -> int:
    """value as an int, if it is an integer (not a bool) of at least low."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        what = "a positive integer" if low == 1 else f"an integer >= {low}"
        raise InvalidConfigError(f"{name} must be {what}, got {value!r}")
    return int(value)


def check_bool(name: str, value) -> bool:
    """value, if it is true or false."""
    if not isinstance(value, bool):
        raise InvalidConfigError(f"{name} must be true or false, got {value!r}")
    return value


def check_number(name: str, value):
    """value, if it is a real number (not a bool) within the finite float range."""
    # NaN fails the comparison; an int beyond the float range is compared exactly
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not abs(value) <= sys.float_info.max:
        raise InvalidConfigError(f"{name} must be a finite number, got {value!r}")
    return value


def stacklevel_outside_package() -> int:
    """The stacklevel at which a warning issued by the caller names the
    first frame outside this package, the line that called into it.

    Frames are told apart by their module's name, so the __init__ that
    dataclasses generates, which runs in its class's module, is inside.
    """
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_globals.get("__name__", "").partition(".")[0] == __package__:
        frame, level = frame.f_back, level + 1
    return level


class InconsistentDatabasesError(UnlinkEvalError):
    """Protected databases do not form a valid cross-key evaluation set."""


class InternalInvariantError(UnlinkEvalError):
    """A mathematical invariant was violated beyond numerical tolerance.

    Mapped to exit code 3 by the CLI; indicates a bug, not bad input.
    """


class StatisticalAdequacyWarning(UserWarning):
    """Fewer scores than recommended for statistically stable estimates."""


class PriorRangeWarning(UserWarning):
    """A prior ratio above 1 is outside the cross-database linkage setting."""


class KeyCountWarning(UserWarning):
    """Fewer keys than recommended for a cross-key evaluation."""
