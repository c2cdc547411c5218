"""Core domain types for linkage scores: score sets, priors, CSV ingestion.

A linkage score is the output of some function comparing two protected
templates.  Scores are grouped into a mated collection (both templates
conceal the same biometric instance) and a non-mated collection (different
instances).  Scores are accepted in either orientation, similarity or
dissimilarity; the linkability metrics are orientation-agnostic because the
likelihood ratio is computed point-wise.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    InvalidEnrollmentCountError,
    MissingFileError,
    NonFiniteScoreError,
    PriorRangeWarning,
    ScoreParseError,
    StatisticalAdequacyWarning,
    TooFewScoresError,
)

LABEL_MATED = "mated"
LABEL_NON_MATED = "nonmated"
_CSV_HEADER = "score,label"

# Below this many scores per side, estimates are flagged as statistically
# weak (warning, never an error).
ADEQUATE_SCORES_PER_SIDE = 1000


@dataclass(frozen=True)
class ScoreSet:
    """Labeled empirical linkage scores with provenance metadata.

    Both sides are immutable float64 arrays with at least 2 finite entries.
    Duplicate values are retained: empirical densities must reflect
    multiplicity.
    """

    mated: np.ndarray
    non_mated: np.ndarray
    source: str = ""

    def __post_init__(self):
        object.__setattr__(self, "mated", _as_score_array(self.mated, LABEL_MATED))
        object.__setattr__(self, "non_mated", _as_score_array(self.non_mated, LABEL_NON_MATED))
        for side, arr in ((LABEL_MATED, self.mated), (LABEL_NON_MATED, self.non_mated)):
            if arr.size < ADEQUATE_SCORES_PER_SIDE:
                warnings.warn(
                    f"{side} side has {arr.size} scores; below "
                    f"{ADEQUATE_SCORES_PER_SIDE} estimates may be unstable",
                    StatisticalAdequacyWarning,
                    stacklevel=3,
                )

    @property
    def n_mated(self) -> int:
        return int(self.mated.size)

    @property
    def n_non_mated(self) -> int:
        return int(self.non_mated.size)


def _as_score_array(values, side: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    if arr.size < 2:
        raise TooFewScoresError(side, int(arr.size))
    if not np.all(np.isfinite(arr)):
        bad = int(np.flatnonzero(~np.isfinite(arr))[0])
        raise ValueError(f"{side} score at index {bad} is not finite")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


DERIVATION_EXPLICIT = "explicit"
DERIVATION_ENROLLMENT = "enrollment"
DERIVATION_DEFAULT = "default"


@dataclass(frozen=True)
class PriorConfig:
    """Ratio of the prior probabilities of a mated vs a non-mated comparison.

    With N subjects enrolled in the counterpart database the priors are
    1/N and (N-1)/N, so the ratio is 1/(N-1).  When the priors are unknown
    the worst case for the unlinkability evaluation is assumed: ratio 1,
    equivalent to only two enrolled subjects.
    """

    omega: float
    derivation: str = DERIVATION_EXPLICIT
    n_enrolled: int | None = field(default=None)

    def __post_init__(self):
        if not (isinstance(self.omega, (int, float)) and math.isfinite(self.omega)):
            raise ValueError(f"omega must be a finite number, got {self.omega!r}")
        if self.omega <= 0:
            raise ValueError("omega must be positive")
        if self.derivation == DERIVATION_ENROLLMENT:
            if self.n_enrolled is None:
                raise ValueError("enrollment-derived prior needs n_enrolled")
            expected = omega_from_enrollment(self.n_enrolled)
            if self.omega != expected:
                raise ValueError(
                    f"omega {self.omega!r} inconsistent with N={self.n_enrolled} "
                    f"(expected {expected!r})"
                )
        elif self.derivation == DERIVATION_DEFAULT:
            if self.omega != 1.0:
                raise ValueError("default prior fixes omega = 1")
        elif self.derivation != DERIVATION_EXPLICIT:
            raise ValueError(f"unknown derivation {self.derivation!r}")
        if self.omega > 1.0:
            warnings.warn(
                f"omega = {self.omega} exceeds 1; the cross-database linkage "
                "setting implies omega <= 1",
                PriorRangeWarning,
                stacklevel=3,
            )

    @classmethod
    def explicit(cls, omega: float) -> "PriorConfig":
        return cls(omega=float(omega), derivation=DERIVATION_EXPLICIT)

    @classmethod
    def from_enrollment_count(cls, n: int) -> "PriorConfig":
        return cls(
            omega=omega_from_enrollment(n),
            derivation=DERIVATION_ENROLLMENT,
            n_enrolled=int(n),
        )

    @classmethod
    def default(cls) -> "PriorConfig":
        return cls(omega=1.0, derivation=DERIVATION_DEFAULT)


def omega_from_enrollment(n: int) -> float:
    """Prior ratio (1/N) / ((N-1)/N) = 1/(N-1) for N enrolled subjects."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise InvalidEnrollmentCountError(f"enrollment count must be an integer, got {n!r}")
    if n < 2:
        raise InvalidEnrollmentCountError(
            f"need at least 2 enrolled subjects, got {n}"
        )
    return 1.0 / (int(n) - 1)


def load_score_set(mated_path, non_mated_path, source: str | None = None) -> ScoreSet:
    """Load a score set from CSV files, one per side.

    Each file is either a labeled CSV with header ``score,label`` (rows for
    the other side are ignored, so both paths may point at one combined
    file) or a headerless single column of scores.
    """
    mated = _parse_score_file(mated_path, LABEL_MATED)
    non_mated = _parse_score_file(non_mated_path, LABEL_NON_MATED)
    if source is None:
        source = f"{mated_path};{non_mated_path}"
    return ScoreSet(mated=mated, non_mated=non_mated, source=source)


def _parse_score_file(path, side: str) -> list[float]:
    path = Path(path)
    if not path.is_file():
        raise MissingFileError(f"score file not found: {path}")
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()

    labeled = bool(lines) and lines[0].strip().lower() == _CSV_HEADER
    scores: list[float] = []
    start = 1 if labeled else 0
    for line_no, raw in enumerate(lines[start:], start=start + 1):
        line = raw.strip()
        if not line:
            continue
        if labeled:
            parts = line.split(",")
            if len(parts) != 2:
                raise ScoreParseError(path, line_no, f"expected 'score,label', got {line!r}")
            value_text, label = parts[0].strip(), parts[1].strip().lower()
            if label not in (LABEL_MATED, LABEL_NON_MATED):
                raise ScoreParseError(path, line_no, f"unknown label {label!r}")
            if label != side:
                continue
        else:
            if "," in line:
                raise ScoreParseError(
                    path, line_no, "headerless files must have a single score column"
                )
            value_text = line
        try:
            value = float(value_text)
        except ValueError:
            raise ScoreParseError(path, line_no, f"not a number: {value_text!r}") from None
        if not math.isfinite(value):
            raise NonFiniteScoreError(path, line_no, f"non-finite score {value_text!r}")
        scores.append(value)

    if len(scores) < 2:
        raise TooFewScoresError(side, len(scores))
    return scores


def _write_labeled_csv(path, *sides) -> None:
    """Header ``score,label``, then one row per value of each (values, label) side.

    Values are rendered with ``repr`` so reloading reproduces them bit-exactly.
    """
    rows = [_CSV_HEADER]
    for values, label in sides:
        rows.extend(f"{v!r},{label}" for v in values.tolist())
    Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8")


def write_score_csv(scores: ScoreSet, path) -> None:
    """Write both sides to one labeled CSV, mated rows first."""
    _write_labeled_csv(path, (scores.mated, LABEL_MATED), (scores.non_mated, LABEL_NON_MATED))


def write_score_sides(scores: ScoreSet, mated_path, non_mated_path) -> None:
    """Write each side to its own labeled CSV file."""
    _write_labeled_csv(mated_path, (scores.mated, LABEL_MATED))
    _write_labeled_csv(non_mated_path, (scores.non_mated, LABEL_NON_MATED))
