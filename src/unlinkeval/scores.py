"""Core domain types for linkage scores: count tables, priors, CSV ingestion.

A linkage score is the output of some function comparing two protected
templates.  Scores are grouped into a mated collection (both templates
conceal the same biometric instance) and a non-mated collection (different
instances).  Scores are accepted in either orientation, similarity or
dissimilarity; the linkability metrics are orientation-agnostic because the
likelihood ratio is computed point-wise.

A ScoreCounts holds one CountTable (sorted distinct scores and their
counts) per side.  The histogram, Gaussian KDE, DET and RTMR statistics use
nothing else, as none of them depends on the order of the scores, so score
files are tallied as they are read.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    FileParseError,
    InvalidConfigError,
    InvalidEnrollmentCountError,
    MissingFileError,
    NonFiniteScoreError,
    PriorRangeWarning,
    ScoreParseError,
    StatisticalAdequacyWarning,
    TooFewScoresError,
    check_int,
    check_number,
    stacklevel_outside_package,
)

LABEL_MATED = "mated"
LABEL_NON_MATED = "nonmated"
_CSV_HEADER = "score,label"
# rows of a score CSV rendered and written at a time
CSV_BLOCK = 65536

# Below this many scores per side, estimates are flagged as statistically
# weak (warning, never an error).
ADEQUATE_SCORES_PER_SIDE = 1000


def check_side(side: str, n: int, values: np.ndarray) -> None:
    """Each side's rule: n >= 2 scores, and values (the scores or their distinct values) all finite."""
    if n < 2:
        raise TooFewScoresError(side, int(n))
    finite = np.isfinite(values)
    if not finite.all():
        raise ValueError(f"{side} score {float(values[~finite][0])!r} is not finite")


def sorted_distinct(*arrays) -> np.ndarray:
    """np.unique of the arrays' values taken together.

    A bare np.unique imports numpy.ma (for its masked-array check), which
    costs tens of milliseconds on first use.  The values are np.unique's,
    bit for bit, but for the sign of a zero: where both -0.0 and 0.0 occur,
    np.unique's choice follows its hash table, while the stable sort here
    keeps equal values in input order, so the first zero given is kept.
    """
    out = np.concatenate([np.asarray(a).reshape(-1) for a in arrays])
    out.sort(kind="stable")
    keep = np.empty(out.size, dtype=bool)
    keep[:1] = True
    np.not_equal(out[1:], out[:-1], out=keep[1:])
    return out[keep]


@dataclass(frozen=True)
class CountTable:
    """One side's scores as sorted distinct values and their multiplicities.

    `values` is strictly increasing float64, `counts` positive int64 of the
    same length; len() is the number of scores tallied.  A table holds
    everything a statistic that ignores score order needs, in memory that
    grows with the number of distinct values only.
    """

    values: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64).reshape(-1)
        counts = np.asarray(self.counts, dtype=np.int64).reshape(-1)
        if values.shape != counts.shape:
            raise ValueError(f"{values.size} values with {counts.size} counts")
        if np.any(counts <= 0) or np.any(values[1:] <= values[:-1]):
            raise ValueError("values must be strictly increasing with positive counts")
        for arr in (values, counts):
            arr.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "_n", int(counts.sum()))

    @classmethod
    def from_scores(cls, scores) -> "CountTable":
        values, counts = np.unique(np.asarray(scores, dtype=np.float64), return_counts=True)
        return cls(values, counts)

    def __len__(self) -> int:
        return self._n

    def _cumulative(self) -> np.ndarray:
        """Scores at or below each value, after a leading 0."""
        return np.concatenate(([0], np.cumsum(self.counts)))

    def count_below(self, thresholds, side: str = "left") -> np.ndarray:
        """Scores below each threshold (side "left") or at or below it ("right").

        The same integers as np.searchsorted over the sorted scores.
        """
        return self._cumulative()[np.searchsorted(self.values, thresholds, side=side)]

    def percentile(self, q) -> np.ndarray:
        """np.percentile of the tallied scores, linear method, bit for bit.

        The linear method is definition 7 of Hyndman and Fan (1996).  The
        virtual index, its neighbours and the interpolation repeat NumPy's
        own steps; the neighbours are looked up by rank in the cumulative
        counts instead of in a partitioned array.
        """
        n = len(self)
        virtual = (n - 1) * np.true_divide(np.atleast_1d(q), 100)
        prev = np.floor(virtual)
        nxt = prev + 1
        above = virtual >= n - 1
        prev[above] = -1
        nxt[above] = -1
        prev[virtual < 0] = 0
        nxt[virtual < 0] = 0
        prev = prev.astype(np.intp)
        nxt = nxt.astype(np.intp)
        gamma = np.asarray(virtual - prev, dtype=virtual.dtype)
        # the score of rank r is the first value whose cumulative count
        # exceeds r; rank -1 is the last score, as in NumPy's indexing
        at_or_below = np.cumsum(self.counts)
        a = self.values[np.searchsorted(at_or_below, np.where(prev < 0, n - 1, prev), side="right")]
        b = self.values[np.searchsorted(at_or_below, np.where(nxt < 0, n - 1, nxt), side="right")]
        diff = b - a
        out = a + diff * gamma
        np.subtract(b, diff * (1 - gamma), out=out, where=gamma >= 0.5)
        return out

    @staticmethod
    def pooled(*tables: "CountTable") -> "CountTable":
        """One table of the scores of all the given tables."""
        values = sorted_distinct(*(t.values for t in tables))
        counts = np.zeros(values.size, dtype=np.int64)
        for t in tables:
            counts[np.searchsorted(values, t.values)] += t.counts
        return CountTable(values, counts)


@dataclass(frozen=True)
class ScoreCounts:
    """A score set held as one count table per side.

    Everything is computed from these tables: the histogram and Gaussian KDE
    densities and the auto bin count, the DET and RTMR curves, and the pair
    counts.  Each side needs at least 2 finite scores, and each side below
    ADEQUATE_SCORES_PER_SIDE is warned about when the tables are built,
    here and nowhere else; the warning names the line outside the package
    that asked for the tables.
    """

    mated: CountTable
    non_mated: CountTable
    source: str = ""

    def __post_init__(self):
        sides = ((LABEL_MATED, self.mated), (LABEL_NON_MATED, self.non_mated))
        for side, table in sides:
            check_side(side, len(table), table.values)
        for side, table in sides:
            if len(table) < ADEQUATE_SCORES_PER_SIDE:
                warnings.warn(
                    f"{side} side has {len(table)} scores; below "
                    f"{ADEQUATE_SCORES_PER_SIDE} estimates may be unstable",
                    StatisticalAdequacyWarning,
                    stacklevel=stacklevel_outside_package(),
                )

    @classmethod
    def from_scores(cls, mated, non_mated, source: str = "") -> "ScoreCounts":
        """Both sides' scores, in any order, tallied."""
        return cls(CountTable.from_scores(mated), CountTable.from_scores(non_mated), source)

    @property
    def n_mated(self) -> int:
        return len(self.mated)

    @property
    def n_non_mated(self) -> int:
        return len(self.non_mated)

    def csv_blocks(self):
        """(label, text) blocks of CSV rows, mated rows first, CSV_BLOCK rows at a time.

        Each side's rows come in ascending order, each distinct value's row
        repeated by its count.  Each value is rendered once, with ``repr``,
        so the file reloads to the same tables bit for bit, and at most
        CSV_BLOCK values are rendered at a time, however many are distinct.
        """
        for table, label in ((self.mated, LABEL_MATED), (self.non_mated, LABEL_NON_MATED)):
            block, room = [], CSV_BLOCK
            for start in range(0, table.values.size, CSV_BLOCK):
                rows = [f"{v!r},{label}\n" for v in table.values[start : start + CSV_BLOCK].tolist()]
                for row, count in zip(rows, table.counts[start : start + CSV_BLOCK].tolist()):
                    while count:
                        take = min(count, room)
                        block.append(row * take)
                        count, room = count - take, room - take
                        if not room:
                            yield label, "".join(block)
                            block, room = [], CSV_BLOCK
            if block:
                yield label, "".join(block)


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
        if check_number("omega", self.omega) <= 0:
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
                stacklevel=stacklevel_outside_package(),
            )

    @classmethod
    def explicit(cls, omega: float) -> "PriorConfig":
        return cls(omega=float(check_number("omega", omega)), derivation=DERIVATION_EXPLICIT)

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
    try:
        return 1.0 / (check_int("n_enrolled", n, 2) - 1)
    except InvalidConfigError as exc:
        raise InvalidEnrollmentCountError(str(exc)) from None
    except OverflowError:
        raise InvalidEnrollmentCountError(f"n_enrolled {n} is beyond the float range") from None


def load_score_set(mated_path, non_mated_path, source: str | None = None) -> ScoreCounts:
    """Load a score set from CSV files, one per side, tallied as each side is parsed.

    Each file is either a labeled CSV with header ``score,label`` (rows for
    the other side are ignored, so both paths may point at one combined
    file, which is then read and parsed once) or a headerless single column
    of scores.  A file in the plain form (see `_parse_score_file`) is
    converted by one np.loadtxt pass and never held as text; any other file
    is read whole and parsed line by line.  A file's text and parsed scores
    are freed before the next file is read.
    """
    tables, read = [], None
    for path, side in ((Path(mated_path), LABEL_MATED), (Path(non_mated_path), LABEL_NON_MATED)):
        if path != read:
            # the previous file's text and scores go before this one is read
            text = columns = None
            text, columns = _parse_score_file(path)
            read = path
        tables.append(CountTable.from_scores(
            _parse_score_lines(path, text, side) if columns is None else columns[side]))
    if source is None:
        source = f"{mated_path};{non_mated_path}"
    return ScoreCounts(*tables, source)


# Bytes that rule the plain form out: whitespace other than "\n" and "\r",
# which np.loadtxt neither splits at nor strips as the line parser does,
# and NUL, which a bytes label drops from its end ("mated\0" reads "mated").
_PLAIN_FORM_EXCLUDES = b" \t\x0b\x0c\x1c\x1d\x1e\x1f\x00"
# 9 bytes hold "nonmated" and one more: a longer label is not cut to a match
_LABELED_ROW = np.dtype([("score", "f8"), ("label", "S9")])


def _parse_score_file(path: Path) -> tuple[str | None, dict[str, np.ndarray] | None]:
    """None and each side's scores for a file in the plain form, which one
    np.loadtxt pass converts, or the text and None for any other, which
    `_parse_score_lines` reads line by line, naming the line of any fault.

    The plain form is ASCII with no NUL and no whitespace but line ends, and
    either the exact header ``score,label`` with rows ``<score>,mated`` or
    ``<score>,nonmated``, or headerless rows of one score; blank rows are
    skipped, and every score is finite.  np.loadtxt converts a score with
    PyOS_string_to_double, the routine behind float(), so both parsers give
    the same values bit for bit; it refuses the underscores float() takes.
    """
    if not path.is_file():
        raise MissingFileError(f"score file not found: {path}")
    labeled = _plain_form(path)
    columns = None if labeled is None else _load_plain(path, labeled)
    return (read_utf8(path, ScoreParseError), None) if columns is None else (None, columns)


def _plain_form(path: Path) -> bool | None:
    """Whether a score file is labeled, or None when its bytes, checked
    1 MiB at a time, or a name that np.loadtxt would open through a
    decompressor rule the plain form out."""
    if path.suffix in (".bz2", ".gz", ".xz", ".lzma"):
        return None
    labeled = None
    with open(path, "rb") as f:
        while block := f.read(1 << 20):
            if labeled is None:
                line_end = block[len(_CSV_HEADER):][:1]
                labeled = block.startswith(_CSV_HEADER.encode()) and line_end in (b"\n", b"\r", b"")
            if not block.isascii() or any(byte in block for byte in _PLAIN_FORM_EXCLUDES):
                return None
    return bool(labeled)


def _load_plain(path: Path, labeled: bool) -> dict[str, np.ndarray] | None:
    """Each side's scores of a file whose bytes may have the plain form,
    or None when one of its rows has not."""
    with warnings.catch_warnings():
        # np.loadtxt warns about a file with no rows; the line parser does not
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            # headerless rows stay 2-D even when there is one, so that a row
            # of several numbers is not read as several scores
            rows = np.loadtxt(path, _LABELED_ROW if labeled else np.float64, delimiter=",", comments=None,
                              skiprows=int(labeled), encoding="utf-8", ndmin=1 if labeled else 2)
        except ValueError:  # a non-number, or a row with more or fewer columns
            return None
    if not labeled:
        scores = rows.reshape(-1)
        if rows.shape[1] != 1 or not np.isfinite(scores).all():
            return None
        return {LABEL_MATED: scores, LABEL_NON_MATED: scores}
    scores, labels = rows["score"], rows["label"]
    is_mated = labels == LABEL_MATED.encode()
    if not (np.isfinite(scores).all() and np.all(is_mated | (labels == LABEL_NON_MATED.encode()))):
        return None
    return {LABEL_MATED: scores[is_mated], LABEL_NON_MATED: scores[~is_mated]}


def read_utf8(path: Path, error=FileParseError) -> str:
    """The text of a UTF-8 file, with every line end read as a newline.

    A byte that is not UTF-8 raises error(path, line_no, message), a
    FileParseError, for the line of the first such byte, numbered as
    str.splitlines numbers the text's lines.
    """
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        # read_text decodes the whole file in one call, so exc.object is
        # every byte of it and exc.start the offset of the first bad one
        raw, bad = exc.object, exc.start
    # a stand-in for the bad byte ends the text decoded before it, so the
    # last line counted is the one that holds it
    line_no = len((raw[:bad].decode("utf-8") + "?").splitlines())
    raise error(path, line_no, f"not UTF-8 text: byte 0x{raw[bad]:02x}")


def _parse_score_lines(path: Path, text: str, side: str) -> list[float]:
    """The scores of one side, parsed line by line.

    Accepts every form the np.loadtxt parse leaves to it (padding, upper
    case, non-ASCII text) and raises the line-numbered error of the first
    faulty row; rows of the other side are skipped unparsed.
    """
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
    return scores


def write_score_csv(scores: ScoreCounts, path) -> None:
    """Write both sides to one labeled CSV, mated rows first.

    Each side's rows come in ascending order (ScoreCounts.csv_blocks), so a
    file holds how often each score occurs and nothing of the order in
    which the scores were made.
    """
    with open(path, "w", encoding="utf-8") as out:
        out.write(_CSV_HEADER + "\n")
        for _, text in scores.csv_blocks():
            out.write(text)


def write_score_sides(scores: ScoreCounts, mated_path, non_mated_path) -> None:
    """Write each side to its own labeled CSV file, in one pass over scores.csv_blocks()."""
    with open(mated_path, "w", encoding="utf-8") as mated, \
            open(non_mated_path, "w", encoding="utf-8") as non_mated:
        files = {LABEL_MATED: mated, LABEL_NON_MATED: non_mated}
        for out in files.values():
            out.write(_CSV_HEADER + "\n")
        for label, text in scores.csv_blocks():
            files[label].write(text)
