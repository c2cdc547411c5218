import contextlib
import math
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import unlinkeval as ue
from unlinkeval import scores
from unlinkeval.errors import (
    InvalidConfigError,
    InvalidEnrollmentCountError,
    NonFiniteScoreError,
    ScoreParseError,
    TooFewScoresError,
)
from unlinkeval.errors import PriorRangeWarning, StatisticalAdequacyWarning
from unlinkeval.scores import write_score_sides


def _quiet_set(mated, non_mated):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StatisticalAdequacyWarning)
        return ue.ScoreCounts.from_scores(mated, non_mated)


def _tables(s):
    """Both sides' distinct values, as bit patterns, and their counts."""
    return [(t.values.view(np.uint64).tolist(), t.counts.tolist()) for t in (s.mated, s.non_mated)]


def _sorted_rows(mated, non_mated):
    """The CSV text of the scores, each side's rows in ascending order."""
    rows = [f"{v!r},mated\n" for v in np.sort(mated).tolist()]
    rows += [f"{v!r},nonmated\n" for v in np.sort(non_mated).tolist()]
    return "score,label\n" + "".join(rows)


class TestScoreCounts:
    def test_arrays_are_float64_and_read_only(self, score_csv):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StatisticalAdequacyWarning)
            loaded = ue.load_score_set(*score_csv([3, 1, 3], [4, 5]))
        for s in (_quiet_set([3, 1, 3], [4, 5]), loaded):
            for table in (s.mated, s.non_mated):
                assert (table.values.dtype, table.counts.dtype) == (np.float64, np.int64)
                assert not table.values.flags.writeable and not table.counts.flags.writeable
            with pytest.raises(ValueError):
                s.mated.values[0] = 9.0
            with pytest.raises(ValueError):
                s.mated.counts[0] = 9

    def test_counts(self):
        s = _quiet_set([0.1, 0.2, 0.3], [0.4, 0.5])
        assert s.n_mated == 3
        assert s.n_non_mated == 2

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="not finite"):
            _quiet_set([0.1, float("nan")], [0.2, 0.3])
        with pytest.raises(ValueError, match="not finite"):
            _quiet_set([0.1, 0.2], [float("inf"), 0.3])

    def test_rejects_single_score_side(self):
        with pytest.raises(TooFewScoresError):
            _quiet_set([0.1], [0.2, 0.3])

    def test_adequacy_warning_below_recommended_size(self, rng):
        small = rng.normal(size=999)
        big = rng.normal(size=1000)
        with pytest.warns(StatisticalAdequacyWarning):
            ue.ScoreCounts.from_scores(small, big)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ue.ScoreCounts.from_scores(big, big.copy())


class TestCsvRoundTrip:
    def test_combined_file_round_trips_bit_exact(self, tmp_path, rng):
        s = _quiet_set(rng.random(50), rng.random(70))
        path = tmp_path / "combined.csv"
        ue.write_score_csv(s, path)
        assert _tables(ue.load_score_set(path, path)) == _tables(s)

    def test_repeated_values_render_in_ascending_order(self, tmp_path, rng):
        mated = np.concatenate([[0.25, -0.5, 0.25], rng.integers(1, 9, 40) / 8])
        non_mated = np.concatenate([[0.1 + 0.2, 0.3], rng.random(5).repeat(3)])
        s = _quiet_set(mated, non_mated)
        path = tmp_path / "combined.csv"
        ue.write_score_csv(s, path)
        assert path.read_text() == _sorted_rows(mated, non_mated)
        assert _tables(ue.load_score_set(path, path)) == _tables(s)

    @pytest.mark.parametrize("block", [5, None])
    def test_rows_across_blocks(self, tmp_path, rng, monkeypatch, block):
        # more rows than one block; blocks of five split the runs of most values
        if block is not None:
            monkeypatch.setattr(scores, "CSV_BLOCK", block)
        mated = rng.integers(0, 257, 150_000) / 256
        non_mated = rng.random(70_000)
        s = _quiet_set(mated, non_mated)
        path = tmp_path / "combined.csv"
        ue.write_score_csv(s, path)
        assert path.read_bytes() == _sorted_rows(mated, non_mated).encode()
        # every block but a side's last holds CSV_BLOCK rows
        for label in ("mated", "nonmated"):
            sizes = [text.count("\n") for side, text in s.csv_blocks() if side == label]
            assert set(sizes[:-1]) == {scores.CSV_BLOCK} and 0 < sizes[-1] <= scores.CSV_BLOCK

    def test_writer_memory_is_one_block(self, tmp_path, rng, monkeypatch):
        # a file of 4x the rows needs no more memory than the smaller one, one
        # block of rows plus slack, however many of its scores are distinct
        def peaks(draw, sizes):
            found = []
            for n in sizes:
                values = draw(n)
                s = _quiet_set(values[: n // 4], values[n // 4:])
                del values
                tracemalloc.start()
                try:
                    ue.write_score_csv(s, tmp_path / f"{n}.csv")
                    found.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
                (tmp_path / f"{n}.csv").unlink()
            return found

        # Hamming-distance scores: 1025 distinct values
        lattice = peaks(lambda n: rng.integers(0, 1025, n) / 1024, (500_000, 2_000_000))
        assert lattice[1] < 16e6
        assert lattice[1] <= lattice[0] + 1e6
        # every score distinct; blocks of 4096 rows keep the rendering quick
        monkeypatch.setattr(scores, "CSV_BLOCK", 4096)
        distinct = peaks(rng.random, (50_000, 200_000))
        assert distinct[1] <= distinct[0] + 1e6

    def test_per_side_files_round_trip(self, tmp_path, rng):
        s = _quiet_set(rng.random(30), rng.random(40))
        mp, nmp = tmp_path / "m.csv", tmp_path / "nm.csv"
        write_score_sides(s, mp, nmp)
        assert _tables(ue.load_score_set(mp, nmp)) == _tables(s)

    def test_headerless_single_column(self, score_csv):
        mp, nmp = score_csv([0.5, 0.25, 0.5], [0.875, 0.125, 0.75])
        s = ue.load_score_set(mp, nmp)
        assert (s.mated.values.tolist(), s.mated.counts.tolist()) == ([0.25, 0.5], [1, 2])
        assert (s.non_mated.values.tolist(), s.non_mated.counts.tolist()) == ([0.125, 0.75, 0.875], [1, 1, 1])

    def test_labeled_file_filters_by_side(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text("score,label\n0.1,mated\n0.9,nonmated\n0.2,mated\n0.8,nonmated\n")
        s = ue.load_score_set(path, path)
        assert s.mated.values.tolist() == [0.1, 0.2]
        assert s.non_mated.values.tolist() == [0.8, 0.9]

    def test_parse_error_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("score,label\n0.1,mated\nnot-a-number,mated\n0.3,mated\n")
        with pytest.raises(ScoreParseError) as exc:
            ue.load_score_set(path, path)
        assert exc.value.line_no == 3

    def test_non_finite_in_file_rejected(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("0.1\ninf\n0.2\n")
        with pytest.raises(NonFiniteScoreError) as exc:
            ue.load_score_set(path, path)
        assert exc.value.line_no == 2

    def test_unknown_label_rejected(self, tmp_path):
        path = tmp_path / "lbl.csv"
        path.write_text("score,label\n0.1,genuine\n0.2,mated\n")
        with pytest.raises(ScoreParseError):
            ue.load_score_set(path, path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ue.UnlinkEvalError):
            ue.load_score_set(tmp_path / "absent.csv", tmp_path / "absent.csv")


_SIDES = [scores.LABEL_MATED, scores.LABEL_NON_MATED]


def _whole_text_lines(path, side):
    """The line parser that the streamed one replaced, kept as its oracle:
    the whole file decoded at once, then split with str.splitlines."""
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        # read_text decodes the whole file in one call, so exc.object is
        # every byte of it and exc.start the offset of the first bad one
        raw, bad = exc.object, exc.start
        # a stand-in for the bad byte ends the text decoded before it, so the
        # last line counted is the one that holds it
        line_no = len((raw[:bad].decode("utf-8") + "?").splitlines())
        raise ScoreParseError(path, line_no, f"not UTF-8 text: byte 0x{raw[bad]:02x}") from None
    lines = text.splitlines()

    labeled = bool(lines) and lines[0].strip().lower() == "score,label"
    found = []
    start = 1 if labeled else 0
    for line_no, raw_line in enumerate(lines[start:], start=start + 1):
        line = raw_line.strip()
        if not line:
            continue
        if labeled:
            parts = line.split(",")
            if len(parts) != 2:
                raise ScoreParseError(path, line_no, f"expected 'score,label', got {line!r}")
            value_text, label = parts[0].strip(), parts[1].strip().lower()
            if label not in _SIDES:
                raise ScoreParseError(path, line_no, f"unknown label {label!r}")
            if label != side:
                continue
        else:
            if "," in line:
                raise ScoreParseError(path, line_no, "headerless files must have a single score column")
            value_text = line
        try:
            value = float(value_text)
        except ValueError:
            raise ScoreParseError(path, line_no, f"not a number: {value_text!r}") from None
        if not math.isfinite(value):
            raise NonFiniteScoreError(path, line_no, f"non-finite score {value_text!r}")
        found.append(value)
    return found


def _line_oracle(mated_path, non_mated_path, parse=None):
    """load_score_set as a line parser alone does it, the streamed one by
    default: one side at a time."""
    parse = parse or scores._parse_score_lines
    sides = [np.array(parse(path, side), dtype=np.float64)
             for path, side in ((mated_path, scores.LABEL_MATED), (non_mated_path, scores.LABEL_NON_MATED))]
    return ue.ScoreCounts.from_scores(sides[0], sides[1])


def _outcome(load, mated_path, non_mated_path):
    """Both sides' tables, as bit patterns, or the error's type, line, side,
    count and message."""
    try:
        s = load(mated_path, non_mated_path)
    except (ScoreParseError, TooFewScoresError) as exc:
        return type(exc), *(getattr(exc, a, None) for a in ("line_no", "side", "count")), str(exc)
    return _tables(s)


def _parsed(parse, path, side):
    """One side's scores, as bit patterns, or the error's type, line and message."""
    try:
        found = parse(path, side)
    except ScoreParseError as exc:
        return type(exc), exc.line_no, str(exc)
    return np.array(found, dtype=np.float64).view(np.uint64).tolist()


def _line_parser_sides(monkeypatch):
    """The sides that _parse_score_file hands to the line parser from now on."""
    calls = []
    parse = scores._parse_score_lines
    monkeypatch.setattr(scores, "_parse_score_lines", lambda path, side: calls.append(side) or parse(path, side))
    return calls


_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["0.0", "-0.0", "0.25", "-0.25", "5e-324", "1_0", "+.5", "5.", "1E3"]),
)
_NOT_A_SCORE = st.sampled_from(
    ["inf", "-inf", "Infinity", "nan", "NaN", "1e999", "abc", "", "0x10", "1e", "\u0661"]
)
_VALUE = st.one_of(_NUMBER, _NUMBER, _NUMBER, _NOT_A_SCORE)
_LABEL = st.sampled_from(["mated", "nonmated"] * 4 + ["MATED", "NonMated", "genuine", ""])
_PAD = st.sampled_from(["", "", "", "", "", "", " ", "\t", "\x0c", "\x1c", "\u2028"])


@st.composite
def _row(draw, labeled, plain, width=None):
    """A row of a score file; a width gives a headerless row of that many numbers."""
    if width:
        return ",".join(draw(_NUMBER) for _ in range(width))
    if plain:
        value = draw(_NUMBER)
        return f"{value},{draw(st.sampled_from(['mated', 'nonmated']))}" if labeled else value
    kinds = ["row"] * 6 + ["blank", "extra", "bare"] if labeled else ["bare"] * 6 + ["blank", "row", "joined"]
    kind = draw(st.sampled_from(kinds))
    if kind == "blank":
        return draw(st.sampled_from(["", "", "  "]))
    if kind == "joined":
        return ",".join(draw(st.lists(_NUMBER, min_size=2, max_size=3)))
    value = draw(_PAD) + draw(_VALUE) + draw(_PAD)
    if kind == "bare":
        return value
    row = f"{value},{draw(_PAD)}{draw(_LABEL)}"
    if kind == "extra":
        row += "," + draw(_VALUE)
    return row


@st.composite
def _score_file(draw):
    """A score file: plain, plain but for one row, of mixed form, or
    headerless with every row the same count of numbers joined by commas."""
    form = draw(st.sampled_from(["plain", "one-odd-row", "mixed", "joined"]))
    header = draw(st.sampled_from(["score,label"] * 4 + ["SCORE,Label", " score,label", None, None]))
    if form in ("plain", "one-odd-row"):
        header = draw(st.sampled_from(["score,label", None]))
    elif form == "joined":
        header = None
    labeled = header is not None
    width = draw(st.integers(2, 3)) if form == "joined" else None
    rows = draw(st.lists(_row(labeled, plain=form != "mixed", width=width), max_size=10))
    if form == "one-odd-row":
        at = draw(st.integers(0, len(rows)))
        rows.insert(at, draw(_row(labeled, plain=False)))
    lines = ([header] if labeled else []) + rows
    newline = draw(st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"]))
    end = draw(st.sampled_from([newline, ""])) if lines else ""
    return newline.join(lines) + end


class TestWholeFileParse:
    """The plain-form parse by np.loadtxt against the line parser as oracle."""

    @settings(max_examples=300, deadline=None)
    @given(first=_score_file(), second=_score_file())
    @example(first="score,label\n0.5,mated\n0.25,mated,0.75\n\n0.125,nonmated\n0.0,nonmated\n", second="")
    @example(first="score,label\n0.5,mated\n-0.0,mated\n0.0,nonmated\n-0.0,nonmated\n", second="")
    @example(first="0.5\n1,5\n0.25\n", second="0.25\n0.25\n")
    # a faulty last row, and a last row without its line end
    @example(first="score,label\n0.5,mated\n0.25,nonmated\n0.125,mated\n0.5,nonmated,1\n", second="")
    @example(first="score,label\n0.5,mated\n0.25,nonmated\n0.125,mated", second="0.5\n0.25")
    def test_loader_matches_line_parser(self, first, second):
        with tempfile.TemporaryDirectory() as tmp:
            a, b = Path(tmp) / "a.csv", Path(tmp) / "b.csv"
            a.write_bytes(first.encode("utf-8"))
            b.write_bytes(second.encode("utf-8"))
            for paths in ((a, a), (a, b), (b, a)):
                assert _outcome(ue.load_score_set, *paths) == _outcome(_line_oracle, *paths)

    def test_plain_file_memory_is_bounded(self, tmp_path, rng):
        """A million plain labeled rows peak below 1.5 times the file's
        size: np.loadtxt reads the file in blocks, and no text is held."""
        n = 1_000_000
        values = rng.normal(0.45, 0.05, n)
        labels = np.where(rng.random(n) < 0.3, ",mated\n", ",nonmated\n")
        path = tmp_path / "big.csv"
        path.write_text("score,label\n" + "".join(map(str.__add__, map(repr, values.tolist()), labels)))
        text_bytes = path.stat().st_size
        tracemalloc.start()
        try:
            s = ue.load_score_set(path, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert s.n_mated + s.n_non_mated == n
        pooled, expected = ue.CountTable.pooled(s.mated, s.non_mated), ue.CountTable.from_scores(values)
        assert np.array_equal(pooled.values, expected.values) and np.array_equal(pooled.counts, expected.counts)
        assert peak < 1.5 * text_bytes

    @pytest.mark.parametrize(
        "text",
        [
            "score,label\n0.5,mated\n-0.0,nonmated\n0.5,mated\n1e-300,nonmated\n",
            "score,label\n0.5,mated\n0.25,nonmated",
            "score,label\r\n0.5,mated\r\n0.25,nonmated\r\n",
            "score,label\n",
            "0.5\n-0.0\n0.5\n",
            "0.5\r\n0.25",
            "",
            # blank rows are skipped, as the line parser skips them
            "score,label\n0.5,mated\n\n0.25,nonmated\n",
            "0.5\n\n0.25\n",
        ],
    )
    @pytest.mark.filterwarnings("error")  # an empty file raises no loadtxt warning
    def test_plain_form_is_parsed_whole(self, tmp_path, monkeypatch, text):
        path = tmp_path / "plain.csv"
        path.write_bytes(text.encode("utf-8"))
        expected = [_parsed(scores._parse_score_lines, path, side) for side in _SIDES]
        by_lines = _line_parser_sides(monkeypatch)
        columns = list(scores._parse_score_file(path, _SIDES))
        assert not by_lines
        assert [column.view(np.uint64).tolist() for column in columns] == expected

    @pytest.mark.parametrize(
        "text",
        [
            "SCORE,LABEL\n0.5,mated\n0.25,nonmated\n",
            " score,label\n0.5,mated\n0.25,nonmated\n",
            "score,label\n0.5, mated\n0.25,nonmated\n",
            "score,label\n0.5,Mated\n0.25,nonmated\n",
            "score,label\n0.5,mated,0.75\n\n0.25,nonmated\n",
            "score,label\ninf,mated\n0.25,nonmated\n",
            "score,label\nabc,nonmated\n0.25,mated\n",
            "0.5\t\n0.25\n",
            "0.5\x0c0.25\n",
            "score,label\n0.5\x0c,mated\n0.25,nonmated\n",
            "score,label\n0.5,mated\n0.25\x1e,nonmated\n",
            "\u0661.5\n0.25\n",
            "0.5\n1_0\n",
            "0.5,0.25\n",
            # a bytes label drops a NUL from its end
            "score,label\n0.5,mated\x00\n0.25,nonmated\n",
            "score,label\n0.5,nonmatedmated\n0.25,mated\n",
        ],
    )
    def test_other_forms_go_to_the_line_parser(self, tmp_path, monkeypatch, text):
        path = tmp_path / "other.csv"
        path.write_bytes(text.encode("utf-8"))
        by_lines = _line_parser_sides(monkeypatch)
        with contextlib.suppress(ScoreParseError):
            next(scores._parse_score_file(path, _SIDES))
        assert by_lines == [scores.LABEL_MATED]

    @pytest.mark.parametrize(
        "text, line_no, message",
        [
            ("0.5,0.25\n", 1, "headerless files must have a single score column"),
            ("0.5,0.25\n0.125,1\n-0.5,2e-3\n", 1, "headerless files must have a single score column"),
            ("0.5,0.25,1\n0.125,1,2\n", 1, "headerless files must have a single score column"),
            ("\n0.5,0.25,1\r\n0.125,1,2", 2, "headerless files must have a single score column"),
            ("score,label\n0.5,mated,1\n0.25,nonmated,2\n", 2, "expected 'score,label'"),
            ("score,label\n0.5,mated,\n0.25,nonmated,\n0.125,mated,\n", 2, "expected 'score,label'"),
        ],
    )
    def test_rows_of_extra_columns_get_the_line_parsers_error(self, tmp_path, text, line_no, message):
        path = tmp_path / "wide.csv"
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(ScoreParseError, match=message) as exc:
            ue.load_score_set(path, path)
        assert exc.value.line_no == line_no
        with pytest.raises(ScoreParseError) as oracle:
            scores._parse_score_lines(path, scores.LABEL_MATED)
        assert str(exc.value) == str(oracle.value)

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_compressed_suffix_is_read_as_text(self, tmp_path, monkeypatch, suffix):
        # np.loadtxt would open these names through a decompressor
        path = tmp_path / f"scores{suffix}"
        path.write_text("0.5\n0.25\n")
        by_lines = _line_parser_sides(monkeypatch)
        assert ue.load_score_set(path, path).mated.values.tolist() == [0.25, 0.5]
        # a combined file in any form but the plain one is read once per side
        assert by_lines == _SIDES

    def test_combined_file_is_read_once(self, tmp_path, monkeypatch):
        calls = []
        parse = scores._parse_score_file
        monkeypatch.setattr(scores, "_parse_score_file", lambda path, sides: calls.append(path) or parse(path, sides))
        for text in ("score,label\n0.1,mated\n0.9,nonmated\n0.2,mated\n0.8,nonmated\n",
                     "score,label\n0.1, mated\n0.9,nonmated\n0.2,mated\n0.8,NONMATED\n"):
            path = tmp_path / "combined.csv"
            path.write_text(text)
            calls.clear()
            s = ue.load_score_set(path, path)
            assert calls == [path]
            assert s.mated.values.tolist() == [0.1, 0.2]
            assert s.non_mated.values.tolist() == [0.8, 0.9]

    def test_combined_file_error_order(self, tmp_path):
        # the mated side is read first: its bad number wins over an earlier
        # bad non-mated row, which it skips
        path = tmp_path / "bad.csv"
        path.write_text("score,label\nabc,nonmated\nxyz,mated\n0.1,mated\n")
        with pytest.raises(ScoreParseError) as exc:
            ue.load_score_set(path, path)
        assert exc.value.line_no == 3
        path.write_text("score,label\nabc,nonmated\n0.1,mated\n0.2,mated\n")
        with pytest.raises(ScoreParseError) as exc:
            ue.load_score_set(path, path)
        assert exc.value.line_no == 2


def _whole_text_load(mated_path, non_mated_path):
    return _line_oracle(mated_path, non_mated_path, _whole_text_lines)


def _check_against_whole_text(paths, read_chars):
    """Each side of each file parsed alike by the streamed parser, reading
    read_chars characters at a time, and by the whole-text one; and
    load_score_set's outcome on each pairing, the same file as both sides
    included, the whole-text one's."""
    with mock.patch.object(scores, "_READ_CHARS", read_chars):
        for path in paths:
            for side in _SIDES:
                assert _parsed(scores._parse_score_lines, path, side) == _parsed(_whole_text_lines, path, side)
    first, second = paths
    for pairing in ((first, first), (first, second), (second, first)):
        assert _outcome(ue.load_score_set, *pairing) == _outcome(_whole_text_load, *pairing)


def _line_ends_across_a_read(newline):
    """A padded labeled file whose first read ends on the first character of
    a line end, followed by a row longer than one read."""
    head = "score,label" + newline + ("0.5, mated" + newline) * 5000
    pad = scores._READ_CHARS - 1 - len(head) - len("0.25,nonmated")
    return head + "0.25," + " " * pad + "nonmated" + newline + "0.75" + " " * 70_000 + ",mated" + newline


class TestStreamedLineParse:
    """The streamed line parser against the whole-text parser it replaced:
    the same scores bit for bit, and the same error type, line and message."""

    @settings(max_examples=300, deadline=None)
    @given(first=_score_file(), second=_score_file(), read_chars=st.integers(1, 8))
    def test_matches_whole_text_parser(self, first, second, read_chars):
        with tempfile.TemporaryDirectory() as tmp:
            a, b = Path(tmp) / "a.csv", Path(tmp) / "b.csv"
            a.write_bytes(first.encode("utf-8"))
            b.write_bytes(second.encode("utf-8"))
            for chars in (scores._READ_CHARS, read_chars):
                _check_against_whole_text((a, b), chars)

    @pytest.mark.parametrize(
        "data",
        [
            b"score,label\r0.5, mated\r0.25,nonmated\r0.125,mated\r-0.5,nonmated\r",
            b"score,label\r\n0.5, mated\r\n0.25,nonmated\r\n0.125,mated\r\n-0.5,nonmated\r\n",
            b"0.5 \r0.25\r\n\r0.125\n\r\n-0.5\r",
            # form feed, file separator, next line and U+2028 end a line too
            b"score,label\n0.5\x0c,mated\n0.25,nonmated\n",
            b"score,label\n0.5,mated\x1c0.25,nonmated\x1c0.125,mated\n-0.5,nonmated\n",
            "score,label\n0.5,mated\u20280.25,nonmated\u2028\u20280.125,mated\n-0.5,nonmated".encode(),
            "0.5\x850.25\u2029\n0.125\x0c\x0c-0.5".encode(),
            b"0.5\x1c,0.25\n0.125\n",
            # a last line without its line end
            b"score,label\n0.5,mated\n0.25,nonmated\n0.125,mated\n-0.5,nonmated",
            b"0.5\n0.25\n 0.125",
            # a byte that is not UTF-8: in the header, a mated row, a
            # non-mated row, after a "\r", and at the end of the file
            b"sc\xffore,label\n0.5,mated\n0.25,nonmated\n",
            b"score,label\n0.5,mated\n0.2\xe95,mated\n0.25,nonmated\n0.125,nonmated\n",
            b"score,label\n0.5,mated\n0.125,mated\n0.25,non\xffmated\n",
            b"0.5\r\xff\n0.25\n",
            "0.5\u2028".encode() + b"0.25\xff\n",
            b"0.5\n0.25\n0.125\xe2\x82",
            b"0.5\n\xed\xa0\x80\n",
            # a byte-order mark anywhere but at the start is text
            b"score,label\n\xef\xbb\xbf0.5,mated\n",
            b"\xef\xbb\xbf\xef\xbb\xbfscore,label\n0.5,mated\n",
            *(pytest.param(_line_ends_across_a_read(end).encode(), id=f"across-a-read-{name}")
              for end, name in (("\r", "cr"), ("\r\n", "crlf"), ("\u2028", "u2028"))),
        ],
    )
    def test_listed_files_match_whole_text_parser(self, tmp_path, data):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_bytes(data)
        b.write_bytes(b"score,label\n0.5,nonmated\n0.25,mated\n0.125,nonmated\n-0.5,mated\n")
        for chars in (scores._READ_CHARS, 1, 3):
            _check_against_whole_text((a, b), chars)
            _check_against_whole_text((b, a), chars)

    def test_fault_before_a_bad_byte_is_reported(self, tmp_path):
        # the file is no longer decoded whole before a row is parsed
        path = tmp_path / "bad.csv"
        path.write_bytes(b"score,label\nabc,mated\n0.5,mated\xff\n")
        assert _parsed(scores._parse_score_lines, path, "mated") == (
            ScoreParseError, 2, f"{path}:2: not a number: 'abc'")
        assert _parsed(_whole_text_lines, path, "mated") == (
            ScoreParseError, 3, f"{path}:3: not UTF-8 text: byte 0xff")

    @pytest.mark.parametrize("read_chars", [scores._READ_CHARS, 1])
    def test_leading_byte_order_mark_is_skipped(self, tmp_path, read_chars):
        # a spreadsheet's "CSV UTF-8" export starts with one
        rows = "score,label\r\n0.5,mated\r\n0.25,mated\r\n0.75,nonmated\r\n0.875,nonmated\r\n"
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + rows.encode())
        with mock.patch.object(scores, "_READ_CHARS", read_chars), warnings.catch_warnings():
            warnings.simplefilter("ignore", StatisticalAdequacyWarning)
            s = ue.load_score_set(path, path)
        assert (s.mated.values.tolist(), s.non_mated.values.tolist()) == ([0.25, 0.5], [0.75, 0.875])

    @pytest.mark.parametrize(
        "data, line_no, message",
        [
            (b"\xef\xbb\xbf\xef\xbb\xbfscore,label\n0.5,mated\n", 1,
             "headerless files must have a single score column"),
            (b"\xef\xbb\xbfscore,label\n\xef\xbb\xbf0.5,mated\n", 2, "not a number: '\\ufeff0.5'"),
        ],
    )
    def test_byte_order_mark_elsewhere_is_an_error(self, tmp_path, data, line_no, message):
        path = tmp_path / "bom.csv"
        path.write_bytes(data)
        with pytest.raises(ScoreParseError) as exc:
            ue.load_score_set(path, path)
        assert str(exc.value) == f"{path}:{line_no}: {message}"

    def test_line_parser_memory_is_bounded(self, tmp_path, rng):
        """A million labeled rows with padded labels, which only the line
        parser reads, peak below 1.5 times the file's size: the file is
        streamed once per side, and only each side's scores are held."""
        n = 1_000_000
        values = rng.normal(0.45, 0.05, n)
        labels = np.where(rng.random(n) < 0.3, ", mated\n", ", nonmated\n")
        path = tmp_path / "padded.csv"
        path.write_text("score,label\n" + "".join(map(str.__add__, map(repr, values.tolist()), labels)))
        text_bytes = path.stat().st_size
        tracemalloc.start()
        try:
            s = ue.load_score_set(path, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert s.n_mated + s.n_non_mated == n
        pooled, expected = ue.CountTable.pooled(s.mated, s.non_mated), ue.CountTable.from_scores(values)
        assert np.array_equal(pooled.values, expected.values) and np.array_equal(pooled.counts, expected.counts)
        assert peak < 1.5 * text_bytes


class TestPriorConfig:
    def test_default_is_worst_case(self):
        p = ue.PriorConfig.default()
        assert p.omega == 1.0

    def test_from_enrollment_count(self):
        p = ue.PriorConfig.from_enrollment_count(6)
        assert p.omega == pytest.approx(0.2)
        assert p.n_enrolled == 6

    def test_omega_from_enrollment(self):
        assert ue.omega_from_enrollment(2) == 1.0
        assert ue.omega_from_enrollment(101) == pytest.approx(0.01)

    def test_enrollment_count_must_be_at_least_two(self):
        with pytest.raises(InvalidEnrollmentCountError):
            ue.omega_from_enrollment(1)
        with pytest.raises(InvalidEnrollmentCountError):
            ue.omega_from_enrollment(2.5)

    @pytest.mark.parametrize("n", [True, np.int64(1), "3", 10**400])
    def test_enrollment_count_is_an_integer_of_at_least_two(self, n):
        with pytest.raises(InvalidEnrollmentCountError, match="^n_enrolled "):
            ue.PriorConfig.from_enrollment_count(n)

    def test_omega_must_be_positive(self):
        with pytest.raises(ValueError):
            ue.PriorConfig.explicit(0.0)
        with pytest.raises(ValueError):
            ue.PriorConfig.explicit(-1.0)

    @pytest.mark.parametrize("omega", [True, np.True_, "0.5", float("nan"), float("inf"), 10**400, None])
    @pytest.mark.parametrize("make", [lambda omega: ue.PriorConfig(omega=omega), ue.PriorConfig.explicit])
    def test_omega_must_be_a_finite_number(self, make, omega):
        with pytest.raises(InvalidConfigError, match="^omega must be a finite number"):
            make(omega)

    def test_omega_above_one_warns_but_is_accepted(self):
        with pytest.warns(PriorRangeWarning):
            p = ue.PriorConfig.explicit(2.0)
        assert p.omega == 2.0
