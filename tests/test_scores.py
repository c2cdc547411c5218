import warnings

import numpy as np
import pytest

import unlinkeval as ue
from unlinkeval.errors import (
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
        return ue.ScoreSet(mated=np.asarray(mated, float), non_mated=np.asarray(non_mated, float))


class TestScoreSet:
    def test_arrays_are_float64_and_read_only(self):
        s = _quiet_set([1, 2, 3], [4, 5])
        assert s.mated.dtype == np.float64
        assert not s.mated.flags.writeable
        assert not s.non_mated.flags.writeable
        with pytest.raises(ValueError):
            s.mated[0] = 9.0

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
            ue.ScoreSet(mated=small, non_mated=big)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ue.ScoreSet(mated=big, non_mated=big.copy())


class TestCsvRoundTrip:
    def test_combined_file_round_trips_bit_exact(self, tmp_path, rng):
        s = _quiet_set(rng.random(50), rng.random(70))
        path = tmp_path / "combined.csv"
        ue.write_score_csv(s, path)
        loaded = ue.load_score_set(path, path)
        assert np.array_equal(loaded.mated, s.mated)
        assert np.array_equal(loaded.non_mated, s.non_mated)

    def test_repeated_values_and_signed_zeros_render_per_row(self, tmp_path, rng):
        mated = np.concatenate([[0.0, -0.0, 0.25, -0.0], rng.integers(0, 9, 40) / 8])
        non_mated = np.concatenate([[0.1 + 0.2, 0.3], rng.random(5).repeat(3)])
        s = _quiet_set(mated, non_mated)
        path = tmp_path / "combined.csv"
        ue.write_score_csv(s, path)
        rows = [f"{v!r},mated" for v in mated.tolist()]
        rows += [f"{v!r},nonmated" for v in non_mated.tolist()]
        assert path.read_text() == "score,label\n" + "\n".join(rows) + "\n"
        loaded = ue.load_score_set(path, path)
        assert np.array_equal(np.signbit(loaded.mated), np.signbit(mated))

    def test_per_side_files_round_trip(self, tmp_path, rng):
        s = _quiet_set(rng.random(30), rng.random(40))
        mp, nmp = tmp_path / "m.csv", tmp_path / "nm.csv"
        write_score_sides(s, mp, nmp)
        loaded = ue.load_score_set(mp, nmp)
        assert np.array_equal(loaded.mated, s.mated)
        assert np.array_equal(loaded.non_mated, s.non_mated)

    def test_headerless_single_column(self, score_csv):
        mp, nmp = score_csv([0.25, 0.5], [0.125, 0.75, 0.875])
        s = ue.load_score_set(mp, nmp)
        assert list(s.mated) == [0.25, 0.5]
        assert list(s.non_mated) == [0.125, 0.75, 0.875]

    def test_labeled_file_filters_by_side(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text("score,label\n0.1,mated\n0.9,nonmated\n0.2,mated\n0.8,nonmated\n")
        s = ue.load_score_set(path, path)
        assert list(s.mated) == [0.1, 0.2]
        assert list(s.non_mated) == [0.9, 0.8]

    def test_parse_error_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("score,label\n0.1,mated\nnot-a-number,mated\n0.3,mated\n")
        with pytest.raises(ScoreParseError) as exc:
            ue.load_score_set(path, path)
        assert exc.value.line_no == 3

    def test_non_finite_in_file_rejected(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("0.1\ninf\n0.2\n")
        with pytest.raises((NonFiniteScoreError, ScoreParseError)):
            ue.load_score_set(path, path)

    def test_unknown_label_rejected(self, tmp_path):
        path = tmp_path / "lbl.csv"
        path.write_text("score,label\n0.1,genuine\n0.2,mated\n")
        with pytest.raises(ScoreParseError):
            ue.load_score_set(path, path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ue.UnlinkEvalError):
            ue.load_score_set(tmp_path / "absent.csv", tmp_path / "absent.csv")


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

    def test_omega_must_be_positive(self):
        with pytest.raises(ValueError):
            ue.PriorConfig.explicit(0.0)
        with pytest.raises(ValueError):
            ue.PriorConfig.explicit(-1.0)

    def test_omega_above_one_warns_but_is_accepted(self):
        with pytest.warns(PriorRangeWarning):
            p = ue.PriorConfig.explicit(2.0)
        assert p.omega == 2.0
