import math
import tracemalloc
import warnings

import numpy as np
import pytest

import unlinkeval as ue
from unlinkeval.baselines import (
    MODE_ACCURACY,
    MODE_CROSSKEY,
    MODE_RTMR,
    ORIENT_DISSIMILARITY,
    ORIENT_SIMILARITY,
    _thresholds,
)
from unlinkeval.errors import LengthMismatchError, NotNormalizedError, StatisticalAdequacyWarning

warnings.simplefilter("ignore", StatisticalAdequacyWarning)


def sweep_eer(mated, non_mated, orientation):
    """Exhaustive threshold sweep oracle, O(n^2), floats only.

    Returns (midpoint, gap) of the closest FMR/FNMR approach. When gap is 0
    an exact operating point exists and the EER must equal the midpoint;
    otherwise the true EER lies within gap/2 of it (rates move in steps, the
    interpolated crossing sits inside the bracket).
    """
    scores = np.concatenate([mated, non_mated])
    candidates = np.unique(scores)
    # midpoints too, so every achievable operating point is visited
    candidates = np.sort(np.concatenate([candidates, (candidates[:-1] + candidates[1:]) / 2]))
    best, best_gap = None, math.inf
    for t in candidates:
        if orientation == ORIENT_SIMILARITY:
            fnmr = np.mean(mated < t)
            fmr = np.mean(non_mated >= t)
        else:
            fnmr = np.mean(mated > t)
            fmr = np.mean(non_mated <= t)
        gap = abs(fmr - fnmr)
        if gap < best_gap - 1e-15:
            best, best_gap = (fmr + fnmr) / 2, gap
    return best, best_gap


class TestKlDivergence:
    def test_hand_value(self):
        v = ue.kl_divergence([0.5, 0.5], [0.25, 0.75])
        assert v == pytest.approx(0.5 * math.log(2) + 0.5 * math.log(2 / 3), abs=1e-12)
        assert v == pytest.approx(0.14384, abs=1e-5)

    def test_identical_is_exact_zero(self):
        assert ue.kl_divergence([0.25, 0.5, 0.25], [0.25, 0.5, 0.25]) == 0.0

    def test_separable_is_undefined(self):
        v = ue.kl_divergence([1.0, 0.0], [0.0, 1.0])
        assert v is ue.UNDEFINED
        assert repr(v) == "undefined"

    def test_zero_q_with_mass_is_undefined(self):
        assert ue.kl_divergence([0.5, 0.5], [1.0, 0.0]) is ue.UNDEFINED

    def test_zero_p_with_zero_q_is_fine(self):
        v = ue.kl_divergence([0.5, 0.5, 0.0], [0.25, 0.75, 0.0])
        assert isinstance(v, float)

    def test_never_negative(self, rng):
        for _ in range(200):
            p = rng.dirichlet(np.ones(6))
            q = rng.dirichlet(np.ones(6))
            v = ue.kl_divergence(p, q)
            assert v >= 0.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            ue.kl_divergence([0.5, 0.5], [1.0])

    def test_not_normalized(self):
        with pytest.raises(NotNormalizedError):
            ue.kl_divergence([0.5, 0.4], [0.5, 0.5])


class TestDetCurve:
    def test_three_score_example(self):
        det = ue.det_curve([0.9, 0.8, 0.4], [0.6, 0.2, 0.1], orientation=ORIENT_SIMILARITY)
        assert det.eer == pytest.approx(1 / 3, abs=1e-12)

    def test_perfect_separation(self):
        det = ue.det_curve([0.9, 0.8, 0.7], [0.3, 0.2, 0.1], orientation=ORIENT_SIMILARITY)
        assert det.eer == 0.0

    def test_identical_distributions_near_half(self, rng):
        pool = rng.normal(size=4000)
        det = ue.det_curve(pool[:2000], pool[2000:], orientation=ORIENT_SIMILARITY)
        assert det.eer == pytest.approx(0.5, abs=0.05)

    @pytest.mark.parametrize("orientation", [ORIENT_SIMILARITY, ORIENT_DISSIMILARITY])
    @pytest.mark.parametrize("seed", range(8))
    def test_stays_inside_sweep_oracle_bracket(self, seed, orientation):
        rng = np.random.default_rng(seed)
        # coarse lattice scores force heavy ties
        mated = np.round(rng.normal(0.6, 0.15, 120), 1)
        non_mated = np.round(rng.normal(0.4, 0.15, 150), 1)
        det = ue.det_curve(mated, non_mated, orientation=orientation)
        mid, gap = sweep_eer(mated, non_mated, orientation)
        assert abs(det.eer - mid) <= gap / 2 + 1e-9

    def test_rates_monotone_similarity(self, rng):
        det = ue.det_curve(rng.normal(0.7, 0.1, 300), rng.normal(0.3, 0.1, 300))
        assert np.all(np.diff(det.fnmr) >= 0)
        assert np.all(np.diff(det.fmr) <= 0)

    def test_rates_monotone_dissimilarity(self, rng):
        det = ue.det_curve(
            rng.normal(0.3, 0.1, 300),
            rng.normal(0.7, 0.1, 300),
            orientation=ORIENT_DISSIMILARITY,
        )
        assert np.all(np.diff(det.fnmr) <= 0)
        assert np.all(np.diff(det.fmr) >= 0)

    def test_eer_is_rank_statistic(self, rng):
        mated = rng.normal(0.6, 0.2, 200)
        non_mated = rng.normal(0.4, 0.2, 250)
        base = ue.det_curve(mated, non_mated).eer
        squashed = ue.det_curve(np.tanh(mated), np.tanh(non_mated)).eer
        assert squashed == pytest.approx(base, abs=1e-12)

    def test_exact_tie_is_preferred_over_interpolation(self):
        # thresholds in (0.5, 0.6] reach FMR == FNMR == 1/4 exactly; that
        # operating point must win outright, no interpolation involved
        mated = np.array([0.2, 0.6, 0.8, 0.9])
        non_mated = np.array([0.1, 0.3, 0.5, 0.7])
        det = ue.det_curve(mated, non_mated, orientation=ORIENT_SIMILARITY)
        mid, gap = sweep_eer(mated, non_mated, ORIENT_SIMILARITY)
        assert gap == 0.0
        assert det.eer == pytest.approx(0.25, abs=1e-12)
        assert det.eer == pytest.approx(mid, abs=1e-12)

    def test_interpolated_crossing(self):
        # no exact tie here: rates jump from (1/4, 1/2) to (1/2, 1/4), the
        # symmetric bracket interpolates to 3/8
        mated = np.array([0.3, 0.5, 0.7, 0.9])
        non_mated = np.array([0.1, 0.3, 0.5, 0.7])
        det = ue.det_curve(mated, non_mated, orientation=ORIENT_SIMILARITY)
        assert det.eer == pytest.approx(0.375, abs=1e-12)

    def test_modes_carry_rate_names(self, rng):
        m, nm = rng.normal(0.6, 0.1, 50), rng.normal(0.4, 0.1, 50)
        assert ue.det_curve(m, nm, mode=MODE_ACCURACY).rate_names == ("fmr", "fnmr")
        assert ue.det_curve(m, nm, mode=MODE_CROSSKEY).rate_names == ("cmr", "fcmr")
        assert ue.det_curve(m, nm, mode=MODE_RTMR).rate_names == ("rtmr", "fnmr")

    def test_json_round_trip(self, rng):
        det = ue.det_curve(rng.normal(0.6, 0.1, 40), rng.normal(0.4, 0.1, 40))
        back = ue.DetCurve.from_json_dict(det.to_json_dict())
        assert back.eer == det.eer
        assert np.array_equal(back.thresholds, det.thresholds)
        assert back.mode == det.mode

    def test_csv_headers_follow_mode(self, rng):
        det = ue.det_curve(rng.normal(0.6, 0.1, 40), rng.normal(0.4, 0.1, 40), mode=MODE_CROSSKEY)
        header = det.to_csv().splitlines()[0]
        assert header == "threshold,cmr,fcmr"


class TestThresholdsNearTheFloatMaximum:
    """DET thresholds where neighbour sums and sentinels overflow; the
    other overflow cases are in tests/test_counts.py, checked against
    np.unique of the candidates."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_score_at_the_float_maximum(self):
        top = np.finfo(np.float64).max
        assert _thresholds(np.array([1.0, top])).tolist() == [1.0 - top, 1.0, 1.0 / 2.0 + top / 2.0, top, np.inf]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_det_of_huge_scores_is_the_scaled_det(self):
        # every neighbour sum and the upper sentinel overflow; the rates
        # depend on the order of the scores only
        mated, non_mated = np.array([1e308, 1.5e308, 1.2e308]), np.array([1.1e308, 1.3e308])
        det = ue.det_curve(mated, non_mated)
        assert np.isfinite(det.thresholds).all()
        assert det.eer == ue.det_curve(mated / 1e300, non_mated / 1e300).eer


class TestCrossKeyDet:
    """The accuracy and cross-key DET curves that assess sweeps side by side."""

    @staticmethod
    def _curves(single, cross, orientation):
        result = ue.assess(cross, ue.DensityConfig(), 1.0, orientation, MODE_CROSSKEY, accuracy=single)
        return result.accuracy, result.det

    def test_returns_accuracy_and_crosskey_curves(self, rng):
        single = ue.ScoreCounts.from_scores(mated=rng.normal(0.2, 0.05, 2000), non_mated=rng.normal(0.8, 0.05, 2000))
        cross = ue.ScoreCounts.from_scores(mated=rng.normal(0.75, 0.05, 2000), non_mated=rng.normal(0.8, 0.05, 2000))
        acc, ck = self._curves(single, cross, orientation=ORIENT_DISSIMILARITY)
        assert acc.mode == MODE_ACCURACY
        assert ck.mode == MODE_CROSSKEY
        assert acc.eer < 0.01  # well separated single-key scores
        assert ck.eer > 0.3  # protection pushed mated into non-mated

    def test_identical_cross_key_keeps_eer(self, rng):
        m, nm = rng.normal(0.3, 0.1, 3000), rng.normal(0.7, 0.1, 3000)
        single = ue.ScoreCounts.from_scores(mated=m, non_mated=nm)
        cross = ue.ScoreCounts.from_scores(mated=m.copy(), non_mated=nm.copy())
        acc, ck = self._curves(single, cross, orientation=ORIENT_DISSIMILARITY)
        assert ck.eer == pytest.approx(acc.eer, abs=1e-12)


    def test_assess_memory_is_the_drawn_points(self, rng):
        # compare-csv-kde's sizes, all scores distinct.  Held: three curves of
        # 512 points at 24 B each and ~220 density bins, far under 1 MB.
        # Peak: the accuracy sweep's 1M thresholds (8 MB) built beside the
        # 500k distinct values (4 MB) they come from, and the cumulative
        # counts (4 MB); under 24 MB.  The full sweeps held 50 MB.
        single = ue.ScoreCounts.from_scores(rng.normal(0.20, 0.06, 320_000), rng.normal(0.48, 0.03, 180_000))
        cross = ue.ScoreCounts.from_scores(rng.normal(0.44, 0.04, 60_000), rng.normal(0.48, 0.045, 90_000))
        tracemalloc.start()
        try:
            result = ue.assess(cross, ue.DensityConfig(kde=True), 1.0, ORIENT_DISSIMILARITY, MODE_CROSSKEY, single)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [c.thresholds.size for c in (result.accuracy, result.rtmr, result.det)] == [512] * 3
        assert held < 1e6
        assert peak < 24e6


class TestRtmrCurve:
    def test_mode_and_staircase(self):
        det = ue.rtmr_curve([0.9, 0.8, 0.4], [0.6, 0.2, 0.1], orientation=ORIENT_SIMILARITY)
        assert det.mode == MODE_RTMR
        assert det.eer == pytest.approx(1 / 3, abs=1e-12)

    def test_separated_corner(self, rng):
        det = ue.rtmr_curve(
            rng.normal(0.9, 0.01, 500), rng.normal(0.1, 0.01, 500), orientation=ORIENT_SIMILARITY
        )
        assert det.eer == 0.0
