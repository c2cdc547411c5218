"""Count tables: the one input of the histogram, FD percentile, DET and RTMR.

Every statistic computed from (sorted distinct value, count) tables must
equal, bit for bit, the one NumPy or the former sort-based code computes
from the scores themselves; and run_protocol must write the same report
bytes, with the same warnings, whether or not it also writes score files.
"""

import json
import os
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import unlinkeval as ue
from unlinkeval import kernels, protocol
from unlinkeval.baselines import ORIENT_DISSIMILARITY, ORIENT_SIMILARITY, _interpolated_eer
from unlinkeval.density import _histogram_density
from unlinkeval.errors import InvalidConfigError, StatisticalAdequacyWarning, TooFewScoresError
from unlinkeval.protocol import synthetic_engine
from unlinkeval.scores import CountTable, ScoreCounts, sorted_distinct


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def _same_bits(a, b) -> bool:
    """Equal bit patterns, except that a zero may carry either sign.

    Which of -0.0 and +0.0 NumPy's partition or sort puts first is not
    defined, so neither is the sign of a zero read off a sorted array.
    """
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        return False
    zeros = (a == 0) & (b == 0)
    return bool(np.all(zeros | (_bits(a) == _bits(b))))


def _mids(values):
    """Each pair of neighbours' midpoint, halved before the sum where the sum overflows."""
    with np.errstate(over="ignore"):
        mids = (values[:-1] + values[1:]) / 2.0
    return np.where(np.isinf(mids), values[:-1] / 2.0 + values[1:] / 2.0, mids)


def _sentinels(values):
    """The span beyond each extreme score, or the next float where that
    rounds back onto it or overflows."""
    with np.errstate(over="ignore"):
        span = max(values[-1] - values[0], 1.0)
        low, high = values[0] - span, values[-1] + span
        low_out, high_out = np.nextafter(values[0], -np.inf), np.nextafter(values[-1], np.inf)
    return [min(low, low_out) if np.isfinite(low) else low_out,
            max(high, high_out) if np.isfinite(high) else high_out]


def _det_sorted(mated, non_mated, orientation):
    """The sort-and-search DET sweep that det_curve used before count tables."""
    mated = np.asarray(mated, dtype=np.float64)
    non_mated = np.asarray(non_mated, dtype=np.float64)
    values = np.unique(np.concatenate([mated, non_mated]))
    thresholds = np.unique(np.concatenate([values, _mids(values), _sentinels(values)]))
    m_sorted, nm_sorted = np.sort(mated), np.sort(non_mated)
    if orientation == ORIENT_SIMILARITY:
        fnmr = np.searchsorted(m_sorted, thresholds, side="left") / mated.size
        fmr = (non_mated.size - np.searchsorted(nm_sorted, thresholds, side="left")) / non_mated.size
    else:
        fnmr = (mated.size - np.searchsorted(m_sorted, thresholds, side="right")) / mated.size
        fmr = np.searchsorted(nm_sorted, thresholds, side="right") / non_mated.size
    return thresholds, fmr, fnmr, _interpolated_eer(fmr, fnmr)


def _densities_by_scores(mated, non_mated, cfg):
    """Histogram densities as estimate_densities computed them from the
    scores themselves: np.percentile for the auto bin count, np.histogram."""
    lo = float(min(mated.min(), non_mated.min()))
    hi = float(max(mated.max(), non_mated.max()))
    if cfg.bins == "auto":
        pooled = np.concatenate([mated, non_mated])
        q75, q25 = np.percentile(pooled, [75.0, 25.0])
        width = 2.0 * (q75 - q25) / pooled.size ** (1.0 / 3.0)
        n_bins = min(max(int(np.ceil((hi - lo) / width)), 20), 400)
    else:
        n_bins = cfg.bins
    if cfg.grid_range is not None:
        edges = np.linspace(*cfg.grid_range, n_bins + 1)
    else:
        width = (hi - lo) / n_bins
        edges = np.linspace(lo - width, hi + width, n_bins + 3)
    dens = [np.histogram(v, bins=edges)[0] / (v.size * np.diff(edges)) for v in (mated, non_mated)]
    return ue.DensityPair(edges, *dens).to_json()


# small pools of values force ties; the signed zeros test the sign rule
_POOL = [-0.0, 0.0, 0.25, 1 / 3, 0.5, 0.5 + 2**-52, 2.0, -1.5, 1e-300, 7.0]
# their midpoints, sentinels and span overflow the float range
_OVERFLOW = [1e308, 1.7e308, -1.7e308]
# neighbouring floats at a power of two beyond 2**53: their midpoint rounds
# onto a score, and so does the span added beyond one end
_ROUNDING_UP = [2.0**60 - 128, 2.0**60]
_ROUNDING_DOWN = [-(2.0**60), -(2.0**60) + 128]
_scores = st.lists(st.sampled_from(_POOL), min_size=1, max_size=60)
_positive = st.lists(st.sampled_from([v for v in _POOL if v > 0]), min_size=1, max_size=60)
_percents = st.lists(st.floats(0.0, 100.0), min_size=1, max_size=5)


class TestCountTable:
    def test_from_scores_sorts_and_counts(self):
        t = CountTable.from_scores([0.5, 0.25, 0.5, 1.0, 0.5])
        assert t.values.tolist() == [0.25, 0.5, 1.0]
        assert t.counts.tolist() == [1, 3, 1]
        assert len(t) == 5

    def test_signed_zeros_are_one_value(self):
        t = CountTable.from_scores([0.0, -0.0, 0.0, 1.0])
        assert t.values.tolist() == [0.0, 1.0]
        assert t.counts.tolist() == [3, 1]

    def test_rejects_unsorted_or_empty_counts(self):
        with pytest.raises(ValueError):
            CountTable([0.5, 0.25], [1, 1])
        with pytest.raises(ValueError):
            CountTable([0.25, 0.5], [1, 0])
        with pytest.raises(ValueError):
            CountTable([0.25, 0.5], [1])

    def test_pooled_adds_counts(self):
        a = CountTable([0.1, 0.5], [2, 3])
        b = CountTable([0.5, 0.9], [4, 1])
        pooled = CountTable.pooled(a, b)
        assert pooled.values.tolist() == [0.1, 0.5, 0.9]
        assert pooled.counts.tolist() == [2, 7, 1]

    @given(arrays=st.lists(st.lists(st.sampled_from(_POOL + _OVERFLOW), max_size=30), min_size=1, max_size=3),
           ints=st.lists(st.lists(st.integers(-5, 5), max_size=30), min_size=1, max_size=3))
    @settings(max_examples=300)
    def test_sorted_distinct_is_unique(self, arrays, ints):
        arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
        got = sorted_distinct(*arrays)
        assert _same_bits(got, np.unique(np.concatenate(arrays)))
        # of a -0.0 and a 0.0, the first one given
        zeros = np.concatenate(arrays)
        zeros = zeros[zeros == 0]
        assert np.array_equal(_bits(got[got == 0]), _bits(zeros[:1]))
        ints = [np.asarray(a, dtype=np.int64) for a in ints]
        assert np.array_equal(sorted_distinct(*ints), np.unique(np.concatenate(ints)))

    def test_count_below_is_searchsorted_over_the_scores(self, rng):
        scores = np.round(rng.normal(0.5, 0.2, 500), 2)
        t = CountTable.from_scores(scores)
        thresholds = np.linspace(-0.2, 1.2, 300)
        for side in ("left", "right"):
            assert np.array_equal(t.count_below(thresholds, side), np.searchsorted(np.sort(scores), thresholds, side))


class TestWeightedPercentile:
    @given(_scores, _percents)
    @settings(max_examples=500)
    def test_matches_numpy(self, scores, q):
        got = CountTable.from_scores(scores).percentile(q)
        assert _same_bits(got, np.percentile(scores, q))

    @given(_positive, _percents)
    @settings(max_examples=500)
    def test_matches_numpy_bit_for_bit_without_zeros(self, scores, q):
        got = CountTable.from_scores(scores).percentile(q)
        assert np.array_equal(_bits(got), _bits(np.percentile(scores, q)))

    def test_random_trials(self, rng):
        for _ in range(2000):
            n = int(rng.integers(1, 200))
            scores = rng.integers(0, 30, n) / float(rng.choice([7, 64, 1024]))
            q = [75.0, 25.0, float(rng.uniform(0, 100))]
            got = CountTable.from_scores(scores).percentile(q)
            assert np.array_equal(_bits(got), _bits(np.percentile(scores, q)))

    def test_single_distinct_value(self):
        for scores in ([0.3, 0.3], [0.3] * 7, [-0.0, -0.0]):
            got = CountTable.from_scores(scores).percentile([0.0, 25.0, 75.0, 100.0])
            assert _same_bits(got, np.percentile(scores, [0.0, 25.0, 75.0, 100.0]))

    def test_signed_zeros(self):
        scores = [-0.0, 0.0, -0.0, 0.5, -1.0]
        got = CountTable.from_scores(scores).percentile([25.0, 50.0, 75.0])
        assert _same_bits(got, np.percentile(scores, [25.0, 50.0, 75.0]))


class TestCountHistogram:
    @given(_scores, st.integers(1, 12), st.floats(-3.0, 0.0), st.floats(0.1, 10.0))
    @settings(max_examples=500)
    def test_matches_numpy_histogram(self, scores, bins, lo, width):
        edges = np.linspace(lo, lo + width, bins + 1)
        counts, _ = np.histogram(scores, bins=edges)
        table = CountTable.from_scores(scores)
        if counts.sum() != len(scores):
            with pytest.raises(ue.errors.GridMismatchError):
                _histogram_density(table, edges)
            return
        expected = counts / (len(scores) * np.diff(edges))
        assert np.array_equal(_bits(_histogram_density(table, edges)), _bits(expected))

    def test_ties_at_bin_edges(self):
        edges = np.linspace(0.0, 1.0, 5)
        # every edge, the last one included, is hit by scores
        scores = np.concatenate([edges, edges[1:3], [0.1, 0.9]])
        counts, _ = np.histogram(scores, bins=edges)
        expected = counts / (scores.size * np.diff(edges))
        got = _histogram_density(CountTable.from_scores(scores), edges)
        assert np.array_equal(_bits(got), _bits(expected))
        assert counts.tolist() == [2, 2, 2, 3]

    @pytest.mark.parametrize("cfg", [ue.DensityConfig(), ue.DensityConfig(bins=37),
                                     ue.DensityConfig(bins=50, grid_range=(-1.0, 2.0))])
    @pytest.mark.parametrize("decimals", [2, 4, 12])
    def test_densities_equal_those_from_the_scores(self, rng, cfg, decimals):
        mated = np.round(rng.normal(0.3, 0.1, 3000), decimals)
        non_mated = np.round(rng.normal(0.6, 0.1, 4000), decimals)
        expected = _densities_by_scores(mated, non_mated, cfg)
        assert ue.estimate_densities(ScoreCounts.from_scores(mated, non_mated), cfg).to_json() == expected


class TestCountDet:
    @pytest.mark.parametrize("orientation", [ORIENT_SIMILARITY, ORIENT_DISSIMILARITY])
    @given(mated=st.lists(st.sampled_from(_POOL), min_size=2, max_size=40),
           non_mated=st.lists(st.sampled_from(_POOL), min_size=2, max_size=40))
    @settings(max_examples=300)
    def test_matches_sorted_sweep(self, orientation, mated, non_mated):
        thresholds, fmr, fnmr, eer = _det_sorted(mated, non_mated, orientation)
        for m, nm in ((mated, non_mated), (CountTable.from_scores(mated), CountTable.from_scores(non_mated))):
            det = ue.det_curve(m, nm, orientation)
            assert _same_bits(det.thresholds, thresholds)
            assert np.array_equal(_bits(det.fmr), _bits(fmr))
            assert np.array_equal(_bits(det.fnmr), _bits(fnmr))
            assert _bits(det.eer) == _bits(eer)

    @pytest.mark.parametrize("orientation", [ORIENT_SIMILARITY, ORIENT_DISSIMILARITY])
    @pytest.mark.parametrize("pool", [_POOL, _POOL + _OVERFLOW, _ROUNDING_UP, _ROUNDING_DOWN],
                             ids=["pool", "overflow", "rounding-up", "rounding-down"])
    @given(data=st.data(), points=st.sampled_from([*range(2, 10), 512]))
    @settings(max_examples=150)
    def test_drawn_points_match_sorted_sweep(self, orientation, pool, data, points):
        mated, non_mated = (data.draw(st.lists(st.sampled_from(pool), min_size=2, max_size=40)) for _ in range(2))
        with np.errstate(over="ignore"):
            thresholds, fmr, fnmr, eer = _det_sorted(mated, non_mated, orientation)
            det = ue.det_curve(mated, non_mated, orientation, points=points)
        n = thresholds.size
        keep = [round(i * (n - 1) / (points - 1)) for i in range(points)] if n > points else list(range(n))
        assert _same_bits(det.thresholds, thresholds[keep])
        assert np.array_equal(_bits(det.fmr), _bits(fmr[keep]))
        assert np.array_equal(_bits(det.fnmr), _bits(fnmr[keep]))
        assert _bits(det.eer) == _bits(eer)

    @pytest.mark.parametrize("points", [1, 0, -3, True, 2.0, "512", np.float64(8)])
    def test_points_is_an_integer_of_at_least_2(self, points):
        with pytest.raises(InvalidConfigError, match="^points must be an integer >= 2"):
            ue.det_curve([0.1, 0.2], [0.3, 0.4], points=points)

    def test_numpy_integer_points(self, rng):
        mated, non_mated = rng.random(300), rng.random(300) + 0.5
        det = ue.det_curve(mated, non_mated, points=np.int64(7))
        assert det.to_json() == ue.det_curve(mated, non_mated, points=7).to_json()
        assert det.thresholds.size == 7

    def test_single_distinct_value(self):
        det = ue.det_curve(CountTable([0.4], [3]), CountTable([0.4], [2]), ORIENT_DISSIMILARITY)
        thresholds, fmr, fnmr, eer = _det_sorted([0.4] * 3, [0.4] * 2, ORIENT_DISSIMILARITY)
        assert np.array_equal(det.thresholds, thresholds)
        assert np.array_equal(det.fmr, fmr) and np.array_equal(det.fnmr, fnmr) and det.eer == eer

    def test_json_of_large_curves(self, rng):
        mated = np.round(rng.normal(0.3, 0.1, 20000), 4)
        non_mated = np.round(rng.normal(0.5, 0.1, 30000), 4)
        thresholds, fmr, fnmr, eer = _det_sorted(mated, non_mated, ORIENT_DISSIMILARITY)
        det = ue.det_curve(CountTable.from_scores(mated), CountTable.from_scores(non_mated), ORIENT_DISSIMILARITY)
        expected = dict(det.to_json_dict(), thresholds=thresholds.tolist(), fmr=fmr.tolist(), fnmr=fnmr.tolist(), eer=eer)
        assert json.dumps(det.to_json_dict()) == json.dumps(expected)

    @pytest.mark.parametrize("values", [
        [0.5],
        [0.5, 0.5 + 2**-52, 0.5 + 2**-51],  # midpoints round onto neighbours
        [-3.0, -0.0, 2.0, 1e300],
        [1e308, 1.7e308],  # the midpoint's sum and the upper sentinel overflow
        [-1.7e308, 1.7e308],  # the span overflows
        [-1.7e308, -1e308, 0.5, 1e308, 1.7e308],  # both sums of each sign overflow
        _ROUNDING_UP,  # the upper sentinel is the next float out
        _ROUNDING_DOWN,  # the lower one
    ])
    def test_thresholds_equal_unique_of_the_candidates(self, values):
        from unlinkeval.baselines import _thresholds

        values = np.asarray(values)
        expected = np.unique(np.concatenate([values, _mids(values), _sentinels(values)]))
        got = _thresholds(values)
        assert np.array_equal(_bits(got), _bits(expected))
        assert np.isfinite(got).all() and got[0] < values[0] and got[-1] > values[-1]

    @pytest.mark.parametrize("points", [None, 2, 3])
    def test_sentinels_beyond_rounding_scores_make_the_rates_cross(self, points):
        # 2**60 + 128 rounds to 2**60, so the upper sentinel is 2**60 + 256:
        # thresholds 2**60 - 256, 2**60 - 128, 2**60, 2**60 + 256 give
        # fmr - fnmr = 1, 1, 0.5, -1, and the EER is interpolated at a third
        # of the way from 2**60 (it read 0.25, the closest approach, when
        # the sentinel rounded onto 2**60 and the rates did not cross)
        det = ue.det_curve([2**60, 2**60], [2**60 - 128, 2**60], points=points)
        assert det.eer == 0.5 / 1.5
        full = ue.det_curve([2**60, 2**60], [2**60 - 128, 2**60])
        assert full.thresholds.tolist() == [2.0**60 - 256, 2.0**60 - 128, 2.0**60, 2.0**60 + 256]
        assert (full.fmr[-1], full.fnmr[-1]) == (0.0, 1.0)

    def test_too_few_counted_scores(self):
        with pytest.raises(TooFewScoresError):
            ue.det_curve(CountTable([0.4], [1]), [0.1, 0.2])


class TestScoreCounts:
    def test_checks_and_warnings_match_score_set(self, score_csv):
        # a score set loaded from files is checked and warned about as its scores are
        mated, non_mated = [0.1, 0.2, 0.2], [0.5, 0.6]
        paths = score_csv(mated, non_mated)
        with warnings.catch_warnings(record=True) as from_files:
            warnings.simplefilter("always")
            loaded = ue.load_score_set(*paths)
        with warnings.catch_warnings(record=True) as from_scores:
            warnings.simplefilter("always")
            counts = ScoreCounts.from_scores(mated, non_mated)
        assert [str(w.message) for w in from_files] == [str(w.message) for w in from_scores]
        assert all(w.category is StatisticalAdequacyWarning for w in from_files)
        assert (loaded.n_mated, loaded.n_non_mated) == (counts.n_mated, counts.n_non_mated) == (3, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StatisticalAdequacyWarning)
            with pytest.raises(TooFewScoresError) as by_file:
                ue.load_score_set(*score_csv([0.1], non_mated, name="one"))
            with pytest.raises(TooFewScoresError) as by_scores:
                ScoreCounts.from_scores([0.1], non_mated)
        side_and_count = [(e.value.side, e.value.count) for e in (by_file, by_scores)]
        assert side_and_count == [("mated", 1)] * 2

    def test_warns_once_per_small_side(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            counts = ScoreCounts.from_scores([0.2, 0.1, 0.2], [0.5, 0.6])
        assert [str(w.message) for w in caught] == [
            "mated side has 3 scores; below 1000 estimates may be unstable",
            "nonmated side has 2 scores; below 1000 estimates may be unstable",
        ]
        assert all(w.category is StatisticalAdequacyWarning for w in caught)
        assert (counts.n_mated, counts.n_non_mated) == (3, 2)
        assert counts.mated.values.tolist() == [0.1, 0.2] and counts.mated.counts.tolist() == [1, 2]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ScoreCounts.from_scores(np.arange(1000.0), np.arange(1000.0))

    def test_warnings_name_the_calling_line(self, score_csv):
        """A small side is warned about at the caller's line, never at one of the package."""
        corpus = ue.CorpusConfig(n_subjects=3, samples_per_subject=2, template_bits=256,
                                 intra_flip_rate=0.1, seed=1)
        engine = synthetic_engine(corpus, 6, "xor-salt")
        paths = score_csv([0.1, 0.2], [0.5, 0.6])
        calls = {
            "from_scores": lambda: ScoreCounts.from_scores([0.1, 0.2], [0.5, 0.6]),
            "load_score_set": lambda: ue.load_score_set(*paths),
            "cross_database_scores": lambda: ue.cross_database_scores(engine, "pic_hd"),
        }
        for name, call in calls.items():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                call()
            assert [w.category for w in caught] == [StatisticalAdequacyWarning] * 2, name
            assert [w.filename for w in caught] == [__file__] * 2, name

    @pytest.mark.parametrize("make", [
        ScoreCounts.from_scores,
        lambda m, n: ScoreCounts(CountTable.from_scores(m), CountTable.from_scores(n)),
        lambda m, n: ue.det_curve(m, n),
        lambda m, n: ue.det_curve(CountTable.from_scores(m), CountTable.from_scores(n)),
    ])
    def test_one_side_rule_everywhere(self, make):
        with pytest.raises(ValueError, match="^mated score nan is not finite$"):
            make([0.1, float("nan")], [0.5, 0.6])
        with pytest.raises(ValueError, match="^nonmated score -inf is not finite$"):
            make([0.1, 0.2], [0.5, -np.inf])
        with pytest.raises(TooFewScoresError, match="^nonmated side has 1 scores"):
            make([0.1, 0.2], [0.5])

    @pytest.mark.parametrize("sizes,side", [((1, 3), "mated"), ((3, 0), "nonmated")])
    def test_too_few_scores(self, sizes, side):
        tables = [CountTable([0.5], [n]) if n else CountTable([], []) for n in sizes]
        with pytest.raises(TooFewScoresError, match=side):
            ScoreCounts(*tables)


_FUNCTIONS = ["pic_hd", "hamming_weight", "permuted_xor", "reconstruction"]


@st.composite
def _protocol_configs(draw):
    scheme = draw(st.sampled_from(["xor-salt", "block-remap", "bloom-filter", "none"]))
    density = {"kde": draw(st.booleans())}
    bins = draw(st.sampled_from(["auto", 2, 7, 40]))
    if bins != "auto":
        density["bins"] = bins
        if draw(st.booleans()):
            density["grid_range"] = [-0.25, 1.5]
    return {
        # permuted_xor outside block re-mapping, and Bloom reconstruction
        # without the opt-in, put error entries in the report
        "linkage_functions": draw(st.lists(st.sampled_from(_FUNCTIONS), min_size=1, unique=True)),
        "k": draw(st.integers(2, 4)),
        "scheme": scheme,
        "mated_pairing": draw(st.sampled_from(["all-cross-key", "distinct-samples"])),
        "non_mated_all_pairs": draw(st.booleans()),
        "allow_approximate_bloom": draw(st.booleans()),
        "density": density,
        "block_size": 16,
        "bloom_width": 8,
        "bloom_height": 4,
        "corpus": {
            "n_subjects": draw(st.integers(2, 11)),
            "samples_per_subject": draw(st.integers(2, 3)),
            "template_bits": 128,
            "intra_flip_rate": 0.1,
            "seed": draw(st.integers(0, 2**16)),
        },
    }


def _run(cfg: dict):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = ue.run_protocol(ue.ProtocolConfig.from_dict(cfg))
    return report, sorted((w.category.__name__, str(w.message)) for w in caught)


class TestProtocolReportWithAndWithoutOutDir:
    """With out_dir, run_protocol also writes each function's score file from
    its tables; the report and its warnings stay those of a run without."""

    @given(cfg=_protocol_configs(), tile=st.sampled_from([1, 2, 3, 128]), threads=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_same_report_bytes(self, cfg, tile, threads):
        """threads splits every pass over three threads, however small."""
        with mock.patch.object(kernels, "TILE_ROWS", tile), \
                mock.patch.object(protocol, "THREAD_MIN_WORDS", 0 if threads else protocol.THREAD_MIN_WORDS), \
                mock.patch.object(os, "sched_getaffinity", lambda pid: {0, 1, 2}, create=True):
            counted, counted_warnings = _run(cfg)
            with tempfile.TemporaryDirectory() as out:
                with_out_dir, with_out_dir_warnings = _run(dict(cfg, out_dir=out))
                written = (Path(out) / "report.json").read_text(encoding="utf-8")
        assert counted.to_json() + "\n" == written
        assert counted.to_json() == with_out_dir.to_json()
        assert counted_warnings == with_out_dir_warnings


class TestCountedProtocolMemory:
    @pytest.mark.parametrize("kde", [False, True])
    def test_800_subjects_without_float_scores(self, kde):
        """Under the 115 MB that the 14.4M non-mated float64 scores alone would take."""
        cfg = ue.ProtocolConfig.from_dict({
            "linkage_functions": ["pic_hd"], "k": 10, "scheme": "block-remap",
            "density": {"kde": kde},
            "corpus": {"n_subjects": 800, "samples_per_subject": 4, "template_bits": 1024,
                       "intra_flip_rate": 0.1, "seed": 1},
        })
        tracemalloc.start()
        try:
            report = ue.run_protocol(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.per_function["pic_hd"]["n_non_mated"] == 45 * 800 * 799 // 2
        assert peak < 115 * 2**20
