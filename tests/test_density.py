import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import unlinkeval as ue
from unlinkeval import density
from unlinkeval.density import evaluate_density
from unlinkeval.scores import CountTable
from unlinkeval.errors import (
    DegenerateSupportError,
    GridMismatchError,
    InvalidConfigError,
    NotNormalizedError,
    StatisticalAdequacyWarning,
)

warnings.simplefilter("ignore", StatisticalAdequacyWarning)


def _set(mated, non_mated):
    return ue.ScoreCounts.from_scores(mated, non_mated)


def _integral(dp):
    w = dp.bin_widths
    return float(np.sum(dp.p_mated * w)), float(np.sum(dp.p_non_mated * w))


class TestHandHistogram:
    """Four-point fixture small enough to verify with pencil and paper."""

    def test_two_bin_density_values(self):
        s = _set([0, 0, 1, 1], [0, 1, 1, 1])
        dp = ue.estimate_densities(s, ue.DensityConfig(bins=2, grid_range=(-0.25, 1.25)))
        assert np.allclose(dp.edges, [-0.25, 0.5, 1.25])
        # count/(n*width): widths are 0.75
        assert np.allclose(dp.p_mated, [2 / 3, 2 / 3])
        assert np.allclose(dp.p_non_mated, [1 / 3, 1.0])

    def test_both_sides_integrate_to_one(self):
        s = _set([0, 0, 1, 1], [0, 1, 1, 1])
        dp = ue.estimate_densities(s, ue.DensityConfig(bins=2, grid_range=(-0.25, 1.25)))
        im, inm = _integral(dp)
        assert im == pytest.approx(1.0, abs=1e-9)
        assert inm == pytest.approx(1.0, abs=1e-9)


class TestNormalizationAndGrid:
    @pytest.mark.parametrize("kde", [False, True])
    @pytest.mark.parametrize("seed", range(6))
    def test_integrates_to_one(self, seed, kde):
        rng = np.random.default_rng(seed)
        s = _set(rng.normal(0.3, 0.07, 500), rng.normal(0.6, 0.2, 800))
        dp = ue.estimate_densities(s, ue.DensityConfig(kde=kde))
        im, inm = _integral(dp)
        assert im == pytest.approx(1.0, abs=1e-9)
        assert inm == pytest.approx(1.0, abs=1e-9)
        assert np.all(dp.p_mated >= 0)
        assert np.all(np.isfinite(dp.p_mated))

    def test_shared_grid_covers_union_with_margin(self, rng):
        m = rng.normal(0.2, 0.05, 400)
        nm = rng.normal(0.9, 0.05, 400)
        dp = ue.estimate_densities(_set(m, nm))
        lo = min(m.min(), nm.min())
        hi = max(m.max(), nm.max())
        assert dp.edges[0] < lo
        assert dp.edges[-1] > hi
        # extension is exactly one bin width per side
        w = dp.bin_widths[0]
        assert dp.edges[0] == pytest.approx(lo - w, rel=1e-9)
        assert dp.edges[-1] == pytest.approx(hi + w, rel=1e-9)

    def test_auto_bin_count_stays_in_clamp_range(self, rng):
        tiny = _set(rng.normal(size=10), rng.normal(size=10))
        huge = _set(rng.normal(size=200_000), rng.normal(size=200_000))
        assert 20 <= ue.estimate_densities(tiny).n_bins <= 400
        assert 20 <= ue.estimate_densities(huge).n_bins <= 400

    def test_auto_bins_survive_zero_iqr(self, rng):
        # enough duplicates that the quartiles coincide
        m = np.concatenate([np.full(900, 0.5), rng.normal(0.5, 0.1, 100)])
        dp = ue.estimate_densities(_set(m, rng.normal(0.5, 0.1, 1000)))
        assert 20 <= dp.n_bins <= 400

    def test_explicit_grid_range_is_used_exactly(self, rng):
        s = _set(rng.random(100), rng.random(100))
        dp = ue.estimate_densities(s, ue.DensityConfig(bins=10, grid_range=(-1.0, 2.0)))
        assert dp.edges[0] == -1.0
        assert dp.edges[-1] == 2.0
        assert dp.n_bins == 10

    @pytest.mark.parametrize("grid_range", [(1.0,), (0.0, 1.0, 2.0), 5, (0.0, float("inf")), (-1.7e308, 1.7e308)])
    def test_grid_range_must_be_a_finite_pair(self, grid_range):
        with pytest.raises(InvalidConfigError, match="grid_range"):
            ue.DensityConfig(grid_range=grid_range)

    def test_grid_range_must_cover_support(self, rng):
        s = _set(rng.random(100), rng.random(100))
        with pytest.raises(GridMismatchError):
            ue.estimate_densities(s, ue.DensityConfig(bins=10, grid_range=(0.4, 0.6)))

    def test_zero_count_bins_are_exactly_zero(self):
        s = _set([0.0, 0.1, 0.9, 1.0], [0.0, 0.1, 0.9, 1.0])
        dp = ue.estimate_densities(s, ue.DensityConfig(bins=20, grid_range=(0.0, 1.0)))
        mid = dp.p_mated[8:12]
        assert np.all(mid == 0.0)


class TestScoresBeyondTheFloatRange:
    """Scores whose span, or whose grid extended by a bin width per side,
    exceeds the float range raise one named error, whatever the estimator."""

    @pytest.mark.parametrize("config", [ue.DensityConfig(), ue.DensityConfig(bins=10), ue.DensityConfig(kde=True)],
                             ids=["auto-bins", "bins-10", "kde"])
    @pytest.mark.parametrize("mated", [[1e308, -1e308], [1.7e308, -1.7e308], [0.0, 1.7e308]],
                             ids=["span", "widest-span", "extended-grid"])
    def test_one_named_error(self, config, mated):
        with pytest.raises(GridMismatchError, match="span more than a float64 grid can hold"):
            ue.estimate_densities(_set(mated, [0.1, 0.2]), config)

    def test_a_wide_span_within_the_range_is_estimated(self):
        dp = ue.estimate_densities(_set([0.0, 1e307], [0.1, 0.2]), ue.DensityConfig(bins=10))
        assert np.isfinite(dp.edges).all() and dp.n_bins == 12

    @pytest.mark.parametrize("power", [600, 1000, 1023])
    def test_kde_of_huge_scores_is_the_scaled_kde(self, power):
        """Scaling the scores by a power of two scales the KDE's grid and
        densities, also where its sums of squares, its mean's sum (2**1023)
        or its bin centres (2**1023) would overflow.  The scores are evenly
        spread, so that their standard deviation, not the IQR, sets the
        bandwidth."""
        mated, non_mated = np.linspace(1.0, 1.5, 6), np.linspace(1.05, 1.45, 5)
        config = ue.DensityConfig(kde=True)
        base = ue.estimate_densities(_set(mated, non_mated), config)
        scale = 2.0 ** power
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            dp = ue.estimate_densities(_set(mated * scale, non_mated * scale), config)
        np.testing.assert_allclose(dp.edges / scale, base.edges, rtol=1e-12)
        np.testing.assert_allclose(dp.p_mated * scale, base.p_mated, rtol=1e-12)
        np.testing.assert_allclose(dp.p_non_mated * scale, base.p_non_mated, rtol=1e-12)


class TestDegenerateSupport:
    def test_point_mass_gets_epsilon_bin(self):
        s = _set([0.5, 0.5, 0.5], [0.5, 0.5])
        dp = ue.estimate_densities(s)
        assert dp.n_bins == 1
        w = dp.bin_widths[0]
        assert w == pytest.approx(1e-6 * 1.0, rel=1e-6)
        assert dp.p_mated[0] == pytest.approx(1.0 / w)

    def test_point_mass_disallowed_raises(self):
        s = _set([0.5, 0.5, 0.5], [0.1, 0.9])
        with pytest.raises(DegenerateSupportError):
            ue.estimate_densities(s, ue.DensityConfig(allow_point_mass=False))

    def test_one_constant_side_with_spread_other_side(self):
        # union support is non-degenerate, so the ordinary grid applies
        s = _set([0.5] * 10, np.linspace(0, 1, 10))
        dp = ue.estimate_densities(s)
        im, inm = _integral(dp)
        assert im == pytest.approx(1.0, abs=1e-9)
        assert inm == pytest.approx(1.0, abs=1e-9)


class TestEvaluateDensity:
    def _pair(self):
        s = _set([0, 0, 1, 1], [0, 1, 1, 1])
        return ue.estimate_densities(s, ue.DensityConfig(bins=2, grid_range=(-0.25, 1.25)))

    def test_inside_bin(self):
        dp = self._pair()
        assert evaluate_density(dp, 0.0) == (pytest.approx(2 / 3), pytest.approx(1 / 3))
        assert evaluate_density(dp, 1.0) == (pytest.approx(2 / 3), pytest.approx(1.0))

    def test_outside_grid_is_zero(self):
        dp = self._pair()
        assert evaluate_density(dp, -5.0) == (0.0, 0.0)
        assert evaluate_density(dp, 5.0) == (0.0, 0.0)

    def test_interior_edge_goes_right(self):
        dp = self._pair()
        pm, _ = evaluate_density(dp, 0.5)
        assert pm == pytest.approx(2 / 3)  # right bin of the 2-bin grid

    def test_last_edge_is_closed(self):
        dp = self._pair()
        pm, pnm = evaluate_density(dp, 1.25)
        assert pnm == pytest.approx(1.0)


class TestKde:
    def test_constant_side_that_reaches_no_bin_is_degenerate(self, rng):
        s = _set(np.full(2000, 0.3037), rng.normal(0.5, 0.1, 3000))
        assert np.all(np.isfinite(ue.estimate_densities(s).p_mated))
        with pytest.raises(DegenerateSupportError, match=r"of the mated scores .* bandwidth 1e-06 against a bin width of 0\.0"):
            ue.estimate_densities(s, ue.DensityConfig(kde=True))

    def test_kde_is_smoother_than_histogram(self, rng):
        s = _set(rng.normal(0.5, 0.1, 300), rng.normal(0.5, 0.1, 300))
        hist = ue.estimate_densities(s, ue.DensityConfig(bins=60))
        kde = ue.estimate_densities(s, ue.DensityConfig(bins=60, kde=True))
        assert np.array_equal(hist.edges, kde.edges)
        # total variation of successive bin values: smoothing must reduce it
        tv = lambda p: np.abs(np.diff(p)).sum()
        assert tv(kde.p_mated) < tv(hist.p_mated)


def _dense_kde(table, edges):
    """The KDE as one (distinct values, bins) matrix of count-weighted kernel
    terms summed over its value axis: the oracle of the blocked evaluation."""
    values, counts = table.values, table.counts
    n = int(counts.sum())
    mean = np.sum(values * counts) / n
    std = math.sqrt(np.sum((values - mean) ** 2 * counts) / n)
    q75, q25 = np.percentile(np.repeat(values, counts), [75.0, 25.0])
    spread = min(std, (q75 - q25) / 1.34) if q75 > q25 else std
    bw = 0.9 * spread * n ** (-1.0 / 5.0)
    if bw <= 0:
        bw = 1e-6 * max(1.0, float(np.abs(values).max()))
    centers = (edges[:-1] + edges[1:]) / 2.0
    z = (centers[None, :] - values[:, None]) / bw
    dens = (np.exp(-0.5 * z * z) * counts[:, None]).sum(axis=0) / (n * bw * math.sqrt(2.0 * math.pi))
    mass = float(np.sum(dens * np.diff(edges)))
    return dens / mass


def _silverman(table):
    """Silverman's bandwidth of a count table, as _dense_kde computes it."""
    values, counts = table.values, table.counts
    n = int(counts.sum())
    mean = np.sum(values * counts) / n
    std = math.sqrt(np.sum((values - mean) ** 2 * counts) / n)
    q75, q25 = table.percentile([75.0, 25.0])
    spread = min(std, (q75 - q25) / 1.34) if q75 > q25 else std
    return 0.9 * spread * n ** (-1.0 / 5.0)


def _dense_sums(values, counts, centers, bw):
    """The unnormalised dense KDE: each bin's count-weighted kernel terms summed in value order."""
    z = (centers[None, :] - values[:, None]) / bw
    return (np.exp(-0.5 * z * z) * counts[:, None]).sum(axis=0)


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def _table(rng, n_distinct, mean, sd, max_count=4):
    """n_distinct distinct normal values, each tallied 1 to max_count times."""
    values = np.unique(rng.normal(mean, sd, n_distinct))
    assert values.size == n_distinct
    return CountTable(values, rng.integers(1, max_count + 1, n_distinct))


def _same_kde(table, edges):
    return np.array_equal(_bits(density._kde_density(table, edges)), _bits(_dense_kde(table, edges)))


class TestBlockedKde:
    """The blocked KDE over a count table equals the dense one bit for bit."""

    @pytest.mark.parametrize("max_count", [1, 5])
    @pytest.mark.parametrize("extra", [-1, 0, 1, density._KDE_BLOCK + 1])
    def test_block_boundaries(self, rng, extra, max_count):
        table = _table(rng, density._KDE_BLOCK + extra, 0.48, 0.045, max_count)
        edges = np.linspace(table.values[0] - 0.01, table.values[-1] + 0.01, 218)
        assert _same_kde(table, edges)

    @pytest.mark.parametrize("block", [1, 2, 7, 333])
    @pytest.mark.parametrize("bins", [2, 3, 217])
    def test_small_blocks_and_two_bins(self, rng, monkeypatch, block, bins):
        monkeypatch.setattr(density, "_KDE_BLOCK", block)
        table = _table(rng, 1000, 0.3, 0.1, max_count=9)
        edges = np.linspace(table.values[0] - 0.05, table.values[-1] + 0.05, bins + 1)
        assert _same_kde(table, edges)

    def test_lattice_scores_with_large_counts(self, rng):
        # integer distances over a fixed length, as run_protocol tallies them
        table = CountTable.from_scores(rng.binomial(1024, 0.45, 200_000) / 1024)
        assert table.counts.max() > 1000
        edges = np.linspace(table.values[0] - 0.01, table.values[-1] + 0.01, 301)
        assert _same_kde(table, edges)

    def test_every_term_underflows(self, rng):
        # scores some 10^4 bandwidths from the grid: every kernel term is
        # +0.0, the blocked and the dense sums are both +0.0, and the
        # density cannot be normalised
        table = _table(rng, 3000, 50.0, 0.1)
        edges = np.linspace(0.0, 1.0, 11)
        centers, bw = (edges[:-1] + edges[1:]) / 2.0, _silverman(table)
        blocked = density._kernel_sums(table.values, table.counts, centers, bw)
        dense = _dense_sums(table.values, table.counts, centers, bw)
        assert np.array_equal(_bits(blocked), _bits(dense))
        assert not np.any(_bits(dense))
        with pytest.raises(DegenerateSupportError, match=r"of the given scores underflows .* bandwidth"):
            density._kde_density(table, edges)

    def test_some_scores_far_outside(self, rng):
        values = np.concatenate([rng.normal(0.5, 0.05, 2500), rng.normal(40.0, 0.05, 2500)])
        table = CountTable.from_scores(np.repeat(values, rng.integers(1, 4, values.size)))
        edges = np.linspace(0.2, 0.8, 31)
        assert _same_kde(table, edges)

    def test_subnormal_band(self, rng):
        table = _table(rng, 5000, 0.0, 1.0)
        values, n = table.values, len(table)
        scores = np.repeat(values, table.counts)
        q75, q25 = np.percentile(scores, [75.0, 25.0])
        bw = 0.9 * min(float(np.std(scores)), (q75 - q25) / 1.34) * n ** (-1.0 / 5.0)
        # bin centers 35 to 40 bandwidths past the largest score
        edges = values.max() + bw * np.linspace(35.0, 40.0, 41)
        centers = (edges[:-1] + edges[1:]) / 2.0
        exponent = -0.5 * ((centers[None, :] - values[:, None]) / bw) ** 2
        kernel = np.exp(exponent)
        assert np.any((kernel > 0) & (kernel < np.finfo(np.float64).tiny))
        assert np.any(exponent < density._EXP_ZERO_BELOW)
        assert _same_kde(table, edges)

    def test_point_mass_side(self):
        # one distinct value: zero spread, the fallback bandwidth
        table = CountTable([0.5], [7])
        edges = np.linspace(0.4999, 0.5001, 9)
        assert _same_kde(table, edges)

    def test_exp_is_positive_zero_below_the_cut(self):
        cut = density._EXP_ZERO_BELOW
        args = np.concatenate([
            [np.nextafter(cut, -np.inf), -np.inf, -np.finfo(np.float64).max],
            np.linspace(cut, 2 * cut, 200_001)[1:],
            -np.logspace(np.log10(-cut), 308, 10_000)[1:],
        ])
        assert np.all(args < cut)
        out = np.exp(args)
        assert np.all(out == 0.0)
        assert not np.any(np.signbit(out))

    def test_peak_memory_does_not_grow_with_n(self, rng):
        edges = np.linspace(-5.0, 5.0, 65)
        peaks = []
        for n in (20_000, 400_000):
            table = CountTable.from_scores(rng.normal(size=n))
            tracemalloc.start()
            try:
                density._kde_density(table, edges)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # the (n, bins) matrix alone would be 200 MB at 400k scores
        assert abs(peaks[1] - peaks[0]) < 4e6


class TestKdeWindow:
    """Each block touches only the bins its terms can still change, with the same bits."""

    def test_gap_between_clusters(self, rng):
        # most scores sit at one bin centre; a small cluster lies midway
        # between two centres, hundreds of bandwidths from both, so its
        # blocks reach no bin at all
        values = np.concatenate([rng.normal(0.5, 1e-3, 1800), rng.normal(0.55, 1e-3, 200)])
        table = CountTable.from_scores(values)
        edges = np.linspace(0.05, 0.95, 10)
        centers = (edges[:-1] + edges[1:]) / 2.0
        z = (centers[None, :] - table.values[-200:, None]) / _silverman(table)
        assert np.all(-0.5 * z * z < density._EXP_ZERO_BELOW)
        assert _same_kde(table, edges)

    @pytest.mark.parametrize("block", [1, 2, 7, 333])
    @pytest.mark.parametrize("bins", [2, 3])
    @pytest.mark.parametrize("at", [0, -1])
    def test_windows_of_one_bin_are_widened(self, rng, monkeypatch, block, bins, at):
        # the scores reach only the first or the last bin, a one-column
        # window would be summed pairwise, and normalising one bin hides
        # its sum: compare the sums
        monkeypatch.setattr(density, "_KDE_BLOCK", block)
        centers = np.arange(bins) + 0.5
        table = _table(rng, 3000, centers[at], 1e-3, max_count=9)
        bw = _silverman(table)
        z = (np.delete(centers, at)[None, :] - table.values[:, None]) / bw
        assert np.all(-0.5 * z * z < density._EXP_ZERO_BELOW)
        blocked = density._kernel_sums(table.values, table.counts, centers, bw)
        assert np.array_equal(_bits(blocked), _bits(_dense_sums(table.values, table.counts, centers, bw)))

    def test_large_counts_lower_the_floor(self, rng):
        # lattice scores tallied up to 10^12 times, a kernel two lattice
        # steps wide: a term below half an ulp of its bin's sum still
        # counts once multiplied by its count
        values = np.arange(300, 700) / 1024
        counts = np.round(1e12 * np.exp(-0.5 * ((values - 0.48) / 0.03) ** 2)).astype(np.int64) + 1
        edges = np.linspace(values[0] - 0.01, values[-1] + 0.01, 301)
        centers, bw = (edges[:-1] + edges[1:]) / 2.0, 2.0 / 1024
        blocked = density._kernel_sums(values, counts, centers, bw)
        assert np.array_equal(_bits(blocked), _bits(_dense_sums(values, counts, centers, bw)))

    @pytest.mark.parametrize("lo, hi", [(-10.0, 10.0), (-300.0, 2.0)])
    def test_cauchy_tails(self, rng, lo, hi):
        table = CountTable.from_scores(np.repeat(rng.standard_cauchy(4000), rng.integers(1, 4, 4000)))
        edges = np.linspace(lo, hi, 161)
        assert _same_kde(table, edges)

    def test_grid_range_cuts_one_sides_tail(self, rng):
        mated, non_mated = rng.normal(0.3, 0.05, 3000), rng.normal(0.6, 0.02, 5000)
        s = _set(mated, non_mated)
        cfg = ue.DensityConfig(bins=80, kde=True, grid_range=(float(mated.min()), float(non_mated.max())))
        dp = ue.estimate_densities(s, cfg)
        assert np.array_equal(_bits(dp.p_mated), _bits(_dense_kde(s.mated, dp.edges)))
        assert np.array_equal(_bits(dp.p_non_mated), _bits(_dense_kde(s.non_mated, dp.edges)))

    def test_subnormal_running_sums(self, rng):
        # a small cluster on both sides of one wide bin, 38 to 39 bandwidths
        # from its centre: that bin's running sums stay subnormal.  The
        # bandwidth comes from the main cluster's quartiles alone
        main = rng.normal(0.0, 1.0, 4000)
        bw = _silverman(CountTable.from_scores(np.concatenate([main, 100.0 + np.arange(300)])))
        c = 20.0
        near = bw * rng.uniform(38.0, 39.0, 300)
        table = CountTable.from_scores(np.concatenate([main, c - near[:150], c + near[150:]]))
        assert _silverman(table) == bw
        edges = np.concatenate([np.linspace(-4.0, 4.0, 41), [2 * c - 4.0]])
        centers = (edges[:-1] + edges[1:]) / 2.0
        far = _dense_sums(table.values, table.counts, centers, bw)[-1]
        assert 0.0 < far < np.finfo(np.float64).tiny
        assert _same_kde(table, edges)

    def test_mixed_fuzz(self, monkeypatch):
        rng = np.random.default_rng(2024)
        for case in range(50):
            n = int(rng.integers(1, 2000))
            kind = case % 4
            if kind == 0:
                values = rng.normal(0.5, 0.1, n)
            elif kind == 1:
                values = rng.standard_cauchy(n)
            elif kind == 2:
                values = rng.binomial(1024, 0.45, n) / 1024
            else:
                values = np.concatenate([rng.normal(0.2, 0.01, n), rng.normal(0.8, 0.02, n // 3 + 1)])
            values = np.unique(values)
            counts = rng.integers(1, [2, 10, 10**6][case % 3] + 1, values.size)
            q = np.quantile(values, rng.uniform(0.0, 0.3)), np.quantile(values, rng.uniform(0.7, 1.0))
            span = q[1] - q[0] or 1.0
            bins = int(rng.integers(2, 250))
            edges = np.linspace(q[0] - rng.uniform(-0.2, 0.5) * span, q[1] + rng.uniform(-0.2, 0.5) * span, bins + 1)
            centers = (edges[:-1] + edges[1:]) / 2.0
            bw = span / bins * 10.0 ** rng.uniform(-3.0, 1.0)
            monkeypatch.setattr(density, "_KDE_BLOCK", int(rng.choice([1, 2, 7, 64, 256, 333])))
            blocked = density._kernel_sums(values, counts, centers, bw)
            assert np.array_equal(_bits(blocked), _bits(_dense_sums(values, counts, centers, bw))), case


class TestTermFloor:
    """A kernel term below its bin's floor leaves the running sum's bits unchanged."""

    _sums = st.one_of(
        st.just(0.0),
        st.floats(0.0, np.finfo(np.float64).tiny),
        st.integers(-1074, 1023).map(lambda k: math.ldexp(1.0, k)),
        st.floats(1e299, 1e301),
        st.floats(0.0, 1e308),
    )

    @given(s=_sums, w=st.integers(1, 2**53), below=st.floats(0.0, 2000.0))
    @settings(max_examples=1000)
    def test_terms_below_the_floor_change_no_bit(self, s, w, below):
        floor = float(density._term_floor(np.array([s]), np.int64(w))[0])
        for t in (np.nextafter(floor, -np.inf), floor - below):
            assert np.float64(s) + np.exp(t) * np.float64(w) == s

    def test_a_zero_sum_keeps_the_exp_cut(self):
        assert np.array_equal(density._term_floor(np.zeros(3), 7), np.full(3, density._EXP_ZERO_BELOW))


class TestKdeReadsCountTables:
    """The KDE of a score set depends on which scores occur and how often only."""

    def _scores(self, rng):
        # rounded, so that many scores repeat
        return np.round(rng.normal(0.3, 0.05, 3000), 3), np.round(rng.normal(0.5, 0.04, 5000), 3)

    def test_shuffling_keeps_the_bits(self, rng):
        mated, non_mated = self._scores(rng)
        cfg = ue.DensityConfig(kde=True)
        ordered, shuffled = _set(mated, non_mated), _set(rng.permutation(mated), rng.permutation(non_mated))
        assert ue.estimate_densities(shuffled, cfg).to_json() == ue.estimate_densities(ordered, cfg).to_json()

    @pytest.mark.parametrize("cfg", [ue.DensityConfig(kde=True), ue.DensityConfig(bins=37, kde=True),
                                     ue.DensityConfig(bins=50, kde=True, grid_range=(-1.0, 2.0))])
    def test_score_set_and_its_tables_agree(self, rng, score_csv, cfg):
        # the tables tallied while a score file is read, and those of its scores
        mated, non_mated = self._scores(rng)
        loaded = ue.load_score_set(*score_csv(mated, non_mated))
        expected = ue.estimate_densities(_set(mated, non_mated), cfg).to_json()
        assert ue.estimate_densities(loaded, cfg).to_json() == expected

    @pytest.mark.parametrize("block", [1, 5, 1000])
    def test_block_size_keeps_the_bits(self, rng, monkeypatch, block):
        s = _set(*self._scores(rng))
        cfg = ue.DensityConfig(kde=True)
        expected = ue.estimate_densities(s, cfg).to_json()
        monkeypatch.setattr(density, "_KDE_BLOCK", block)
        assert ue.estimate_densities(s, cfg).to_json() == expected


class TestSerialization:
    def test_json_round_trip(self, rng):
        s = _set(rng.random(200), rng.random(300))
        dp = ue.estimate_densities(s)
        back = ue.DensityPair.from_json(dp.to_json())
        assert np.array_equal(back.edges, dp.edges)
        assert np.array_equal(back.p_mated, dp.p_mated)
        assert np.array_equal(back.p_non_mated, dp.p_non_mated)

    def test_json_keys(self, rng):
        s = _set(rng.random(50), rng.random(50))
        d = ue.estimate_densities(s).to_json_dict()
        assert set(d) == {"edges", "p_mated", "p_non_mated"}

    def test_unnormalized_pair_rejected(self):
        with pytest.raises(NotNormalizedError):
            ue.DensityPair(
                edges=np.array([0.0, 1.0]),
                p_mated=np.array([0.5]),
                p_non_mated=np.array([1.0]),
            )

    def test_non_increasing_edges_rejected(self):
        with pytest.raises(GridMismatchError):
            ue.DensityPair(
                edges=np.array([0.0, 0.0, 1.0]),
                p_mated=np.array([0.0, 1.0]),
                p_non_mated=np.array([0.0, 1.0]),
            )


class TestConsistency:
    def test_l1_error_shrinks_with_sample_size(self):
        """Mean L1 distance to the true density must fall as n grows."""

        def true_pdf(x):
            a = np.exp(-0.5 * ((x - 0.3) / 0.05) ** 2) / (0.05 * np.sqrt(2 * np.pi))
            b = np.exp(-0.5 * ((x - 0.7) / 0.10) ** 2) / (0.10 * np.sqrt(2 * np.pi))
            return 0.5 * a + 0.5 * b

        def draw(rng, n):
            comp = rng.random(n) < 0.5
            return np.where(
                comp, rng.normal(0.3, 0.05, n), rng.normal(0.7, 0.10, n)
            )

        sizes = (1_000, 10_000, 100_000)
        mean_l1 = []
        for n in sizes:
            errs = []
            for seed in range(20):
                rng = np.random.default_rng(seed)
                vals = draw(rng, n)
                dp = ue.estimate_densities(
                    _set(vals, draw(rng, n)),
                    ue.DensityConfig(bins=80, grid_range=(-0.2, 1.4)),
                )
                centers = (dp.edges[:-1] + dp.edges[1:]) / 2
                errs.append(np.sum(np.abs(dp.p_mated - true_pdf(centers)) * dp.bin_widths))
            mean_l1.append(np.mean(errs))
        assert mean_l1[0] > mean_l1[1] > mean_l1[2]
