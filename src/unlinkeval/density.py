"""Shared-grid estimation of the conditional score densities.

Both conditional densities, for mated and for non-mated template pairs, are
estimated on one common grid so that their point-wise ratio is well defined
everywhere.  The default estimator is a plain histogram (count/(n*width)):
it is verifiable by hand and keeps zero-count bins at exactly zero, which
the likelihood-ratio layer relies on.  Optional Gaussian smoothing is
available for nicer plots but changes no defaults.

The grid, its auto bin count, the histogram and the Gaussian KDE come from
each side's count table (sorted distinct scores with their multiplicities):
the densities depend on which scores occur and how often, not on their
order.  The grid, the bin count and the histogram repeat the integers and
float operations of np.percentile and np.histogram over the scores
themselves.

The Gaussian KDE takes Silverman's bandwidth from the table (quartiles as
np.percentile gives them, mean and variance as count-weighted sums) and
weights each distinct value's kernel term by its count, so its cost follows
the number of distinct scores, not the number of scores.  It is evaluated
over fixed blocks of distinct values, so its memory is one (block, bins)
buffer.  The blocked sum is the dense one bit for bit: row 0 of the buffer
carries the running sums of the bins it covers, and each block is reduced
together with it along the value axis, so every bin adds its weighted terms
one value after another in ascending order, as the (distinct values, bins)
matrix summed over its value axis does.  Floating-point addition is not
associative: summing each block apart and then adding the block sums would
make the last digits of the densities depend on the block size.

A block touches only the bins where one of its terms can still change a
bit, by two exact rules.  A term below half an ulp of a bin's running sum
S = f*2**e (f in [0.5, 1)) leaves S unchanged, and later sums are no smaller,
so exp(t)*w adds nothing for t < (e - 54)*ln 2 - ln w_max - 1 (the last nat
covers the rounding of exp and of the count product); a zero sum keeps the
floor -746, below which exp is +0.0.  And as the values are sorted and each
rounded operation of the exponent -0.5*z*z is monotone in |center - value|,
a block's largest exponent in a bin is the one at its value nearest the
centre, computed the same way.  A block runs on the hull of the bins where
that reaches the floor, widened to 2 columns at least: NumPy sums a
one-column buffer pairwise, not row by row.  A hull whose smallest exponent
(at a corner) is below -746 sets its terms below the floor to +0.0 without
calling exp, whose slow scalar path handles such arguments.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSupportError,
    GridMismatchError,
    InvalidConfigError,
    LengthMismatchError,
    NotNormalizedError,
    check_bool,
    check_int,
    check_number,
)
from .scores import CountTable, ScoreCounts

AUTO_BINS = "auto"
_MIN_AUTO_BINS = 20
_MAX_AUTO_BINS = 400

# relative width of the single bin used for one-point supports
_POINT_MASS_EPS = 1e-6

NORMALIZATION_TOL = 1e-9

# distinct values per KDE block: a 256 x 217-bin float64 block is 444 kB,
# small enough for the block's passes to stay in a core's cache
_KDE_BLOCK = 256
# exp(x) rounds to +0.0 for every x below this: the smallest subnormal,
# 4.9e-324, is exp(-744.4), and below about -745.1 exp rounds to zero.  It
# is the term floor of a bin whose running sum is still zero
_EXP_ZERO_BELOW = -746.0


@dataclass(frozen=True)
class DensityConfig:
    """Estimator settings.

    bins: number of grid bins, or "auto" for Freedman-Diaconis on the
        pooled sample (clamped to [20, 400]).
    kde: apply Gaussian kernel smoothing (Silverman bandwidth per side)
        instead of raw histogram counts.  Default off.
    grid_range: explicit (low, high) grid span.  When given, the grid is
        exactly `bins` bins over that range with no extension; it must
        cover both sample supports.  When None, the grid spans the union
        support extended by one bin width on each side.
    allow_point_mass: permit sides whose scores are all identical.
    """

    bins: int | str = AUTO_BINS
    kde: bool = False
    grid_range: tuple[float, float] | None = None
    allow_point_mass: bool = True

    def __post_init__(self):
        for name in ("kde", "allow_point_mass"):
            check_bool(name, getattr(self, name))
        if self.bins != AUTO_BINS:
            object.__setattr__(self, "bins", check_int("bins", self.bins, 2))
        if self.grid_range is not None:
            try:
                lo, hi = self.grid_range
            except (TypeError, ValueError):
                raise InvalidConfigError(f"grid_range must be a (low, high) pair, got {self.grid_range!r}") from None
            lo, hi = check_number("grid_range", lo), check_number("grid_range", hi)
            if not (lo < hi and math.isfinite(hi - lo)):
                raise InvalidConfigError(
                    f"grid_range must have low < high within the float range, got {self.grid_range!r}")
            object.__setattr__(self, "grid_range", (lo, hi))


@dataclass(frozen=True)
class DensityPair:
    """Two densities on one shared grid of B bins (B+1 edges)."""

    edges: np.ndarray
    p_mated: np.ndarray
    p_non_mated: np.ndarray

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=np.float64)
        p_m = np.asarray(self.p_mated, dtype=np.float64)
        p_nm = np.asarray(self.p_non_mated, dtype=np.float64)
        if edges.ndim != 1 or edges.size < 2:
            raise LengthMismatchError("edges must be a 1-d sequence of at least 2 values")
        if np.any(~np.isfinite(edges)) or np.any(np.diff(edges) <= 0):
            raise GridMismatchError("edges must be finite and strictly increasing")
        b = edges.size - 1
        if p_m.shape != (b,) or p_nm.shape != (b,):
            raise LengthMismatchError(
                f"expected {b} density values per side, got {p_m.shape} and {p_nm.shape}"
            )
        for name, p in (("p_mated", p_m), ("p_non_mated", p_nm)):
            if np.any(~np.isfinite(p)) or np.any(p < 0):
                raise NotNormalizedError(f"{name} must be non-negative and finite")
            total = float(np.sum(p * np.diff(edges)))
            if abs(total - 1.0) > NORMALIZATION_TOL:
                raise NotNormalizedError(f"{name} integrates to {total!r}, expected 1")
        for arr in (edges, p_m, p_nm):
            arr.setflags(write=False)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "p_mated", p_m)
        object.__setattr__(self, "p_non_mated", p_nm)

    @property
    def n_bins(self) -> int:
        return int(self.edges.size - 1)

    @property
    def bin_widths(self) -> np.ndarray:
        return np.diff(self.edges)

    def to_json_dict(self) -> dict:
        return {
            "edges": self.edges.tolist(),
            "p_mated": self.p_mated.tolist(),
            "p_non_mated": self.p_non_mated.tolist(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: dict) -> "DensityPair":
        return cls(
            edges=np.asarray(data["edges"], dtype=np.float64),
            p_mated=np.asarray(data["p_mated"], dtype=np.float64),
            p_non_mated=np.asarray(data["p_non_mated"], dtype=np.float64),
        )

    @classmethod
    def from_json(cls, text: str) -> "DensityPair":
        return cls.from_json_dict(json.loads(text))


def estimate_densities(scores: ScoreCounts, config: DensityConfig | None = None) -> DensityPair:
    """Estimate both conditional densities on a shared grid from the two count tables."""
    if config is None:
        config = DensityConfig()
    mated, non_mated = scores.mated, scores.non_mated

    m_const = mated.values.size == 1
    nm_const = non_mated.values.size == 1
    if not config.allow_point_mass and (m_const or nm_const):
        side = "mated" if m_const else "non-mated"
        raise DegenerateSupportError(f"all {side} scores are identical and point-mass handling is disabled")

    lo = float(min(mated.values[0], non_mated.values[0]))
    hi = float(max(mated.values[-1], non_mated.values[-1]))

    if lo == hi:
        # union support is a single point: one bin of width eps around it
        eps = _POINT_MASS_EPS * max(1.0, abs(lo))
        edges = np.array([lo - eps / 2.0, lo + eps / 2.0])
        p = np.array([1.0 / eps])
        return DensityPair(edges=edges, p_mated=p, p_non_mated=p.copy())

    beyond = f"scores from {lo!r} to {hi!r} span more than a float64 grid can hold; rescale them"
    if not math.isfinite(hi - lo):
        raise GridMismatchError(beyond)
    n_bins = _resolve_bins(config, mated, non_mated, lo, hi)

    if config.grid_range is not None:
        glo, ghi = float(config.grid_range[0]), float(config.grid_range[1])
        if glo > lo or ghi < hi:
            raise GridMismatchError(
                f"grid_range [{glo}, {ghi}] does not cover the sample support [{lo}, {hi}]"
            )
        edges = np.linspace(glo, ghi, n_bins + 1)
    else:
        # extend by one bin width per side so boundary scores stay interior
        width = (hi - lo) / n_bins
        start, stop = lo - width, hi + width
        if not math.isfinite(stop - start):
            raise GridMismatchError(beyond)
        edges = np.linspace(start, stop, n_bins + 3)

    if config.kde:
        p_m, p_nm = _kde_density(mated, edges, "mated"), _kde_density(non_mated, edges, "non-mated")
    else:
        p_m, p_nm = _histogram_density(mated, edges), _histogram_density(non_mated, edges)
    return DensityPair(edges=edges, p_mated=p_m, p_non_mated=p_nm)


def _resolve_bins(config: DensityConfig, mated: CountTable, non_mated: CountTable, lo: float, hi: float) -> int:
    if config.bins != AUTO_BINS:
        return int(config.bins)
    # Freedman-Diaconis on the pooled sample
    pooled = CountTable.pooled(mated, non_mated)
    n = len(pooled)
    q75, q25 = pooled.percentile([75.0, 25.0])
    width = 2.0 * (q75 - q25) / n ** (1.0 / 3.0)
    if width <= 0:
        # concentrated data defeats the IQR rule; Sturges as a stand-in
        n_bins = int(math.ceil(math.log2(n))) + 1
    else:
        n_bins = int(math.ceil((hi - lo) / width))
    return min(max(n_bins, _MIN_AUTO_BINS), _MAX_AUTO_BINS)


def _histogram_density(table: CountTable, edges: np.ndarray) -> np.ndarray:
    # np.histogram with explicit edges counts, per edge, the sorted scores
    # below it (the last edge inclusive) and differences those counts
    below = np.concatenate((table.count_below(edges[:-1], "left"), table.count_below(edges[-1:], "right")))
    counts = np.diff(below)
    n = len(table)
    if counts.sum() != n:
        raise GridMismatchError("grid does not cover all scores")
    return counts / (n * np.diff(edges))


def _kde_density(table: CountTable, edges: np.ndarray, side: str = "given") -> np.ndarray:
    n = len(table)
    values, counts = table.values, table.counts
    # Silverman's rule on the tallied scores: the quartiles as np.percentile
    # gives them over the scores, and the standard deviation from count-
    # weighted sums (no np.dot: a BLAS call wakes its idle threads)
    q75, q25 = table.percentile([75.0, 25.0])
    std = _weighted_std(values, counts, n)
    spread = min(std, (q75 - q25) / 1.34) if q75 > q25 else std
    bw = 0.9 * spread * n ** (-1.0 / 5.0)
    if bw <= 0:
        bw = _POINT_MASS_EPS * max(1.0, abs(float(values[0])), abs(float(values[-1])))
    with np.errstate(over="ignore"):
        centers = (edges[:-1] + edges[1:]) / 2.0
    if np.isinf(centers[[0, -1]]).any():  # edges beyond half the float range
        centers = edges[:-1] / 2.0 + edges[1:] / 2.0
    # mean of Gaussian kernels, evaluated at the bin centers
    dens = _kernel_sums(values, counts, centers, bw) / (n * bw * math.sqrt(2.0 * math.pi))
    mass = float(np.sum(dens * np.diff(edges)))
    if not mass > 0:
        raise DegenerateSupportError(
            f"every kernel term of the {side} scores underflows at the bin centres: bandwidth {bw:.3g} "
            f"against a bin width of {float(np.min(np.diff(edges))):.3g}; use the histogram estimator")
    # tail mass beyond the grid is cut off; rescale onto the grid
    return dens / mass


def _weighted_std(values: np.ndarray, counts: np.ndarray, n: int) -> float:
    """Standard deviation of the sorted values, each counted counts times.

    Where its sums overflow, it is taken over the values scaled by a power of two.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        std = math.sqrt(np.sum((values - np.sum(values * counts) / n) ** 2 * counts) / n)
    if math.isfinite(std):
        return std
    scale = 2.0 ** -float(np.frexp(max(-values[0], values[-1]))[1])
    return _weighted_std(values * scale, counts, n) / scale


def _term_floor(sums: np.ndarray, w_max) -> np.ndarray:
    """Per running sum, the exponent t below which exp(t)*w, w <= w_max, leaves its bits unchanged."""
    _, e = np.frexp(sums)
    floor = np.maximum((e - 54) * math.log(2.0) - (math.log(w_max) + 1.0), _EXP_ZERO_BELOW)
    return np.where(sums > 0, floor, _EXP_ZERO_BELOW)


def _kernel_sums(values: np.ndarray, counts: np.ndarray, centers: np.ndarray, bw: float) -> np.ndarray:
    """Per bin, the count-weighted kernel terms of the sorted values, summed in ascending order."""
    bins = centers.size
    sums = np.zeros(bins)
    # a block's hull of w bins: row 0 its running sums, rows 1.. its values' weighted terms
    buf, zbuf, keep = np.empty((_KDE_BLOCK + 1) * bins), np.empty(_KDE_BLOCK * bins), np.empty(_KDE_BLOCK * bins, bool)
    for lo in range(0, values.size, _KDE_BLOCK):
        block, weights = values[lo : lo + _KDE_BLOCK], counts[lo : lo + _KDE_BLOCK]
        m, w_max = block.size, weights.max()
        floor = _term_floor(sums, w_max)
        z = (centers - np.clip(centers, block[0], block[-1])) / bw
        live = np.flatnonzero(-0.5 * z * z >= floor)
        if live.size == 0:
            continue
        j0 = min(live[0], bins - 2)
        j1 = max(live[-1] + 1, j0 + 2)
        w = j1 - j0
        acc, zb = buf[: (m + 1) * w].reshape(m + 1, w), zbuf[: m * w].reshape(m, w)
        terms = acc[1:]
        acc[0] = sums[j0:j1]
        np.subtract(centers[j0:j1], block[:, None], out=zb)
        zb /= bw
        np.multiply(-0.5, zb, out=terms)
        terms *= zb
        # by the same monotonicity, the hull's smallest exponent is at a corner
        if min(terms[0, 0], terms[0, -1], terms[-1, 0], terms[-1, -1]) < _EXP_ZERO_BELOW:
            kb = keep[: m * w].reshape(m, w)
            np.greater_equal(terms, floor[j0:j1], out=kb)
            np.exp(terms, out=terms, where=kb)
            # the skipped terms still hold their exponent, below the floor
            np.maximum(terms, 0.0, out=terms)
        else:
            np.exp(terms, out=terms)
        if w_max > 1:  # a product by 1 changes no bits
            terms *= weights[:, None]
        sums[j0:j1] = acc.sum(axis=0)
    return sums


def evaluate_density(dp: DensityPair, s: float) -> tuple[float, float]:
    """Point lookup of both densities at score s.

    Bins are half-open [e_b, e_{b+1}) with the last bin closed; scores
    outside the grid report (0, 0).
    """
    if not math.isfinite(s):
        raise ValueError(f"score must be finite, got {s!r}")
    edges = dp.edges
    if s < edges[0] or s > edges[-1]:
        return (0.0, 0.0)
    idx = int(np.searchsorted(edges, s, side="right")) - 1
    if idx == dp.n_bins:
        idx -= 1
    return (float(dp.p_mated[idx]), float(dp.p_non_mated[idx]))
