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
themselves; a ScoreSet is tallied once and keeps its tables.

The Gaussian KDE takes Silverman's bandwidth from the table (quartiles as
np.percentile gives them, mean and variance as count-weighted sums) and
weights each distinct value's kernel term by its count, so its cost follows
the number of distinct scores, not the number of scores.  It is evaluated
over fixed blocks of distinct values, so its memory is one (block, bins)
buffer.  The blocked sum is the dense one bit for bit: row 0 of the buffer
carries the running sum of every bin, and each block is reduced together
with it along the value axis, so every bin adds its weighted terms one
value after another in ascending order, as the (distinct values, bins)
matrix summed over its value axis does.  Floating-point addition is not
associative: summing each block apart and then adding the block sums
would make the last digits of the densities depend on the block size.
Kernel terms whose exponent is below -746 are exactly +0.0 and are set so
without calling exp, whose slow scalar path handles such arguments.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

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

if TYPE_CHECKING:
    from .scores import ScoreSet

AUTO_BINS = "auto"
_MIN_AUTO_BINS = 20
_MAX_AUTO_BINS = 400

# relative width of the single bin used for one-point supports
_POINT_MASS_EPS = 1e-6

NORMALIZATION_TOL = 1e-9

# distinct values per KDE block: a 256 x 217-bin float64 block is 444 kB,
# small enough for the block's eight passes to stay in a core's cache
_KDE_BLOCK = 256
# exp(x) rounds to +0.0 for every x below this: the smallest subnormal,
# 4.9e-324, is exp(-744.4), and below about -745.1 exp rounds to zero
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
            lo, hi = (check_number("grid_range", end) for end in self.grid_range)
            if not lo < hi:
                raise InvalidConfigError(f"grid_range must have low < high, got {self.grid_range!r}")
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


def estimate_densities(scores: ScoreSet | ScoreCounts, config: DensityConfig | None = None) -> DensityPair:
    """Estimate both conditional densities on a shared grid.

    Both estimators read only the count tables of scores.counted(), so a
    ScoreSet and its ScoreCounts give the same densities, whatever the
    order of the scores.
    """
    if config is None:
        config = DensityConfig()
    tables = scores.counted()
    mated = tables.mated
    non_mated = tables.non_mated

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
        edges = np.linspace(lo - width, hi + width, n_bins + 3)

    side_density = _kde_density if config.kde else _histogram_density
    p_m = side_density(mated, edges)
    p_nm = side_density(non_mated, edges)
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


def _kde_density(table: CountTable, edges: np.ndarray) -> np.ndarray:
    n = len(table)
    values, counts = table.values, table.counts
    # Silverman's rule on the tallied scores: the quartiles as np.percentile
    # gives them over the scores, count-weighted sums for the mean and the
    # variance (no np.dot: a BLAS call wakes its idle threads)
    q75, q25 = table.percentile([75.0, 25.0])
    mean = np.sum(values * counts) / n
    std = math.sqrt(np.sum((values - mean) ** 2 * counts) / n)
    spread = min(std, (q75 - q25) / 1.34) if q75 > q25 else std
    bw = 0.9 * spread * n ** (-1.0 / 5.0)
    if bw <= 0:
        bw = _POINT_MASS_EPS * max(1.0, abs(float(values[0])), abs(float(values[-1])))
    centers = (edges[:-1] + edges[1:]) / 2.0
    # mean of Gaussian kernels, evaluated at the bin centers; row 0 of acc
    # is the running per-bin sum, rows 1.. the count-weighted kernel terms
    # of one block of distinct values
    acc = np.zeros((_KDE_BLOCK + 1, centers.size))
    z = np.empty((_KDE_BLOCK, centers.size))
    keep = np.empty((_KDE_BLOCK, centers.size), dtype=bool)
    for lo in range(0, values.size, _KDE_BLOCK):
        m = min(_KDE_BLOCK, values.size - lo)
        zb, terms, kb = z[:m], acc[1 : m + 1], keep[:m]
        np.subtract(centers, values[lo : lo + m, None], out=zb)
        zb /= bw
        np.multiply(-0.5, zb, out=terms)
        terms *= zb
        np.greater_equal(terms, _EXP_ZERO_BELOW, out=kb)
        np.exp(terms, out=terms, where=kb)
        # the skipped terms still hold their exponent, below -746
        np.maximum(terms, 0.0, out=terms)
        weights = counts[lo : lo + m]
        if weights.max() > 1:  # a product by 1 changes no bits
            terms *= weights[:, None]
        acc[0] = acc[: m + 1].sum(axis=0)
    dens = acc[0] / (n * bw * math.sqrt(2.0 * math.pi))
    mass = float(np.sum(dens * np.diff(edges)))
    # tail mass beyond the grid is cut off; rescale onto the grid
    return dens / mass


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
