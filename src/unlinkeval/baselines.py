"""Comparison metrics: KL divergence, DET/EER curves, cross-key and RTMR variants.

These are the accuracy-oriented measures that historically stood in for a
linkability analysis.  They are computed here from the same score files as
the linkability measures so the two families can be compared fairly; the
comparison driver exists precisely to show where DET-based verdicts and the
global linkability measure disagree.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatchError, NotNormalizedError, check_int
from .scores import CountTable, check_side, sorted_distinct

ORIENT_SIMILARITY = "similarity"
ORIENT_DISSIMILARITY = "dissimilarity"

MODE_ACCURACY = "accuracy"
MODE_CROSSKEY = "crosskey"
MODE_RTMR = "rtmr"

_MODES = (MODE_ACCURACY, MODE_CROSSKEY, MODE_RTMR)

_EXACT_EQUAL_TOL = 1e-12

# the points of a DET curve that plotting.det_svg draws, and that
# protocol.assess keeps
DRAWN_POINTS = 512


class _UndefinedType:
    """Result of a metric that has no value on the given input.

    Distinct from an exception so reports can print it in a table cell.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "undefined"


UNDEFINED = _UndefinedType()


def kl_divergence(p, q):
    """Discrete KL divergence sum(P * ln(P/Q)) over bins with P > 0.

    Returns UNDEFINED when some bin has Q = 0 with P > 0 (fully or partially
    separable distributions), and exactly 0.0 when P equals Q bin-wise.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape or p.ndim != 1:
        raise LengthMismatchError(f"pmf shapes differ: {p.shape} vs {q.shape}")
    for name, pmf in (("P", p), ("Q", q)):
        if np.any(~np.isfinite(pmf)) or np.any(pmf < 0):
            raise NotNormalizedError(f"{name} must be non-negative and finite")
        total = float(pmf.sum())
        if abs(total - 1.0) > 1e-9:
            raise NotNormalizedError(f"{name} sums to {total!r}, expected 1")
    if float(np.max(np.abs(p - q))) <= _EXACT_EQUAL_TOL:
        return 0.0
    support = p > 0
    if np.any(q[support] == 0):
        return UNDEFINED
    value = float(np.sum(p[support] * np.log(p[support] / q[support])))
    # Gibbs: mathematically >= 0; rounding may leave a tiny negative
    return max(value, 0.0)


@dataclass(frozen=True)
class DetCurve:
    """Empirical detection-error trade-off over a threshold sweep, or over
    evenly spaced points of one (det_curve's points).

    `fmr` holds the false-match-side rate, which the mode names fmr, cmr
    or rtmr; `fnmr` the false-non-match side (fnmr or fcmr).
    """

    thresholds: np.ndarray
    fmr: np.ndarray
    fnmr: np.ndarray
    eer: float
    mode: str = MODE_ACCURACY
    orientation: str = ORIENT_SIMILARITY

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.orientation not in (ORIENT_SIMILARITY, ORIENT_DISSIMILARITY):
            raise ValueError(f"unknown orientation {self.orientation!r}")
        t = np.asarray(self.thresholds, dtype=np.float64)
        fmr = np.asarray(self.fmr, dtype=np.float64)
        fnmr = np.asarray(self.fnmr, dtype=np.float64)
        if not (t.shape == fmr.shape == fnmr.shape) or t.ndim != 1:
            raise LengthMismatchError("thresholds, fmr, fnmr must be equal-length 1-d")
        if np.any(np.diff(t) <= 0):
            raise ValueError("thresholds must be strictly increasing")
        for name, r in (("fmr", fmr), ("fnmr", fnmr)):
            if np.any(r < 0) or np.any(r > 1):
                raise ValueError(f"{name} must lie in [0, 1]")
        if not (0.0 <= self.eer <= 1.0):
            raise ValueError(f"eer must lie in [0, 1], got {self.eer!r}")
        for arr in (t, fmr, fnmr):
            arr.setflags(write=False)
        object.__setattr__(self, "thresholds", t)
        object.__setattr__(self, "fmr", fmr)
        object.__setattr__(self, "fnmr", fnmr)

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "orientation": self.orientation,
            "eer": self.eer,
            "thresholds": self.thresholds.tolist(),
            "fmr": self.fmr.tolist(),
            "fnmr": self.fnmr.tolist(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: dict) -> "DetCurve":
        return cls(
            thresholds=np.asarray(data["thresholds"], dtype=np.float64),
            fmr=np.asarray(data["fmr"], dtype=np.float64),
            fnmr=np.asarray(data["fnmr"], dtype=np.float64),
            eer=float(data["eer"]),
            mode=data["mode"],
            orientation=data["orientation"],
        )


def _as_side(values, side: str) -> CountTable:
    table = values if isinstance(values, CountTable) else CountTable.from_scores(values)
    check_side(side, len(table), table.values)
    return table


def det_curve(mated, non_mated, orientation: str = ORIENT_SIMILARITY, mode: str = MODE_ACCURACY,
              points: int | None = None) -> DetCurve:
    """Exhaustive-sweep DET curve with interpolated EER.

    Similarity scores match at s >= t; dissimilarity scores match at s <= t.
    Thresholds cover every distinct score, every midpoint between adjacent
    distinct scores, and one sentinel beyond each end.  Each side is an
    array of scores or a CountTable; arrays are tallied first, and the
    rates are the same integers (scores below or at each threshold, from
    the cumulative counts) over the same totals either way.

    With points (at least 2), a sweep of more thresholds than that is kept
    only at the sweep_indices(n, points) that a DET figure draws; the EER
    is the full sweep's, bit for bit.  Along the thresholds fmr - fnmr is
    monotone and the sentinels give it opposite signs, so the first kept
    point on the far side of zero bounds the crossing, and only the
    thresholds between it and the kept point before it are swept in full.
    """
    mated = _as_side(mated, "mated")
    non_mated = _as_side(non_mated, "nonmated")
    if orientation not in (ORIENT_SIMILARITY, ORIENT_DISSIMILARITY):
        raise ValueError(f"unknown orientation {orientation!r}")
    if points is not None:
        points = check_int("points", points, 2)

    thresholds = _thresholds(sorted_distinct(mated.values, non_mated.values))
    if points is None or thresholds.size <= points:
        fmr, fnmr = _rates(mated, non_mated, thresholds, orientation)
        eer = _interpolated_eer(fmr, fnmr)
    else:
        keep = sweep_indices(thresholds.size, points)
        every, thresholds = thresholds, thresholds[keep]
        fmr, fnmr = _rates(mated, non_mated, thresholds, orientation)
        # fmr - fnmr rises with the threshold for dissimilarity scores and falls for similarity
        sign = 1.0 if orientation == ORIENT_DISSIMILARITY else -1.0
        far = np.flatnonzero(sign * (fmr - fnmr) >= 0)[0]
        bracket = every[keep[far - 1]:keep[far] + 1]
        eer = _interpolated_eer(*_rates(mated, non_mated, bracket, orientation))
    return DetCurve(thresholds=thresholds, fmr=fmr, fnmr=fnmr, eer=eer, mode=mode, orientation=orientation)


def sweep_indices(n: int, points: int) -> np.ndarray:
    """The points evenly spaced indices, ends included, of a sweep of n > points thresholds."""
    return np.round(np.arange(points) * (n - 1) / (points - 1)).astype(np.intp)


def _rates(mated: CountTable, non_mated: CountTable, thresholds: np.ndarray, orientation: str):
    """(fmr, fnmr) at each threshold."""
    n_m, n_nm = len(mated), len(non_mated)
    if orientation == ORIENT_SIMILARITY:
        # match at s >= t: misses are mated below t, false matches non-mated at/above t
        fnmr = mated.count_below(thresholds, "left") / n_m
        fmr = (n_nm - non_mated.count_below(thresholds, "left")) / n_nm
    else:
        # match at s <= t
        fnmr = (n_m - mated.count_below(thresholds, "right")) / n_m
        fmr = non_mated.count_below(thresholds, "right") / n_nm
    return fmr, fnmr


def _thresholds(values: np.ndarray) -> np.ndarray:
    """The distinct scores, their neighbours' midpoints and two sentinels, sorted and distinct.

    Each sentinel lies the span of the scores, or at least 1, beyond its
    extreme score, and at least one float beyond it.

    values is sorted and distinct, so the candidates are laid out already
    in order and only repeats (a midpoint that rounds onto a neighbour) are
    dropped: the same as np.unique over them, with a third less memory.
    Near the float maximum a midpoint whose sum overflows is a/2 + b/2, and
    a sentinel that overflows the next float out; only those are recomputed.
    """
    out = np.empty(2 * values.size + 1)
    out[1::2] = values
    mids = out[2:-1:2]
    with np.errstate(over="ignore"):
        span = max(values[-1] - values[0], 1.0)
        np.add(values[:-1], values[1:], out=mids)
        low, high = values[0] - span, values[-1] + span
        # beyond 2**53 adding the span can round back onto the extreme score
        low_out, high_out = np.nextafter(values[0], -np.inf), np.nextafter(values[-1], np.inf)
    mids /= 2.0
    overflowed = np.flatnonzero(np.isinf(mids))
    mids[overflowed] = values[overflowed] / 2.0 + values[overflowed + 1] / 2.0
    out[0] = low if -np.inf < low < low_out else low_out
    out[-1] = high if high_out < high < np.inf else high_out
    repeats = out[1:] == out[:-1]
    return out[np.concatenate(([True], ~repeats))] if repeats.any() else out


def _interpolated_eer(fmr: np.ndarray, fnmr: np.ndarray) -> float:
    """EER at the FMR = FNMR crossing, linearly interpolated between the two
    bracketing operating points; exact-tie thresholds win over interpolation,
    lowest threshold first."""
    diff = fmr - fnmr
    exact = np.flatnonzero(diff == 0.0)
    crossing = np.flatnonzero(np.signbit(diff[:-1]) != np.signbit(diff[1:]))
    if exact.size and (not crossing.size or exact[0] <= crossing[0] + 1):
        return float(fmr[exact[0]])
    if not crossing.size:
        # no crossing: one class dominates everywhere; closest approach
        i = int(np.argmin(np.abs(diff)))
        return float((fmr[i] + fnmr[i]) / 2.0)
    i = int(crossing[0])
    d1, d2 = abs(float(diff[i])), abs(float(diff[i + 1]))
    lam = d1 / (d1 + d2)
    return float(fnmr[i] + lam * (fnmr[i + 1] - fnmr[i]))


def rtmr_curve(same_key_mated, cross_key_non_mated, orientation: str = ORIENT_SIMILARITY,
               points: int | None = None) -> DetCurve:
    """FNMR vs renewable-template match rate.

    The false-non-match side comes from same-key mated comparisons; the
    match-rate side counts cross-key comparisons of different instances that
    a threshold would link.  points is det_curve's.
    """
    return det_curve(same_key_mated, cross_key_non_mated, orientation, MODE_RTMR, points=points)
