"""Point-wise likelihood ratio and the local/global linkability measures.

For a linkage score s with conditional densities p(s|mated) and
p(s|non-mated), the likelihood ratio LR(s) is their point-wise quotient.
With omega the ratio of the prior probabilities of the two hypotheses, the
local measure is

    D(s) = 0                            if LR(s)*omega <= 1
    D(s) = 2*LR(s)*omega/(1+LR(s)*omega) - 1   otherwise

which is continuous at the boundary, monotone in LR(s)*omega, and bounded
in [0, 1].  The global measure is the mated-density-weighted integral of
D(s), a single number in [0, 1]: 0 means scores carry no linkage evidence,
1 means every mated score region is fully linkable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .density import DensityConfig, DensityPair, estimate_densities
from .errors import GridMismatchError, InternalInvariantError, LengthMismatchError
from .scores import PriorConfig, ScoreCounts

# score regions where neither hypothesis has any density: no evidence
# either way, treated as unlinkable and weightless downstream
NO_EVIDENCE = float("nan")

_BOUND_TOL = 1e-9


def likelihood_ratio(p_m, p_nm):
    """LR = p_m/p_nm, +inf where only p_nm vanishes, NO_EVIDENCE where both do.

    Two floats give a float; arrays (broadcast together) give an array.
    """
    m, nm = np.asarray(p_m, dtype=np.float64), np.asarray(p_nm, dtype=np.float64)
    for side in (m, nm):
        _check(side, np.isfinite(side), "densities must be finite")
        _check(side, side >= 0, "densities must be non-negative")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lr = np.where(nm > 0, m / nm, np.where(m > 0, np.inf, NO_EVIDENCE))
    return float(lr) if lr.ndim == 0 else lr


def local_linkability(lr, omega):
    """Local measure D(s) of likelihood ratios lr at prior ratio omega.

    A float pair gives a float; arrays (broadcast together) give an array.
    NO_EVIDENCE gives 0; +inf, or an lr*omega beyond the float range, gives 1.
    """
    ratio, prior = np.asarray(lr, dtype=np.float64), np.asarray(omega, dtype=np.float64)
    _check(prior, prior > 0, "omega must be positive")
    _check(ratio, ~(ratio < 0), "likelihood ratio must be non-negative")
    with np.errstate(over="ignore", invalid="ignore"):
        t = ratio * prior
        # t / (1 + t) first: 2 * t would overflow for t above about 9e307
        d = np.where(np.isinf(t), 1.0, 2.0 * (t / (1.0 + t)) - 1.0)
    d = np.where(t > 1.0, d, 0.0)
    return float(d) if d.ndim == 0 else d


def _check(values: np.ndarray, ok: np.ndarray, message: str) -> None:
    if not ok.all():
        raise ValueError(f"{message}, got {float(values[~ok].flat[0])!r}")


def global_linkability(dp: DensityPair, d_local: np.ndarray) -> float:
    """Mated-density-weighted Riemann sum of the local measure, in [0, 1]."""
    d_local = np.asarray(d_local, dtype=np.float64)
    if d_local.shape != (dp.n_bins,):
        raise GridMismatchError(
            f"d_local has {d_local.shape} values for a {dp.n_bins}-bin grid"
        )
    if np.any(~np.isfinite(d_local)) or np.any(d_local < 0) or np.any(d_local > 1):
        raise ValueError("d_local values must lie in [0, 1]")
    d_sys = float(np.sum(dp.p_mated * d_local * dp.bin_widths))
    if d_sys < -_BOUND_TOL or d_sys > 1.0 + _BOUND_TOL:
        raise InternalInvariantError(f"global measure {d_sys!r} escaped [0, 1]")
    return min(max(d_sys, 0.0), 1.0)


@dataclass(frozen=True)
class LinkabilityProfile:
    """Full evaluation result on one grid.

    lr may contain +inf (non-mated density vanished) and NaN (no density on
    either side); d_local is local_linkability(lr, omega), bit for bit.
    boundary_scores are the grid edges where lr*omega crosses 1.
    """

    edges: np.ndarray
    lr: np.ndarray
    d_local: np.ndarray
    d_sys: float
    omega: float
    boundary_scores: np.ndarray

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=np.float64)
        lr = np.asarray(self.lr, dtype=np.float64)
        d_local = np.asarray(self.d_local, dtype=np.float64)
        boundary = np.asarray(self.boundary_scores, dtype=np.float64)
        b = edges.size - 1
        if lr.shape != (b,) or d_local.shape != (b,):
            raise LengthMismatchError(
                f"expected {b} lr and d_local values, got {lr.shape} and {d_local.shape}"
            )
        if not (-_BOUND_TOL <= self.d_sys <= 1.0 + _BOUND_TOL):
            raise ValueError(f"d_sys must lie in [0, 1], got {self.d_sys!r}")
        if not np.array_equal(d_local, local_linkability(lr, self.omega)):
            raise ValueError("d_local must equal local_linkability(lr, omega)")
        for arr in (edges, lr, d_local, boundary):
            arr.setflags(write=False)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "lr", lr)
        object.__setattr__(self, "d_local", d_local)
        object.__setattr__(self, "boundary_scores", boundary)

    def to_json_dict(self) -> dict:
        return {
            "omega": self.omega,
            "d_sys": self.d_sys,
            "edges": self.edges.tolist(),
            "lr": [_encode_lr(v) for v in self.lr.tolist()],
            "d_local": self.d_local.tolist(),
            "boundary_scores": self.boundary_scores.tolist(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: dict) -> "LinkabilityProfile":
        return cls(
            edges=np.asarray(data["edges"], dtype=np.float64),
            lr=np.array([_decode_lr(v) for v in data["lr"]], dtype=np.float64),
            d_local=np.asarray(data["d_local"], dtype=np.float64),
            d_sys=float(data["d_sys"]),
            omega=float(data["omega"]),
            boundary_scores=np.asarray(data["boundary_scores"], dtype=np.float64),
        )

    @classmethod
    def from_json(cls, text: str) -> "LinkabilityProfile":
        return cls.from_json_dict(json.loads(text))


def _encode_lr(v: float):
    if math.isinf(v):
        return "inf"
    if math.isnan(v):
        return None
    return v


def _decode_lr(v) -> float:
    if v == "inf":
        return math.inf
    if v is None:
        return NO_EVIDENCE
    return float(v)


def evaluate(
    scores: ScoreCounts,
    prior: PriorConfig | None = None,
    density_cfg: DensityConfig | None = None,
) -> LinkabilityProfile:
    """Full pipeline: densities -> per-bin LR -> local measure -> global measure."""
    if prior is None:
        prior = PriorConfig.default()
    dp = estimate_densities(scores, density_cfg)
    return evaluate_densities(dp, prior.omega)


def evaluate_densities(dp: DensityPair, omega: float) -> LinkabilityProfile:
    """Same pipeline starting from an already-estimated density pair."""
    lr = likelihood_ratio(dp.p_mated, dp.p_non_mated)
    d_local = local_linkability(lr, omega)
    d_sys = global_linkability(dp, d_local)
    linkable = d_local > 0.0
    flips = linkable[:-1] != linkable[1:]
    boundary = dp.edges[1:-1][flips]
    return LinkabilityProfile(
        edges=dp.edges,
        lr=lr,
        d_local=d_local,
        d_sys=d_sys,
        omega=omega,
        boundary_scores=boundary,
    )
