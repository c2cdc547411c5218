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
from .scores import PriorConfig, ScoreSet

# score regions where neither hypothesis has any density: no evidence
# either way, treated as unlinkable and weightless downstream
NO_EVIDENCE = float("nan")

_BOUND_TOL = 1e-9


def is_no_evidence(lr: float) -> bool:
    return isinstance(lr, float) and math.isnan(lr)


def likelihood_ratio(p_m: float, p_nm: float) -> float:
    """LR = p_m/p_nm, +inf when only p_nm vanishes, NO_EVIDENCE when both do."""
    if not (math.isfinite(p_m) and math.isfinite(p_nm)):
        raise ValueError(f"densities must be finite, got ({p_m!r}, {p_nm!r})")
    if p_m < 0 or p_nm < 0:
        raise ValueError(f"densities must be non-negative, got ({p_m!r}, {p_nm!r})")
    if p_nm > 0:
        return p_m / p_nm
    if p_m > 0:
        return math.inf
    return NO_EVIDENCE


def local_linkability(lr: float, omega: float) -> float:
    """Local measure D(s) for one likelihood-ratio value."""
    if not (omega > 0):
        raise ValueError(f"omega must be positive, got {omega!r}")
    if math.isnan(lr):
        return 0.0
    if lr < 0:
        raise ValueError(f"likelihood ratio must be non-negative, got {lr!r}")
    if math.isinf(lr):
        return 1.0
    t = lr * omega
    if t <= 1.0:
        return 0.0
    # t / (1 + t) first: 2 * t would overflow for t above about 9e307
    return 2.0 * (t / (1.0 + t)) - 1.0


def likelihood_ratio_curve(dp: DensityPair) -> np.ndarray:
    """Per-bin LR over a density pair's grid (vectorized likelihood_ratio)."""
    p_m = dp.p_mated
    p_nm = dp.p_non_mated
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lr = p_m / p_nm
    lr[(p_nm == 0) & (p_m > 0)] = np.inf
    lr[(p_nm == 0) & (p_m == 0)] = NO_EVIDENCE
    return lr


def local_linkability_curve(lr: np.ndarray, omega: float) -> np.ndarray:
    """Vectorized local measure over an LR array (handles inf and NO_EVIDENCE)."""
    if not (omega > 0):
        raise ValueError(f"omega must be positive, got {omega!r}")
    lr = np.asarray(lr, dtype=np.float64)
    out = np.zeros_like(lr)
    finite = np.isfinite(lr)
    with np.errstate(invalid="ignore"):
        t = lr * omega
        linkable = finite & (t > 1.0)
        out[linkable] = 2.0 * (t[linkable] / (1.0 + t[linkable])) - 1.0
    out[np.isposinf(lr)] = 1.0
    return out


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
    either side); d_local is exactly 0 wherever lr*omega <= 1 or lr is NaN.
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
        if not (self.omega > 0):
            raise ValueError(f"omega must be positive, got {self.omega!r}")
        if np.any(~np.isfinite(d_local)) or np.any(d_local < 0) or np.any(d_local > 1):
            raise ValueError("d_local values must lie in [0, 1]")
        if not (-_BOUND_TOL <= self.d_sys <= 1.0 + _BOUND_TOL):
            raise ValueError(f"d_sys must lie in [0, 1], got {self.d_sys!r}")
        with np.errstate(invalid="ignore"):
            below = np.isnan(lr) | (np.isfinite(lr) & (lr * self.omega <= 1.0))
        if np.any(d_local[below] != 0.0):
            raise ValueError("d_local must vanish wherever lr*omega <= 1")
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
    scores: ScoreSet,
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
    lr = likelihood_ratio_curve(dp)
    d_local = local_linkability_curve(lr, omega)
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
