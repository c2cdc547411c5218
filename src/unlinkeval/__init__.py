"""Quantitative unlinkability evaluation of protected biometric templates.

Given empirical linkage-score distributions for mated and non-mated
template pairs, this package estimates how much evidence a score carries
that two protected templates conceal the same biometric instance (the local
measure), integrates that into a single system-level number in [0, 1] (the
global measure), and runs a full K-key cross-database evaluation protocol
with baseline accuracy metrics for comparison.
"""

from .baselines import (
    UNDEFINED,
    DetCurve,
    det_curve,
    kl_divergence,
    rtmr_curve,
)
from .density import DensityConfig, DensityPair, estimate_densities, evaluate_density
from .errors import UnlinkEvalError
from .linkability import (
    NO_EVIDENCE,
    LinkabilityProfile,
    evaluate,
    evaluate_densities,
    global_linkability,
    likelihood_ratio,
    local_linkability,
)
from .protocol import (
    ADVERSARY_MODELS,
    EvaluationReport,
    ProtocolConfig,
    ScoreEngine,
    assess,
    cross_database_scores,
    run_protocol,
    same_key_scores,
)
from .scores import (
    CountTable,
    PriorConfig,
    ScoreCounts,
    load_score_set,
    omega_from_enrollment,
    write_score_csv,
    write_score_sides,
)
from .synthbtp import (
    CorpusConfig,
    KeyRing,
    RawCorpus,
    generate_corpus,
    generate_databases,
    protected_databases,
)

__version__ = "0.1.0"

__all__ = [
    "ADVERSARY_MODELS",
    "CorpusConfig",
    "CountTable",
    "DensityConfig",
    "DensityPair",
    "DetCurve",
    "EvaluationReport",
    "KeyRing",
    "LinkabilityProfile",
    "NO_EVIDENCE",
    "PriorConfig",
    "ProtocolConfig",
    "RawCorpus",
    "ScoreCounts",
    "ScoreEngine",
    "UNDEFINED",
    "UnlinkEvalError",
    "assess",
    "cross_database_scores",
    "det_curve",
    "estimate_densities",
    "evaluate",
    "evaluate_densities",
    "evaluate_density",
    "generate_corpus",
    "generate_databases",
    "global_linkability",
    "kl_divergence",
    "likelihood_ratio",
    "load_score_set",
    "local_linkability",
    "omega_from_enrollment",
    "protected_databases",
    "rtmr_curve",
    "run_protocol",
    "same_key_scores",
    "write_score_csv",
    "write_score_sides",
]
