"""Command-line driver: eval, synth, compare, protocol.

Exit codes: 0 success, 2 usage or validation problem, 3 internal invariant
violation.  All randomness flows from explicit seeds, so every command is
deterministic given its inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .baselines import (
    MODE_ACCURACY,
    MODE_CROSSKEY,
    ORIENT_DISSIMILARITY,
    ORIENT_SIMILARITY,
    UNDEFINED,
    det_curve,
    rtmr_curve,
)
from .density import DensityConfig
from .errors import InternalInvariantError, MissingFileError, UnlinkEvalError
from .plotting import det_svg, linkability_svg
from .protocol import (
    ProtocolConfig,
    assess,
    cross_database_scores,
    run_protocol,
    same_key_scores,
    synthetic_databases,
)
from .scores import PriorConfig, load_score_set, write_score_sides
from .synthbtp import SCHEME_BLOCK, SCHEME_BLOOM, SCHEME_NONE, SCHEME_XOR, CorpusConfig

# Not called here (protocol.assess runs the chain), but kept as names of
# this module: the benchmark's tracer in perfbench/spans.py wraps them.
from .density import estimate_densities  # noqa: F401
from .linkability import evaluate_densities  # noqa: F401

_SCHEME_NAMES = {
    "xor": SCHEME_XOR,
    "block": SCHEME_BLOCK,
    "bloom": SCHEME_BLOOM,
    "none": SCHEME_NONE,
}

_FUNCTIONS = ("pic_hd", "hamming_weight", "permuted_xor", "reconstruction")


def _bins_arg(text: str):
    if text == "auto":
        return "auto"
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"--bins takes an integer or 'auto', got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unlink-eval",
        description="Evaluate unlinkability of protected biometric templates from linkage scores.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate linkability of one score set")
    p_eval.add_argument("--mated", required=True, help="mated score CSV")
    p_eval.add_argument("--nonmated", required=True, help="non-mated score CSV")
    prior = p_eval.add_mutually_exclusive_group()
    prior.add_argument("--omega", type=float, help="prior ratio, in (0, 1]")
    prior.add_argument("--subjects", type=int, help="enrolled subject count N; omega = 1/(N-1)")
    p_eval.add_argument("--bins", type=_bins_arg, default="auto", help="grid bins or 'auto'")
    p_eval.add_argument("--kde", action="store_true", help="Gaussian-smooth the densities")
    p_eval.add_argument(
        "--orientation",
        choices=[ORIENT_SIMILARITY, ORIENT_DISSIMILARITY],
        default=ORIENT_SIMILARITY,
        help="score orientation for the baseline DET (linkability itself needs none)",
    )
    p_eval.add_argument("--out", help="directory for JSON/SVG artifacts")
    p_eval.add_argument("--plot", action="store_true", help="also write linkability.svg (needs --out)")
    p_eval.set_defaults(func=cmd_eval)

    p_synth = sub.add_parser("synth", help="generate a synthetic corpus and score files")
    p_synth.add_argument("--scheme", choices=sorted(_SCHEME_NAMES), required=True)
    p_synth.add_argument("--function", choices=_FUNCTIONS, required=True)
    p_synth.add_argument("--subjects", type=int, default=50)
    p_synth.add_argument("--samples", type=int, default=4)
    p_synth.add_argument("--bits", type=int, default=1024)
    p_synth.add_argument("--flip-rate", type=float, default=0.1)
    p_synth.add_argument("--keys", type=int, default=10)
    p_synth.add_argument("--seed", type=int, default=1)
    p_synth.add_argument("--block-size", type=int, default=64)
    p_synth.add_argument("--bloom-width", type=int, default=16)
    p_synth.add_argument("--bloom-height", type=int, default=4)
    p_synth.add_argument("--constant-key", action="store_true", help="protect every database with one shared key")
    p_synth.add_argument(
        "--experimental",
        action="store_true",
        help="enable approximate Bloom-filter reconstruction",
    )
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.set_defaults(func=cmd_synth)

    p_cmp = sub.add_parser("compare", help="accuracy metrics vs linkability from the same scores")
    p_cmp.add_argument("--accuracy-mated", required=True)
    p_cmp.add_argument("--accuracy-nonmated", required=True)
    p_cmp.add_argument("--crosskey-mated", required=True)
    p_cmp.add_argument("--crosskey-nonmated", required=True)
    p_cmp.add_argument(
        "--orientation",
        choices=[ORIENT_SIMILARITY, ORIENT_DISSIMILARITY],
        default=ORIENT_DISSIMILARITY,
        help="score orientation (testbed linkage scores are dissimilarities)",
    )
    p_cmp.add_argument("--omega", type=float)
    p_cmp.add_argument("--bins", type=_bins_arg, default="auto")
    p_cmp.add_argument("--kde", action="store_true")
    p_cmp.add_argument("--out", help="directory for comparison.json and plots")
    p_cmp.set_defaults(func=cmd_compare)

    p_proto = sub.add_parser("protocol", help="run the full evaluation protocol from a config file")
    p_proto.add_argument("config", help="JSON (or TOML, Python 3.11+) protocol config")
    p_proto.set_defaults(func=cmd_protocol)
    return parser


def _resolve_prior(omega, subjects) -> PriorConfig:
    if omega is not None:
        if omega <= 0:
            raise UnlinkEvalError("--omega: omega must be positive")
        return PriorConfig.explicit(omega)
    if subjects is not None:
        return PriorConfig.from_enrollment_count(subjects)
    return PriorConfig.default()


def cmd_eval(args) -> int:
    if args.plot and not args.out:
        raise UnlinkEvalError("--plot requires --out")
    prior = _resolve_prior(args.omega, args.subjects)
    scores = load_score_set(args.mated, args.nonmated)
    result = assess(
        scores, DensityConfig(bins=args.bins, kde=args.kde), prior.omega, args.orientation, MODE_ACCURACY
    )
    baseline = {
        "kl": result.kl_json,
        "eer": result.det.eer,
        "orientation": args.orientation,
        "n_mated": scores.n_mated,
        "n_non_mated": scores.n_non_mated,
    }

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "profile.json").write_text(result.profile.to_json() + "\n", encoding="utf-8")
        (out / "densities.json").write_text(result.densities.to_json() + "\n", encoding="utf-8")
        (out / "baselines.json").write_text(
            json.dumps(baseline, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        if args.plot:
            svg = linkability_svg(result.densities.to_json_dict(), result.profile.to_json_dict())
            (out / "linkability.svg").write_text(svg, encoding="utf-8")
    print(f"D_sys = {result.profile.d_sys:.4f}")
    return 0


def cmd_synth(args) -> int:
    corpus_cfg = CorpusConfig(
        n_subjects=args.subjects,
        samples_per_subject=args.samples,
        template_bits=args.bits,
        intra_flip_rate=args.flip_rate,
        seed=args.seed,
    )
    scheme = _SCHEME_NAMES[args.scheme]
    databases, ring = synthetic_databases(
        corpus_cfg, args.keys, scheme,
        constant_key=args.constant_key,
        block_size=args.block_size,
        bloom_width=args.bloom_width,
        bloom_height=args.bloom_height,
    )
    scores = cross_database_scores(
        databases, args.function, ring, allow_approximate_bloom=args.experimental
    )
    accuracy = same_key_scores(databases, "pic_hd", ring)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_score_sides(scores, out / "mated.csv", out / "nonmated.csv")
    write_score_sides(accuracy, out / "accuracy_mated.csv", out / "accuracy_nonmated.csv")
    manifest = {
        "scheme": scheme,
        "function": args.function,
        "n_subjects": args.subjects,
        "samples_per_subject": args.samples,
        "template_bits": args.bits,
        "intra_flip_rate": args.flip_rate,
        "k": args.keys,
        "seed": args.seed,
        "constant_key": args.constant_key,
        "experimental": args.experimental,
        "n_mated": scores.n_mated,
        "n_non_mated": scores.n_non_mated,
        "orientation": ORIENT_DISSIMILARITY,
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {scores.n_mated} mated and {scores.n_non_mated} non-mated scores to {out}")
    return 0


def cmd_compare(args) -> int:
    prior = _resolve_prior(args.omega, None)
    accuracy_scores = load_score_set(args.accuracy_mated, args.accuracy_nonmated)
    crosskey_scores = load_score_set(args.crosskey_mated, args.crosskey_nonmated)

    acc_curve = det_curve(
        accuracy_scores.mated, accuracy_scores.non_mated, args.orientation, MODE_ACCURACY
    )
    rtmr = rtmr_curve(accuracy_scores.mated, crosskey_scores.non_mated, args.orientation)
    crosskey = assess(
        crosskey_scores, DensityConfig(bins=args.bins, kde=args.kde), prior.omega,
        args.orientation, MODE_CROSSKEY,
    )
    ck_curve, profile, dp = crosskey.det, crosskey.profile, crosskey.densities
    kl_text = "undefined" if crosskey.kl is UNDEFINED else f"{crosskey.kl:.6g}"

    rows = [
        ("EER_accuracy", f"{acc_curve.eer:.4f}"),
        ("EER_crosskey", f"{ck_curve.eer:.4f}"),
        ("EER_rtmr", f"{rtmr.eer:.4f}"),
        ("KL(mated||nonmated)", kl_text),
        ("D_sys", f"{profile.d_sys:.4f}"),
    ]
    name_width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{name_width}}  {value}")

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        comparison = {
            "schema_version": 1,
            "omega": prior.omega,
            "orientation": args.orientation,
            "eer_accuracy": acc_curve.eer,
            "eer_crosskey": ck_curve.eer,
            "eer_rtmr": rtmr.eer,
            "kl": crosskey.kl_json,
            "d_sys": profile.d_sys,
            "profile": profile.to_json_dict(),
            "densities": dp.to_json_dict(),
        }
        (out / "comparison.json").write_text(
            json.dumps(comparison, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        (out / "det_comparison.svg").write_text(
            det_svg([acc_curve.to_json_dict(), ck_curve.to_json_dict()], "accuracy vs cross-key DET"),
            encoding="utf-8",
        )
        (out / "rtmr_comparison.svg").write_text(
            det_svg([acc_curve.to_json_dict(), rtmr.to_json_dict()], "accuracy DET vs RTMR"),
            encoding="utf-8",
        )
        (out / "linkability.svg").write_text(
            linkability_svg(dp.to_json_dict(), profile.to_json_dict(), "cross-key"),
            encoding="utf-8",
        )
    return 0


def cmd_protocol(args) -> int:
    path = Path(args.config)
    if not path.is_file():
        raise MissingFileError(f"config file not found: {path}")
    text = path.read_text(encoding="utf-8")
    if path.suffix.lower() == ".toml":
        try:
            import tomllib
        except ImportError:
            raise UnlinkEvalError(
                "TOML configs need Python 3.11+; provide the config as JSON instead"
            ) from None
        data = tomllib.loads(text)
    else:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise UnlinkEvalError(f"config is not valid JSON: {exc}") from None

    cfg = ProtocolConfig.from_dict(data, base_dir=path.parent)
    report = run_protocol(cfg)
    failures = [fn for fn, e in report.per_function.items() if "error" in e]
    if cfg.out_dir is not None:
        print(f"report written to {Path(cfg.out_dir) / 'report.json'}")
    if report.aggregated_d_sys is not None:
        print(f"D_sys = {report.aggregated_d_sys:.4f}")
    for fn in failures:
        print(f"warning: {fn} failed: {report.per_function[fn]['error']}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (UnlinkEvalError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
