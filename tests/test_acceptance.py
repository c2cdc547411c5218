"""Acceptance gate: ten end-to-end checks, one test (and one verdict line
under -v) per criterion. Tolerances and runtime budgets are pinned here and
nowhere else; the unit suites cover the fine-grained behavior.
"""

import json
import math
import time
import warnings

import numpy as np
import pytest

import unlinkeval as ue
from unlinkeval.cli import main as cli_main
from unlinkeval.errors import KeyCountWarning, StatisticalAdequacyWarning
from unlinkeval.protocol import PAIRING_DISTINCT_SAMPLES

warnings.simplefilter("ignore", StatisticalAdequacyWarning)
warnings.simplefilter("ignore", KeyCountWarning)


class _Budget:
    """Wall-clock guard; every criterion states its limit."""

    def __init__(self, seconds):
        self.limit = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            assert self.elapsed < self.limit, (
                f"runtime {self.elapsed:.1f}s exceeds the {self.limit}s budget"
            )


def _pmf_pair(p_m, p_nm):
    edges = np.arange(len(p_m) + 1, dtype=float)
    return ue.DensityPair(
        edges=edges, p_mated=np.asarray(p_m, float), p_non_mated=np.asarray(p_nm, float)
    )


def _oracle_local(lr, omega):
    if math.isinf(lr):
        return 1.0
    t = lr * omega
    return 0.0 if t <= 1 else 2 * t / (1 + t) - 1


def _oracle_d_sys(p_m, p_nm, omega):
    # deliberately plain: scalar loop, no shared code with the library
    total = 0.0
    for pm, pnm in zip(p_m, p_nm):
        if pnm > 0:
            lr = pm / pnm
        elif pm > 0:
            lr = math.inf
        else:
            continue
        total += pm * _oracle_local(lr, omega)
    return total


def _oracle_d_local(p_m, p_nm, omega):
    out = []
    for pm, pnm in zip(p_m, p_nm):
        if pnm > 0:
            lr = pm / pnm
        elif pm > 0:
            lr = math.inf
        else:
            out.append(0.0)
            continue
        out.append(_oracle_local(lr, omega))
    return out


def _corpus_cfg():
    return ue.CorpusConfig(
        n_subjects=100, samples_per_subject=4, template_bits=4096,
        intra_flip_rate=0.1, seed=42,
    )


def test_criterion_01_discrete_oracle_equivalence():
    with _Budget(5):
        prof = ue.evaluate_densities(_pmf_pair([0.1, 0.4, 0.5], [0.5, 0.4, 0.1]), omega=1.0)
        assert np.allclose(prof.d_local, [0.0, 0.0, 2 / 3], atol=1e-12)
        assert abs(prof.d_sys - 1 / 3) <= 1e-12
        assert np.allclose(
            prof.d_local, _oracle_d_local([0.1, 0.4, 0.5], [0.5, 0.4, 0.1], 1.0), atol=1e-12
        )

        rng = np.random.default_rng(2024)
        for _ in range(1000):
            n = int(rng.integers(2, 11))
            p_m = rng.dirichlet(np.ones(n))
            p_nm = rng.dirichlet(np.ones(n))
            # sprinkle structural zeros so the infinite-ratio branch is hit
            if rng.random() < 0.3:
                p_nm[rng.integers(n)] = 0.0
                p_nm /= p_nm.sum()
            omega = float(rng.choice([1.0, 0.5, 0.1, 0.01]))
            prof = ue.evaluate_densities(_pmf_pair(p_m, p_nm), omega=omega)
            assert abs(prof.d_sys - _oracle_d_sys(p_m, p_nm, omega)) <= 1e-12
            assert np.allclose(prof.d_local, _oracle_d_local(p_m, p_nm, omega), atol=1e-12)


def test_criterion_02_boundary_cases():
    with _Budget(1):
        # fully unlinkable: both hypotheses share one empirical pmf
        counts = np.array([2.0, 4.0, 2.0]) / 8.0
        same = ue.evaluate_densities(_pmf_pair(counts, counts.copy()), omega=1.0)
        assert same.d_sys == 0.0

        # fully linkable: supports are disjoint
        apart = ue.evaluate_densities(
            _pmf_pair([0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5]), omega=1.0
        )
        assert apart.d_sys == 1.0


def test_criterion_03_local_measure_property_suite():
    with _Budget(10):
        rng = np.random.default_rng(7)
        n = 120_000
        lr = 10.0 ** rng.uniform(-6, 9, n)
        lr[rng.random(n) < 0.02] = 0.0
        omega = 10.0 ** rng.uniform(-6, 0, n)

        d = ue.local_linkability(lr, omega)
        assert np.all((d >= 0.0) & (d <= 1.0))
        inactive = lr * omega <= 1.0
        assert np.all(d[inactive] == 0.0)

        # monotone in the ratio at fixed omega
        d_hi = ue.local_linkability(lr * 1.5, omega)
        assert np.all(d_hi >= d)

        # monotone in omega at fixed ratio (cap at the admissible maximum 1)
        omega_hi = np.minimum(omega * 1.5, 1.0)
        d_omega_hi = ue.local_linkability(lr, omega_hi)
        assert np.all(d_omega_hi >= d)

        # continuity just above the activation boundary
        for eps in (1e-3, 1e-6):
            for o in rng.uniform(1e-4, 1.0, 200):
                val = ue.local_linkability(1.0 / o + eps, o)
                assert 0.0 <= val <= 2 * eps * o


def test_criterion_04_gaussian_overlap_and_separation():
    with _Budget(60):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            same = ue.ScoreCounts.from_scores(
                mated=rng.normal(0.5, 0.1, 10_000), non_mated=rng.normal(0.5, 0.1, 10_000)
            )
            assert ue.evaluate(same).d_sys < 0.05, f"seed {seed}"

            apart = ue.ScoreCounts.from_scores(
                mated=rng.normal(0.2, 0.02, 10_000), non_mated=rng.normal(0.8, 0.02, 10_000)
            )
            assert ue.evaluate(apart).d_sys > 0.99, f"seed {seed}"

        # analytic oracle: with the true densities the first case is exactly 0
        # (equal densities give ratio 1 everywhere); numerical integration of
        # the second gives essentially 1
        s = np.linspace(-0.1, 1.1, 20_001)
        p_m = np.exp(-0.5 * ((s - 0.2) / 0.02) ** 2) / (0.02 * np.sqrt(2 * np.pi))
        p_nm = np.exp(-0.5 * ((s - 0.8) / 0.02) ** 2) / (0.02 * np.sqrt(2 * np.pi))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            t = np.where(p_nm > 0, p_m / p_nm, np.inf)
            d = np.where(t > 1, 2 * t / (1 + t) - 1, 0.0)
        oracle = np.trapezoid(p_m * np.where(np.isfinite(d), d, 1.0), s)
        assert oracle > 0.999


def test_criterion_05_omega_sweep_is_monotone():
    with _Budget(10):
        rng = np.random.default_rng(99)
        scores = ue.ScoreCounts.from_scores(
            mated=rng.normal(0.45, 0.1, 20_000), non_mated=rng.normal(0.55, 0.1, 20_000)
        )
        values = [
            ue.evaluate(scores, prior=ue.PriorConfig.explicit(w)).d_sys
            for w in (0.0001, 0.001, 0.01, 1.0)
        ]
        assert values == sorted(values)
        assert values[-1] == max(values)
        assert values[-1] > values[0]  # the sweep actually moves


def test_criterion_06_xor_salting_is_unlinkable():
    with _Budget(120):
        base = dict(
            linkage_functions=("pic_hd",), k=10, scheme="xor-salt",
            corpus=_corpus_cfg(), mated_pairing=PAIRING_DISTINCT_SAMPLES,
        )
        report = ue.run_protocol(ue.ProtocolConfig(**base))
        d_protected = report.per_function["pic_hd"]["d_sys"]
        assert d_protected < 0.05, f"fresh keys: d_sys = {d_protected:.4f}"

        control = ue.run_protocol(ue.ProtocolConfig(**base, constant_key=True))
        d_control = control.per_function["pic_hd"]["d_sys"]
        assert d_control > 0.8, f"shared key control: d_sys = {d_control:.4f}"


def test_criterion_07_reconstruction_adversary_dominates():
    with _Budget(180):
        cfg = ue.ProtocolConfig(
            linkage_functions=("pic_hd", "hamming_weight", "reconstruction"),
            k=10, scheme="xor-salt", corpus=_corpus_cfg(),
            mated_pairing=PAIRING_DISTINCT_SAMPLES,
        )
        report = ue.run_protocol(cfg)
        recon = report.per_function["reconstruction"]["d_sys"]
        assert recon > 0.9, f"key-knowledge adversary: d_sys = {recon:.4f}"
        per_fn = [report.per_function[fn]["d_sys"] for fn in cfg.linkage_functions]
        assert report.aggregated_d_sys == max(per_fn)


def test_criterion_08_eer_and_linkability_disagree(tmp_path):
    with _Budget(30):
        rng = np.random.default_rng(2026)
        files = {}
        for name, (mu, n) in {
            "accuracy_mated": (0.75, 5000), "accuracy_nonmated": (0.45, 5000),
            "crosskey_mated": (0.62, 5000), "crosskey_nonmated": (0.45, 5000),
        }.items():
            path = tmp_path / f"{name}.csv"
            path.write_text("\n".join(repr(float(v)) for v in rng.normal(mu, 0.05, n)) + "\n")
            files[name] = path

        accuracy = ue.load_score_set(files["accuracy_mated"], files["accuracy_nonmated"])
        crosskey = ue.load_score_set(files["crosskey_mated"], files["crosskey_nonmated"])
        result = ue.assess(
            crosskey, ue.DensityConfig(), 1.0, "similarity", "crosskey", accuracy=accuracy
        )
        acc_curve, ck_curve = result.accuracy, result.det

        # the increase-based verdict says "unlinkable": cross-key EER is small
        # and clearly above the accuracy EER
        assert acc_curve.eer < ck_curve.eer
        assert 0.02 <= ck_curve.eer <= 0.10, f"cross-key EER = {ck_curve.eer:.4f}"

        # the same cross-key scores are in fact highly linkable
        profile = ue.evaluate(crosskey)
        assert profile.d_sys > 0.85, f"d_sys = {profile.d_sys:.4f}"


def test_criterion_09_baseline_oracles():
    with _Budget(1):
        kl = ue.kl_divergence([0.5, 0.5], [0.25, 0.75])
        assert abs(kl - 0.14384) <= 1e-5
        assert ue.kl_divergence([1.0, 0.0], [0.0, 1.0]) is ue.UNDEFINED

        mated = np.array([0.9, 0.8, 0.4])
        non_mated = np.array([0.6, 0.2, 0.1])
        det = ue.det_curve(mated, non_mated, orientation="similarity")
        assert det.eer == pytest.approx(1 / 3, abs=1e-12)

        # exhaustive sweep oracle: an exact operating point exists at 1/3
        pool = np.unique(np.concatenate([mated, non_mated]))
        thresholds = np.concatenate([pool, (pool[:-1] + pool[1:]) / 2])
        exact = []
        for t in thresholds:
            fnmr = np.mean(mated < t)
            fmr = np.mean(non_mated >= t)
            if fmr == fnmr:
                exact.append(fmr)
        assert exact and min(exact) == pytest.approx(1 / 3, abs=1e-12)


def test_criterion_10_determinism_and_round_trip(tmp_path, capsys):
    with _Budget(120):
        cfg = {
            "linkage_functions": ["pic_hd", "hamming_weight"],
            "k": 6,
            "scheme": "block-remap",
            "corpus": {"n_subjects": 8, "samples_per_subject": 2,
                       "template_bits": 512, "intra_flip_rate": 0.1, "seed": 15},
            "out_dir": "run",
        }
        cfg_path = tmp_path / "protocol.json"
        cfg_path.write_text(json.dumps(cfg))

        assert cli_main(["protocol", str(cfg_path)]) == 0
        first = (tmp_path / "run" / "report.json").read_bytes()
        assert cli_main(["protocol", str(cfg_path)]) == 0
        second = (tmp_path / "run" / "report.json").read_bytes()
        assert first == second
        json.loads(first)  # well-formed, no timestamps to diff away

        rng = np.random.default_rng(5150)
        scores = ue.ScoreCounts.from_scores(mated=rng.random(5000), non_mated=rng.random(5000))
        path = tmp_path / "scores.csv"
        ue.write_score_csv(scores, path)
        loaded = ue.load_score_set(path, path)
        for side in ("mated", "non_mated"):
            a, b = getattr(loaded, side), getattr(scores, side)
            assert np.array_equal(a.values, b.values) and np.array_equal(a.counts, b.counts)
        second_path = tmp_path / "scores2.csv"
        ue.write_score_csv(loaded, second_path)
        assert path.read_bytes() == second_path.read_bytes()
