import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import unlinkeval as ue
from unlinkeval.errors import GridMismatchError, StatisticalAdequacyWarning

warnings.simplefilter("ignore", StatisticalAdequacyWarning)


def brute_force_d_sys(p_m, p_nm, omega):
    """Straight transcription of the local/global formulas, no shortcuts.

    Unit-width bins, plain Python floats. Independent of the library code
    on purpose: this is the oracle the vectorized path is judged against.
    """
    total = 0.0
    for pm, pnm in zip(p_m, p_nm):
        if pnm > 0:
            lr = pm / pnm
        elif pm > 0:
            total += pm  # infinite ratio, locally fully linkable
            continue
        else:
            continue  # no mated mass, contributes nothing
        t = lr * omega
        d = 0.0 if t <= 1 else 2 * t / (1 + t) - 1
        total += pm * d
    return total


def _pmf_pair(p_m, p_nm):
    edges = np.arange(len(p_m) + 1, dtype=float)
    return ue.DensityPair(
        edges=edges, p_mated=np.asarray(p_m, float), p_non_mated=np.asarray(p_nm, float)
    )


class TestLikelihoodRatio:
    def test_equal_densities(self):
        assert ue.likelihood_ratio(0.4, 0.4) == 1.0

    def test_plain_division(self):
        assert ue.likelihood_ratio(0.5, 0.1) == pytest.approx(5.0)

    def test_zero_denominator_is_infinite(self):
        assert ue.likelihood_ratio(0.3, 0.0) == math.inf

    def test_both_zero_is_no_evidence(self):
        v = ue.likelihood_ratio(0.0, 0.0)
        assert math.isnan(v)
        assert math.isnan(ue.NO_EVIDENCE)
        assert not math.isnan(1.0)

    def test_negative_density_rejected(self):
        with pytest.raises(ValueError):
            ue.likelihood_ratio(-0.1, 0.5)


class TestLocalLinkability:
    def test_boundary_is_zero(self):
        assert ue.local_linkability(1.0, 1.0) == 0.0

    def test_second_branch_value(self):
        assert ue.local_linkability(3.0, 1.0) == pytest.approx(0.5)

    def test_first_branch_below_one(self):
        assert ue.local_linkability(5.0, 0.1) == 0.0

    def test_infinite_ratio_maps_to_one(self):
        assert ue.local_linkability(math.inf, 1.0) == 1.0
        assert ue.local_linkability(math.inf, 1e-9) == 1.0

    def test_no_evidence_maps_to_zero(self):
        assert ue.local_linkability(ue.NO_EVIDENCE, 1.0) == 0.0

    @given(
        lr=st.floats(min_value=0, max_value=1e12, allow_nan=False),
        omega=st.floats(min_value=1e-9, max_value=1.0, allow_nan=False),
    )
    @settings(max_examples=2000)
    def test_range(self, lr, omega):
        d = ue.local_linkability(lr, omega)
        assert 0.0 <= d <= 1.0

    @given(
        lr=st.floats(min_value=0, max_value=1e9, allow_nan=False),
        omega=st.floats(min_value=1e-9, max_value=1.0, allow_nan=False),
    )
    @settings(max_examples=2000)
    def test_piecewise_zero_is_exact(self, lr, omega):
        if lr * omega <= 1.0:
            assert ue.local_linkability(lr, omega) == 0.0
        else:
            assert ue.local_linkability(lr, omega) > 0.0

    @given(
        lr1=st.floats(min_value=0, max_value=1e9, allow_nan=False),
        lr2=st.floats(min_value=0, max_value=1e9, allow_nan=False),
        omega=st.floats(min_value=1e-9, max_value=1.0, allow_nan=False),
    )
    @settings(max_examples=2000)
    def test_monotone_in_ratio(self, lr1, lr2, omega):
        lo, hi = sorted((lr1, lr2))
        assert ue.local_linkability(lo, omega) <= ue.local_linkability(hi, omega)

    @given(
        lr=st.floats(min_value=0, max_value=1e9, allow_nan=False),
        o1=st.floats(min_value=1e-9, max_value=1.0, allow_nan=False),
        o2=st.floats(min_value=1e-9, max_value=1.0, allow_nan=False),
    )
    @settings(max_examples=2000)
    def test_monotone_in_omega(self, lr, o1, o2):
        lo, hi = sorted((o1, o2))
        assert ue.local_linkability(lr, lo) <= ue.local_linkability(lr, hi)

    @pytest.mark.parametrize("eps", [1e-3, 1e-6])
    @pytest.mark.parametrize("omega", [1.0, 0.5, 0.01])
    def test_continuity_at_crossing(self, eps, omega):
        # first-order bound just above the activation point
        d = ue.local_linkability(1.0 / omega + eps, omega)
        assert 0.0 <= d <= 2 * eps * omega

    def test_huge_finite_ratio_does_not_overflow(self):
        # 2 * t overflows above about 9e307; the measure must still be 1
        assert ue.local_linkability(1e308, 1.0) == 1.0
        dp = ue.DensityPair(edges=np.array([0.0, 1.0, 2.0]),
                            p_mated=np.array([1.0, 0.0]),
                            p_non_mated=np.array([1e-308, 1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert ue.evaluate_densities(dp, 1.0).d_sys == 1.0
        # lr * omega beyond the float range: fully linkable, as lr = +inf is
        assert ue.local_linkability(1e308, 2.0) == 1.0
        dp = ue.DensityPair(edges=np.array([0.0, 1.0, 2.0]),
                            p_mated=np.array([0.0, 1.0]),
                            p_non_mated=np.array([1.0, 1e-308]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert ue.evaluate_densities(dp, 2.0).d_sys == 1.0

    def test_float_and_array_contract(self):
        p_m = [0.0, 0.3, 0.5, 0.2, 0.0]
        p_nm = [0.0, 0.0, 0.1, 0.4, 1e-308]
        lr = ue.likelihood_ratio(np.array(p_m), np.array(p_nm))
        assert isinstance(lr, np.ndarray) and lr.shape == (5,)
        one_by_one = [ue.likelihood_ratio(a, b) for a, b in zip(p_m, p_nm)]
        assert all(type(v) is float for v in one_by_one)
        assert np.array_equal(lr, one_by_one, equal_nan=True)

        ratios = [math.nan, math.inf, 0.0, 1.0, 3.0, 1e308, 0.5]
        for omega in (1.0, 2.0, 0.01):
            d = ue.local_linkability(np.array(ratios), omega)
            assert isinstance(d, np.ndarray) and d.shape == (7,)
            singles = [ue.local_linkability(r, omega) for r in ratios]
            assert all(type(v) is float for v in singles)
            assert np.array_equal(d, singles)
            assert (d[0], d[1]) == (0.0, 1.0)
        omegas = np.array([1.0, 2.0, 0.01, 0.5, 1.0, 2.0, 1e-9])
        assert np.array_equal(ue.local_linkability(np.array(ratios), omegas),
                              [ue.local_linkability(r, o) for r, o in zip(ratios, omegas)])

        with pytest.raises(ValueError, match="non-negative"):
            ue.local_linkability(np.array([1.0, -0.5]), 1.0)
        with pytest.raises(ValueError, match="omega"):
            ue.local_linkability(np.array([1.0, 2.0]), np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="omega"):
            ue.local_linkability(np.array([1.0, 2.0]), np.array([0.5, -1.0]))
        with pytest.raises(ValueError, match="non-negative"):
            ue.likelihood_ratio(np.array([0.5, -0.1]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="finite"):
            ue.likelihood_ratio(np.array([0.5, 0.5]), np.array([0.5, math.inf]))


class TestGlobalLinkability:
    def test_discrete_example(self):
        dp = _pmf_pair([0.1, 0.4, 0.5], [0.5, 0.4, 0.1])
        prof = ue.evaluate_densities(dp, omega=1.0)
        assert np.allclose(prof.d_local, [0.0, 0.0, 2 / 3], atol=1e-12)
        assert prof.d_sys == pytest.approx(1 / 3, abs=1e-12)

    def test_identical_densities_give_exact_zero(self):
        dp = _pmf_pair([0.25, 0.5, 0.25], [0.25, 0.5, 0.25])
        assert ue.evaluate_densities(dp, omega=1.0).d_sys == 0.0

    def test_disjoint_supports_give_exact_one(self):
        dp = _pmf_pair([0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5])
        assert ue.evaluate_densities(dp, omega=1.0).d_sys == 1.0

    def test_grid_mismatch(self):
        dp = _pmf_pair([0.5, 0.5], [0.5, 0.5])
        with pytest.raises(GridMismatchError):
            ue.global_linkability(dp, np.array([0.0, 0.0, 0.0]))

    def test_d_local_out_of_range_rejected(self):
        dp = _pmf_pair([0.5, 0.5], [0.5, 0.5])
        with pytest.raises(ValueError):
            ue.global_linkability(dp, np.array([0.0, 1.5]))

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force_oracle(self, data):
        n = data.draw(st.integers(min_value=2, max_value=10))
        raw_m = data.draw(
            st.lists(st.integers(min_value=0, max_value=50), min_size=n, max_size=n)
        )
        raw_nm = data.draw(
            st.lists(st.integers(min_value=0, max_value=50), min_size=n, max_size=n)
        )
        if sum(raw_m) == 0 or sum(raw_nm) == 0:
            return
        p_m = np.asarray(raw_m, float) / sum(raw_m)
        p_nm = np.asarray(raw_nm, float) / sum(raw_nm)
        omega = data.draw(st.sampled_from([1.0, 0.5, 0.1, 0.01]))
        prof = ue.evaluate_densities(_pmf_pair(p_m, p_nm), omega=omega)
        assert prof.d_sys == pytest.approx(
            brute_force_d_sys(p_m, p_nm, omega), abs=1e-12
        )

    def test_nonidentical_proper_densities_have_positive_d_sys(self):
        # where one side exceeds the other, some bin must flip the ratio
        dp = _pmf_pair([0.2, 0.8], [0.8, 0.2])
        prof = ue.evaluate_densities(dp, omega=1.0)
        assert prof.d_sys > 0.0


class TestEvaluate:
    def test_composition_matches_manual_pipeline(self, rng):
        s = ue.ScoreCounts.from_scores(
            mated=rng.normal(0.4, 0.1, 2000), non_mated=rng.normal(0.6, 0.1, 2000)
        )
        cfg = ue.DensityConfig(bins=50)
        prof = ue.evaluate(s, density_cfg=cfg)
        manual = ue.evaluate_densities(ue.estimate_densities(s, cfg), omega=1.0)
        assert prof.d_sys == manual.d_sys
        assert np.array_equal(prof.d_local, manual.d_local)

    def test_vanishing_omega_kills_linkability(self):
        # finite ratios everywhere (shared support), so a vanishing prior
        # pushes every product under the activation threshold
        s = ue.ScoreCounts.from_scores(
            mated=np.repeat([0.4, 0.5, 0.6], [600, 400, 200]).astype(float),
            non_mated=np.repeat([0.4, 0.5, 0.6], [200, 400, 600]).astype(float),
        )
        prof = ue.evaluate(s, prior=ue.PriorConfig.explicit(1e-15))
        assert prof.d_sys == 0.0
        assert ue.evaluate(s).d_sys == pytest.approx(0.25)  # and omega=1 does not

    def test_boundary_scores_mark_activation_edges(self):
        dp = _pmf_pair([0.1, 0.4, 0.5], [0.5, 0.4, 0.1])
        prof = ue.evaluate_densities(dp, omega=1.0)
        # activation flips once, between bins 1 and 2
        assert list(prof.boundary_scores) == [2.0]

    def test_profile_invariants_hold(self, rng):
        s = ue.ScoreCounts.from_scores(mated=rng.normal(0.4, 0.1, 3000), non_mated=rng.normal(0.5, 0.1, 3000))
        prof = ue.evaluate(s)
        finite = np.isfinite(prof.lr)
        prod = prof.lr[finite] * prof.omega
        assert np.all(prof.d_local[finite][prod <= 1.0] == 0.0)
        assert np.all((prof.d_local >= 0) & (prof.d_local <= 1))
        assert 0.0 <= prof.d_sys <= 1.0


class TestProfileSerialization:
    def test_round_trip_with_infinities(self):
        dp = _pmf_pair([0.5, 0.25, 0.25], [1.0, 0.0, 0.0])
        prof = ue.evaluate_densities(dp, omega=1.0)
        assert math.isinf(prof.lr[1])
        text = prof.to_json()
        back = ue.LinkabilityProfile.from_json(text)
        assert math.isinf(back.lr[1])
        assert back.d_sys == prof.d_sys
        assert np.array_equal(back.d_local, prof.d_local)

    def test_d_local_must_be_the_local_measure(self, rng):
        s = ue.ScoreCounts.from_scores(mated=rng.normal(0.4, 0.1, 2000), non_mated=rng.normal(0.6, 0.1, 2000))
        prof = ue.evaluate(s, density_cfg=ue.DensityConfig(kde=True))
        back = ue.LinkabilityProfile.from_json(prof.to_json())
        assert np.array_equal(back.d_local, prof.d_local)
        d_local = prof.d_local.copy()
        d_local[np.argmax(d_local)] = np.nextafter(d_local.max(), 0.0)
        with pytest.raises(ValueError, match="local_linkability"):
            ue.LinkabilityProfile(edges=prof.edges, lr=prof.lr, d_local=d_local,
                                  d_sys=prof.d_sys, omega=prof.omega,
                                  boundary_scores=prof.boundary_scores)

    def test_infinity_encoded_as_string(self):
        dp = _pmf_pair([0.5, 0.5], [1.0, 0.0])
        doc = json.loads(ue.evaluate_densities(dp, omega=1.0).to_json())
        assert doc["lr"][1] == "inf"
        assert set(doc) == {"omega", "d_sys", "edges", "lr", "d_local", "boundary_scores"}
