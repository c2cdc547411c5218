import json

import pytest

import unlinkeval as ue
from unlinkeval.baselines import (
    MODE_ACCURACY,
    MODE_CROSSKEY,
    ORIENT_DISSIMILARITY,
    ORIENT_SIMILARITY,
    det_curve,
    rtmr_curve,
)
from unlinkeval.plotting import det_svg


def _metadata(svg: str) -> dict:
    start = svg.index("<![CDATA[") + len("<![CDATA[")
    return json.loads(svg[start:svg.index("]]>")])


def test_det_svg_thins_dense_curves_to_evenly_spaced_points(rng):
    dense = det_curve(rng.random(3000), rng.random(4000) + 0.3)
    sparse = det_curve(rng.random(100), rng.random(150) + 0.3)
    n = dense.thresholds.size
    assert n > 512 >= sparse.thresholds.size
    curves = _metadata(det_svg([dense, sparse]))["curves"]
    keep = [round(i * (n - 1) / 511) for i in range(512)]
    full = dense.to_json_dict()
    for key in ("thresholds", "fmr", "fnmr"):
        assert curves[0][key] == [full[key][i] for i in keep]
    assert curves[0]["eer"] == dense.eer
    assert curves[1] == sparse.to_json_dict()


@pytest.mark.parametrize("orientation", [ORIENT_SIMILARITY, ORIENT_DISSIMILARITY])
def test_det_svg_of_assess_curves_equals_that_of_full_sweeps(rng, orientation):
    single = ue.ScoreCounts.from_scores(rng.normal(0.3, 0.1, 3000), rng.normal(0.6, 0.1, 2000))
    cross = ue.ScoreCounts.from_scores(rng.normal(0.55, 0.1, 1500), rng.normal(0.6, 0.1, 2500))
    result = ue.assess(cross, ue.DensityConfig(), 1.0, orientation, MODE_CROSSKEY, single)
    accuracy = det_curve(single.mated, single.non_mated, orientation, MODE_ACCURACY)
    rtmr = rtmr_curve(single.mated, cross.non_mated, orientation)
    det = det_curve(cross.mated, cross.non_mated, orientation, MODE_CROSSKEY)
    assert min(c.thresholds.size for c in (accuracy, rtmr, det)) > 512
    assert det_svg([result.accuracy, result.det]) == det_svg([accuracy, det])
    assert det_svg([result.accuracy, result.rtmr]) == det_svg([accuracy, rtmr])
