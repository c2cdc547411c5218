import json

from unlinkeval.baselines import det_curve
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
