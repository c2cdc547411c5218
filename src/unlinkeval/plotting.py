"""Deterministic SVG rendering of evaluation results.

No plotting dependency: the figures the reports need are simple enough to
emit directly, and hand-built SVG is byte-stable across runs, which the
golden/determinism tests rely on.  Every figure embeds the exact JSON data
it was drawn from in a <metadata> block, so a reader can recover the
numbers from the image file alone.
"""

from __future__ import annotations

import json
from dataclasses import replace

from .baselines import DRAWN_POINTS, sweep_indices

_WIDTH = 720
_HEIGHT = 480
_MARGIN_L = 64
_MARGIN_R = 64
_MARGIN_T = 48
_MARGIN_B = 48

_COL_MATED = "#2a7f3f"
_COL_NON_MATED = "#c23b22"
_COL_LOCAL = "#1f77b4"
_COL_BOUNDARY = "#777777"
_COL_TEXT = "#222222"
_FONT = "font-family=\"Helvetica,Arial,sans-serif\""


def _fmt(x: float) -> str:
    return f"{x:.2f}"


class _Frame:
    """Maps data coordinates onto the fixed plot rectangle."""

    def __init__(self, x_min, x_max, y_min, y_max):
        if x_max <= x_min:
            x_max = x_min + 1.0
        if y_max <= y_min:
            y_max = y_min + 1.0
        self.x_min, self.x_max = x_min, x_max
        self.y_min, self.y_max = y_min, y_max
        self.px_left = _MARGIN_L
        self.px_right = _WIDTH - _MARGIN_R
        self.px_top = _MARGIN_T
        self.px_bottom = _HEIGHT - _MARGIN_B

    def x(self, v: float) -> float:
        span = self.x_max - self.x_min
        return self.px_left + (v - self.x_min) / span * (self.px_right - self.px_left)

    def y(self, v: float) -> float:
        span = self.y_max - self.y_min
        return self.px_bottom - (v - self.y_min) / span * (self.px_bottom - self.px_top)

    def polyline(self, xs, ys, color, dash=None, width=1.5) -> str:
        points = " ".join(f"{_fmt(self.x(a))},{_fmt(self.y(b))}" for a, b in zip(xs, ys))
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        return (
            f'<polyline fill="none" stroke="{color}" stroke-width="{width}"'
            f'{dash_attr} points="{points}"/>'
        )

    def frame_rect(self) -> str:
        return (
            f'<rect x="{self.px_left}" y="{self.px_top}" '
            f'width="{self.px_right - self.px_left}" height="{self.px_bottom - self.px_top}" '
            f'fill="none" stroke="#999999" stroke-width="1"/>'
        )

    def x_ticks(self, n=6) -> str:
        parts = []
        for i in range(n):
            v = self.x_min + (self.x_max - self.x_min) * i / (n - 1)
            px = self.x(v)
            parts.append(
                f'<line x1="{_fmt(px)}" y1="{self.px_bottom}" x2="{_fmt(px)}" y2="{self.px_bottom + 4}" stroke="#999999"/>'
            )
            parts.append(
                f'<text x="{_fmt(px)}" y="{self.px_bottom + 18}" text-anchor="middle" '
                f'font-size="11" fill="{_COL_TEXT}" {_FONT}>{v:.3g}</text>'
            )
        return "\n".join(parts)

    def y_ticks(self, n=5, side="left", fmt="{:.3g}") -> str:
        parts = []
        px = self.px_left if side == "left" else self.px_right
        anchor = "end" if side == "left" else "start"
        offset = -8 if side == "left" else 8
        for i in range(n):
            v = self.y_min + (self.y_max - self.y_min) * i / (n - 1)
            py = self.y(v)
            parts.append(
                f'<line x1="{px}" y1="{_fmt(py)}" x2="{px + (4 if side == "right" else -4)}" y2="{_fmt(py)}" stroke="#999999"/>'
            )
            parts.append(
                f'<text x="{px + offset}" y="{_fmt(py + 4)}" text-anchor="{anchor}" '
                f'font-size="11" fill="{_COL_TEXT}" {_FONT}>{fmt.format(v)}</text>'
            )
        return "\n".join(parts)


def _document(title: str, body: list, metadata: dict) -> str:
    blob = json.dumps(metadata, sort_keys=True)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f"<metadata><![CDATA[{blob}]]></metadata>",
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
        f'<text x="{_WIDTH // 2}" y="28" text-anchor="middle" font-size="15" '
        f'fill="{_COL_TEXT}" {_FONT}>{title}</text>',
    ]
    parts.extend(body)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _step_points(edges, values):
    xs, ys = [], []
    for i, v in enumerate(values):
        xs.extend([edges[i], edges[i + 1]])
        ys.extend([v, v])
    return xs, ys


def _label(x, y, text, color) -> str:
    return (
        f'<rect x="{_fmt(x - 4)}" y="{_fmt(y - 11)}" width="{len(text) * 7 + 8}" height="15" fill="#ffffff" opacity="0.8"/>'
        f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="12" fill="{color}" {_FONT}>{text}</text>'
    )


def linkability_svg(densities: dict, profile: dict, title_prefix: str = "") -> str:
    """Density pair, local-measure curve, and decision boundaries in one figure.

    Takes the JSON dict forms so the embedded metadata matches the report
    byte-for-byte.  The local measure uses the right-hand [0, 1] axis.
    """
    edges = densities["edges"]
    p_m = densities["p_mated"]
    p_nm = densities["p_non_mated"]
    d_local = profile["d_local"]
    d_sys = profile["d_sys"]
    boundaries = profile.get("boundary_scores", [])

    y_max = max(max(p_m), max(p_nm), 1e-12) * 1.08
    frame = _Frame(edges[0], edges[-1], 0.0, y_max)
    local_frame = _Frame(edges[0], edges[-1], 0.0, 1.0)

    body = [frame.frame_rect(), frame.x_ticks(), frame.y_ticks(side="left")]
    body.append(local_frame.y_ticks(side="right", fmt="{:.2f}"))
    for b in boundaries:
        px = _fmt(frame.x(b))
        body.append(
            f'<line x1="{px}" y1="{frame.px_top}" x2="{px}" y2="{frame.px_bottom}" '
            f'stroke="{_COL_BOUNDARY}" stroke-width="1" stroke-dasharray="6,4"/>'
        )
    xs, ys = _step_points(edges, p_m)
    body.append(frame.polyline(xs, ys, _COL_MATED))
    xs, ys = _step_points(edges, p_nm)
    body.append(frame.polyline(xs, ys, _COL_NON_MATED, dash="8,4"))
    xs, ys = _step_points(edges, d_local)
    body.append(local_frame.polyline(xs, ys, _COL_LOCAL, width=2.0))

    body.append(_label(_MARGIN_L + 10, _MARGIN_T + 18, "mated", _COL_MATED))
    body.append(_label(_MARGIN_L + 10, _MARGIN_T + 34, "non-mated", _COL_NON_MATED))
    body.append(_label(_MARGIN_L + 10, _MARGIN_T + 50, "local measure", _COL_LOCAL))
    body.append(
        f'<text x="{_WIDTH // 2}" y="{_HEIGHT - 10}" text-anchor="middle" font-size="12" '
        f'fill="{_COL_TEXT}" {_FONT}>linkage score</text>'
    )
    title = f"D_sys = {d_sys:.4f}"
    if title_prefix:
        title = f"{title_prefix}: {title}"
    return _document(title, body, {"densities": densities, "profile": profile})


def _thin(curve, limit: int = DRAWN_POINTS):
    """The curve at `limit` evenly spaced sweep points, ends included."""
    n = curve.thresholds.size
    if n <= limit:
        return curve
    keep = sweep_indices(n, limit)
    return replace(curve, thresholds=curve.thresholds[keep], fmr=curve.fmr[keep], fnmr=curve.fnmr[keep])


def det_svg(curves: list, title: str = "detection error trade-off") -> str:
    """Overlayed DET curves (baselines.DetCurve), raw linear rates.

    A curve of more than baselines.DRAWN_POINTS thresholds is drawn at that
    many evenly spaced points of its sweep (baselines.sweep_indices), ends
    included; the metadata block mirrors exactly what is drawn.  A curve
    that det_curve kept at those points already (as protocol.assess's
    are) is drawn as it is, so it gives the same bytes as its full sweep.
    """
    curves = [_thin(c).to_json_dict() for c in curves]
    frame = _Frame(0.0, 1.0, 0.0, 1.0)
    palette = [_COL_NON_MATED, _COL_MATED, _COL_LOCAL, "#9467bd"]
    body = [frame.frame_rect(), frame.x_ticks(), frame.y_ticks(side="left", fmt="{:.2f}")]
    for i, curve in enumerate(curves):
        color = palette[i % len(palette)]
        dash = None if i == 0 else ("8,4" if i == 1 else "3,3")
        body.append(frame.polyline(curve["fmr"], curve["fnmr"], color, dash=dash))
        label = f'{curve["mode"]} (eer={curve["eer"]:.4f})'
        body.append(_label(_MARGIN_L + 10, _MARGIN_T + 18 + 16 * i, label, color))
    body.append(
        f'<text x="{_WIDTH // 2}" y="{_HEIGHT - 10}" text-anchor="middle" font-size="12" '
        f'fill="{_COL_TEXT}" {_FONT}>match-side rate</text>'
    )
    return _document(title, body, {"curves": curves})
