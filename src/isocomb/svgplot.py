"""Deterministic SVG rendering of labeled planar curves and spherical links."""

from __future__ import annotations

import numpy as np

from .errors import EmptyInput
from .tolerances import SVG_SPAN_FLOOR

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
VIEW_W = 640.0
MARGIN_FRAC = 0.05


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def render_svg(curves) -> str:
    """SVG 1.1 document with one closed polyline per labeled curve.

    ``curves`` is a list of (label, vertices) with vertices of shape (n, 2)
    for planar curves or (n, 3) for spherical links, which are projected
    orthographically onto the (x1, x2) plane.  The viewport is fitted to
    the joint bounding box with a 5% margin; output is byte-deterministic.

    Raises:
        EmptyInput: no curves, or a curve without vertices.
    """
    if not curves:
        raise EmptyInput("nothing to draw")
    flat = []
    for label, verts in curves:
        v = np.asarray(verts, dtype=float)
        if v.ndim != 2 or len(v) == 0:
            raise EmptyInput(f"curve {label!r} has no vertices")
        flat.append((str(label), v[:, 1:3] if v.shape[1] == 3 else v[:, :2]))

    allpts = np.vstack([v for _, v in flat])
    lo = allpts.min(axis=0)
    hi = allpts.max(axis=0)
    span = np.maximum(hi - lo, SVG_SPAN_FLOOR)
    pad = MARGIN_FRAC * float(max(span))
    lo = lo - pad
    hi = hi + pad
    scale = VIEW_W / float(hi[0] - lo[0])
    height = float(hi[1] - lo[1]) * scale

    def to_px(v: np.ndarray) -> np.ndarray:
        out = np.empty_like(v)
        out[:, 0] = (v[:, 0] - lo[0]) * scale
        out[:, 1] = (hi[1] - v[:, 1]) * scale   # flip: SVG y points down
        return out

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(VIEW_W)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(VIEW_W)} {_fmt(height)}">',
        '<rect width="100%" height="100%" fill="#ffffff"/>',
    ]
    for i, (label, v) in enumerate(flat):
        color = PALETTE[i % len(PALETTE)]
        px = to_px(np.vstack([v, v[:1]]))
        points = " ".join(f"{_fmt(p[0])},{_fmt(p[1])}" for p in px)
        lines.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
    for i, (label, _) in enumerate(flat):
        color = PALETTE[i % len(PALETTE)]
        y = 16.0 + 16.0 * i
        lines.append(
            f'<line x1="8" y1="{_fmt(y - 4)}" x2="28" y2="{_fmt(y - 4)}" '
            f'stroke="{color}" stroke-width="3"/>'
        )
        lines.append(
            f'<text x="34" y="{_fmt(y)}" font-family="monospace" font-size="12">{label}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
