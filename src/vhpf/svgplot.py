"""Standalone SVG rendering of a run: workspace, trajectories, start/goal marks.

Hand-emitted shapes and polylines, no plotting dependency. Output bytes are a
pure function of the inputs, so identical runs produce identical files. 3-D
trajectories are projected onto the first two axes.
"""

from __future__ import annotations

import numpy as np

PALETTE = (
    "#1f6fb2", "#d1495b", "#2e8b57", "#b8860b",
    "#6a4c93", "#00798c", "#c76b29", "#5b5b5b",
)

_CANVAS = 640.0
_MARGIN = 48.0


def _fmt(v: float) -> str:
    return f"{v:.3f}"


class _Mapper:
    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, float)[:2]
        self.hi = np.asarray(hi, float)[:2]
        span = self.hi - self.lo
        self.scale = (_CANVAS - 2 * _MARGIN) / float(span.max())
        self.width = span[0] * self.scale + 2 * _MARGIN
        self.height = span[1] * self.scale + 2 * _MARGIN

    def to_px(self, p):
        """Pixel coordinates (x, y) of a point, or arrays of them for (T, dim) points."""
        p = np.asarray(p, float)
        x = _MARGIN + (p[..., 0] - self.lo[0]) * self.scale
        y = self.height - _MARGIN - (p[..., 1] - self.lo[1]) * self.scale
        return x, y


def color_for(agent_id: int) -> str:
    return PALETTE[agent_id % len(PALETTE)]


def render(ws_lo, ws_hi, obstacles, trajectories, bodies, out_path):
    """Write the scene to out_path.

    obstacles: iterable of dicts {kind: box, lo, hi} or {kind: ball, center, radius}.
    trajectories: {agent_id: (T, dim) array}; bodies: {agent_id: {radius, start, goal}}.
    """
    m = _Mapper(ws_lo, ws_hi)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(m.width)}" '
        f'height="{_fmt(m.height)}" viewBox="0 0 {_fmt(m.width)} {_fmt(m.height)}">',
        f'<rect x="0" y="0" width="{_fmt(m.width)}" height="{_fmt(m.height)}" fill="#ffffff"/>',
    ]
    x0, y0 = m.to_px(ws_lo)
    x1, y1 = m.to_px(ws_hi)
    parts.append(
        f'<rect x="{_fmt(min(x0, x1))}" y="{_fmt(min(y0, y1))}" '
        f'width="{_fmt(abs(x1 - x0))}" height="{_fmt(abs(y1 - y0))}" '
        f'fill="none" stroke="#333333" stroke-width="1.5"/>'
    )
    for ob in obstacles:
        if ob["kind"] == "box":
            ax, ay = m.to_px(ob["lo"])
            bx, by = m.to_px(ob["hi"])
            parts.append(
                f'<rect x="{_fmt(min(ax, bx))}" y="{_fmt(min(ay, by))}" '
                f'width="{_fmt(abs(bx - ax))}" height="{_fmt(abs(by - ay))}" '
                f'fill="#c8c8c8" stroke="#777777" stroke-width="0.8"/>'
            )
        else:
            cx, cy = m.to_px(ob["center"])
            parts.append(
                f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(ob["radius"] * m.scale)}" '
                f'fill="#c8c8c8" stroke="#777777" stroke-width="0.8"/>'
            )
    for aid in sorted(trajectories):
        color = color_for(aid)
        pts = np.asarray(trajectories[aid], float)
        if len(pts):
            xs, ys = m.to_px(pts)
            # one %-format over all points; "%.3f" formats like _fmt
            flat = np.column_stack([xs, ys]).ravel().tolist()
            coords = " ".join(["%.3f,%.3f"] * len(pts)) % tuple(flat)
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.2"/>'
            )
        info = bodies.get(aid, {})
        start = info.get("start")
        if start is None and len(pts):
            start = pts[0]
        if start is not None:
            sx, sy = m.to_px(start)
            parts.append(f'<circle cx="{_fmt(sx)}" cy="{_fmt(sy)}" r="3" fill="{color}"/>')
        goal = info.get("goal")
        if goal is not None:
            gx, gy = m.to_px(goal)
            parts.append(
                f'<path d="M {_fmt(gx - 5)} {_fmt(gy)} H {_fmt(gx + 5)} '
                f'M {_fmt(gx)} {_fmt(gy - 5)} V {_fmt(gy + 5)}" '
                f'stroke="{color}" stroke-width="1.5" fill="none"/>'
            )
        radius = info.get("radius")
        if radius is not None and len(pts):
            fx, fy = m.to_px(pts[-1])
            parts.append(
                f'<circle cx="{_fmt(fx)}" cy="{_fmt(fy)}" r="{_fmt(radius * m.scale)}" '
                f'fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
    parts.append(
        f'<text x="{_fmt(_MARGIN)}" y="{_fmt(m.height - 12.0)}" font-size="11" '
        f'fill="#555555" font-family="monospace">scale: 1 world unit = {m.scale:.4g} px</text>'
    )
    parts.append("</svg>")
    with open(out_path, "w", encoding="utf-8") as f:
        f.write("\n".join(parts) + "\n")
