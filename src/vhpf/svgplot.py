"""Standalone SVG rendering of a run: workspace, trajectories, start/goal marks.

Hand-emitted shapes and polylines, no plotting dependency. Output bytes are a
pure function of the inputs, so identical runs produce identical files. 3-D
trajectories are projected onto the first two axes.
"""

from __future__ import annotations

import numpy as np

from .world import Box

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


def render(ws_lo, ws_hi, obstacles, trajectories, agents, out_path):
    """Write the scene to out_path, one line per element as it is made.

    obstacles: iterable of `world.Box` and `world.Ball` shapes.
    trajectories: {agent_id: (T, dim) array}; agents: `scenarios.AgentSpec`s,
    whose start, goal and body radius are marked. A track whose id has no
    agent starts at its first point and gets no goal or body mark.
    """
    with open(out_path, "w", encoding="utf-8") as f:
        for line in _lines(ws_lo, ws_hi, obstacles, trajectories, agents):
            f.write(line + "\n")


def _lines(ws_lo, ws_hi, obstacles, trajectories, agents):
    """The SVG document's lines, one element each."""
    by_id = {a.id: a for a in agents}
    m = _Mapper(ws_lo, ws_hi)
    yield '<?xml version="1.0" encoding="UTF-8"?>'
    yield (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(m.width)}" '
           f'height="{_fmt(m.height)}" viewBox="0 0 {_fmt(m.width)} {_fmt(m.height)}">')
    yield f'<rect x="0" y="0" width="{_fmt(m.width)}" height="{_fmt(m.height)}" fill="#ffffff"/>'
    x0, y0 = m.to_px(ws_lo)
    x1, y1 = m.to_px(ws_hi)
    yield (
        f'<rect x="{_fmt(min(x0, x1))}" y="{_fmt(min(y0, y1))}" '
        f'width="{_fmt(abs(x1 - x0))}" height="{_fmt(abs(y1 - y0))}" '
        f'fill="none" stroke="#333333" stroke-width="1.5"/>'
    )
    for ob in obstacles:
        if isinstance(ob, Box):
            ax, ay = m.to_px(ob.lo)
            bx, by = m.to_px(ob.hi)
            yield (
                f'<rect x="{_fmt(min(ax, bx))}" y="{_fmt(min(ay, by))}" '
                f'width="{_fmt(abs(bx - ax))}" height="{_fmt(abs(by - ay))}" '
                f'fill="#c8c8c8" stroke="#777777" stroke-width="0.8"/>'
            )
        else:
            cx, cy = m.to_px(ob.center)
            yield (
                f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(ob.radius * m.scale)}" '
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
            yield f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.2"/>'
        agent = by_id.get(aid)
        start = agent.start if agent is not None else (pts[0] if len(pts) else None)
        if start is not None:
            sx, sy = m.to_px(start)
            yield f'<circle cx="{_fmt(sx)}" cy="{_fmt(sy)}" r="3" fill="{color}"/>'
        goal = agent.goal if agent is not None else None
        if goal is not None:
            gx, gy = m.to_px(goal)
            yield (
                f'<path d="M {_fmt(gx - 5)} {_fmt(gy)} H {_fmt(gx + 5)} '
                f'M {_fmt(gx)} {_fmt(gy - 5)} V {_fmt(gy + 5)}" '
                f'stroke="{color}" stroke-width="1.5" fill="none"/>'
            )
        if agent is not None and len(pts):
            fx, fy = m.to_px(pts[-1])
            yield (
                f'<circle cx="{_fmt(fx)}" cy="{_fmt(fy)}" r="{_fmt(agent.radius * m.scale)}" '
                f'fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
    yield (
        f'<text x="{_fmt(_MARGIN)}" y="{_fmt(m.height - 12.0)}" font-size="11" '
        f'fill="#555555" font-family="monospace">scale: 1 world unit = {m.scale:.4g} px</text>'
    )
    yield "</svg>"
