"""Static environment, local sensing and placement checks.

The workspace keeps two views of the obstacle set: the exact primitive shapes
(used for collision checks and clearance queries) and a rasterized occupancy
grid (used by the potential solver), made from each cell center's signed
distance to the nearest shape, which the passage audit reads too. The
shapes' numbers are also stacked by kind once, so a clearance query
measures every box, and every ball, in one broadcast. Boundary cells are
the obstacle cells of the raster that touch free space along a grid axis.

A set of grid cells is a boolean array of the grid's shape. A batch of cells
in transit (what one sensing call sees) is that array's index rows, in the C
order of `np.argwhere`.

No float reduction in the arithmetic of any output goes through BLAS
(`dot`, `@`, `matmul`, `inner`, a 1-D `np.linalg.norm`): BLAS picks its
kernel by CPU, and a kernel that fuses multiply-adds rounds differently.
Lengths are `axis_norms`, or the same left-to-right sum of squares in
Python floats. A product of integer-valued floats, such as a flat cell
index, is exact in any order and may use BLAS.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


class ConfigError(ValueError):
    """Invalid workspace, agent, or scenario configuration."""


def require_finite(owner: str, **values) -> None:
    """Raise ConfigError unless every given value (a number or a sequence of
    numbers; None is skipped) is finite. An overflowing literal such as 1e999
    parses to infinity, which no comparison-based range check rejects."""
    for name, value in values.items():
        if value is None:
            continue
        try:
            if isinstance(value, np.ndarray):
                finite = all(map(math.isfinite, value.ravel().tolist()))
            elif isinstance(value, (tuple, list)):
                finite = all(map(math.isfinite, value))
            else:
                finite = math.isfinite(value)
        except TypeError:
            raise ConfigError(f"{owner}: {name} must be numeric, got {value!r}") from None
        if not finite:
            raise ConfigError(f"{owner}: {name} must be finite, got {value}")


# ---------------------------------------------------------------------------
# Obstacle primitives
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Box:
    """Axis-aligned box. Coordinates in world units."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ConfigError("box corners must have equal dimension")
        require_finite("box", lo=self.lo, hi=self.hi)
        if any(a >= b for a, b in zip(self.lo, self.hi)):
            raise ConfigError(f"degenerate box {self.lo}..{self.hi}")

    @property
    def bbox(self):
        return np.asarray(self.lo, float), np.asarray(self.hi, float)

    def signed_distance(self, points):
        """Signed distance from points (..., dim); negative inside."""
        return _box_distance(np.asarray(points, float), *self.bbox)


@dataclass(frozen=True)
class Ball:
    """Disc (2-D) or sphere (3-D)."""

    center: tuple[float, ...]
    radius: float

    def __post_init__(self):
        require_finite("ball", center=self.center, radius=self.radius)
        if self.radius <= 0:
            raise ConfigError(f"ball radius must be positive, got {self.radius}")

    @property
    def bbox(self):
        c = np.asarray(self.center, float)
        return c - self.radius, c + self.radius

    def signed_distance(self, points):
        """Signed distance from points (..., dim); negative inside."""
        return _ball_distance(np.asarray(points, float), np.asarray(self.center, float),
                              self.radius)


Shape = Box | Ball


def _box_distance(p, lo, hi):
    """Signed distance from points p to the boxes lo..hi, broadcast over
    their leading axes (the coordinates on the last)."""
    q = np.maximum(lo - p, p - hi)
    outside = axis_norms(np.maximum(q, 0.0))
    inside = np.minimum(q.max(axis=-1), 0.0)
    return outside + inside


def _ball_distance(p, center, radius):
    """Signed distance from points p to the balls, broadcast like `_box_distance`."""
    return axis_norms(p - center) - radius


# ---------------------------------------------------------------------------
# Grid geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Uniform cell grid: cell (i, j, ...) has its center at origin + (idx + 0.5) * h."""

    origin: tuple
    h: float
    shape: tuple

    @property
    def dim(self):
        return len(self.shape)

    def cell_centers(self, idx_array):
        """Centers for an (N, dim) integer index array."""
        return np.asarray(self.origin, float) + (np.asarray(idx_array, float) + 0.5) * self.h

    def point_to_cell(self, x):
        """Index of the cell containing x, clipped to the grid."""
        rel = (np.asarray(x, float) - np.asarray(self.origin, float)) / self.h
        idx = np.floor(rel).astype(int)
        return tuple(np.clip(idx, 0, np.asarray(self.shape) - 1))

    def contains(self, x):
        x = np.asarray(x, float)
        lo = np.asarray(self.origin, float)
        hi = lo + np.asarray(self.shape, float) * self.h
        return bool(np.all(x >= lo) and np.all(x <= hi))


def _along(axis: int, index) -> tuple:
    """An index tuple that applies `index` to one axis and keeps the others whole."""
    return (slice(None),) * axis + (index,)


def _window_any(mask, w: int, axis: int) -> np.ndarray:
    """The cells of a boolean mask with a masked cell within w cells along
    one axis (a 1-D dilation by 2w + 1 cells; none outside the grid), from
    window counts: the running count of masked cells, padded by w + 1 zeros
    in front and by its total behind, read 2w + 1 apart."""
    n = mask.shape[axis]
    shape = list(mask.shape)
    shape[axis] = n + 2 * w + 1
    counts = np.zeros(shape, dtype=np.int32)
    np.cumsum(mask, axis=axis, dtype=np.int32, out=counts[_along(axis, slice(w + 1, w + 1 + n))])
    counts[_along(axis, slice(w + 1 + n, None))] = counts[_along(axis, slice(w + n, w + n + 1))]
    return counts[_along(axis, slice(2 * w + 1, None))] > counts[_along(axis, slice(0, n))]


def _shifted_or(out, src, offset) -> None:
    """out[x] |= src[x - offset] for every cell x whose source lies on the grid."""
    dst_sl, src_sl = [], []
    for o, n in zip(offset, src.shape):
        if abs(o) >= n:
            return
        dst_sl.append(slice(max(o, 0), n + min(o, 0)))
        src_sl.append(slice(max(-o, 0), n - max(o, 0)))
    out[tuple(dst_sl)] |= src[tuple(src_sl)]


@functools.lru_cache(maxsize=16)
def disk(radius: float, h: float, dim: int) -> np.ndarray:
    """The cell offsets within euclidean distance `radius`, as a read-only
    boolean (2k + 1)^dim footprint centered on k = floor(radius / h) (with a
    1e-9 allowance on both tests). Made once per (radius, h, dim)."""
    reach = int(np.floor(radius / h + 1e-9))
    offsets = np.indices((2 * reach + 1,) * dim) - reach
    footprint = np.sqrt((offsets * offsets).sum(axis=0)) * h <= radius + 1e-9
    footprint.flags.writeable = False
    return footprint


def dilate(mask, footprint) -> np.ndarray:
    """Binary dilation of a boolean mask by a footprint centered on its
    middle cell and symmetric about it, such as `disk`'s; cells off the grid
    count as clear.

    Each row of the footprint along the last axis is a run of cells centered
    on that axis, so the dilation is decomposed by rows: the mask is dilated
    along the last axis once per run length (`_window_any`), and each row
    ORs its run's dilation into the result, shifted by the row's offset."""
    k = np.asarray(footprint.shape[:-1]) // 2
    runs = footprint.sum(axis=-1)
    lines = {}    # half-width -> the mask dilated along the last axis
    out = np.zeros(mask.shape, dtype=bool)
    for row in np.ndindex(runs.shape):
        if not runs[row]:
            continue
        w = int(runs[row]) // 2
        if w not in lines:
            lines[w] = _window_any(mask, w, mask.ndim - 1)
        _shifted_or(out, lines[w], tuple((np.asarray(row) - k).tolist()) + (0,))
    return out


def reach_dilation(mask, h: float, reach: float) -> np.ndarray:
    """The cells of a boolean grid mask dilated in the Chebyshev sense by
    k = ceil(reach / h) + 1 cells.

    A point in a cell m cells away from a masked cell (along some axis) is at
    least (m - 1) h from that cell's box, so a point outside the dilation is
    at least k h >= reach + h from every masked box, and farther still from
    its center. The extra ring of cells covers the floor rounding at cell
    faces and keeps a float test against reach well clear of its boundary.
    A box is separable: one window count per axis (`_window_any`).
    """
    k = math.ceil(reach / h) + 1
    out = np.asarray(mask, dtype=bool)
    for axis in range(out.ndim):
        out = _window_any(out, k, axis)
    return out


# ---------------------------------------------------------------------------
# Workspace
# ---------------------------------------------------------------------------

class Workspace:
    """Bounded environment with primitive obstacles and their rasterization."""

    def __init__(self, lo, hi, obstacles=(), h=0.25):
        self.lo = np.asarray(lo, float)
        self.hi = np.asarray(hi, float)
        self.dim = self.lo.size
        if self.dim not in (2, 3):
            raise ConfigError(f"workspace dimension must be 2 or 3, got {self.dim}")
        require_finite("workspace", lo=self.lo, hi=self.hi, h=h)
        if self.hi.size != self.dim or np.any(self.hi <= self.lo):
            raise ConfigError("workspace bounds must satisfy lo < hi per axis")
        if h <= 0:
            raise ConfigError(f"grid resolution must be positive, got {h}")
        self.h = float(h)
        self.obstacles = list(obstacles)

        extents = self.hi - self.lo
        shape = np.round(extents / self.h).astype(int)
        mismatch = np.abs(shape * self.h - extents)
        if np.any(mismatch > 1e-6 * np.maximum(extents, 1.0)):
            raise ConfigError(f"grid resolution {self.h} must evenly divide workspace "
                              f"extents {tuple(extents.tolist())}")
        if np.any(shape < 3):
            raise ConfigError(f"workspace extents {tuple(extents.tolist())} must span at least "
                              f"3 grid cells of {self.h} per axis, got {tuple(shape.tolist())}")
        self.grid = GridSpec(tuple(self.lo), self.h, tuple(int(n) for n in shape))

        for ob in self.obstacles:
            blo, bhi = ob.bbox
            if blo.size != self.dim:
                raise ConfigError(f"obstacle dimension {blo.size} != workspace dimension {self.dim}")
            if np.any(blo < self.lo - 1e-9) or np.any(bhi > self.hi + 1e-9):
                raise ConfigError(f"obstacle {ob} extends outside workspace bounds")
        # the shapes' numbers stacked by kind, made once: every clearance
        # query measures all shapes of a kind in one broadcast
        boxes = [ob for ob in self.obstacles if isinstance(ob, Box)]
        balls = [ob for ob in self.obstacles if isinstance(ob, Ball)]
        self._boxes = None if not boxes else (np.array([b.lo for b in boxes], float),
                                              np.array([b.hi for b in boxes], float))
        self._balls = None if not balls else (np.array([b.center for b in balls], float),
                                              np.array([b.radius for b in balls], float))

        self._rasterize()
        if not np.any(self.free_mask):
            raise ConfigError("workspace has no free space")

    def _rasterize(self):
        # each cell center's signed distance to the nearest shape (inf with
        # none), measured once: the raster and the passage audit read it
        self.center_clearance = np.full(self.grid.shape, np.inf)
        if self.obstacles:
            axes = [self.lo[k] + (np.arange(n) + 0.5) * self.h
                    for k, n in enumerate(self.grid.shape)]
            centers = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
            for ob in self.obstacles:
                np.minimum(self.center_clearance, ob.signed_distance(centers),
                           out=self.center_clearance)
        occupied = self.center_clearance <= 0.0
        self.free_mask = ~occupied

        # the occupied cells among the free cells' axis neighbors; an empty
        # raster has none and skips the shifts
        self.boundary_mask = np.zeros_like(occupied)
        if occupied.any():
            touches_free = np.zeros_like(occupied)
            for axis in range(self.dim):
                for step in (-1, 1):
                    _shifted_or(touches_free, self.free_mask,
                                tuple(step if a == axis else 0 for a in range(self.dim)))
            self.boundary_mask = occupied & touches_free
        # the boundary cells' index rows and centers, for sensing
        self._boundary_idx = np.argwhere(self.boundary_mask)
        self._boundary_centers = self.grid.cell_centers(self._boundary_idx)
        self._near_boundary = {}    # reach -> the boundary's reach_dilation, flat bytes
        self._axes = tuple(zip(self.lo.tolist(), self.hi.tolist(), self.grid.shape))

    # -- queries ------------------------------------------------------------

    def obstacle_clearance(self, points):
        """Signed distance from points (..., dim) to the nearest obstacle
        shape (inf if none): each kind of shape is measured in one broadcast
        over (points, shapes), with each shape's `signed_distance`
        arithmetic, and the nearest is the smallest."""
        p = np.asarray(points, float)
        if not self.obstacles:
            return np.full(p.shape[:-1], np.inf) if p.ndim > 1 else np.inf
        each = p[..., None, :]
        d = None
        if self._boxes is not None:
            d = _box_distance(each, *self._boxes).min(axis=-1)
        if self._balls is not None:
            b = _ball_distance(each, *self._balls).min(axis=-1)
            d = b if d is None else np.minimum(d, b)
        return d

    def bounds_clearance(self, points):
        """Distance from points to the nearest workspace face (negative outside)."""
        p = np.asarray(points, float)
        d = np.minimum((p - self.lo).min(axis=-1), (self.hi - p).min(axis=-1))
        return d


# ---------------------------------------------------------------------------
# Sensing
# ---------------------------------------------------------------------------

def sense_obstacles(agent, x, ws: Workspace) -> np.ndarray:
    """Index rows, in C order, of the boundary cells whose centers fall in the
    sensing ring of the agent (a `scenarios.AgentSpec`: its radius and reach)
    centered at position x (floats, or an array): (k, dim), k = 0 when the
    ring holds none. Only an agent whose cell lies in the boundary's
    `reach_dilation` measures its distance to the boundary cells."""
    at = 0  # the flat C-order index of the agent's cell
    for xk, (lo, hi, n) in zip(x, ws._axes):
        if not lo <= xk <= hi:
            raise ConfigError(f"agent {agent.id} at {x} is outside the workspace")
        at = at * n + min(int((xk - lo) / ws.h), n - 1)
    near = ws._near_boundary.get(agent.reach)
    if near is None:
        near = reach_dilation(ws.boundary_mask, ws.h, agent.reach).tobytes()
        ws._near_boundary[agent.reach] = near
    if not near[at]:  # no boundary cell center lies within reach
        return ws._boundary_idx[:0]
    d = np.linalg.norm(ws._boundary_centers - x, axis=1)
    hit = (d > agent.radius) & (d <= agent.reach)
    return ws._boundary_idx[hit]


def passage_width_audit(ws: Workspace, radius: float) -> np.ndarray:
    """Mask of the free cells with no nearby disc of the given radius clear
    of all obstacles.

    For each free cell center x the check is: does some cell center x_c within
    `radius` of x have obstacle clearance >= radius?  Obstacle shapes only; the
    outer bounds do not count against the disc.  A flagged cell marks a
    passage too tight for the two largest agents to resolve a conflict in.
    The centers within `radius` are the `disk` footprint, so the free cells
    that pass are the dilation by it of the cells whose `center_clearance`
    fits the disc.
    """
    if radius <= 0:
        raise ConfigError(f"passage audit radius must be positive, got {radius}")
    if not ws.obstacles:
        return np.zeros(ws.grid.shape, dtype=bool)
    fits = ws.center_clearance >= radius
    return ws.free_mask & ~dilate(fits, disk(float(radius), ws.h, ws.dim))


def validate_scenario(ws: Workspace, agents) -> list:
    """All start/goal placement violations of the agents (`scenarios.AgentSpec`s)
    in the workspace, as human-readable strings. Empty means ok."""
    violations = []
    tol = 1e-9
    for a in agents:
        start = np.asarray(a.start, float)
        if ws.bounds_clearance(start) < a.radius - tol:
            violations.append(f"agent {a.id}: body extends outside workspace bounds")
        if ws.obstacles and ws.obstacle_clearance(start) < a.radius - tol:
            violations.append(f"agent {a.id}: body overlaps an obstacle")
        if a.goal is not None:
            if ws.bounds_clearance(a.goal) < a.target_radius - tol:
                violations.append(f"agent {a.id}: unattainable target (outside bounds)")
            if ws.obstacles and ws.obstacle_clearance(a.goal) < a.target_radius - tol:
                violations.append(f"agent {a.id}: unattainable target (inside an obstacle)")
    if len(agents) < 2:
        return violations
    # every pair at once; an agent without a goal gets NaN, which conflicts with nothing
    i, j = np.triu_indices(len(agents), k=1)
    x = np.array([a.start for a in agents], float)
    radius = np.array([a.radius for a in agents])
    goal = np.array([np.full(x.shape[1], np.nan) if a.goal is None else a.goal
                     for a in agents], float)
    r_target = np.array([np.nan if a.goal is None else a.target_radius for a in agents])
    overlap = axis_norms(x[i] - x[j]) < radius[i] + radius[j] - tol
    conflict = axis_norms(goal[i] - goal[j]) < r_target[i] + r_target[j] - tol
    for k in np.flatnonzero(overlap | conflict):
        a, b = agents[i[k]], agents[j[k]]
        if overlap[k]:
            violations.append(f"agents {a.id},{b.id}: bodies overlap at start")
        if conflict[k]:
            violations.append(f"agents {a.id},{b.id}: conflicting targets")
    return violations


def axis_norms(v):
    """Euclidean length along the last axis of v (dim 2 or more), with the
    bits of `np.linalg.norm(v, axis=-1)`: the squares added left to right,
    without the wrapper's cost."""
    sq = v * v
    s = sq[..., 0] + sq[..., 1]
    for a in range(2, sq.shape[-1]):
        s += sq[..., a]
    return np.sqrt(s)
