"""Static environment, agent geometry, local sensing, and discovery bookkeeping.

The workspace keeps two views of the obstacle set: the exact primitive shapes
(used for collision checks and clearance queries) and a rasterized occupancy
grid (used by the potential solver). Boundary cells are the obstacle cells of
the raster that touch free space along a grid axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree


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

    lo: tuple
    hi: tuple

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ConfigError("box corners must have equal dimension")
        if any(a >= b for a, b in zip(self.lo, self.hi)):
            raise ConfigError(f"degenerate box {self.lo}..{self.hi}")
        # the corners as arrays, made once: every audited tick measures against them
        corners = (np.asarray(self.lo, float), np.asarray(self.hi, float))
        for c in corners:
            c.flags.writeable = False
        object.__setattr__(self, "_corners", corners)

    @property
    def bbox(self):
        return self._corners[0].copy(), self._corners[1].copy()

    def signed_distance(self, points):
        """Signed distance from points (..., dim); negative inside."""
        p = np.asarray(points, float)
        lo, hi = self._corners
        q = np.maximum(lo - p, p - hi)
        outside = axis_norms(np.maximum(q, 0.0))
        inside = np.minimum(q.max(axis=-1), 0.0)
        return outside + inside


@dataclass(frozen=True)
class Ball:
    """Disc (2-D) or sphere (3-D)."""

    center: tuple
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ConfigError(f"ball radius must be positive, got {self.radius}")

    @property
    def bbox(self):
        c = np.asarray(self.center, float)
        return c - self.radius, c + self.radius

    def signed_distance(self, points):
        p = np.asarray(points, float)
        c = np.asarray(self.center, float)
        return np.linalg.norm(p - c, axis=-1) - self.radius


Shape = Box | Ball


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

    def cell_center(self, idx):
        return np.asarray(self.origin, float) + (np.asarray(idx, float) + 0.5) * self.h

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


def _shift(mask, axis, step):
    """Shift a boolean mask along an axis, filling vacated cells with False."""
    out = np.zeros_like(mask)
    src = [slice(None)] * mask.ndim
    dst = [slice(None)] * mask.ndim
    if step > 0:
        src[axis] = slice(0, -step)
        dst[axis] = slice(step, None)
    else:
        src[axis] = slice(-step, None)
        dst[axis] = slice(0, step)
    out[tuple(dst)] = mask[tuple(src)]
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
        if self.hi.size != self.dim or np.any(self.hi <= self.lo):
            raise ConfigError("workspace bounds must satisfy lo < hi per axis")
        if h <= 0:
            raise ConfigError(f"grid resolution must be positive, got {h}")
        self.h = float(h)
        self.obstacles = list(obstacles)

        extents = self.hi - self.lo
        shape = np.maximum(np.round(extents / self.h).astype(int), 3)
        mismatch = np.abs(shape * self.h - extents)
        if np.any(mismatch > 1e-6 * np.maximum(extents, 1.0)):
            raise ConfigError(
                f"grid resolution {self.h} must evenly divide workspace extents {tuple(extents)}"
            )
        self.grid = GridSpec(tuple(self.lo), self.h, tuple(int(n) for n in shape))

        for ob in self.obstacles:
            blo, bhi = ob.bbox
            if blo.size != self.dim:
                raise ConfigError(f"obstacle dimension {blo.size} != workspace dimension {self.dim}")
            if np.any(blo < self.lo - 1e-9) or np.any(bhi > self.hi + 1e-9):
                raise ConfigError(f"obstacle {ob} extends outside workspace bounds")

        self._rasterize()
        if not np.any(self.free_mask):
            raise ConfigError("workspace has no free space")

    def _rasterize(self):
        axes = [self.lo[k] + (np.arange(n) + 0.5) * self.h for k, n in enumerate(self.grid.shape)]
        mesh = np.meshgrid(*axes, indexing="ij")
        centers = np.stack(mesh, axis=-1)
        occupied = np.zeros(self.grid.shape, dtype=bool)
        for ob in self.obstacles:
            occupied |= ob.signed_distance(centers) <= 0.0
        self.obstacle_mask = occupied
        self.free_mask = ~occupied

        free_adjacent = np.zeros_like(occupied)
        for ax in range(self.dim):
            free_adjacent |= _shift(self.free_mask, ax, 1) | _shift(self.free_mask, ax, -1)
        boundary = occupied & free_adjacent
        self.boundary_mask = boundary
        idx = np.argwhere(boundary)
        self.boundary_cells = set(map(tuple, idx))
        self._boundary_idx = idx
        self._boundary_centers = self.grid.cell_centers(idx) if len(idx) else np.empty((0, self.dim))
        self._cell_centers = centers

    # -- queries ------------------------------------------------------------

    def contains_point(self, x):
        x = np.asarray(x, float)
        return bool(np.all(x >= self.lo) and np.all(x <= self.hi))

    def obstacle_clearance(self, points):
        """Signed distance from points to the nearest obstacle shape (inf if none)."""
        p = np.asarray(points, float)
        if not self.obstacles:
            return np.full(p.shape[:-1], np.inf) if p.ndim > 1 else np.inf
        d = self.obstacles[0].signed_distance(p)
        for ob in self.obstacles[1:]:
            d = np.minimum(d, ob.signed_distance(p))
        return d

    def bounds_clearance(self, points):
        """Distance from points to the nearest workspace face (negative outside)."""
        p = np.asarray(points, float)
        d = np.minimum((p - self.lo).min(axis=-1), (self.hi - p).min(axis=-1))
        return d

    def free_cell_centers(self):
        idx = np.argwhere(self.free_mask)
        return idx, self.grid.cell_centers(idx)


# ---------------------------------------------------------------------------
# Agents and knowledge
# ---------------------------------------------------------------------------

@dataclass
class AgentBody:
    """Spherical agent: current center, body radius, sensing-ring width, goal."""

    id: int
    x: np.ndarray
    radius: float
    ring_width: float
    goal: np.ndarray | None = None
    r_target: float | None = None

    def __post_init__(self):
        self.x = np.asarray(self.x, float).copy()
        require_finite(f"agent {self.id}", x=self.x, radius=self.radius,
                       ring_width=self.ring_width, goal=self.goal, r_target=self.r_target)
        if self.radius <= 0:
            raise ConfigError(f"agent {self.id}: body radius must be positive")
        if self.ring_width <= 0:
            raise ConfigError(f"agent {self.id}: sensing-ring width must be positive")
        if self.goal is not None:
            self.goal = np.asarray(self.goal, float).copy()
            if self.r_target is None:
                self.r_target = self.radius
            if self.r_target < self.radius:
                raise ConfigError(
                    f"agent {self.id}: target-zone radius {self.r_target} smaller than body radius"
                )

    @property
    def reach(self):
        """Outer radius of the sensing ring."""
        return self.radius + self.ring_width


@dataclass
class KnowledgeMap:
    """An agent's private record of discovered boundary cells."""

    agent_id: int
    cells: set = field(default_factory=set)
    revision: int = 0
    novel: bool = False


def sense_obstacles(agent: AgentBody, ws: Workspace) -> set:
    """Boundary cells whose centers fall in the agent's sensing ring."""
    if not ws.contains_point(agent.x):
        raise ConfigError(f"agent {agent.id} at {agent.x} is outside the workspace")
    if not ws.boundary_cells:
        return set()
    d = np.linalg.norm(ws._boundary_centers - agent.x, axis=1)
    hit = (d > agent.radius) & (d <= agent.reach)
    return set(map(tuple, ws._boundary_idx[hit]))


def update_knowledge(km: KnowledgeMap, sensed: set):
    """Merge sensed cells into the map. Returns (map, novel) where novel marks strict growth."""
    new = sensed - km.cells
    km.novel = bool(new)
    if km.novel:
        km.cells |= new
        km.revision += 1
    return km, km.novel


def passage_width_audit(ws: Workspace, radius: float) -> list:
    """Free cells with no nearby disc of the given radius clear of all obstacles.

    For each free cell center x the check is: does some cell center x_c within
    `radius` of x have obstacle clearance >= radius?  Obstacle shapes only; the
    outer bounds do not count against the disc.  A nonempty result flags
    passages too tight for the two largest agents to resolve a conflict in.
    """
    if radius <= 0:
        raise ConfigError(f"passage audit radius must be positive, got {radius}")
    if not ws.obstacles:
        return []
    idx, centers = ws.free_cell_centers()
    if len(idx) == 0:
        return []
    clearance = ws.obstacle_clearance(centers)
    fits = clearance >= radius
    if not np.any(fits):
        return sorted(map(tuple, idx))
    tree = cKDTree(centers[fits])
    nearest, _ = tree.query(centers, k=1)
    violating = nearest > radius + 1e-9
    return sorted(map(tuple, idx[violating]))


def validate_scenario(ws: Workspace, agents) -> list:
    """All start/goal placement violations, as human-readable strings. Empty means ok."""
    violations = []
    tol = 1e-9
    for a in agents:
        if ws.bounds_clearance(a.x) < a.radius - tol:
            violations.append(f"agent {a.id}: body extends outside workspace bounds")
        if ws.obstacles and ws.obstacle_clearance(a.x) < a.radius - tol:
            violations.append(f"agent {a.id}: body overlaps an obstacle")
        if a.goal is not None:
            if ws.bounds_clearance(a.goal) < a.r_target - tol:
                violations.append(f"agent {a.id}: unattainable target (outside bounds)")
            if ws.obstacles and ws.obstacle_clearance(a.goal) < a.r_target - tol:
                violations.append(f"agent {a.id}: unattainable target (inside an obstacle)")
    if len(agents) < 2:
        return violations
    # every pair at once; an agent without a goal gets NaN, which conflicts with nothing
    i, j = np.triu_indices(len(agents), k=1)
    x = np.array([a.x for a in agents])
    radius = np.array([a.radius for a in agents])
    goal = np.array([np.full(x.shape[1], np.nan) if a.goal is None else a.goal for a in agents])
    r_target = np.array([np.nan if a.goal is None else a.r_target for a in agents])
    overlap = row_norms(x[i] - x[j]) < radius[i] + radius[j] - tol
    conflict = row_norms(goal[i] - goal[j]) < r_target[i] + r_target[j] - tol
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


def row_norms(d):
    """Euclidean length of each row of d, (..., dim) -> (...), with the bits
    of the 1-D `np.linalg.norm` of that row: the square root of a matrix
    product. Summing the squares along an axis can differ in the last bit."""
    d = np.asarray(d, float)
    return np.sqrt((d[..., None, :] @ d[..., :, None])[..., 0, 0])
