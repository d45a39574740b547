"""Shared oracles for the test-suite: direct solves of the field and their
error bound from the solver tolerance, random workspaces, a scalar,
one-pair-at-a-time evaluation of the pair force, the dense all-pairs
evaluation of the pair forces and weight sums, array-at-a-time field
sampling, one-agent-at-a-time goal terms and potentials, control evaluation
with the wall cushion always queried, the full-scan sensing ring,
brute-force grid dilations, the slice-by-slice neighbor sum, the nearest
known box by a scan of every box, the obstacle clearance one shape at a
time, the unit-drive goal term by NumPy's elementwise lengths and the
passage audit by a k-d tree; a fault injector, a short-hand agent record
and a strategy for valid scenario files. SciPy serves only these oracles:
the package itself needs NumPy alone."""

import itertools
import math

import numpy as np
import scipy.ndimage as ndi
from scipy import sparse
from scipy.sparse.linalg import spsolve
from scipy.spatial import cKDTree
from hypothesis import strategies as st

from vhpf import controller, engine
from vhpf.harmonic import FieldQueryError, ScalarGridField
from vhpf.interaction import (
    CW,
    EXPONENTIAL,
    SPRING,
    UNIT_MODE,
    InteractionParams,
    WeightProfile,
    crf_forces,
    interaction_weights,
    repulsion_batch,
)
from vhpf.scenarios import AgentSpec, GoalSpec
from vhpf.world import Ball, Box, ConfigError, Workspace, axis_norms


def agent(aid, x, radius=1.0, ring=1.5, goal=None, r_target=None, **kw) -> AgentSpec:
    """An agent starting at x: spring control toward its goal, or a zero
    drift without one."""
    x = tuple(map(float, x))
    if goal is not None:
        goal = tuple(map(float, goal))
    control = GoalSpec("spring") if goal is not None else GoalSpec("drift", velocity=(0.0,) * len(x))
    return AgentSpec(aid, x, radius, ring, control, goal=goal, r_target=r_target, **kw)


def raising(exc):
    """A stand-in for any function that raises exc when called."""
    def fail(*args, **kwargs):
        raise exc
    return fail


def _free_system(field: ScalarGridField):
    """The field's mean-value equations on its free cells, numbered in C
    order: A has 2*dim on the diagonal and -1 per free neighbor, b sums the
    values of the pinned neighbors. The rim is pinned, so every neighbor of
    a free cell lies on the grid."""
    free = field.free
    cells = np.argwhere(free)
    n, dim = cells.shape
    number = np.full(free.shape, -1)
    number[free] = np.arange(n)
    rows, cols, entries = [np.arange(n)], [np.arange(n)], [np.full(n, 2.0 * dim)]
    b = np.zeros(n)
    for ax, step in itertools.product(range(dim), (-1, 1)):
        nb = cells.copy()
        nb[:, ax] += step
        other = number[tuple(nb.T)]
        linked = other >= 0
        rows.append(np.flatnonzero(linked))
        cols.append(other[linked])
        entries.append(np.full(linked.sum(), -1.0))
        b += np.where(linked, 0.0, field.values[tuple(nb.T)])
    A = sparse.csc_matrix((np.concatenate(entries), (np.concatenate(rows), np.concatenate(cols))),
                          shape=(n, n))
    return A, b, free


def direct_solve(field: ScalarGridField) -> np.ndarray:
    """The field's values with the free cells solved directly (sparse LU)."""
    A, b, free = _free_system(field)
    out = field.values.copy()
    if len(b):
        out[free] = spsolve(A, b)
    return out


def solve_error_bound(field: ScalarGridField, tol: float) -> float:
    """How far a solve stopped by `max|r| / 2dim < tol` can be from the exact
    solution: the error is A^-1 r, and A^-1 has no negative entry, so it is
    at most 2*dim * tol * max(A^-1 1) on every cell."""
    A, b, _ = _free_system(field)
    if not len(b):
        return 0.0
    return 2.0 * field.grid.dim * tol * float(spsolve(A, np.ones(len(b))).max())


def sense_full_scan(agent: AgentSpec, x, ws: Workspace) -> np.ndarray:
    """`world.sense_obstacles` without its reach gate: the distance from x
    to every boundary cell center, measured on every call."""
    cells = np.argwhere(ws.boundary_mask)
    d = np.linalg.norm(ws.grid.cell_centers(cells) - x, axis=1)
    return cells[(d > agent.radius) & (d <= agent.reach)]


def _nearest_cell_offsets(mask):
    """For every cell of the grid (C order), its integer offsets to every
    masked cell: (cells, masked cells, dim)."""
    everywhere = np.indices(mask.shape).reshape(mask.ndim, -1).T
    return everywhere[:, None, :] - np.argwhere(mask)[None, :, :]


def chebyshev_dilation(mask, h: float, reach: float) -> np.ndarray:
    """`world.reach_dilation` by brute force: the cells whose Chebyshev
    distance, in cells, to some masked cell is at most ceil(reach / h) + 1."""
    if not mask.any():
        return np.zeros_like(mask)
    k = math.ceil(reach / h) + 1
    far = np.abs(_nearest_cell_offsets(mask)).max(axis=2).min(axis=1)
    return (far <= k).reshape(mask.shape)


def grid_masks(rng, dim: int, top: int, count: int):
    """Random boolean masks of random shapes with 1 to top - 1 cells per
    axis, so some windows are narrower than any footprint: dense ones, and
    sparse ones with some cells on the rim along one axis."""
    for k in range(count):
        shape = tuple(int(n) for n in rng.integers(1, top, size=dim))
        if k % 2:
            yield rng.random(shape) < rng.uniform(0.02, 0.4)
            continue
        mask = np.zeros(shape, dtype=bool)
        for _ in range(int(rng.integers(1, 5))):
            cell = [int(rng.integers(0, n)) for n in shape]
            if rng.random() < 0.5:
                ax = int(rng.integers(0, dim))
                cell[ax] = int(rng.choice([0, shape[ax] - 1]))
            mask[tuple(cell)] = True
        yield mask


def euclidean_inflation(mask, h: float, radius: float) -> np.ndarray:
    """`harmonic._inflate_mask` by brute force, for radius > 0: the cells
    whose center lies within radius (+1e-9) of some masked cell center."""
    if not mask.any():
        return np.zeros_like(mask)
    off = _nearest_cell_offsets(mask)
    near = np.sqrt((off * off).sum(axis=2)).min(axis=1) * h <= radius + 1e-9
    return near.reshape(mask.shape)


def neighbor_sum_by_slices(v):
    """`harmonic._neighbor_sum` one shifted slice at a time, axis by axis,
    the upper neighbor first, in a fresh array of zeros."""
    out = np.zeros_like(v)
    for ax in range(v.ndim):
        lo = [slice(None)] * v.ndim
        hi = [slice(None)] * v.ndim
        lo[ax] = slice(None, -1)
        hi[ax] = slice(1, None)
        out[tuple(lo)] += v[tuple(hi)]
        out[tuple(hi)] += v[tuple(lo)]
    return out


def nearest_box_scan(index, points):
    """Each point's distance to every known cell box of a
    `KnownBoundaryIndex` (points, boxes), and its offset from its nearest
    spot on each box (points, boxes, dim), with the index's own arithmetic."""
    X = np.asarray(points, float)[:, None, :]
    vec = X - np.minimum(np.maximum(X, index.box_lo), index.box_hi)
    return axis_norms(vec), vec


def shape_distance(shape, points):
    """A box's or ball's signed distance from points (..., dim), written out
    with `np.linalg.norm`."""
    p = np.asarray(points, float)
    if isinstance(shape, Box):
        lo, hi = shape.bbox
        q = np.maximum(lo - p, p - hi)
        return np.linalg.norm(np.maximum(q, 0.0), axis=-1) + np.minimum(q.max(axis=-1), 0.0)
    return np.linalg.norm(p - np.asarray(shape.center, float), axis=-1) - shape.radius


def obstacle_clearance_by_shape(ws: Workspace, points):
    """`Workspace.obstacle_clearance` one shape at a time: `shape_distance`
    folded with `np.minimum` in the order of `ws.obstacles`."""
    p = np.asarray(points, float)
    if not ws.obstacles:
        return np.full(p.shape[:-1], np.inf) if p.ndim > 1 else np.inf
    d = shape_distance(ws.obstacles[0], p)
    for ob in ws.obstacles[1:]:
        d = np.minimum(d, shape_distance(ob, p))
    return d


def passage_audit_tree(ws: Workspace, radius: float) -> np.ndarray:
    """`world.passage_width_audit` by a k-d tree over the fitting cell
    centers: a free cell is flagged when the nearest fitting center lies
    farther than radius (+1e-9)."""
    flagged = np.zeros(ws.grid.shape, dtype=bool)
    if not ws.obstacles:
        return flagged
    centers = ws.grid.cell_centers(np.argwhere(ws.free_mask))
    fits = ws.obstacle_clearance(centers) >= radius
    if not np.any(fits):
        return ws.free_mask.copy()
    nearest, _ = cKDTree(centers[fits]).query(centers, k=1)
    flagged[ws.free_mask] = nearest > radius + 1e-9
    return flagged


def component(passable, seed):
    """Connected component of `seed` over 4-neighbor adjacency."""
    seen = np.zeros_like(passable)
    stack = [tuple(seed)]
    seen[tuple(seed)] = True
    while stack:
        i, j = stack.pop()
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            ni, nj = i + di, j + dj
            if 0 <= ni < passable.shape[0] and 0 <= nj < passable.shape[1]:
                if passable[ni, nj] and not seen[ni, nj]:
                    seen[ni, nj] = True
                    stack.append((ni, nj))
    return seen


def connected(free, seed):
    return bool(np.all(component(free, seed)[free]))


def _has_thin_necks(free):
    """True when some free cell hangs off a width-one passage. Those passages
    attenuate a harmonic field below solver resolution, leaving tolerance-flat
    pockets that no finite-precision solve can order strictly."""
    plus = ndi.generate_binary_structure(2, 1)
    # outside the grid counts as free: the outer rim is a wall, not a neck
    core = ndi.binary_erosion(free, plus, border_value=1)
    covered = ndi.binary_dilation(core, plus)
    return bool(np.any(free & ~covered))


def random_workspace(rng):
    """Small 2-D workspace with a goal whose free space is one component."""
    while True:
        size = float(rng.integers(5, 8))
        h = 0.25
        n_shapes = int(rng.integers(1, 4))
        shapes = []
        for _ in range(n_shapes):
            if rng.random() < 0.5:
                c = rng.uniform(1.0, size - 1.0, size=2)
                shapes.append(Ball(tuple(c), float(rng.uniform(0.4, 1.2))))
            else:
                lo = rng.uniform(0.5, size - 2.0, size=2)
                ext = rng.uniform(0.5, 1.8, size=2)
                hi = np.minimum(lo + ext, size - 0.5)
                if np.any(hi - lo < 0.3):
                    continue
                shapes.append(Box(tuple(lo), tuple(hi)))
        try:
            ws = Workspace((0.0, 0.0), (size, size), shapes, h=h)
        except ConfigError:
            continue
        free = np.argwhere(ws.free_mask)
        interior = [c for c in free
                    if 0 < c[0] < ws.grid.shape[0] - 1 and 0 < c[1] < ws.grid.shape[1] - 1]
        if not interior:
            continue
        goal_cell = tuple(interior[rng.integers(0, len(interior))])
        if not connected(ws.free_mask, goal_cell):
            continue
        if _has_thin_necks(ws.free_mask):
            continue
        return ws, ws.grid.cell_centers(goal_cell)


# ---------------------------------------------------------------------------
# scalar pair-force oracle for interaction.crf_forces
# ---------------------------------------------------------------------------

class CoincidentCentersError(ValueError):
    """Direction query for two agents at numerically the same point."""


def weight(r: float, contact: float, profile: WeightProfile) -> float:
    """Scalar weight at separation r for a pair with the given contact distance."""
    return float(interaction_weights(r, contact, profile))


def radial_direction(rel) -> np.ndarray:
    """Unit vector along rel = x_i - x_j: pushes agent i straight away from j."""
    rel = np.asarray(rel, float)
    n = np.linalg.norm(rel)
    if n < 1e-12:
        raise CoincidentCentersError("agents at numerically coincident centers")
    return rel / n


def _circulating_vector(rel, params: InteractionParams):
    """Unnormalized vector orthogonal to rel along the shared circulation sense."""
    rel = np.asarray(rel, float)
    if rel.size == 2:
        out = np.array([-rel[1], rel[0]])
    else:
        axis = np.asarray(params.axis, float)
        out = np.cross(axis, rel)
        if np.linalg.norm(out) < 1e-9 * np.linalg.norm(rel):
            out = np.cross(np.array([1.0, 0.0, 0.0]), rel)
            if np.linalg.norm(out) < 1e-9 * np.linalg.norm(rel):
                out = np.cross(np.array([0.0, 1.0, 0.0]), rel)
    if params.circulation == CW:
        out = -out
    return out


def tangential_direction(rel, params: InteractionParams) -> np.ndarray:
    """Unit circulating direction; orthogonal to radial_direction(rel)."""
    rel = np.asarray(rel, float)
    if np.linalg.norm(rel) < 1e-12:
        raise CoincidentCentersError("agents at numerically coincident centers")
    vec = _circulating_vector(rel, params)
    return vec / np.linalg.norm(vec)


def pair_force(agent_i, agent_j, params: InteractionParams, profile: WeightProfile) -> np.ndarray:
    """Force exerted on agent i by the presence of agent j, both at their starts.

    Zero whenever the weight is zero, which keeps the interaction strictly
    local, and for a pair at numerically the same point, which has no
    direction. In unit mode the radial and circulating parts are unit vectors
    scaled by their gains; in spring mode they scale with separation.
    """
    if agent_i.id == agent_j.id:
        raise ConfigError("pair force requires two distinct agents")
    rel = np.asarray(agent_i.start, float) - np.asarray(agent_j.start, float)
    r = float(np.linalg.norm(rel))
    w = weight(r, agent_i.radius + agent_j.radius, profile)
    if w == 0.0 or r < 1e-12:
        return np.zeros(rel.size)
    if params.mode == UNIT_MODE:
        rad = rel / r
        tan = tangential_direction(rel, params)
    else:
        rad = rel
        tan = _circulating_vector(rel, params)
    return w * (params.kr * rad + params.kt * tan)


def neighbors(agent: AgentSpec, agents) -> list:
    """Every other agent whose body, at its start, intersects this agent's
    sensing ring region."""
    out = []
    for other in agents:
        if other.id == agent.id:
            continue
        if np.linalg.norm(np.subtract(agent.start, other.start)) <= agent.reach + other.radius:
            out.append(other)
    return out


# ---------------------------------------------------------------------------
# dense all-pairs oracle for interaction.crf_forces and sigma_activity
# ---------------------------------------------------------------------------

def _dense_jump_inner(w, dist, contact, profile: WeightProfile, radii, reach):
    """(L, L) mask of the pairs on the inner side of a boundary where their
    weight jumps."""
    if profile.kind == EXPONENTIAL:
        return w > 0
    if profile.kind == SPRING:
        inner = dist < contact
    else:
        inner = np.zeros(w.shape, dtype=bool)
    if reach is not None:
        narrow = np.asarray(reach, float) < np.asarray(radii, float) + profile.delta
        if narrow.any():
            inner[narrow] = w[narrow] > 0
    return inner


def dense_crf_forces(positions, radii, params: InteractionParams, profile: WeightProfile,
                     suppressed=None, reach=None):
    """The pair forces from dense (L, L, dim) arrays: every ordered pair is
    evaluated and each row is summed over all partners in index order.
    Returns (forces, key): the forces of `crf_forces`, bit for bit, and the
    switch key as an (L, L) mask with suppressed rows cleared. Its diagonal
    holds each agent's constant flag against itself (set for the spring
    step), which `crf_forces`'s codes leave out; off the diagonal it is
    set exactly where those codes are."""
    pos = np.asarray(positions, float)
    L, dim = pos.shape
    if not L:
        zeros = np.zeros_like(pos)
        return zeros, np.zeros((L, L), dtype=bool)
    rel = pos[:, None, :] - pos[None, :, :]
    dist = np.linalg.norm(rel, axis=2)
    contact = np.add.outer(radii, radii)
    w = interaction_weights(dist, contact, profile)
    np.fill_diagonal(w, 0.0)
    w = np.where(dist < 1e-12, 0.0, w)
    if reach is not None:
        in_ring = dist <= np.asarray(reach, float)[:, None] + np.asarray(radii, float)[None, :]
        w = np.where(in_ring, w, 0.0)

    if dim == 2:
        tan = np.stack([-rel[..., 1], rel[..., 0]], axis=-1)
    else:
        tan = np.cross(np.asarray(params.axis, float), rel)
        for fallback in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)):
            bad = (np.linalg.norm(tan, axis=2) < 1e-9 * np.maximum(dist, 1e-30)) & (w > 0)
            if not np.any(bad):
                break
            tan[bad] = np.cross(np.array(fallback), rel[bad])
    if params.circulation == CW:
        tan = -tan

    if params.mode == UNIT_MODE:
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = np.where(dist > 0, 1.0 / dist, 0.0)
            tnorm = np.linalg.norm(tan, axis=2)
            tinv = np.where(tnorm > 0, 1.0 / tnorm, 0.0)
        radial = rel * inv[..., None]
        circ = tan * tinv[..., None]
    else:
        radial = rel
        circ = tan

    force = w[..., None] * (params.kr * radial + params.kt * circ)
    total = force.sum(axis=1)
    if suppressed:
        total[list(suppressed)] = 0.0
    key = _dense_jump_inner(w, dist, contact, profile, radii, reach)
    if suppressed:
        key[list(suppressed)] = False
    return total, key


def dense_sigma_activity(positions, radii, profile: WeightProfile) -> np.ndarray:
    """Per-agent sum of the interaction weights against all other agents,
    from the dense (L, L) weight matrix, its columns added left to right:
    the partner order of `interaction.sigma_activity`."""
    positions = np.asarray(positions, float)
    L = len(positions)
    if L < 2:
        return np.zeros(L)
    rel = positions[:, None, :] - positions[None, :, :]
    dist = np.linalg.norm(rel, axis=2)
    contact = np.add.outer(radii, radii)
    w = interaction_weights(dist, contact, profile)
    np.fill_diagonal(w, 0.0)
    total = np.zeros(L)
    for column in w.T:
        total += column
    return total


# ---------------------------------------------------------------------------
# array-at-a-time field sampling oracle for harmonic.gradient_at / value_at
# ---------------------------------------------------------------------------

def _interp_setup(field: ScalarGridField, x):
    rel = (np.asarray(x, float) - np.asarray(field.grid.origin, float)) / field.grid.h - 0.5
    base = np.clip(np.floor(rel).astype(int), 0, np.maximum(np.asarray(field.grid.shape) - 2, 0))
    frac = np.clip(rel - base, 0.0, 1.0)
    return base, frac


def _interp(array, base, frac):
    """Multilinear sample of an array whose trailing axes are the grid axes."""
    dim = len(base)
    if dim == 1:
        i, f = base[0], frac[0]
        return array[..., i] * (1.0 - f) + array[..., i + 1] * f
    if dim == 2:
        i, j = base
        fx, fy = frac
        block = array[..., i:i + 2, j:j + 2]
        return ((1 - fx) * ((1 - fy) * block[..., 0, 0] + fy * block[..., 0, 1])
                + fx * ((1 - fy) * block[..., 1, 0] + fy * block[..., 1, 1]))
    i, j, k = base
    fx, fy, fz = frac
    b = array[..., i:i + 2, j:j + 2, k:k + 2]
    c00 = (1 - fz) * b[..., 0, 0, 0] + fz * b[..., 0, 0, 1]
    c01 = (1 - fz) * b[..., 0, 1, 0] + fz * b[..., 0, 1, 1]
    c10 = (1 - fz) * b[..., 1, 0, 0] + fz * b[..., 1, 0, 1]
    c11 = (1 - fz) * b[..., 1, 1, 0] + fz * b[..., 1, 1, 1]
    return (1 - fx) * ((1 - fy) * c00 + fy * c01) + fx * ((1 - fy) * c10 + fy * c11)


def _check_query(field: ScalarGridField, x):
    if not field.grid.contains(x):
        raise FieldQueryError(f"query point {x} outside the grid")
    cell = field.grid.point_to_cell(x)
    if field.known_mask[cell]:
        raise FieldQueryError(f"query point {x} inside a known obstacle cell")


def oracle_gradient_at(field: ScalarGridField, x) -> np.ndarray:
    _check_query(field, x)
    base, frac = _interp_setup(field, x)
    return np.asarray(_interp(field.gradients(), base, frac))


def oracle_value_at(field: ScalarGridField, x) -> float:
    _check_query(field, x)
    base, frac = _interp_setup(field, x)
    return float(_interp(field.values, base, frac))


# ---------------------------------------------------------------------------
# one-agent-at-a-time oracle for Runtime.goal_terms and goal_potentials
# ---------------------------------------------------------------------------

def goal_term(ctrl, x) -> np.ndarray:
    """The goal term of one agent at x, as an array: gain * (goal - x) for a
    spring, the velocity for a drift, `controller.goal_term` for a harmonic
    agent."""
    x = np.asarray(x, float)
    spec, control = ctrl.spec, ctrl.spec.control
    if control.kind == controller.SPRING_GOAL:
        return control.gain * (np.asarray(spec.goal, float) - x)
    if control.kind == controller.CONSTANT_DRIFT:
        return np.array(control.velocity, float)
    return np.array(controller.goal_term(ctrl, x))


def unit_goal_term(ctrl, x) -> np.ndarray:
    """The harmonic unit-drive goal term with its lengths as NumPy's
    elementwise sum of squares and its gradient from `oracle_gradient_at`:
    the terminal spring inside the target zone, else -cruise times the unit
    gradient, zero where the gradient vanishes."""
    x = np.asarray(x, float)
    spec, control = ctrl.spec, ctrl.spec.control
    assert control.drive == controller.UNIT_DRIVE
    offset = np.asarray(spec.goal, float) - x
    if float(np.sqrt((offset * offset).sum())) <= spec.target_radius:
        return (control.cruise / spec.target_radius) * offset
    g = oracle_gradient_at(ctrl.field, x)
    n = np.sqrt((g * g).sum())
    if n < 1e-12:
        return np.zeros_like(g)
    return -control.cruise * g / n


def goal_potential(ctrl, x) -> float | None:
    """The goal potential of one agent at x: 0.5 * gain * |x - goal|^2 for a
    spring, None for a drift, `engine.agent_potential` for a harmonic agent."""
    control = ctrl.spec.control
    if control.kind == controller.SPRING_GOAL:
        r = axis_norms(np.asarray(x, float) - np.asarray(ctrl.spec.goal, float))
        return float(0.5 * control.gain * r * r)
    if control.kind == controller.CONSTANT_DRIFT:
        return None
    return engine.agent_potential(ctrl, x)


# ---------------------------------------------------------------------------
# always-query oracle for engine.Runtime.eval_controls, full-pass oracle for engine.step
# ---------------------------------------------------------------------------

def always_query_controls(runtime, positions):
    """`Runtime.eval_controls` with the wall cushion queried for every body,
    in or out of its reach: (U, penetration mask)."""
    positions = np.asarray(positions, float)
    L = runtime.n_agents
    U = runtime.goal_terms(positions)
    pen = np.zeros(L, dtype=bool)
    if L >= 2 and len(runtime._suppressed) < L:
        U += crf_forces(positions, runtime.radii, runtime.params, runtime.profile,
                        suppressed=runtime._suppressed, reach=runtime.reach)[0]
    if runtime.repulsion is None:
        return U, pen
    groups = {}
    for i, c in enumerate(runtime.controllers):
        if c.boundary_index is not None and len(c.boundary_index):
            groups.setdefault(id(c.boundary_index), (c.boundary_index, []))[1].append(i)
    for index, rows in groups.values():
        F, p = repulsion_batch(positions[rows], runtime.radii[rows], index, runtime.repulsion)
        U[rows] += F
        pen[rows] |= p
    return U, pen


def oracle_step(runtime, positions):
    """`engine.step` with every control evaluation making its own full pair
    pass: (positions, the RK4 stages' snapshots in stage order, none for
    Euler)."""
    dt = runtime.config.dt
    k1 = runtime.eval_controls(positions)[0]
    if runtime.config.integrator == engine.EULER:
        return positions + dt * k1, []
    stages = []

    def slope(h, k):
        stages.append(positions + h * k)
        return runtime.eval_controls(stages[-1])[0]

    k2 = slope(0.5 * dt, k1)
    k3 = slope(0.5 * dt, k2)
    k4 = slope(dt, k3)
    return positions + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), stages


# ---------------------------------------------------------------------------
# valid scenario files, for property tests of the format and the engine
# ---------------------------------------------------------------------------

def _num(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def scenario_dicts(draw):
    """Valid 2-D scenario dicts in the file format, every field written out.

    Agent k starts at (2 + 4k, 2) and aims at (2 + 4k, 8) of a 4n x 10
    workspace (shifted by an offset); obstacles stay in the band 4 <= y <= 6
    between the starts and the targets, so every layout passes validation.
    """
    n = draw(st.integers(1, 3))
    ox, oy = draw(st.integers(-20, 20)), draw(st.integers(-20, 20))
    width = 4.0 * n
    obstacles = []
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            x0, y0 = draw(_num(0.0, width - 1.0)), draw(_num(4.0, 5.0))
            obstacles.append({"kind": "box", "lo": [ox + x0, oy + y0],
                              "hi": [ox + x0 + draw(_num(0.1, 1.0)),
                                     oy + y0 + draw(_num(0.1, 1.0))]})
        else:
            obstacles.append({"kind": "ball", "center": [ox + draw(_num(1.0, width - 1.0)),
                                                         oy + 5.0],
                              "radius": draw(_num(0.1, 0.9))})
    agents = []
    for k in range(n):
        radius = draw(_num(0.2, 1.0))
        has_goal = draw(st.booleans())
        kind = draw(st.sampled_from(["spring", "drift", "harmonic"]) if has_goal
                    else st.just("drift"))
        if kind == "spring":
            control = {"kind": kind, "gain": draw(_num(0.1, 2.0))}
        elif kind == "drift":
            control = {"kind": kind, "velocity": [draw(_num(-1.0, 1.0)), draw(_num(-1.0, 1.0))]}
        else:
            control = {"kind": kind, "drive": draw(st.sampled_from(["raw", "unit"])),
                       "cruise": draw(_num(0.1, 2.0)), "gain": draw(_num(0.1, 2.0))}
        agents.append({
            "id": k + 1,
            "start": [ox + 2.0 + 4 * k, oy + 2.0],
            "radius": radius,
            "ring_width": draw(_num(0.1, 2.0)),
            "goal": [ox + 2.0 + 4 * k, oy + 8.0] if has_goal else None,
            "r_target": draw(st.none() | _num(radius, 1.5)) if has_goal else None,
            "control": control,
            "cooperative": draw(st.booleans()),
            "prior_knowledge": draw(st.sampled_from(["none", "full"])),
        })
    dt = draw(_num(0.005, 0.05))
    with_goal = any(a["goal"] is not None for a in agents)
    success = draw(st.sampled_from(["converge", "horizon"])) if with_goal else "horizon"
    check = draw(st.sampled_from([None, "groups_crossed"])) if success == "horizon" else None
    return {
        "name": "generated",
        "workspace": {"lo": [float(ox), float(oy)], "hi": [ox + width, oy + 10.0],
                      "obstacles": obstacles, "grid_h": draw(st.sampled_from([0.25, 0.5]))},
        "agents": agents,
        "crf": {"kr": draw(_num(0.0, 5.0)), "kt": draw(_num(0.0, 5.0)),
                "mode": draw(st.sampled_from(["spring", "unit"])),
                "circulation": draw(st.sampled_from(["ccw", "cw"])), "axis": [0.0, 0.0, 1.0]},
        "profile": {"kind": draw(st.sampled_from(["linear", "sinusoidal", "exponential",
                                                  "spring"])),
                    "delta": draw(_num(0.1, 2.0)), "beta": draw(_num(0.01, 0.5))},
        "obstacle_repulsion": draw(st.none() | st.fixed_dictionaries(
            {"strength": _num(0.0, 10.0), "influence": _num(0.05, 1.0)})),
        "sim": {"dt": dt, "t_max": draw(_num(2 * dt, 0.5)),
                "integrator": draw(st.sampled_from(["euler", "rk4"])),
                "v_eps": draw(st.none() | _num(1e-4, 1e-2)), "w_dead": draw(_num(0.1, 10.0)),
                "collision_tol": draw(_num(0.0, 1e-2))},
        "success": {"kind": success, "check": check},
    }
