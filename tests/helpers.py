"""Shared oracles for the test-suite: dense linear solves, random workspaces,
a scalar, one-pair-at-a-time evaluation of the pair force, and the dense
all-pairs evaluation of the pair forces and weight sums."""

import itertools

import numpy as np
import scipy.ndimage as ndi

from vhpf.harmonic import FREE, ScalarGridField
from vhpf.interaction import (
    CW,
    EXPONENTIAL,
    SPRING,
    UNIT_MODE,
    InteractionParams,
    WeightProfile,
    interaction_weights,
)
from vhpf.world import AgentBody, Ball, Box, ConfigError, Workspace


def dense_solve(field: ScalarGridField) -> np.ndarray:
    """Assemble and solve the mean-value linear system directly."""
    shape = field.grid.shape
    free_cells = [tuple(c) for c in np.argwhere(field.cell_class == FREE)]
    index = {c: k for k, c in enumerate(free_cells)}
    n = len(free_cells)
    A = np.zeros((n, n))
    b = np.zeros(n)
    dim = len(shape)
    for c, k in index.items():
        A[k, k] = 2.0 * dim
        for ax, step in itertools.product(range(dim), (-1, 1)):
            nb = list(c)
            nb[ax] += step
            nb = tuple(nb)
            if index.get(nb) is not None:
                A[k, index[nb]] = -1.0
            else:
                b[k] += field.values[nb]  # pinned neighbor
    x = np.linalg.solve(A, b)
    out = field.values.copy()
    for c, k in index.items():
        out[c] = x[k]
    return out


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
        return ws, ws.grid.cell_center(goal_cell)


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
    """Force exerted on agent i by the presence of agent j.

    Zero whenever the weight is zero, which keeps the interaction strictly
    local, and for a pair at numerically the same point, which has no
    direction. In unit mode the radial and circulating parts are unit vectors
    scaled by their gains; in spring mode they scale with separation.
    """
    if agent_i.id == agent_j.id:
        raise ConfigError("pair force requires two distinct agents")
    rel = np.asarray(agent_i.x, float) - np.asarray(agent_j.x, float)
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


def neighbors(agent: AgentBody, bodies) -> list:
    """Every other agent whose body intersects this agent's sensing ring region."""
    out = []
    for other in bodies:
        if other.id == agent.id:
            continue
        if np.linalg.norm(agent.x - other.x) <= agent.reach + other.radius:
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
                     suppressed=None, reach=None, switch_key=False):
    """The pair forces from dense (L, L, dim) arrays: every ordered pair is
    evaluated and each row is summed over all partners in index order.
    Returns what `crf_forces` returns, bit for bit."""
    pos = np.asarray(positions, float)
    L, dim = pos.shape
    if L < 2:
        zeros = np.zeros_like(pos)
        return (zeros, np.zeros((L, L), dtype=bool)) if switch_key else zeros
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
    if not switch_key:
        return total
    key = _dense_jump_inner(w, dist, contact, profile, radii, reach)
    if suppressed:
        key[list(suppressed)] = False
    return total, key


def dense_sigma_activity(positions, radii, profile: WeightProfile) -> np.ndarray:
    """Per-agent sum of the interaction weights against all other agents,
    from the dense (L, L) weight matrix."""
    positions = np.asarray(positions, float)
    L = len(positions)
    if L < 2:
        return np.zeros(L)
    rel = positions[:, None, :] - positions[None, :, :]
    dist = np.linalg.norm(rel, axis=2)
    contact = np.add.outer(radii, radii)
    w = interaction_weights(dist, contact, profile)
    np.fill_diagonal(w, 0.0)
    return w.sum(axis=1)
