"""Pairwise conflict-resolution forces and localized obstacle repulsion.

Two agents interact only while their separation sits in the annulus between
contact distance and contact + delta; inside it a weight profile scales a
radial push-apart term plus a circulating term orthogonal to it. Every agent
circulates the same way, which is what lets jams unwind instead of locking.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.spatial import cKDTree

from .world import ConfigError, GridSpec, axis_norms, require_finite

LINEAR = "linear"
SINUSOIDAL = "sinusoidal"
EXPONENTIAL = "exponential"
SPRING = "spring"
PROFILE_KINDS = (LINEAR, SINUSOIDAL, EXPONENTIAL, SPRING)

UNIT_MODE = "unit"
SPRING_MODE = "spring"

CCW = "ccw"
CW = "cw"

# rel turned by 90 degrees: rel[::-1] times these is (-y, x) for ccw, (y, -x) for cw
_CCW_TURN = np.array([-1.0, 1.0])
_CW_TURN = np.array([1.0, -1.0])


@dataclass(frozen=True)
class WeightProfile:
    """Locality envelope for the pair force. delta is the annulus width."""

    kind: str = LINEAR
    delta: float = 1.5
    beta: float = 0.05  # exponential tail value at contact + delta

    def __post_init__(self):
        if self.kind not in PROFILE_KINDS:
            raise ConfigError(f"unknown weight profile kind {self.kind!r}")
        require_finite("weight profile", delta=self.delta, beta=self.beta)
        if self.delta <= 0:
            raise ConfigError(f"profile width must be positive, got {self.delta}")
        if self.kind == EXPONENTIAL and not 0 < self.beta < 1:
            raise ConfigError(f"exponential tail must lie in (0, 1), got {self.beta}")


@dataclass(frozen=True)
class InteractionParams:
    """Gains and conventions for the pair force; shared by every agent in a run."""

    kr: float = 2.0
    kt: float = 1.0
    mode: str = SPRING_MODE
    circulation: str = CCW
    axis: tuple = (0.0, 0.0, 1.0)  # circulation axis, 3-D only

    def __post_init__(self):
        require_finite("interaction", kr=self.kr, kt=self.kt, axis=self.axis)
        if self.kr < 0 or self.kt < 0:
            raise ConfigError("interaction gains must be non-negative")
        if self.mode not in (UNIT_MODE, SPRING_MODE):
            raise ConfigError(f"unknown interaction mode {self.mode!r}")
        if self.circulation not in (CCW, CW):
            raise ConfigError(f"circulation must be 'ccw' or 'cw', got {self.circulation!r}")


@dataclass(frozen=True)
class ObstacleRepulsionParams:
    """Short-range wall cushion: peak strength and influence distance."""

    strength: float = 6.0
    influence: float = 0.25

    def __post_init__(self):
        require_finite("obstacle repulsion", strength=self.strength, influence=self.influence)
        if self.influence <= 0:
            raise ConfigError(f"repulsion influence distance must be positive, got {self.influence}")
        if self.strength < 0:
            raise ConfigError(f"repulsion strength must be non-negative, got {self.strength}")


# ---------------------------------------------------------------------------
# Weight profiles
# ---------------------------------------------------------------------------

def interaction_weights(r, contact, profile: WeightProfile):
    """Vectorized weight evaluation; r and contact broadcast together.

    The weight is 1 at the contact distance and falls along the profile
    across the annulus. The linear, sinusoidal and spring weights reach zero
    at contact + delta and stay zero beyond it. The exponential weight keeps
    its tail value beta at contact + delta and is cut to zero just beyond, so
    its pair force is discontinuous there and a path crossing that
    separation turns by a finite angle (a corner, see `weight_can_jump`).
    Below contact the linear/sinusoidal/exponential weights stay clamped at 1,
    so an (invalid) overlapping pair still repels; the spring profile keeps
    its literal step factors and vanishes there instead, which is a second
    jump, at contact.
    """
    return gap_weights(np.asarray(r, float) - contact, profile)


def gap_weights(s, profile: WeightProfile):
    """`interaction_weights` of the surface gap s = r - contact."""
    d = profile.delta
    if profile.kind == SPRING:
        w = np.where((s >= 0) & (s < d), 1.0 - s / d, 0.0)
    elif profile.kind == LINEAR:
        w = np.where(s < d, 1.0 - np.clip(s, 0.0, d) / d, 0.0)
    elif profile.kind == SINUSOIDAL:
        w = np.where(s < d, 0.5 * (np.cos(np.pi * np.clip(s, 0.0, d) / d) + 1.0), 0.0)
    else:
        alpha = math.log(profile.beta) / d
        w = np.where(s <= d, np.exp(alpha * np.clip(s, 0.0, d)), 0.0)
    return w


def _narrow_rings(radii, reach, profile: WeightProfile):
    """Rows whose sensing ring ends inside the profile's support, where the
    weight is still positive; None without sensing rings."""
    if reach is None:
        return None
    return np.asarray(reach, float) < np.asarray(radii, float) + profile.delta


def weight_can_jump(profile: WeightProfile, radii, reach=None) -> bool:
    """True when some pair weight can switch discontinuously for these bodies.

    A jump sits wherever a pair enters or leaves the weight's support at a
    boundary with a non-zero one-sided limit: the exponential edge (beta),
    the spring profile's contact step, and any sensing ring narrower than
    delta (the ring cuts the weight off while it is still positive).
    """
    if profile.kind in (EXPONENTIAL, SPRING):
        return True
    narrow = _narrow_rings(radii, reach, profile)
    return narrow is not None and bool(np.any(narrow))


def _jump_inner(w, gap, profile: WeightProfile, narrow_rows):
    """Flags of the directed pairs on the inner side of a boundary where their
    weight jumps: a flag changes between two snapshots exactly when its pair
    crosses such a boundary. `narrow_rows` flags each pair whose agent has a
    narrow ring (None when no agent has one)."""
    if profile.kind == EXPONENTIAL:
        return w > 0                # the edge, and any narrower ring, cut a positive weight
    if profile.kind == SPRING:
        inner = gap < 0             # the contact step; the outer edge is continuous
    else:
        inner = np.zeros(w.shape, dtype=bool)
    if narrow_rows is not None:
        inner = np.where(narrow_rows, w > 0, inner)
    return inner


# ---------------------------------------------------------------------------
# Pair force
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def pair_index(n: int) -> np.ndarray:
    """(2, n (n - 1) / 2) read-only array of the pairs i < j (first row i,
    second row j) in np.triu_indices order. Cached: building it costs more
    than a small group's whole pair pass."""
    pairs = np.array(np.triu_indices(n, k=1))
    pairs.flags.writeable = False
    return pairs


class NearPairs(NamedTuple):
    """The pairs of one snapshot whose surface gap is at most delta, each in
    both directions: the first half acts on j of each pair i < j, the second
    half on its i, both halves in pair-table order."""

    rows: np.ndarray        # the agent acted on
    cols: np.ndarray        # its partner
    rel: np.ndarray         # (2 n, dim): x_row - x_col
    dist: np.ndarray
    gap: np.ndarray         # dist - (radius_row + radius_col)
    weight: np.ndarray      # gap_weights(gap), before any ring cut


def pair_gaps(positions, radii):
    """One pass over the pair table: (i, j, rel, dist, gap) for every pair
    i < j in pair-table order, with rel = x_i - x_j, dist = |rel| and the
    surface gap dist - (radius_i + radius_j). Distances are the same
    floating-point sums as a dense `np.linalg.norm(rel, axis=-1)`: squares
    added left to right."""
    index = pair_index(len(positions))
    i, j = index[0], index[1]
    rel = positions.take(i, axis=0) - positions.take(j, axis=0)
    dist = axis_norms(rel)
    return i, j, rel, dist, dist - (radii.take(i) + radii.take(j))


def near_pairs(positions, radii, profile: WeightProfile) -> NearPairs:
    """The pairs of a snapshot whose gap dist - contact is at most the
    profile width delta, with their weights.

    Every weight profile is exactly zero at a larger gap (`gap_weights`), so
    the pairs left out carry no weight, no force and no switch: the cut-off
    is exact, not an approximation.
    """
    i, j, rel, dist, gap = pair_gaps(positions, radii)
    near = np.flatnonzero(gap <= profile.delta)
    if not len(near):
        none = dist[:0]
        return NearPairs(i[:0], j[:0], rel[:0], none, none, none)
    if len(near) < len(gap):
        rel = rel.take(near, axis=0)
        dist = dist.take(near)
        gap = gap.take(near)
        i, j = i.take(near), j.take(near)
    gap = np.concatenate([gap, gap])
    # x_j - x_i is the exact negation of x_i - x_j
    return NearPairs(np.concatenate([j, i]), np.concatenate([i, j]), np.concatenate([-rel, rel]),
                     np.concatenate([dist, dist]), gap, gap_weights(gap, profile))


def _row_sums(rows, cols, values, n: int) -> np.ndarray:
    """Row sums of the (n, n) matrix holding `values` at (rows, cols) and
    zeros elsewhere, bit for bit equal to its dense `.sum(axis=1)`.

    NumPy sums a contiguous row pairwise, not left to right, which matters
    once a row holds three or more non-zero terms; those rows are summed as
    dense rows of their own. Up to two, every order gives the same sum.
    """
    total = np.bincount(rows, values, minlength=n)
    live = values != 0
    if np.count_nonzero(live) < 3:
        return total
    many = np.flatnonzero(np.bincount(rows[live], minlength=n) > 2)
    if len(many):
        slot = np.full(n, -1)
        slot[many] = np.arange(len(many))
        pick = slot[rows] >= 0
        dense = np.zeros((len(many), n))
        dense[slot[rows[pick]], cols[pick]] = values[pick]
        total[many] = dense.sum(axis=1)
    return total


def sigma_activity(positions, radii, profile: WeightProfile, pairs=None) -> np.ndarray:
    """Per-agent sum of the interaction weights against all other agents
    (no sensing-ring cut), summed over the near pairs only: the weight of
    every other pair is exactly zero. The sums equal those of the dense
    (L, L) weight matrix bit for bit (see `_row_sums`). `pairs` is the
    snapshot's `near_pairs` when the caller already has them."""
    pos = np.asarray(positions, float)
    if pairs is None:
        pairs = near_pairs(pos, np.asarray(radii, float), profile)
    return _row_sums(pairs.rows, pairs.cols, pairs.weight, len(pos))


def crf_forces(positions, radii, params: InteractionParams, profile: WeightProfile,
               suppressed=None, reach=None, switch_key=False, pairs=None):
    """Summed pair forces for all agents at once.

    The force on agent i from agent j is w * (kr * radial + kt * circ),
    with rel = x_i - x_j and w the pair weight (zero outside contact + delta,
    which keeps the interaction strictly local). In unit mode the radial and
    circulating parts are unit vectors; in spring mode they scale with the
    separation (radial = rel, circ = rel turned by 90 degrees, or crossed
    with the circulation axis in 3-D).

    positions: (L, dim); radii: (L,). Rows listed in `suppressed` get a zero
    sum (their presence still acts on everyone else). When `reach` is given,
    row i only feels agents whose bodies intersect its sensing ring. A pair
    at numerically the same point (an upstream-prevented degenerate case)
    has no direction and contributes nothing to either agent.

    Only the pairs from `near_pairs` are evaluated: every other weight is
    exactly zero, so past the one pass that finds them the cost follows the
    number of pairs in range. Each agent's forces are summed in increasing
    partner index, the left-to-right order in which NumPy sums the partner
    axis of a dense (L, L, dim) array, so the result equals that dense sum
    bit for bit, the sign of a zero sum included.

    With `switch_key`, returns (forces, key): key is an (L, L) boolean mask,
    taken from the same weights, of the pairs on the inner side of a
    boundary where their weight jumps (see `weight_can_jump`). Agent i's pair
    force switches discontinuously between two snapshots exactly when row i
    of their keys differs. Suppressed rows never switch.

    `pairs` is the snapshot's `near_pairs` when the caller already has them.
    """
    pos = np.asarray(positions, float)
    radii = np.asarray(radii, float)
    L, dim = pos.shape
    if pairs is None:
        pairs = near_pairs(pos, radii, profile)
    rows, cols, rel, dist, gap, w = pairs
    total = np.zeros((L, dim))
    if len(rows):
        # a coincident pair has no direction; a partner outside the ring is unseen
        keep = dist >= 1e-12
        if reach is not None:
            keep &= dist <= np.asarray(reach, float).take(rows) + radii.take(cols)
        w = w * keep
        force = _pair_force_terms(rel, dist, w, params)
        force *= w[:, None]
        for a in range(dim):
            total[:, a] = np.bincount(rows, force[:, a], minlength=L)
        if suppressed:
            total[list(suppressed)] = 0.0
    if not switch_key:
        return total

    narrow = _narrow_rings(radii, reach, profile)
    if narrow is not None and not np.count_nonzero(narrow):
        narrow = None
    key = np.zeros((L, L), dtype=bool)
    key[rows, cols] = _jump_inner(w, gap, profile, None if narrow is None else narrow.take(rows))
    if profile.kind == SPRING:
        # an agent is at distance 0 < contact from itself: inside the step,
        # unless its narrow ring cuts the zero self-weight
        key.flat[::L + 1] = True if narrow is None else ~narrow
    if suppressed:
        key[list(suppressed)] = False
    return total, key


def _pair_force_terms(rel, dist, w, params: InteractionParams):
    """kr * radial + kt * circ for each directed pair; w > 0 marks the pairs
    whose 3-D circulating direction must not vanish."""
    if rel.shape[1] == 2:
        tan = rel[:, ::-1] * (_CW_TURN if params.circulation == CW else _CCW_TURN)
    else:
        tan = np.cross(np.asarray(params.axis, float), rel)
        # rel parallel to the axis: cross with x instead, and with y if rel
        # is parallel to x as well
        for fallback in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)):
            bad = (np.linalg.norm(tan, axis=1) < 1e-9 * np.maximum(dist, 1e-30)) & (w > 0)
            if not np.count_nonzero(bad):
                break
            tan[bad] = np.cross(np.array(fallback), rel[bad])
        if params.circulation == CW:
            tan = -tan
    if params.mode == UNIT_MODE:
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = np.where(dist > 0, 1.0 / dist, 0.0)
            tnorm = np.linalg.norm(tan, axis=1)
            tinv = np.where(tnorm > 0, 1.0 / tnorm, 0.0)
        return params.kr * (rel * inv[:, None]) + params.kt * (tan * tinv[:, None])
    return params.kr * rel + params.kt * tan


# ---------------------------------------------------------------------------
# Obstacle repulsion
# ---------------------------------------------------------------------------

class KnownBoundaryIndex:
    """Nearest-cell lookup over an agent's discovered boundary cells.

    Distances are measured to the cell boxes, not their centers, so the
    virtual wall coincides with the rasterized obstacle face.
    """

    def __init__(self, grid: GridSpec, cells):
        self.grid = grid
        idx = np.array(sorted(cells), dtype=float).reshape(-1, grid.dim)
        self.centers = np.asarray(grid.origin) + (idx + 0.5) * grid.h
        self.half = grid.h / 2.0
        # each cell box's lower and upper corner
        self.box_lo = self.centers - self.half
        self.box_hi = self.centers + self.half
        self.tree = cKDTree(self.centers) if len(self.centers) else None

    def __len__(self):
        return len(self.centers)

    def clearance_normal(self, points):
        """(distance, outward unit normal) from each point to its nearest known cell."""
        X = np.atleast_2d(np.asarray(points, float))
        L = X.shape[0]
        if self.tree is None:
            return np.full(L, np.inf), np.zeros_like(X)
        k = min(4, len(self.centers))
        _, ii = self.tree.query(X, k=k)
        ii = ii.reshape(L, k)
        # each point's offset from its nearest spot on each candidate box (L, k, dim)
        Xk = X[:, None, :]
        vec = Xk - np.minimum(np.maximum(Xk, self.box_lo.take(ii, axis=0)),
                             self.box_hi.take(ii, axis=0))
        d = axis_norms(vec)
        best = d.argmin(axis=1)
        rows = np.arange(L)
        dist = d[rows, best]
        normal = vec[rows, best]
        inside = dist < 1e-12
        if inside.any():
            # point sits inside the cell box: fall back to the center direction
            centers = self.centers[ii[rows, best]]
            alt = X - centers
            alt_n = np.linalg.norm(alt, axis=1)
            for i in np.where(inside)[0]:
                if alt_n[i] > 1e-12:
                    normal[i] = alt[i] / alt_n[i]
                else:
                    normal[i] = np.eye(X.shape[1])[0]
            dist[inside] = 0.0
        np.divide(normal, dist[:, None], out=normal, where=dist[:, None] > 0)
        return dist, normal


def repulsion_batch(points, radii, index: KnownBoundaryIndex,
                    params: ObstacleRepulsionParams):
    """Wall cushion for several bodies sharing one index: (forces, penetrated flags).

    The clearance is measured from each body surface to the nearest known
    boundary cell; the magnitude falls off quadratically and is exactly zero
    at clearance >= influence. Negative clearance gives the peak force and
    flags a penetration.
    """
    X = np.asarray(points, float)
    dist, normal = index.clearance_normal(X)
    d = dist - np.asarray(radii, float)
    active = d < params.influence
    mag = np.where(active, params.strength * (1.0 - np.maximum(d, 0.0) / params.influence) ** 2, 0.0)
    return mag[:, None] * normal, d < 0


def circulation_bound_check(kt: float, stats) -> str | None:
    """Deadlock-freedom heuristic: the circulating gain should dominate the
    summed peak gradient magnitudes of all goal fields. Returns a warning
    message, or None when the bound holds (or cannot matter, single agent)."""
    stats = list(stats)
    if len(stats) <= 1:
        return None
    bound = float(sum(s.max_gradient for s in stats))
    if kt < bound:
        return (f"circulating gain {kt:g} is below the conservative "
                f"deadlock-freedom bound {bound:.4g}")
    return None
