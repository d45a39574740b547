"""Pairwise conflict-resolution forces and localized obstacle repulsion.

Two agents interact only while their separation sits in the annulus between
contact distance and contact + delta; inside it a weight profile scales a
radial push-apart term plus a circulating term orthogonal to it. Every agent
circulates the same way, which is what lets jams unwind instead of locking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .world import ConfigError, GridSpec

LINEAR = "linear"
SINUSOIDAL = "sinusoidal"
EXPONENTIAL = "exponential"
SPRING = "spring"
PROFILE_KINDS = (LINEAR, SINUSOIDAL, EXPONENTIAL, SPRING)

UNIT_MODE = "unit"
SPRING_MODE = "spring"

CCW = "ccw"
CW = "cw"


@dataclass(frozen=True)
class WeightProfile:
    """Locality envelope for the pair force. delta is the annulus width."""

    kind: str = LINEAR
    delta: float = 1.5
    beta: float = 0.05  # exponential tail value at contact + delta

    def __post_init__(self):
        if self.kind not in PROFILE_KINDS:
            raise ConfigError(f"unknown weight profile kind {self.kind!r}")
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
    r = np.asarray(r, float)
    s = r - contact
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


def _jump_inner(w, dist, contact, profile: WeightProfile, radii, reach):
    """(L, L) mask of the pairs on the inner side of a boundary where their
    weight jumps: it changes between two snapshots exactly when a pair
    crosses such a boundary."""
    if profile.kind == EXPONENTIAL:
        return w > 0                # the edge, and any narrower ring, cut a positive weight
    if profile.kind == SPRING:
        inner = dist < contact      # the contact step; the outer edge is continuous
    else:
        inner = np.zeros(w.shape, dtype=bool)
    narrow = _narrow_rings(radii, reach, profile)
    if narrow is not None and narrow.any():
        inner[narrow] = w[narrow] > 0
    return inner


# ---------------------------------------------------------------------------
# Pair force
# ---------------------------------------------------------------------------

def crf_forces(positions, radii, params: InteractionParams, profile: WeightProfile,
               suppressed=None, reach=None, switch_key=False):
    """Summed pair forces for all agents at once.

    The force on agent i from agent j is w * (kr * radial + kt * circ),
    with rel = x_i - x_j and w the pair weight (zero outside contact + delta,
    which keeps the interaction strictly local). In unit mode the radial and
    circulating parts are unit vectors; in spring mode they scale with the
    separation (radial = rel, circ = rel turned by 90 degrees, or crossed
    with the circulation axis in 3-D).

    positions: (L, dim); radii: (L,). Rows listed in `suppressed` get a zero
    sum (their presence still acts on everyone else). When `reach` is given,
    row i only feels agents whose bodies intersect its sensing ring.
    Summation runs in agent index order, so results are reproducible bit for
    bit. A pair at numerically the same point (an upstream-prevented
    degenerate case) has no direction and contributes nothing to either agent.

    With `switch_key`, returns (forces, key): key is an (L, L) boolean mask,
    taken from the same weights, of the pairs on the inner side of a
    boundary where their weight jumps (see `weight_can_jump`). Agent i's pair
    force switches discontinuously between two snapshots exactly when row i
    of their keys differs. Suppressed rows never switch.
    """
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
        # rel parallel to the axis: cross with x instead, and with y if rel
        # is parallel to x as well
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
    key = _jump_inner(w, dist, contact, profile, radii, reach)
    if suppressed:
        key[list(suppressed)] = False
    return total, key


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
        cand = self.centers[ii]  # (L, k, dim)
        near = np.clip(X[:, None, :], cand - self.half, cand + self.half)
        vec = X[:, None, :] - near
        d = np.linalg.norm(vec, axis=2)
        best = np.argmin(d, axis=1)
        rows = np.arange(L)
        dist = d[rows, best]
        normal = vec[rows, best]
        inside = dist < 1e-12
        if np.any(inside):
            # point sits inside the cell box: fall back to the center direction
            centers = cand[rows, best]
            alt = X - centers
            alt_n = np.linalg.norm(alt, axis=1)
            for i in np.where(inside)[0]:
                if alt_n[i] > 1e-12:
                    normal[i] = alt[i] / alt_n[i]
                else:
                    normal[i] = np.eye(X.shape[1])[0]
            dist[inside] = 0.0
        ok = ~inside & (dist > 0)
        normal[ok] = normal[ok] / dist[ok, None]
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
    mag = np.where(active, params.strength * (1.0 - np.clip(d, 0.0, None) / params.influence) ** 2, 0.0)
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
