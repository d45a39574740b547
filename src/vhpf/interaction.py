"""Pairwise conflict-resolution forces and localized obstacle repulsion.

Two agents interact only while their separation sits in the annulus between
contact distance and contact + delta; inside it a weight profile scales a
radial push-apart term plus a circulating term orthogonal to it. Every agent
circulates the same way, which is what lets jams unwind instead of locking.

Every per-agent sum over partners, forces and weights alike, runs left to
right in increasing partner index.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .world import ConfigError, GridSpec, axis_norms, reach_dilation, require_finite

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
    mode: str = UNIT_MODE
    circulation: str = CCW
    axis: tuple[float, ...] = (0.0, 0.0, 1.0)  # circulation axis, 3-D only

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
    separation turns by a finite angle (a corner, see `PairSetup.jumps`).
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
    """One snapshot's pass over a pair table. Its pairs are those whose
    surface gap is at most delta, each in both directions: the first half
    acts on j of each pair i < j, the second half on its i, both halves in
    table order. `table` lists the pairs i < j the pass measured and
    `table_gap` their gaps: every pair of the group on a full pass."""

    rows: np.ndarray        # the agent acted on
    cols: np.ndarray        # its partner
    rel: np.ndarray         # (2 n, dim): x_row - x_col
    dist: np.ndarray
    gap: np.ndarray         # dist - (radius_row + radius_col)
    weight: np.ndarray      # gap_weights(gap), before any ring cut
    table: np.ndarray       # (2, m): the measured pairs i < j, in np.triu_indices order
    table_gap: np.ndarray   # (m,) their gaps


def near_pairs(positions, radii, profile: WeightProfile, table=None, setup=None) -> NearPairs:
    """The pairs of a snapshot whose gap dist - contact is at most the
    profile width delta, with their weights, from one pass over a pair
    table: rel = x_i - x_j, dist = |rel| and the surface gap
    dist - (radius_i + radius_j) for every pair i < j of `table`, a (2, m)
    array in `pair_index` order; by default every pair of the group
    (`pair_index`), the full pass. Distances are the same floating-point
    sums as a dense `np.linalg.norm(rel, axis=-1)`: squares added left to
    right.

    Every weight profile is exactly zero at a larger gap (`gap_weights`), so
    the pairs left out carry no weight, no force and no switch: the cut-off
    is exact, not an approximation. Each pair is measured with the same
    elementwise arithmetic whatever else the table holds, so a table that
    holds every pair within the cut-off gives the same near pairs, bit for
    bit, as the full pass (`stage_pairs` relies on it).

    `setup` is the group's `pair_setup`, from a caller that makes many
    passes: a pass over an empty table then returns its read-only
    `no_pairs`.
    """
    if table is None:
        table = pair_index(len(positions))
    i, j = table
    if not len(i):  # nothing to measure, as on most RK4 stages of a sparse group
        if setup is not None:
            return setup.no_pairs
        none = np.empty(0)
        return NearPairs(i, j, np.empty((0, positions.shape[1])), none, none, none, table, none)
    rel = positions.take(i, axis=0) - positions.take(j, axis=0)
    dist = axis_norms(rel)
    table_gap = gap = dist - (radii.take(i) + radii.take(j))
    near = (gap <= profile.delta).nonzero()[0]
    n = len(near)
    if not n:
        none = dist[:0]
        return NearPairs(i[:0], j[:0], rel[:0], none, none, none, table, table_gap)
    # each near pair twice: the first half acts on j, the second on i
    twice = np.concatenate((near, near))
    ends = table.take(twice, axis=1)
    ends[:, :n] = ends[::-1, :n]
    rel = rel.take(twice, axis=0)
    np.negative(rel[:n], out=rel[:n])   # x_j - x_i is the exact negation of x_i - x_j
    gap = gap.take(twice)
    return NearPairs(ends[0], ends[1], rel, dist.take(twice), gap, gap_weights(gap, profile),
                     table, table_gap)


class StageRoom(NamedTuple):
    """What the RK4 stages of a tick read of the tick's full `near_pairs`
    pass besides its table, made once per tick by `stage_room`."""

    far_gap: float              # the smallest gap of a pair beyond the cut-off (inf without one)
    near_table: np.ndarray      # (2, n): the pass's near pairs i < j, in table order
    x_max: float                # the snapshot's largest |coordinate|; inf without a far pair


def stage_room(pairs: NearPairs, positions, profile: WeightProfile,
               setup: PairSetup) -> StageRoom:
    """The `StageRoom` of a full pass at `positions`. A gap that is not
    within the cut-off (NaN included) counts as far, so a NaN gap makes
    `far_gap` NaN. Without a near pair every gap is far, and the near table
    is the read-only empty table of `setup`, the group's `pair_setup`.
    `x_max` is measured only when some pair is far: the stages read it only
    then."""
    gap = pairs.table_gap
    half = len(pairs.rows) // 2     # the number of near pairs
    if half:
        far = gap[~(gap <= profile.delta)]
        near_table = np.stack((pairs.rows[half:], pairs.cols[half:]))
    else:
        far = gap
        near_table = setup.no_pairs.table
    if not len(far):
        return StageRoom(math.inf, near_table, math.inf)
    return StageRoom(float(far.min()), near_table, float(np.abs(positions).max()))


def stage_pairs(pairs: NearPairs, positions, h: float, k, radii, profile: WeightProfile,
                room: StageRoom, setup: PairSetup) -> NearPairs:
    """`near_pairs` at the stage positions x + h * k, measured only on the
    pairs that can be within the cut-off there: `pairs` is the full pass at
    x, `room` its `stage_room`, `positions` the stage's x + h * k and k its
    slope, one row per agent. No body moved farther than
    m = |h| max_i |k_i| (up to rounding), so no gap shrank by more than 2 m
    (the Verlet list with a skin, the skin here being the displacement
    bound itself).

    A pair is measured unless its gap at x is greater than
    delta + 2 m + slack, with slack = 1e-9 (1 + delta + max |x| + m): the
    roundings in the gaps, in x + h * k and in m are relative to those
    magnitudes, so the slack dominates them at any scale, and it only adds
    pairs. When the smallest far gap of `room` is greater than that bound,
    the pairs measured are the pass's near pairs, read from `room` without
    a look at the table; so are they when the pass found no far pair,
    without a look at the slope. The tests are written as "greater", so a
    NaN or infinite slope measures every pair. The near pairs, their
    relative positions, distances, gaps and weights equal those of
    `near_pairs(positions, radii, profile)` bit for bit; a stage that
    measures no pair returns the read-only `no_pairs` of `setup`, the
    group's `pair_setup`.
    """
    table = room.near_table
    if table.shape[1] < len(pairs.table_gap):   # some pair is far: can this stage bring one in?
        moved = abs(h) * math.sqrt(float((k * k).sum(axis=1).max()))
        bound = profile.delta + 2.0 * moved + 1e-9 * (1.0 + profile.delta + room.x_max + moved)
        if not room.far_gap > bound:
            table = pairs.table.compress(~(pairs.table_gap > bound), axis=1)
    return near_pairs(positions, radii, profile, table, setup)


def sigma_activity(positions, radii, profile: WeightProfile, pairs=None, setup=None) -> np.ndarray:
    """Per-agent sum of the interaction weights against all other agents
    (no sensing-ring cut), summed over the near pairs only: the weight of
    every other pair is exactly zero. One `np.bincount` adds them in the
    order of the near pairs, which within an agent's row is increasing
    partner index. `pairs` is the snapshot's `near_pairs` when the caller
    already has them. `setup` is the group's `pair_setup`, from a caller
    that evaluates many snapshots: a pass without near pairs then returns
    its read-only `no_sigma`, the zeros that the sums would make."""
    pos = np.asarray(positions, float)
    if pairs is None:
        pairs = near_pairs(pos, np.asarray(radii, float), profile, setup=setup)
    if setup is not None and not len(pairs.rows):
        return setup.no_sigma
    return np.bincount(pairs.rows, pairs.weight, minlength=len(pos))


class PairSetup(NamedTuple):
    """What the pair law reads of a group besides the snapshot: made once
    per group by `pair_setup`, so that evaluating many snapshots does not
    make it again. The `no_*` arrays are read-only: the results of a pass
    without near pairs, which most passes are, returned as they are."""

    reach: np.ndarray | None    # each agent's sensing reach; None without rings
    narrow: np.ndarray | None   # rows whose ring ends inside the support; None when none does
    suppressed: list            # rows whose own sum is dropped
    # some pair weight can switch discontinuously: a pair enters or leaves the
    # support at a boundary with a non-zero one-sided limit, the exponential
    # edge (beta), the spring profile's contact step or a ring narrower than delta
    jumps: bool
    turn: np.ndarray            # 2-D: rel[:, ::-1] times this is rel turned by 90 degrees
    axis: np.ndarray            # 3-D: the circulation axis
    no_forces: np.ndarray       # (L, dim) zeros: `crf_forces`
    no_switch: np.ndarray       # (0,): the switch key of `crf_forces`, holding no pair
    no_sigma: np.ndarray        # (L,) zeros: `sigma_activity`
    no_pairs: NearPairs         # the pass over an empty table; its table is the empty near table


def pair_setup(radii, dim: int, params: InteractionParams, profile: WeightProfile,
               suppressed=None, reach=None) -> PairSetup:
    """The `PairSetup` of these bodies, in `dim` dimensions, and settings."""
    radii = np.asarray(radii, float)
    L = len(radii)
    if reach is not None:
        reach = np.asarray(reach, float)
    narrow = _narrow_rings(radii, reach, profile)
    if narrow is not None and not np.count_nonzero(narrow):
        narrow = None
    suppressed = list(suppressed) if suppressed else []
    jumps = profile.kind in (EXPONENTIAL, SPRING) or narrow is not None
    no_forces, no_sigma = np.zeros((L, dim)), np.zeros(L)
    empty = np.zeros((2, 0), dtype=np.intp)
    for a in (no_forces, no_sigma, empty):
        a.flags.writeable = False
    rel, none = no_forces[:0], no_sigma[:0]     # read-only views
    return PairSetup(reach, narrow, suppressed, jumps,
                     _CW_TURN if params.circulation == CW else _CCW_TURN,
                     np.asarray(params.axis, float), no_forces, empty[0], no_sigma,
                     NearPairs(empty[0], empty[1], rel, none, none, none, empty, none))


def crf_forces(positions, radii, params: InteractionParams, profile: WeightProfile,
               suppressed=None, reach=None, pairs=None, setup=None):
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

    Only the near pairs are evaluated: every other weight is exactly zero,
    so the cost follows the number of pairs in range. `pairs` is the
    snapshot's `near_pairs`, or a `stage_pairs` pass, which holds the same
    near pairs; without it the call makes a full pass. Each agent's forces
    are summed in increasing partner index, the left-to-right order in
    which NumPy sums the partner axis of a dense (L, L, dim) array, so the
    result equals that dense sum bit for bit, the sign of a zero sum
    included.

    Returns (forces, key). The switch key holds, as flat codes
    row * L + col in near-pair order, the directed near pairs on the inner
    side of a boundary where their weight jumps (`PairSetup.jumps`), with
    suppressed rows left out: agent i's pair force switches discontinuously
    between two snapshots exactly when `np.setxor1d` of their keys holds a
    code of row i, and two keys of the same pairs have the same bytes.

    `setup` is `pair_setup` of the same radii, params, profile, suppressed
    and reach, from a caller that evaluates many snapshots of one group;
    without it the call makes its own. A pass without near pairs returns
    the setup's read-only `no_forces`, and such a pass or a law that cannot
    jump its empty `no_switch`, as they are, so two such keys are the same
    object.
    """
    pos = np.asarray(positions, float)
    radii = np.asarray(radii, float)
    if setup is None:
        setup = pair_setup(radii, pos.shape[1], params, profile, suppressed, reach)
    if pairs is None:
        pairs = near_pairs(pos, radii, profile, setup=setup)
    rows, cols, rel, dist, gap, w = pairs[:6]
    if not len(rows):
        return setup.no_forces, setup.no_switch
    # a coincident pair has no direction; a partner outside the ring is unseen
    keep = dist >= 1e-12
    if setup.reach is not None:
        keep &= dist <= setup.reach.take(rows) + radii.take(cols)
    w = w * keep
    force = _pair_force_terms(rel, dist, w, params, setup)
    force *= w[:, None]
    L, dim = pos.shape
    total = np.zeros((L, dim))
    for a in range(dim):
        total[:, a] = np.bincount(rows, force[:, a], minlength=L)
    if setup.suppressed:
        total[setup.suppressed] = 0.0
    if not setup.jumps:
        return total, setup.no_switch
    narrow = setup.narrow
    inner = _jump_inner(w, gap, profile, None if narrow is None else narrow.take(rows))
    if setup.suppressed:
        inner &= ~np.isin(rows, setup.suppressed)
    at = inner.nonzero()[0]
    return total, rows.take(at) * L + cols.take(at)


def _pair_force_terms(rel, dist, w, params: InteractionParams, setup: PairSetup):
    """kr * radial + kt * circ for each directed pair; w > 0 marks the pairs
    whose 3-D circulating direction must not vanish."""
    if rel.shape[1] == 2:
        tan = rel[:, ::-1] * setup.turn
    else:
        tan = np.cross(setup.axis, rel)
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

class NearestRows(NamedTuple):
    """A `KnownBoundaryIndex`'s nearest-box table for one reach, over the
    grid padded by `pad` + 1 cells on each side."""
    boxes: np.ndarray       # the rows' box numbers one after another, then sentinels
    start: np.ndarray       # flat padded cell -> where its row starts (the sentinels if empty)
    columns: np.ndarray     # 0, 1, ... up to the widest row's length
    origin: np.ndarray      # the padded grid's lower corner
    top: np.ndarray         # the padded grid's highest cell index per axis, as floats
    strides: np.ndarray     # of the padded grid, as floats


class KnownBoundaryIndex:
    """Nearest-box lookup over the cells of a boolean grid mask, an agent's
    discovered boundary cells. The index keeps its own copy of the mask and
    orders the cells as `np.argwhere` does, in C order.

    Distances are measured to the cell boxes, not their centers, so the
    virtual wall coincides with the rasterized obstacle face.

    `within_reach` tells the points that may lie within a distance `reach`
    of a known cell box from those that cannot, on a boolean grid: the known
    cells' `world.reach_dilation`. A point outside the grid counts as in its
    nearest rim cell, which is no farther from any known box.

    `clearance_normal` finds the exact nearest box of each point that has a
    box within `reach`, from a table of candidate boxes per cell
    (`_nearest_rows`). Both grids are made once per reach, at the first
    query that needs them.
    """

    def __init__(self, grid: GridSpec, mask):
        self.grid = grid
        self.mask = np.array(mask, dtype=bool)     # a copy: the agent's map grows on
        # argwhere's rows are a column-major view; row-major boxes are faster to take from
        self.cells = np.ascontiguousarray(np.argwhere(self.mask))
        self.centers = grid.cell_centers(self.cells)
        self.half = grid.h / 2.0
        # each cell box's lower and upper corner, then those of a sentinel box
        # at +inf, which pads the rows of the nearest-box tables
        sentinel = np.full((1, grid.dim), np.inf)
        self._box_lo = np.concatenate((self.centers - self.half, sentinel))
        self._box_hi = np.concatenate((self.centers + self.half, sentinel))
        self.box_lo, self.box_hi = self._box_lo[:-1], self._box_hi[:-1]
        self._axes = tuple(zip(map(float, grid.origin), grid.shape))
        self._reach = {}    # reach -> the within-reach grid, flat bytes
        self._nearest = {}  # reach -> NearestRows

    def _reach_cells(self, reach) -> bytes:
        """The known cells' reach dilation, one byte per cell in C order,
        made once per reach."""
        if reach not in self._reach:
            self._reach[reach] = reach_dilation(self.mask, self.grid.h, reach).tobytes()
        return self._reach[reach]

    def within_reach(self, points, reach) -> bool:
        """False only when each of the points (rows of floats) is farther
        than `reach` from every known cell box; a non-finite point may be
        anywhere."""
        flat = self._reach_cells(reach)
        axes, h = self._axes, float(self.grid.h)
        for p in points:
            at = 0
            for x, (o, n) in zip(p, axes):
                t = (x - o) / h
                if t >= n:
                    c = n - 1
                elif t >= 0:
                    c = int(t)
                elif t < 0:
                    c = 0
                else:   # NaN
                    return True
                at = at * n + c
            if flat[at]:
                return True
        return False

    def _nearest_rows(self, reach) -> NearestRows:
        """For each cell, the known boxes that can be nearest to some point
        of it within reach + h; made once per reach.

        In units of h, a cell is [0, 1] along each axis and a box at offset
        o from it is [o, o + 1], at distance max(o - t, 0, t - o - 1) from
        the point t of the cell along that axis. The difference of the
        squared distances to two boxes is a sum of terms in one coordinate
        each, and each term is least at t = 0 or t = 1. So box o is farther
        than box w from every point of the cell exactly when the sum of
        those least terms, an integer, is positive. A row holds its cell's
        boxes within reach + h that are not farther everywhere than the
        cell's witness, its box of least farthest distance. A box that is
        nearest to some point of the cell is never farther everywhere than
        the witness, so no box in reach of a point is nearer than its row's
        best. The margin of h and the integer gap keep that true for a point
        that floor rounding puts in a neighbouring cell. Rows list their
        boxes by farthest distance, then by center distance from the cell,
        one row after another, and the grid is padded by cells with empty
        rows, to which every point off the padded grid is clipped.
        """
        table = self._nearest.get(reach)
        if table is not None:
            return table
        dim, shape = self.grid.dim, np.asarray(self.grid.shape)
        span = reach / float(self.grid.h) + 1.0
        pad = math.floor(span) + 1      # the largest offset along an axis within span
        axis = np.arange(-pad, pad + 1)
        off = np.stack(np.meshgrid(*[axis] * dim, indexing="ij"), axis=-1).reshape(-1, dim)
        gap = np.maximum(np.abs(off) - 1, 0)
        off = off[(gap * gap).sum(axis=1) <= span * span]
        farthest = ((np.abs(off) + 1) ** 2).sum(axis=1)
        off = off[np.lexsort(((off * off).sum(axis=1), farthest))]
        # least[u, v]: the least over t in {0, 1} of the squared distance along
        # an axis to a box at offset u minus that to a box at offset v
        t = np.array([0, 1])
        u = axis[:, None]
        sq = np.maximum(np.maximum(u - t, 0), t - u - 1) ** 2
        least = (sq[:, None, :] - sq[None, :, :]).min(axis=2).ravel()

        padded = shape + 2 * pad + 2
        strides = np.ones(dim, dtype=np.int64)
        for a in range(dim - 2, -1, -1):
            strides[a] = strides[a + 1] * padded[a + 1]
        n_off, n_box = len(off), len(self.cells)
        box_key = (self.cells + pad + 1) @ strides
        # one slab of offsets (one offset along axis 0) at a time, which keeps
        # the (offsets, boxes) arrays small for a large 3-D map
        slabs = [np.flatnonzero(off[:, 0] == k) for k in axis]

        def pairs(slab):
            # the flat padded cell from which each box lies at each offset
            return box_key[None, :] - (off[slab] @ strides)[:, None]

        witness = np.full(int(padded.prod()), n_off)
        for slab in slabs:
            key = pairs(slab)
            np.minimum.at(witness, key.ravel(), np.repeat(slab, n_box))
        found = []
        for slab in slabs:
            key = pairs(slab)
            w = witness[key]
            excess = np.zeros(key.shape, dtype=np.int64)
            for a in range(dim):
                excess += least[(off[slab, a, None] + pad) * len(axis) + off[w, a] + pad]
            keep = excess <= 0
            found.append((key[keep], np.broadcast_to(slab[:, None], key.shape)[keep],
                          np.broadcast_to(np.arange(n_box), key.shape)[keep]))
        cells, offsets, boxes = (np.concatenate(a) for a in zip(*found))
        # grouped by cell, each group in offset order
        order = np.lexsort((offsets, cells))
        cells, boxes = cells[order], boxes[order]
        first = np.flatnonzero(np.concatenate(([True], cells[1:] != cells[:-1])))
        width = int(np.diff(np.append(first, len(cells))).max())
        start = np.full(int(padded.prod()), len(cells))
        start[cells[first]] = first
        h = float(self.grid.h)
        table = NearestRows(np.concatenate((boxes, np.full(width, n_box))), start,
                            np.arange(width), np.asarray(self.grid.origin, float) - (pad + 1) * h,
                            (padded - 1).astype(float), strides.astype(float))
        self._nearest[reach] = table
        return table

    def __len__(self):
        return len(self.centers)

    def clearance_normal(self, points, reach):
        """(distance, outward unit normal) from each point to its nearest
        known cell box; (inf, 0) where no box lies within `reach`. A
        non-finite point raises ValueError."""
        X = np.atleast_2d(np.asarray(points, float))
        L = X.shape[0]
        if not L or not len(self.centers):
            return np.full(L, np.inf), np.zeros_like(X)
        if not np.isfinite(X).all():
            raise ValueError(f"cushion query points must be finite, got {X.tolist()}")
        table = self._nearest_rows(reach)
        cell = np.floor_divide(X - table.origin, self.grid.h)
        np.clip(cell, 0.0, table.top, out=cell)
        # each point's row, read to the widest row's length: past its end lie
        # boxes of later rows, no nearer than the row's best when that is
        # within reach, or sentinels
        ii = table.boxes[table.start[(cell @ table.strides).astype(np.intp)][:, None]
                         + table.columns]
        # each point's offset from its nearest spot on each candidate box (L, width, dim)
        Xk = X[:, None, :]
        vec = Xk - np.minimum(np.maximum(Xk, self._box_lo.take(ii, axis=0)),
                             self._box_hi.take(ii, axis=0))
        d = axis_norms(vec)
        best = d.argmin(axis=1)
        rows = np.arange(L)
        dist = d[rows, best]
        normal = vec[rows, best]
        far = dist > reach
        if far.any():
            dist[far] = np.inf
            normal[far] = 0.0
        inside = dist < 1e-12
        if inside.any():
            # point sits inside the cell box: fall back to the center direction
            at = np.flatnonzero(inside)
            alt = X[at] - self.centers[ii[at, best[at]]]
            alt_n = np.linalg.norm(alt, axis=1)
            for k, i in enumerate(at):
                if alt_n[k] > 1e-12:
                    normal[i] = alt[k] / alt_n[k]
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
    flags a penetration. A body with no known cell within the largest radius
    plus the influence gets a force of +0.0.
    """
    X = np.asarray(points, float)
    radii = np.asarray(radii, float)
    reach = max(radii.tolist(), default=0.0) + params.influence
    dist, normal = index.clearance_normal(X, reach)
    d = dist - radii
    active = d < params.influence
    mag = np.where(active, params.strength * (1.0 - np.maximum(d, 0.0) / params.influence) ** 2, 0.0)
    return mag[:, None] * normal, d < 0
