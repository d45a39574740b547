"""Time integration of the collective dynamics, safety monitors, and run metrics.

The loop is synchronous: every agent's control is evaluated on the same
position snapshot, then all positions advance together. Sensing and field
re-solves happen once at the top of a tick; within the tick the fields are
frozen, so integration stages see a fixed control law.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import controller as ctl
from . import harmonic, interaction, world
from .world import ConfigError, Workspace, require_finite

EULER = "euler"
RK4 = "rk4"

CONVERGED = "converged"
DEADLOCK = "deadlock"
TIMEOUT = "timeout"
COLLISION = "collision"

CSV_BLOCK = 2048        # about this many values of the trajectory CSV are rendered at a time


class SimulationError(RuntimeError):
    """The run failed mid-way: control evaluation failed or the state turned
    non-finite. `log` holds the run up to the failure and ends with an
    `error` event."""

    def __init__(self, message, log=None):
        super().__init__(message)
        self.log = log


@dataclass
class SimConfig:
    dt: float = 0.01
    t_max: float = 200.0
    integrator: str = RK4
    v_eps: float | None = None      # None: 1e-3 x mean initial goal-control speed
    w_dead: float = 5.0
    collision_tol: float = 1e-3

    def __post_init__(self):
        require_finite("sim", dt=self.dt, t_max=self.t_max, w_dead=self.w_dead,
                       collision_tol=self.collision_tol, v_eps=self.v_eps)
        if self.dt <= 0:
            raise ConfigError(f"time step must be positive, got {self.dt}")
        if self.t_max <= self.dt:
            raise ConfigError("horizon must exceed the time step")
        if self.integrator not in (EULER, RK4):
            raise ConfigError(f"unknown integrator {self.integrator!r}")
        if self.v_eps is not None and self.v_eps <= 0:
            raise ConfigError("deadlock speed threshold must be positive")
        if self.w_dead <= 0:
            raise ConfigError("deadlock window must be positive")
        if self.collision_tol < 0:
            raise ConfigError("collision tolerance must be non-negative")


class TrajectoryLog:
    """A run's record: each tick's time (`times`) and, as one row of a
    single float64 block of shape (capacity, 2 dim + 1, L), every agent's
    position, control and `sigma_activity`. A row's lines are the position
    axes, the control axes and sigma, each running over the agents, so a
    tick's write is three copies along the agents. The block doubles when
    it is full, starting from one row: a tick costs its data and no
    per-tick object, and capacity not yet written is never touched.
    `positions`, `controls` and `sigma_activity` are read-only views of the
    filled rows: nothing is stacked, and a view taken earlier still reads
    the ticks it covered."""

    def __init__(self, agent_ids, dim):
        self.agent_ids = list(agent_ids)
        self.dim = dim
        self.times = []
        self.switches = []     # (step, (L,) flags) where a pair force switched
        self.events = []
        self.outcome = None
        n_agents = len(self.agent_ids)
        self._shapes = (n_agents,), (n_agents, dim)
        self._hold(np.empty((1, 2 * dim + 1, n_agents)))

    def _hold(self, block):
        """Keep `block` and its (capacity, L, dim) and (capacity, L) views."""
        dim = self.dim
        self._block = block
        self._x = block[:, :dim].transpose(0, 2, 1)
        self._u = block[:, dim:2 * dim].transpose(0, 2, 1)
        self._sigma = block[:, 2 * dim]

    def append(self, t, x, u, sigma):
        """Log one tick: positions x and controls u of shape (L, dim), sigma
        of shape (L,), at a finite time after the last one. Anything else
        raises ValueError and leaves the log as it was."""
        x, u, sigma = np.asarray(x), np.asarray(u), np.asarray(sigma)
        agents, dims = self._shapes
        if x.shape != dims or u.shape != dims or sigma.shape != agents:
            name, got, want = next(f for f in (("positions", x.shape, dims),
                                               ("controls", u.shape, dims),
                                               ("sigma_activity", sigma.shape, agents))
                                   if f[1] != f[2])
            raise ValueError(f"{name} must have shape {want}, got {got}")
        if not math.isfinite(t):
            raise ValueError(f"time must be finite, got {t!r}")
        if self.times and not t > self.times[-1]:
            raise ValueError(f"time must increase: {t!r} after {self.times[-1]!r}")
        n = len(self.times)
        if n == len(self._block):
            grown = np.empty((2 * n, *self._block.shape[1:]))
            grown[:n] = self._block
            self._hold(grown)
        self._x[n] = x
        self._u[n] = u
        self._sigma[n] = sigma
        self.times.append(float(t))   # the row counts from here on

    def add_event(self, t, kind, **data):
        self.events.append({"t": float(t), "kind": kind, **data})

    @property
    def n_ticks(self):
        return len(self.times)

    def _filled(self, view):
        view = view[:len(self.times)]
        view.flags.writeable = False
        return view

    @property
    def positions(self):
        """(T, L, dim) read-only view of every tick's positions."""
        return self._filled(self._x)

    @property
    def controls(self):
        """(T, L, dim) read-only view of every tick's controls."""
        return self._filled(self._u)

    @property
    def sigma_activity(self):
        """(T, L) read-only view of every tick's `sigma_activity`."""
        return self._filled(self._sigma)

    def agent_positions(self, agent_id):
        """(T, dim) read-only view of one agent's positions."""
        return self.positions[:, self.agent_ids.index(agent_id), :]

    def write_csv(self, path):
        """Write the log as CSV: a header, then one row per tick and agent,
        `t,agent_id,` and the agent's position, control and sigma, each
        number the `repr` of its float. Whole ticks of about `CSV_BLOCK`
        values at a time go through `floatrepr.render` into one array of
        fixed-width slots, a value and its separator in each, and the rows
        are the array's kept bytes. The buffers are made once per call, and
        no Python call is made per value."""
        from . import floatrepr   # its tables are made only by a process that writes a CSV

        axes = "xyz"[: self.dim]
        header = ["t", "agent_id", *axes, *[f"u{a}" for a in axes], "sigma_activity"]
        n_agents, columns = len(self.agent_ids), len(header) - 1
        ticks = max(1, CSV_BLOCK // (columns * max(n_agents, 1)))
        values = np.empty((ticks, n_agents, columns))
        # a slot's tail: ",<agent id>," after t, "," after the next values
        # and "\n" after the last
        w = floatrepr.WIDTH
        tails = [f",{aid},".encode() for aid in self.agent_ids]
        slots = np.zeros(values.shape + (w + max(map(len, tails), default=1),), np.uint8)
        keep = np.zeros(slots.shape, bool)
        slots[..., :w] = floatrepr.TEMPLATE
        for i, tail in enumerate(tails):
            slots[:, i, 0, w:w + len(tail)] = np.frombuffer(tail, np.uint8)
            keep[:, i, 0, w:w + len(tail)] = True
        slots[:, :, 1:, w] = ord(",")
        slots[:, :, -1, w] = ord("\n")
        keep[:, :, 1:, w] = True
        slots, keep = slots.reshape(-1, slots.shape[-1]), keep.reshape(-1, slots.shape[-1])
        with open(path, "wb") as f:
            f.write((",".join(header) + "\n").encode())
            for start in range(0, self.n_ticks, ticks):
                n = min(ticks, self.n_ticks - start)
                values[:n, :, 0] = np.array(self.times[start:start + n])[:, None]
                values[:n, :, 1:] = self._block[start:start + n].transpose(0, 2, 1)
                filled = n * n_agents * columns
                floatrepr.render(values.reshape(-1)[:filled], slots[:filled, :w], keep[:filled, :w])
                f.write(slots[:filled][keep[:filled]])

    def write_events(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for ev in self.events:
                f.write(json.dumps(ev, sort_keys=True) + "\n")


@dataclass
class MetricsReport:
    kappa_max: dict
    corner_angle_max: dict
    min_pair_clearance: float
    min_obstacle_clearance: float
    path_lengths: dict
    potential_trace: list | None
    potential_rate: list | None

    def to_dict(self):
        """The report as strict JSON values: a clearance that nothing
        measured (infinite) is None."""
        return {
            "kappa_max": {str(k): v for k, v in self.kappa_max.items()},
            "corner_angle_max": {str(k): v for k, v in self.corner_angle_max.items()},
            "min_pair_clearance": _measured(self.min_pair_clearance),
            "min_obstacle_clearance": _measured(self.min_obstacle_clearance),
            "path_lengths": {str(k): v for k, v in self.path_lengths.items()},
            "potential_trace": self.potential_trace,
            "potential_rate": self.potential_rate,
        }

    def write_json(self, path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_dict(), f, indent=2, sort_keys=True, allow_nan=False)
            f.write("\n")


def _measured(clearance: float) -> float | None:
    return clearance if math.isfinite(clearance) else None


# ---------------------------------------------------------------------------
# Runtime assembly
# ---------------------------------------------------------------------------

class Runtime:
    """A scenario instantiated and ready to integrate.

    The runtime is the one owner of the group's settings: the pair law
    (`params`), its weight profile and the wall cushion (`repulsion`, None
    without one). Each agent is its controller's spec (`agents`); the
    numbers the tick reads from the specs are stacked into arrays once,
    here. Evaluating a snapshot changes nothing: the run (`Run`) owns the
    moving positions and every per-step fact.
    """

    def __init__(self, ws: Workspace, controllers, params, profile,
                 repulsion, success, config: SimConfig):
        self.ws = ws
        self.controllers = list(controllers)
        self.agents = [c.spec for c in self.controllers]
        self.params = params
        self.profile = profile
        self.repulsion = repulsion
        self.success = success
        self.config = config
        self.dim = ws.dim
        agents = self.agents
        self.starts = np.array([a.start for a in agents], float).reshape(-1, self.dim)
        self.radii = np.array([a.radius for a in agents], float)
        self.reach = np.array([a.reach for a in agents], float)
        self.has_goal = np.array([a.goal is not None for a in agents], dtype=bool)
        # agents without a goal get a NaN goal, which no position is inside
        self.goals = np.full((len(agents), self.dim), np.nan)
        self.r_target = np.full(len(agents), np.nan)
        for i, a in enumerate(agents):
            if a.goal is not None:
                self.goals[i] = a.goal
                self.r_target[i] = a.target_radius
        # the goal terms, array-at-a-time: springs and drifts as one array
        # expression each, harmonic agents one by one; the whole group's in
        # one expression when every agent has the same kind
        kinds = [a.control.kind for a in agents]
        self._goal_kind = kinds[0] if len(set(kinds)) == 1 else None
        springs = [a for a in agents if a.control.kind == ctl.SPRING_GOAL]
        drifts = [a for a in agents if a.control.kind == ctl.CONSTANT_DRIFT]
        self._spring_rows = np.array([i for i, k in enumerate(kinds) if k == ctl.SPRING_GOAL], int)
        self._spring_gain = np.array([a.control.gain for a in springs], float).reshape(-1, 1)
        self._spring_goal = np.array([a.goal for a in springs], float).reshape(-1, self.dim)
        self._drift_rows = np.array([i for i, k in enumerate(kinds) if k == ctl.CONSTANT_DRIFT], int)
        self._drift = np.array([a.control.velocity for a in drifts], float).reshape(-1, self.dim)
        self._harmonic = [(i, c) for i, c in enumerate(self.controllers)
                          if c.spec.control.kind == ctl.HARMONIC_GOAL]
        # agents whose own pair-force sum is dropped
        self._suppressed = [i for i, a in enumerate(agents) if not a.cooperative]
        self._pair_setup = interaction.pair_setup(self.radii, self.dim, params, profile,
                                                  self._suppressed, self.reach)
        self._cushion_indexes = None    # the agents' cushion indexes that _groups is of
        self._groups = None

    @property
    def n_agents(self):
        return len(self.agents)

    def eval_controls(self, positions, pairs=None):
        """Controls for all agents on one snapshot, a function of the
        snapshot alone. Returns (U, penetration mask, switch key).

        Each row is the goal term plus the pair-force sum plus the wall
        cushion. The pair-force sum is dropped for a non-cooperative agent
        (it still repels everyone else through their own sums). The cushion
        reacts only to the agent's own discovered boundary cells. `pairs` is
        the snapshot's `interaction.near_pairs`, or an RK4 stage's
        `interaction.stage_pairs`, when the caller already has it; without
        it the pair forces make their own pass. The switch key is that of
        `interaction.crf_forces`; without a pair-force sum, the empty `no_switch`.
        """
        L = self.n_agents
        positions = np.asarray(positions, float)
        U = self.goal_terms(positions)
        pen = np.zeros(L, dtype=bool)
        key = self._pair_setup.no_switch
        if L >= 2 and len(self._suppressed) < L:
            F, key = interaction.crf_forces(positions, self.radii, self.params, self.profile,
                                            suppressed=self._suppressed, reach=self.reach,
                                            pairs=pairs, setup=self._pair_setup)
            U += F
        groups = self._cushion_groups()
        x = positions.tolist() if groups else None
        idle = []
        for index, rows, members, radii, reach in groups:
            if not index.within_reach([x[i] for i in members], reach):
                idle += members
                continue
            F, p = interaction.repulsion_batch(positions[rows], radii, index, self.repulsion)
            U[rows] += F
            pen[rows] |= p
        if idle:
            # out of reach the force is exactly +0.0, and adding it changes
            # only a -0.0, which becomes +0.0
            U[idle] += 0.0
        return U, pen, key

    def goal_terms(self, positions):
        """The goal term of every agent on one snapshot, a new array: the
        springs' gain * (goal - x) and the drifts' velocities as one array
        expression each, and `controller.goal_term` of each harmonic agent,
        from the snapshot's rows as floats. A group of one kind is that
        kind's expression alone, row for row the same numbers."""
        if self._goal_kind == ctl.SPRING_GOAL:
            return self._spring_gain * (self._spring_goal - positions)
        if self._goal_kind == ctl.CONSTANT_DRIFT:
            return self._drift.copy()
        x = positions.tolist()
        if self._goal_kind == ctl.HARMONIC_GOAL:
            return np.array([ctl.goal_term(c, x[i]) for i, c in self._harmonic])
        U = np.zeros((self.n_agents, self.dim))
        if len(self._spring_rows):
            U[self._spring_rows] = self._spring_gain * (self._spring_goal
                                                        - positions[self._spring_rows])
        if len(self._drift_rows):
            U[self._drift_rows] = self._drift
        for i, c in self._harmonic:
            U[i] = ctl.goal_term(c, x[i])
        return U

    def goal_potentials(self, positions) -> list:
        """Every agent's goal potential, whose negative gradient is its goal
        term, on one snapshot, as floats in agent order: a spring's
        0.5 * gain * |x - goal|^2, `agent_potential` of a harmonic agent at
        the snapshot's row as floats and None for a drift agent."""
        if self._goal_kind == ctl.SPRING_GOAL:
            r = world.axis_norms(positions - self._spring_goal)
            return (0.5 * self._spring_gain[:, 0] * r * r).tolist()
        x = positions.tolist()
        if self._goal_kind == ctl.HARMONIC_GOAL:
            return [agent_potential(c, x[i]) for i, c in self._harmonic]
        out = [None] * self.n_agents
        r = world.axis_norms(positions[self._spring_rows] - self._spring_goal)
        springs = 0.5 * self._spring_gain[:, 0] * r * r
        for i, v in zip(self._spring_rows.tolist(), springs.tolist()):
            out[i] = v
        for i, c in self._harmonic:
            out[i] = agent_potential(c, x[i])
        return out

    def _cushion_groups(self):
        """(index, rows, rows as a list, radii, reach) for each cushion index
        the agents share, reach being the largest radius among them plus the
        cushion's influence. Made again only when some agent's index is
        replaced, as a discovery does."""
        if self.repulsion is None:
            return []
        indexes = [c.boundary_index for c in self.controllers]
        if indexes != self._cushion_indexes:
            groups = {}
            for i, index in enumerate(indexes):
                if index is not None and len(index):
                    groups.setdefault(id(index), (index, []))[1].append(i)
            self._groups = []
            for index, rows in groups.values():
                radii = self.radii[rows]
                self._groups.append((index, np.array(rows), rows, radii,
                                     float(radii.max()) + self.repulsion.influence))
            self._cushion_indexes = indexes
        return self._groups

    def in_target(self, positions):
        """Per-agent flags: inside its target zone. False for an agent without
        a goal and for a non-finite position."""
        return world.axis_norms(positions - self.goals) <= self.r_target

    def sigma_activity(self, positions, pairs=None):
        """Per-agent sum of interaction weights against all other agents;
        `pairs` as for `eval_controls`."""
        return interaction.sigma_activity(positions, self.radii, self.profile, pairs=pairs,
                                          setup=self._pair_setup)


def step(runtime: Runtime, positions, k1=None, pairs=None):
    """Advance one tick from the snapshot with the runtime's integrator. RK4
    re-evaluates controls at each stage. Returns (positions, the RK4 stages'
    switch keys in stage order, none for Euler).

    `pairs` is the snapshot's full `interaction.near_pairs` pass and `k1`
    the control there; the step makes those it is not given. Each RK4
    stage x + h k measures only the pairs that a displacement of
    |h| max_i |k_i| can bring within the cut-off (`interaction.stage_pairs`),
    so a tick makes one pass over the whole pair table; a stage that no far
    pair of the pass can reach measures only the pass's near pairs
    (`interaction.stage_room`). The stages see the near pairs of a full
    pass, and the step returns the same bits as one whose every evaluation
    makes its own pass."""
    dt = runtime.config.dt
    setup = runtime._pair_setup
    if pairs is None:
        pairs = interaction.near_pairs(positions, runtime.radii, runtime.profile, setup=setup)
    if k1 is None:
        k1 = runtime.eval_controls(positions, pairs)[0]
    if runtime.config.integrator == EULER:
        return positions + dt * k1, []

    room = interaction.stage_room(pairs, positions, runtime.profile, setup)
    keys = []

    def slope(h, k):
        y = positions + h * k
        U, _, key = runtime.eval_controls(y, interaction.stage_pairs(
            pairs, y, h, k, runtime.radii, runtime.profile, room, setup))
        keys.append(key)
        return U

    k2 = slope(0.5 * dt, k1)
    k3 = slope(0.5 * dt, k2)
    k4 = slope(dt, k3)
    return positions + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), keys


# ---------------------------------------------------------------------------
# Monitors
# ---------------------------------------------------------------------------

def detect_deadlock(slow_time, slow, outside_target, cfg: SimConfig):
    """Advance the deadlock window by one tick. Returns (slow_time, deadlocked).

    `slow` flags the agents whose speed is below the run's v_eps this tick.
    slow_time is the consecutive time every agent has stayed slow; any
    fast tick (or an empty group) resets it. The group is deadlocked once that
    time reaches w_dead while someone is still outside its target.
    """
    if len(slow) and slow.all():
        slow_time += cfg.dt
    else:
        slow_time = 0.0
    return slow_time, bool(slow_time >= cfg.w_dead and np.any(outside_target))


_NO_PAIRS = np.empty((0, 2), dtype=np.intp)
_NO_PAIRS.flags.writeable = False


class CollisionAudit(NamedTuple):
    pair_clearance: np.ndarray              # (L (L - 1) / 2,) in np.triu_indices order
    obstacle_clearance: np.ndarray | None   # (L,); None without obstacles
    pairs: np.ndarray                       # (n, 2) overlapping pairs i < j, same order
    agents: np.ndarray                      # (m,) agents penetrating an obstacle, ascending


def collision_audit(positions, radii, ws: Workspace, collision_tol: float,
                    pairs: interaction.NearPairs) -> CollisionAudit:
    """Surface clearances of every body pair and of every body to the
    obstacles, and which of them overlap beyond the numerical slack. `pairs`
    is the snapshot's `interaction.near_pairs`: its table holds the pair
    clearances, and an overlapping pair is one of its near pairs, whose
    second half lists each pair i < j as (row i, column j) in table order."""
    positions = np.asarray(positions, float)
    half = len(pairs.rows) // 2
    overlapping = _NO_PAIRS
    if half:
        over = pairs.gap[half:] < -collision_tol
        if over.any():
            overlapping = np.stack([pairs.rows[half:][over], pairs.cols[half:][over]], axis=1)
    obstacle_clearance = None
    agents = np.empty(0, dtype=int)
    if ws.obstacles:
        obstacle_clearance = ws.obstacle_clearance(positions) - radii
        agents = np.flatnonzero(obstacle_clearance < -collision_tol)
    return CollisionAudit(pairs.table_gap, obstacle_clearance, overlapping, agents)


def curvature_profile(positions, speeds, v_eps, breaks=None):
    """Curvature along a trajectory, resampled uniformly by arc length.

    Samples slower than v_eps are dropped (parked or stalled stretches carry
    no path information). `breaks` flags the steps (chords between
    consecutive samples, length len(positions) - 1) across which the control
    switched discontinuously: the path has a corner there, whose chord-based
    curvature would be its angle over the sampling step, growing without
    bound as the step shrinks. Flagged chords are dropped, each smooth
    stretch between them is resampled on its own with the same spacing
    ds = 4 x mean step, and the turning angle across each break is reported
    instead. Returns (s, kappa, kappa_max, degenerate_flag, corner_angles);
    kappa_max is NaN when the path's length overflows.
    """
    positions = np.asarray(positions, float)
    speeds = np.asarray(speeds, float)
    keep = speeds >= v_eps
    pts = positions[keep]
    empty = np.array([]), np.array([]), 0.0, True, np.array([])
    if len(pts) < 3:
        return empty
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    s_nodes = np.concatenate([[0.0], np.cumsum(seg)])
    if not math.isfinite(s_nodes[-1]):   # an arc length that overflows: no curvature
        return np.array([]), np.array([]), math.nan, True, np.array([])
    broken = np.zeros(len(seg), dtype=bool)
    if breaks is not None:
        # a chord between kept samples a < b is broken if any step in [a, b) is
        flagged = np.concatenate([[0], np.cumsum(np.asarray(breaks, bool))])
        idx = np.flatnonzero(keep)
        broken = flagged[idx[1:]] > flagged[idx[:-1]]
    smooth = seg[~broken]
    if not len(smooth):
        return empty
    mean_step = float(smooth.mean())
    if mean_step <= 0:
        return empty
    ds = 4.0 * mean_step

    # maximal runs of unbroken chords: chords lo..hi-1 join samples lo..hi
    edges = np.flatnonzero(np.diff(np.concatenate([[True], broken, [True]]).astype(np.int8)))
    stretches = list(zip(edges[::2], edges[1::2]))
    s_out, kappa_out = [], []
    for lo, hi in stretches:
        stretch = pts[lo:hi + 1]
        stretch_seg = seg[lo:hi]
        n = int(float(stretch_seg.sum()) / ds)
        if n < 3:
            continue
        s_local = s_nodes[lo:hi + 1] - s_nodes[lo]
        s_grid = np.arange(n + 1) * ds
        resampled = np.stack([np.interp(s_grid, s_local, stretch[:, k])
                              for k in range(pts.shape[1])], axis=1)
        chords = np.diff(resampled, axis=0)
        lengths = np.linalg.norm(chords, axis=1)
        ok = lengths > 1e-15
        tangents = np.zeros_like(chords)
        tangents[ok] = chords[ok] / lengths[ok, None]
        dtau = np.linalg.norm(np.diff(tangents, axis=0), axis=1)
        s_out.append(s_grid[1:-1] + s_nodes[lo])
        kappa_out.append(dtau / ds)
    corners = np.array([_turning_angle(pts[a_hi] - pts[a_hi - 1], pts[b_lo + 1] - pts[b_lo])
                        for (_, a_hi), (b_lo, _) in zip(stretches, stretches[1:])])
    if not kappa_out:
        return np.array([]), np.array([]), 0.0, True, corners
    kappa = np.concatenate(kappa_out)
    return np.concatenate(s_out), kappa, float(kappa.max()), False, corners


def _turning_angle(a, b) -> float:
    """Angle between two direction vectors, accurate for small and large turns."""
    ua = a / world.axis_norms(a)
    ub = b / world.axis_norms(b)
    return float(2.0 * np.arctan2(world.axis_norms(ua - ub), world.axis_norms(ua + ub)))


def agent_potential(c: ctl.AgentController, x) -> float:
    """The harmonic agent's goal potential at x: its field's value."""
    return harmonic.value_at(c.field, x)


# ---------------------------------------------------------------------------
# Run loop
# ---------------------------------------------------------------------------

def _auto_v_eps(runtime: Runtime) -> float:
    """1e-3 x the mean initial goal-term magnitude of the agents that move."""
    with _quiet_overflow():
        mags = world.axis_norms(runtime.goal_terms(runtime.starts))
    mags = mags[mags > 1e-12]
    typical = float(np.mean(mags)) if len(mags) else 1.0
    return 1e-3 * typical


def _quiet_overflow():
    """Overflow and invalid operations in the integration and the metrics
    surface as a non-finite control, position or metric (`_non_finite`),
    not as warnings."""
    return np.errstate(over="ignore", invalid="ignore")


def _non_finite(log: TrajectoryLog, t, what: str, runtime: Runtime, bad) -> SimulationError:
    """Log an `error` event naming the agents flagged in `bad`, whose `what`
    is not finite, and return the error that ends the run: a NaN state must
    never run on to a timeout whose clearances read as safe, and strict
    JSON has no number for a metric that overflows."""
    agents = [runtime.agents[i].id for i in np.flatnonzero(bad)]
    message = f"non-finite {what} of agents {agents}"
    log.add_event(t, "error", message=message, agents=agents)
    return SimulationError(f"{message} at t={t:g}", log)


def _horizon_success(runtime: Runtime, positions) -> bool:
    if runtime.success.check != "groups_crossed":
        return True
    rows, vx = runtime._drift_rows, runtime._drift[:, 0]
    left, right = rows[vx < 0], rows[vx > 0]
    if not len(left) or not len(right):
        return True
    return bool(np.all(positions[left, 0] < runtime.starts[right, 0].min())
                and np.all(positions[right, 0] > runtime.starts[left, 0].max()))


class Run:
    """One run of a scenario, the one owner of every per-step fact: the
    positions, the time, the step's switch keys, the monitors' state and
    the log. `Run(scenario)` sets the run up, `tick()` advances it by one
    tick, and `finish(outcome)` ends it.

    A tick whose sensing, field re-solve, control evaluation or integration
    fails, or whose state turns non-finite, ends the run with an `error`
    event and a `SimulationError` that carries the log so far; so does a
    metric that overflows.
    """

    def __init__(self, scenario):
        from .scenarios import build_runtime  # deferred: scenarios imports SimConfig from here

        self.runtime = runtime = build_runtime(scenario)
        violations = world.validate_scenario(runtime.ws, runtime.agents)
        if violations:
            raise ConfigError("scenario validation failed: " + "; ".join(violations))
        config = runtime.config
        self.log = TrajectoryLog([a.id for a in runtime.agents], runtime.dim)
        self.v_eps = config.v_eps if config.v_eps is not None else _auto_v_eps(runtime)
        if runtime.n_agents >= 2:
            reaches = sorted(runtime.reach.tolist(), reverse=True)
            pass_radius = reaches[0] + reaches[1]
            bad = int(np.count_nonzero(world.passage_width_audit(runtime.ws, pass_radius)))
            if bad:
                self.log.add_event(0.0, "audit_warning", cells=bad, radius=pass_radius)

        self.positions = runtime.starts.copy()
        self.t = 0.0
        self._cushion = runtime.repulsion is not None   # discoveries rebuild the cushion index
        self._no_goal = ~runtime.has_goal
        self._step_key = None      # the switch key at the start of the current step
        self._stage_keys = []      # the current step's RK4 stage keys
        self._slow_time = 0.0
        self._pair_reported = set()      # the (i, j) pairs reported overlapping
        self._obstacle_reported = np.zeros(runtime.n_agents, dtype=bool)
        self._min_pair = self._min_obstacle = np.inf
        self._trace = [] if not len(runtime._drift_rows) else None

    def _switched(self, key):
        """Per-agent flags of the step that ends at a snapshot of switch key
        `key`: True where a stage's key or `key` differs from the step's
        start key in the agent's row, that is, where its pair force switched
        discontinuously. None when no agent's did, and at the first tick."""
        start, L = self._step_key, self.runtime.n_agents
        flags = None
        for other in (*self._stage_keys, key) if start is not None else ():
            # the same object is the same key (no near pair, or a law that cannot
            # jump); else equal bytes are the same pairs; rows only on a change
            if other is not start and other.tobytes() != start.tobytes():
                if flags is None:
                    flags = np.zeros(L, dtype=bool)
                flags[np.setxor1d(other, start) // L] = True
        return flags

    def tick(self):
        """Run one tick on the current snapshot: sense, evaluate the
        controls, log and monitor the snapshot, and unless that reaches an
        outcome, step to the next snapshot. Returns the outcome, or None."""
        with _quiet_overflow():
            return self._tick()

    def _tick(self):
        """`tick` without entering `_quiet_overflow`: `run` enters it once
        for all its ticks."""
        runtime, log, config = self.runtime, self.log, self.runtime.config
        t, positions = self.t, self.positions
        phase = None
        try:
            if not np.isfinite(positions).all():
                raise _non_finite(log, t, "position", runtime,
                                  ~np.isfinite(positions).all(axis=1))
            phase = "sensing"
            rows = positions.tolist() if runtime._harmonic else None
            for i, c in runtime._harmonic:
                iterations = c.field.iterations
                n_new = ctl.on_tick_sense(c, rows[i], runtime.ws, self._cushion)
                if n_new:
                    log.add_event(t, "discovery", agent=c.spec.id, new_cells=n_new,
                                  solver_iterations=c.field.iterations - iterations,
                                  residual=c.field.residual)

            # the tick's one pass over the whole pair table
            pairs = interaction.near_pairs(positions, runtime.radii, runtime.profile,
                                           setup=runtime._pair_setup)
            phase = "control evaluation"
            U, pen, key = runtime.eval_controls(positions, pairs)
            phase = None
            if not np.isfinite(U).all():
                raise _non_finite(log, t, "control", runtime, ~np.isfinite(U).all(axis=1))

            switched = self._switched(key)
            if switched is not None:
                log.switches.append((log.n_ticks - 1, switched))
            self._step_key = key
            log.append(t, positions, U, runtime.sigma_activity(positions, pairs))
            for i in pen.nonzero()[0]:
                log.add_event(t, "penetration", agent=runtime.agents[i].id)

            hits = collision_audit(positions, runtime.radii, runtime.ws,
                                   config.collision_tol, pairs)
            if hits.pair_clearance.size:
                self._min_pair = min(self._min_pair, float(hits.pair_clearance.min()))
            if hits.obstacle_clearance is not None and hits.obstacle_clearance.size:
                self._min_obstacle = min(self._min_obstacle, float(hits.obstacle_clearance.min()))
            # each pair or agent is reported once, at its first overlapping tick
            for a, b_ in hits.pairs.tolist():
                if (a, b_) not in self._pair_reported:
                    self._pair_reported.add((a, b_))
                    log.add_event(t, "collision",
                                  agents=[runtime.agents[a].id, runtime.agents[b_].id])
            if len(hits.agents):
                new_agents = hits.agents[~self._obstacle_reported[hits.agents]]
                self._obstacle_reported[new_agents] = True
                for i in new_agents:
                    log.add_event(t, "collision_obstacle", agent=runtime.agents[i].id)

            if self._trace is not None:
                self._trace.append(sum(runtime.goal_potentials(positions)))

            slow = world.axis_norms(U) < self.v_eps
            inside = runtime.in_target(positions)
            success_kind = runtime.success.kind
            if success_kind == "converge" and ((inside & slow) | self._no_goal).all():
                return CONVERGED
            self._slow_time, deadlocked = detect_deadlock(self._slow_time, slow, ~inside, config)
            if deadlocked:
                log.add_event(t, "deadlock")
                return DEADLOCK
            if t >= config.t_max - 0.5 * config.dt:
                if success_kind == "horizon" and _horizon_success(runtime, positions):
                    return CONVERGED
                return TIMEOUT

            phase = "integration"
            self.positions, self._stage_keys = step(runtime, positions, k1=U, pairs=pairs)
            self.t = t + config.dt
            return None
        except (harmonic.FieldQueryError, harmonic.SolverError, ConfigError) as exc:
            # a ConfigError (say, a body outside the workspace) is a failure only of sensing
            if phase is None or (phase != "sensing" and isinstance(exc, ConfigError)):
                raise
            log.add_event(t, "error", message=str(exc))
            raise SimulationError(f"{phase} failed at t={t:g}: {exc}", log) from exc

    def finish(self, outcome):
        """End the run at the outcome its last tick reached, which a
        collision at any tick overrides, and make its metrics. Returns the
        MetricsReport."""
        runtime, log = self.runtime, self.log
        log.outcome = (COLLISION if self._pair_reported or self._obstacle_reported.any()
                       else outcome)

        kappa, corners, lengths = {}, {}, {}
        tracks, controls = log.positions, log.controls
        breaks = None
        if log.switches:
            breaks = np.zeros((log.n_ticks - 1, runtime.n_agents), dtype=bool)
            for k, flags in log.switches:
                breaks[k] = flags
        trace_list = [float(v) for v in self._trace] if self._trace is not None else None
        rate_list = None
        with _quiet_overflow():   # a finite state's metrics can still overflow
            for i, b in enumerate(runtime.agents):
                track = tracks[:, i, :]
                sp = np.linalg.norm(controls[:, i, :], axis=1)
                _, _, kmax, _, angles = curvature_profile(track, sp, self.v_eps,
                                                          None if breaks is None else breaks[:, i])
                kappa[b.id] = kmax
                corners[b.id] = float(angles.max()) if len(angles) else 0.0
                lengths[b.id] = float(np.linalg.norm(np.diff(track, axis=0), axis=1).sum())
            if trace_list and len(trace_list) > 1:
                rate_list = [float(v) for v in np.diff(trace_list) / runtime.config.dt]
        for what, values in (("path length", lengths), ("curvature", kappa),
                             ("corner angle", corners)):
            bad = ~np.isfinite(list(values.values()))
            if bad.any():
                raise _non_finite(log, self.t, what, runtime, bad)
        for what, values in (("potential trace", trace_list), ("potential rate", rate_list)):
            if values and not np.isfinite(values).all():    # a sum over every agent
                raise _non_finite(log, self.t, what, runtime, np.ones(runtime.n_agents, bool))

        return MetricsReport(kappa_max=kappa, corner_angle_max=corners,
                             min_pair_clearance=self._min_pair,
                             min_obstacle_clearance=self._min_obstacle, path_lengths=lengths,
                             potential_trace=trace_list, potential_rate=rate_list)


def run(scenario):
    """Integrate a scenario to its outcome: a `Run` set up, ticked until a
    tick reaches an outcome, and finished. Returns (TrajectoryLog,
    MetricsReport). The scenario's `sim` is the run's configuration."""
    r = Run(scenario)
    outcome = None
    with _quiet_overflow():
        while outcome is None:
            outcome = r._tick()
    return r.log, r.finish(outcome)
