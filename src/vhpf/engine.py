"""Time integration of the collective dynamics, safety monitors, and run metrics.

The loop is synchronous: every agent's control is evaluated on the same
position snapshot, then all positions advance together. Sensing and field
re-solves happen once at the top of a tick; within the tick the fields are
frozen, so integration stages see a fixed control law.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
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


@dataclass
class TrajectoryLog:
    agent_ids: list
    dim: int
    times: list = field(default_factory=list)
    positions: list = field(default_factory=list)   # one (L, dim) array per tick
    controls: list = field(default_factory=list)
    sigma_activity: list = field(default_factory=list)
    switches: list = field(default_factory=list)    # (step, (L,) flags) where a pair force switched
    events: list = field(default_factory=list)
    outcome: str | None = None

    def append(self, t, x, u, sigma):
        if self.times and t <= self.times[-1]:
            raise ValueError("timestamps must be strictly increasing")
        self.times.append(float(t))
        self.positions.append(np.array(x))
        self.controls.append(np.array(u))
        self.sigma_activity.append(np.array(sigma))

    def add_event(self, t, kind, **data):
        self.events.append({"t": float(t), "kind": kind, **data})

    @property
    def n_ticks(self):
        return len(self.times)

    def position_array(self):
        return np.stack(self.positions) if self.positions else np.empty((0, len(self.agent_ids), self.dim))

    def control_array(self):
        return np.stack(self.controls) if self.controls else np.empty((0, len(self.agent_ids), self.dim))

    def agent_positions(self, agent_id):
        i = self.agent_ids.index(agent_id)
        return self.position_array()[:, i, :]

    def agent_speeds(self, agent_id):
        i = self.agent_ids.index(agent_id)
        return np.linalg.norm(self.control_array()[:, i, :], axis=1)

    def write_csv(self, path):
        axes = "xyz"[: self.dim]
        cols = ["t", "agent_id"] + [a for a in axes] + [f"u{a}" for a in axes] + ["sigma_activity"]
        with open(path, "w", encoding="utf-8") as f:
            f.write(",".join(cols) + "\n")
            for t, x, u, sigma in zip(self.times, self.positions, self.controls,
                                      self.sigma_activity):
                # one tick's rows as lists of Python floats: the repr of such
                # a list is "[[a, b], [c, d]]", each number the repr of its float
                rows = np.concatenate([x, u, sigma[:, None]], axis=1, dtype=float).tolist()
                values = repr(rows)[2:-2].replace(", ", ",").split("],[")
                stamp = repr(float(t))
                f.write("".join(f"{stamp},{aid},{v}\n" for aid, v in zip(self.agent_ids, values)))

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
        return {
            "kappa_max": {str(k): v for k, v in self.kappa_max.items()},
            "corner_angle_max": {str(k): v for k, v in self.corner_angle_max.items()},
            "min_pair_clearance": self.min_pair_clearance,
            "min_obstacle_clearance": self.min_obstacle_clearance,
            "path_lengths": {str(k): v for k, v in self.path_lengths.items()},
            "potential_trace": self.potential_trace,
            "potential_rate": self.potential_rate,
        }

    def write_json(self, path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_dict(), f, indent=2, sort_keys=True)
            f.write("\n")


# ---------------------------------------------------------------------------
# Runtime assembly
# ---------------------------------------------------------------------------

class Runtime:
    """A scenario instantiated and ready to integrate."""

    def __init__(self, ws: Workspace, bodies, controllers, params, profile,
                 repulsion, success, config: SimConfig):
        self.ws = ws
        self.bodies = list(bodies)
        self.controllers = list(controllers)
        self.params = params
        self.profile = profile
        self.repulsion = repulsion
        self.success = success
        self.config = config
        self.radii = np.array([b.radius for b in self.bodies], float)
        self.reach = np.array([b.reach for b in self.bodies], float)
        self.dim = ws.dim
        self.has_goal = np.array([b.goal is not None for b in self.bodies], dtype=bool)
        # agents without a goal get a NaN goal, which no position is inside
        self.goals = np.full((len(self.bodies), self.dim), np.nan)
        self.r_target = np.full(len(self.bodies), np.nan)
        for i, b in enumerate(self.bodies):
            if b.goal is not None:
                self.goals[i] = b.goal
                self.r_target[i] = b.r_target
        # the goal terms, array-at-a-time: springs and drifts as one array
        # expression each, harmonic agents one by one. Like the bodies' radii,
        # the controllers' gains, goals and flags are read once, here.
        kinds = [c.goal_kind for c in self.controllers]
        springs = [c for c in self.controllers if c.goal_kind == ctl.SPRING_GOAL]
        drifts = [c for c in self.controllers if c.goal_kind == ctl.CONSTANT_DRIFT]
        self._spring_rows = np.array([i for i, k in enumerate(kinds) if k == ctl.SPRING_GOAL], int)
        self._spring_gain = np.array([c.gain for c in springs], float).reshape(-1, 1)
        self._spring_goal = np.array([c.goal for c in springs], float).reshape(-1, self.dim)
        self._drift_rows = np.array([i for i, k in enumerate(kinds) if k == ctl.CONSTANT_DRIFT], int)
        self._drift = np.array([c.drift for c in drifts], float).reshape(-1, self.dim)
        self._harmonic = [(i, c) for i, c in enumerate(self.controllers)
                          if c.goal_kind == ctl.HARMONIC_GOAL]
        # agents whose own pair-force sum is dropped
        self._suppressed = [i for i, c in enumerate(self.controllers)
                            if not (c.crf_enabled and c.cooperative)]
        self.tracks_switches = interaction.weight_can_jump(profile, self.radii, self.reach)
        self._last_key = None       # switch key of the latest control evaluation
        self._step_key = None       # switch key at the start of the current step
        self._switched = np.zeros(len(self.bodies), dtype=bool)
        self._snapshot = None       # (positions bytes, near pairs) of the latest pass

    @property
    def n_agents(self):
        return len(self.bodies)

    def positions(self):
        return np.array([b.x for b in self.bodies]) if self.bodies else np.empty((0, self.dim))

    def sync_bodies(self, positions):
        # each body gets its row of one private copy
        for b, x in zip(self.bodies, np.array(positions)):
            b.x = x

    def eval_controls(self, positions):
        """Controls for all agents on one snapshot. Returns (U, penetration mask).

        Each row is the goal term plus the pair-force sum plus the wall
        cushion. The pair-force sum is dropped for a non-cooperative agent
        (it still repels everyone else through their own sums). The cushion
        reacts only to the agent's own discovered boundary cells.
        """
        L = self.n_agents
        positions = np.asarray(positions, float)
        U = self.goal_terms(positions)
        pen = np.zeros(L, dtype=bool)
        if L >= 2:
            suppressed = self._suppressed
            if len(suppressed) < L:
                F = interaction.crf_forces(positions, self.radii, self.params,
                                           self.profile, suppressed=suppressed,
                                           reach=self.reach, switch_key=self.tracks_switches,
                                           pairs=self._near_pairs(positions))
                if self.tracks_switches:
                    F, key = F
                    # comparing bytes is the cheap exact test; find rows only on a change
                    if self._step_key is not None and key.tobytes() != self._step_key.tobytes():
                        self._switched |= np.any(key != self._step_key, axis=1)
                    self._last_key = key
                U += F
        for index, rows in self._repulsion_groups():
            F, p = interaction.repulsion_batch(positions[rows], self.radii[rows],
                                               index, self.repulsion)
            U[rows] += F
            pen[rows] |= p
        return U, pen

    def goal_terms(self, positions):
        """The goal term of every agent on one snapshot, each row the same
        bits as `controller.goal_term` of that agent."""
        U = np.zeros((self.n_agents, self.dim))
        if len(self._spring_rows):
            U[self._spring_rows] = ctl.spring_term(self._spring_gain, self._spring_goal,
                                                   positions[self._spring_rows])
        if len(self._drift_rows):
            U[self._drift_rows] = self._drift
        for i, c in self._harmonic:
            U[i] = ctl.goal_term(c, positions[i])
        return U

    def goal_potentials(self, positions) -> list:
        """Every agent's goal potential (`agent_potential`) on one snapshot,
        as floats in agent order; None for a drift agent."""
        out = [None] * self.n_agents
        springs = spring_potential(self._spring_gain[:, 0], self._spring_goal,
                                   positions[self._spring_rows])
        for i, v in zip(self._spring_rows.tolist(), springs.tolist()):
            out[i] = v
        for i, c in self._harmonic:
            out[i] = agent_potential(c, positions[i])
        return out

    def begin_step(self):
        """Start a step at the snapshot evaluated last. Returns per-agent
        flags for the step that ended there, True where some evaluation of
        that step (any RK4 stage, or the end snapshot) saw the agent's pair
        force switch discontinuously; None when no agent's did."""
        self._step_key = self._last_key
        switched = self._switched
        if not switched.any():
            return None
        self._switched = np.zeros(self.n_agents, dtype=bool)
        return switched

    def _repulsion_groups(self):
        if self.repulsion is None:
            return []
        groups = {}
        for i, c in enumerate(self.controllers):
            if c.uo_enabled and c.boundary_index is not None and len(c.boundary_index):
                groups.setdefault(id(c.boundary_index), (c.boundary_index, []))[1].append(i)
        return [(index, np.array(rows)) for index, rows in groups.values()]

    def in_target(self, positions):
        """Per-agent flags: inside its target zone. False for an agent without
        a goal and for a non-finite position."""
        offset = positions - self.goals
        return np.sqrt((offset * offset).sum(axis=1)) <= self.r_target

    def sigma_activity(self, positions):
        """Per-agent sum of interaction weights against all other agents."""
        return interaction.sigma_activity(positions, self.radii, self.profile,
                                          pairs=self._near_pairs(positions))

    def _near_pairs(self, positions):
        """The cut-off pair pass of a snapshot, made once per snapshot: the
        tick's first control evaluation and its sigma_activity share it."""
        positions = np.asarray(positions, float)
        key = positions.tobytes()
        if self._snapshot is None or self._snapshot[0] != key:
            self._snapshot = (key, interaction.near_pairs(positions, self.radii, self.profile))
        return self._snapshot[1]


def step(runtime: Runtime, positions, cfg: SimConfig, k1=None):
    """Advance one tick from the snapshot. RK4 re-evaluates controls at each stage."""
    dt = cfg.dt
    if k1 is None:
        k1, _ = runtime.eval_controls(positions)
    if cfg.integrator == EULER:
        return positions + dt * k1
    k2, _ = runtime.eval_controls(positions + 0.5 * dt * k1)
    k3, _ = runtime.eval_controls(positions + 0.5 * dt * k2)
    k4, _ = runtime.eval_controls(positions + dt * k3)
    return positions + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# ---------------------------------------------------------------------------
# Monitors
# ---------------------------------------------------------------------------

def detect_deadlock(slow_time, speeds, outside_target, cfg: SimConfig, v_eps):
    """Advance the deadlock window by one tick. Returns (slow_time, deadlocked).

    slow_time is the consecutive time every agent has stayed below v_eps; any
    fast tick (or an empty group) resets it. The group is deadlocked once that
    time reaches w_dead while someone is still outside its target.
    """
    if len(speeds) and speeds.max() < v_eps:
        slow_time += cfg.dt
    else:
        slow_time = 0.0
    return slow_time, bool(slow_time >= cfg.w_dead and np.any(outside_target))


class CollisionAudit(NamedTuple):
    pair_clearance: np.ndarray              # (L (L - 1) / 2,) in np.triu_indices order
    obstacle_clearance: np.ndarray | None   # (L,); None without obstacles
    pairs: np.ndarray                       # (n, 2) overlapping pairs i < j, same order
    agents: np.ndarray                      # (m,) agents penetrating an obstacle, ascending


def collision_audit(positions, radii, ws: Workspace, collision_tol: float) -> CollisionAudit:
    """Surface clearances of every body pair and of every body to the
    obstacles, and which of them overlap beyond the numerical slack."""
    positions = np.asarray(positions, float)
    *_, pair_clearance = interaction.pair_gaps(positions, np.asarray(radii, float))
    pairs = interaction.pair_index(len(radii))[:, pair_clearance < -collision_tol].T
    obstacle_clearance = None
    agents = np.empty(0, dtype=int)
    if ws.obstacles:
        obstacle_clearance = ws.obstacle_clearance(positions) - radii
        agents = np.flatnonzero(obstacle_clearance < -collision_tol)
    return CollisionAudit(pair_clearance, obstacle_clearance, pairs, agents)


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
    instead. Returns (s, kappa, kappa_max, degenerate_flag, corner_angles).
    """
    positions = np.asarray(positions, float)
    speeds = np.asarray(speeds, float)
    keep = speeds >= v_eps
    pts = positions[keep]
    empty = np.array([]), np.array([]), 0.0, True, np.array([])
    if len(pts) < 3:
        return empty
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
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
    s_nodes = np.concatenate([[0.0], np.cumsum(seg)])

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
    ua = a / np.linalg.norm(a)
    ub = b / np.linalg.norm(b)
    return float(2.0 * np.arctan2(np.linalg.norm(ua - ub), np.linalg.norm(ua + ub)))


def spring_potential(gain, goal, x):
    """0.5 * gain * |x - goal|^2, for one agent or for stacked agents (gain
    (n,), goal and x (n, dim)) with the same bits per row."""
    r = world.row_norms(np.asarray(x, float) - goal)
    return 0.5 * gain * r * r


def agent_potential(c: ctl.AgentController, x) -> float | None:
    """Goal potential whose negative gradient is the agent's goal control."""
    if c.goal_kind == ctl.SPRING_GOAL:
        return float(spring_potential(c.gain, c.goal, x))
    if c.goal_kind == ctl.HARMONIC_GOAL:
        return harmonic.value_at(c.field, x)
    return None


# ---------------------------------------------------------------------------
# Run loop
# ---------------------------------------------------------------------------

def _auto_v_eps(runtime: Runtime) -> float:
    mags = []
    for c, b in zip(runtime.controllers, runtime.bodies):
        with _quiet_overflow():
            m = float(np.linalg.norm(ctl.goal_term(c, b.x)))
        if m > 1e-12:
            mags.append(m)
    typical = float(np.mean(mags)) if mags else 1.0
    return 1e-3 * typical


def _quiet_overflow():
    """Overflow and invalid operations in the integration surface as a
    non-finite control or position (`_non_finite`), not as warnings."""
    return np.errstate(over="ignore", invalid="ignore")


def _non_finite(log: TrajectoryLog, t, what: str, runtime: Runtime, bad) -> SimulationError:
    """Log an `error` event naming the agents whose `what` is not finite, and
    return the error that ends the run: a NaN state must never run on to a
    timeout whose clearances read as safe."""
    agents = [runtime.bodies[i].id for i in np.flatnonzero(bad)]
    message = f"non-finite {what} of agents {agents}"
    log.add_event(t, "error", message=message, agents=agents)
    return SimulationError(f"{message} at t={t:g}", log)


def _horizon_success(runtime: Runtime, start_positions, positions) -> bool:
    check = getattr(runtime.success, "check", None)
    if check != "groups_crossed":
        return True
    drift_x = np.array([
        c.drift[0] if c.drift is not None else 0.0 for c in runtime.controllers
    ])
    left_movers = drift_x < 0
    right_movers = drift_x > 0
    if not np.any(left_movers) or not np.any(right_movers):
        return True
    left_final = positions[left_movers, 0]
    right_final = positions[right_movers, 0]
    return bool(np.all(left_final < start_positions[right_movers, 0].min())
                and np.all(right_final > start_positions[left_movers, 0].max()))


def run(scenario, cfg: SimConfig | None = None, audit: bool = True):
    """Integrate a scenario to its outcome. Returns (TrajectoryLog, MetricsReport)."""
    from .scenarios import build_runtime  # deferred: scenarios imports SimConfig from here

    runtime = build_runtime(scenario)
    if cfg is not None:
        runtime.config = cfg
    config = runtime.config
    violations = world.validate_scenario(runtime.ws, runtime.bodies)
    if violations:
        raise ConfigError("scenario validation failed: " + "; ".join(violations))
    success_kind = getattr(runtime.success, "kind", "converge")
    if success_kind == "converge" and runtime.bodies and not runtime.has_goal.any():
        raise ConfigError("convergence needs at least one agent with a goal; "
                          "use a horizon success criterion for pure drift runs")

    log = TrajectoryLog([b.id for b in runtime.bodies], runtime.dim)
    v_eps = config.v_eps if config.v_eps is not None else _auto_v_eps(runtime)

    if audit and runtime.n_agents >= 2:
        reaches = sorted((b.reach for b in runtime.bodies), reverse=True)
        pass_radius = reaches[0] + reaches[1]
        bad = world.passage_width_audit(runtime.ws, pass_radius)
        if bad:
            log.add_event(0.0, "audit_warning", cells=len(bad), radius=pass_radius)
    harmonic_ctrls = [c for c in runtime.controllers if c.goal_kind == ctl.HARMONIC_GOAL]
    if harmonic_ctrls and runtime.params.mode == interaction.UNIT_MODE:
        stats = [harmonic.field_stats(c.field) for c in harmonic_ctrls]
        warning = interaction.circulation_bound_check(runtime.params.kt, stats)
        if warning:
            log.add_event(0.0, "circulation_warning", message=warning)

    positions = runtime.positions()
    start_positions = positions.copy()
    t = 0.0
    slow_time = 0.0
    pair_reported = np.zeros((runtime.n_agents, runtime.n_agents), dtype=bool)
    obstacle_reported = np.zeros(runtime.n_agents, dtype=bool)
    min_pair = np.inf
    min_obstacle = np.inf
    trace = [] if all(c.goal_kind != ctl.CONSTANT_DRIFT for c in runtime.controllers) else None
    outcome = None

    with _quiet_overflow():
        while True:
            bad = ~np.isfinite(positions).all(axis=1)
            if bad.any():
                raise _non_finite(log, t, "position", runtime, bad)
            runtime.sync_bodies(positions)
            for c, b in zip(runtime.controllers, runtime.bodies):
                if c.goal_kind == ctl.HARMONIC_GOAL:
                    iterations = c.field.iterations
                    n_new = ctl.on_tick_sense(c, b, runtime.ws)
                    if n_new:
                        log.add_event(t, "discovery", agent=c.agent_id, new_cells=n_new,
                                      solver_iterations=c.field.iterations - iterations,
                                      residual=c.field.residual)

            try:
                U, pen = runtime.eval_controls(positions)
            except (harmonic.FieldQueryError, harmonic.SolverError) as exc:
                log.add_event(t, "error", message=str(exc))
                raise SimulationError(f"control evaluation failed at t={t:g}: {exc}", log) from exc
            bad = ~np.isfinite(U).all(axis=1)
            if bad.any():
                raise _non_finite(log, t, "control", runtime, bad)

            switched = runtime.begin_step()
            if switched is not None:
                log.switches.append((log.n_ticks - 1, switched))
            log.append(t, positions, U, runtime.sigma_activity(positions))
            for i in np.flatnonzero(pen):
                log.add_event(t, "penetration", agent=runtime.bodies[i].id)

            hits = collision_audit(positions, runtime.radii, runtime.ws, config.collision_tol)
            if hits.pair_clearance.size:
                min_pair = min(min_pair, float(hits.pair_clearance.min()))
            if hits.obstacle_clearance is not None and hits.obstacle_clearance.size:
                min_obstacle = min(min_obstacle, float(hits.obstacle_clearance.min()))
            # each pair or agent is reported once, at its first overlapping tick
            if len(hits.pairs):
                new_pairs = hits.pairs[~pair_reported[hits.pairs[:, 0], hits.pairs[:, 1]]]
                pair_reported[new_pairs[:, 0], new_pairs[:, 1]] = True
                for a, b_ in new_pairs:
                    log.add_event(t, "collision",
                                  agents=[runtime.bodies[a].id, runtime.bodies[b_].id])
            if len(hits.agents):
                new_agents = hits.agents[~obstacle_reported[hits.agents]]
                obstacle_reported[new_agents] = True
                for i in new_agents:
                    log.add_event(t, "collision_obstacle", agent=runtime.bodies[i].id)

            if trace is not None:
                trace.append(sum(runtime.goal_potentials(positions)))

            speeds = np.linalg.norm(U, axis=1)
            inside = runtime.in_target(positions)
            if (success_kind == "converge"
                    and ((inside & (speeds < v_eps)) | ~runtime.has_goal).all()):
                outcome = CONVERGED
                break
            slow_time, deadlocked = detect_deadlock(slow_time, speeds, ~inside, config, v_eps)
            if deadlocked:
                outcome = DEADLOCK
                log.add_event(t, "deadlock")
                break
            if t >= config.t_max - 0.5 * config.dt:
                if (success_kind == "horizon"
                        and _horizon_success(runtime, start_positions, positions)):
                    outcome = CONVERGED
                else:
                    outcome = TIMEOUT
                break

            try:
                positions = step(runtime, positions, config, k1=U)
            except (harmonic.FieldQueryError, harmonic.SolverError) as exc:
                log.add_event(t, "error", message=str(exc))
                raise SimulationError(f"integration failed at t={t:g}: {exc}", log) from exc
            t += config.dt

    log.outcome = COLLISION if pair_reported.any() or obstacle_reported.any() else outcome

    kappa = {}
    corners = {}
    lengths = {}
    pos_arr = log.position_array()
    ctl_arr = log.control_array()
    breaks = None
    if log.switches:
        breaks = np.zeros((log.n_ticks - 1, runtime.n_agents), dtype=bool)
        for k, flags in log.switches:
            breaks[k] = flags
    for i, b in enumerate(runtime.bodies):
        sp = np.linalg.norm(ctl_arr[:, i, :], axis=1)
        _, _, kmax, _, angles = curvature_profile(pos_arr[:, i, :], sp, v_eps,
                                                  None if breaks is None else breaks[:, i])
        kappa[b.id] = kmax
        corners[b.id] = float(angles.max()) if len(angles) else 0.0
        lengths[b.id] = float(np.linalg.norm(np.diff(pos_arr[:, i, :], axis=0), axis=1).sum())

    trace_list = [float(v) for v in trace] if trace is not None else None
    rate_list = None
    if trace_list and len(trace_list) > 1:
        rate_list = [float(v) for v in np.diff(trace_list) / config.dt]

    metrics = MetricsReport(
        kappa_max=kappa,
        corner_angle_max=corners,
        min_pair_clearance=float(min_pair) if np.isfinite(min_pair) else float("inf"),
        min_obstacle_clearance=float(min_obstacle) if np.isfinite(min_obstacle) else float("inf"),
        path_lengths=lengths,
        potential_trace=trace_list,
        potential_rate=rate_list,
    )
    return log, metrics
