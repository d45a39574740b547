import dataclasses
import importlib.util
import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    always_query_controls,
    goal_potential,
    goal_term,
    oracle_value_at,
    raising,
    scenario_dicts,
)
from vhpf import cli, engine, harmonic, interaction, scenarios, svgplot, world
from vhpf.controller import SPRING_GOAL, AgentController
from vhpf.engine import (
    COLLISION,
    CONVERGED,
    DEADLOCK,
    TIMEOUT,
    SimConfig,
    SimulationError,
    TrajectoryLog,
    collision_audit,
    curvature_profile,
    detect_deadlock,
    run,
    step,
)
from vhpf.interaction import (
    SPRING,
    SPRING_MODE,
    InteractionParams,
    KnownBoundaryIndex,
    ObstacleRepulsionParams,
    WeightProfile,
    near_pairs,
)
from vhpf.scenarios import (
    AgentSpec,
    GoalSpec,
    ScenarioSpec,
    SuccessSpec,
    WorkspaceSpec,
    build_runtime,
    builtin,
)
from vhpf.world import Box, ConfigError, Workspace


def two_agent_spec(**overrides):
    spec = builtin("case1")
    return dataclasses.replace(spec, **overrides)


def single_agent_spec(start=(-4.0, 0.0), goal=(4.0, 0.0), gain=0.4, t_max=60.0,
                      integrator="rk4", dt=0.01):
    return ScenarioSpec(
        name="single",
        workspace=WorkspaceSpec((-10.0, -10.0), (10.0, 10.0), grid_h=0.25),
        agents=(AgentSpec(1, start, 1.0, 1.5, GoalSpec(SPRING_GOAL, gain=gain),
                          goal=goal, r_target=1.0),),
        crf=InteractionParams(kr=2.0, kt=1.0, mode=SPRING_MODE),
        profile=WeightProfile(SPRING, delta=1.5),
        obstacle_repulsion=None,
        sim=SimConfig(dt=dt, t_max=t_max, integrator=integrator),
    )


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def test_step_fixed_point_for_zero_control():
    rt = build_runtime(single_agent_spec(start=(4.0, 0.0)))  # already at the goal
    x = rt.positions()
    out = step(rt, x)
    assert np.array_equal(out, x)


def test_step_euler_constant_drift():
    spec = ScenarioSpec(
        name="drift",
        workspace=WorkspaceSpec((-10.0, -10.0), (10.0, 10.0), grid_h=0.25),
        agents=(AgentSpec(1, (0.0, 0.0), 1.0, 1.5,
                          GoalSpec("drift", velocity=(1.0, 0.0))),),
        crf=InteractionParams(),
        profile=WeightProfile(SPRING, delta=1.5),
        obstacle_repulsion=None,
        sim=SimConfig(dt=0.1, t_max=1.0, integrator="euler"),
        success=SuccessSpec(kind="horizon"),
    )
    rt = build_runtime(spec)
    out = step(rt, rt.positions())
    assert out[0] == pytest.approx([0.1, 0.0], abs=1e-15)


def test_step_rk4_matches_exponential_decay():
    spec = single_agent_spec(gain=0.5, dt=0.1)
    rt = build_runtime(spec)
    x = rt.positions()
    out = step(rt, x)
    # linear spring flow has the exact solution goal + (x - goal) e^{-k dt};
    # fourth-order truncation leaves ~ (k dt)^5 / 5! * |offset| ~ 2e-8
    exact = np.array([4.0, 0.0]) + (x[0] - [4.0, 0.0]) * np.exp(-0.5 * 0.1)
    assert out[0] == pytest.approx(exact, abs=1e-7)


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

def test_case1_run_converges_and_dissipates():
    log, metrics = run(builtin("case1"))
    assert log.outcome == CONVERGED
    assert metrics.min_pair_clearance >= 0.0
    assert np.all(log.sigma_activity[-1] == 0.0)
    final = log.positions[-1]
    assert np.linalg.norm(final[0] - [4.0, 0.0]) <= 1.0
    assert np.linalg.norm(final[1] - [-4.0, 0.0]) <= 1.0


def test_case1_id_swap_mirrors_exactly():
    spec = builtin("case1")
    swapped = dataclasses.replace(
        spec,
        agents=(
            dataclasses.replace(spec.agents[1], id=1),
            dataclasses.replace(spec.agents[0], id=2),
        ),
    )
    log_a, _ = run(spec)
    log_b, _ = run(swapped)
    assert log_a.n_ticks == log_b.n_ticks
    pa = log_a.position_array()
    pb = log_b.position_array()
    # agent k of the swapped run retraces agent k's mirror of the original
    assert np.array_equal(pa[:, 0, :], -pb[:, 0, :])
    assert np.array_equal(pa[:, 1, :], -pb[:, 1, :])


def test_run_is_bitwise_deterministic():
    log_a, _ = run(builtin("case1"))
    log_b, _ = run(builtin("case1"))
    assert log_a.times == log_b.times
    assert np.array_equal(log_a.position_array(), log_b.position_array())
    assert np.array_equal(log_a.control_array(), log_b.control_array())
    assert log_a.outcome == log_b.outcome


def test_dt_refinement_keeps_final_positions():
    spec = builtin("case1")
    log_a, _ = run(spec)
    half = dataclasses.replace(spec, sim=dataclasses.replace(spec.sim, dt=0.005))
    log_b, _ = run(half)
    drift = np.linalg.norm(log_a.positions[-1] - log_b.positions[-1], axis=1).max()
    assert drift < 10 * spec.sim.dt


def test_harmonic_navigation_in_three_dimensions():
    # one agent descends a 3-D grid potential around a central block it has
    # to discover, exercising the volumetric solve, inflation, and sampling
    spec = ScenarioSpec(
        name="room3d",
        workspace=WorkspaceSpec(
            (-3.0, -3.0, -3.0), (3.0, 3.0, 3.0),
            obstacles=(Box((-0.5, -1.5, -1.5), (0.5, 1.5, 1.5)),),
            grid_h=0.25,
        ),
        agents=(AgentSpec(1, (-2.0, 0.0, 0.0), 0.4, 0.6,
                          GoalSpec("harmonic", drive="unit", cruise=0.8),
                          goal=(2.0, 0.3, 0.3), r_target=0.4),),
        crf=InteractionParams(mode="unit"),
        profile=WeightProfile("linear", delta=0.6),
        obstacle_repulsion=scenarios.ObstacleRepulsionParams(strength=4.0, influence=0.2),
        sim=SimConfig(dt=0.01, t_max=60.0),
    )
    log, metrics = run(spec)
    assert log.outcome == CONVERGED
    assert any(e["kind"] == "discovery" for e in log.events)
    assert metrics.min_obstacle_clearance >= -spec.sim.collision_tol
    final = log.positions[-1][0]
    assert np.linalg.norm(final - [2.0, 0.3, 0.3]) <= 0.4


def test_empty_agent_list_is_rejected():
    # a group of nobody has no outcome to report, least of all "converged"
    with pytest.raises(ConfigError, match="at least one agent"):
        ScenarioSpec(
            name="empty",
            workspace=WorkspaceSpec((-2.0, -2.0), (2.0, 2.0), grid_h=0.25),
            agents=(),
            crf=InteractionParams(),
            profile=WeightProfile(SPRING, delta=1.5),
            obstacle_repulsion=None,
            sim=SimConfig(dt=0.01, t_max=1.0),
        )


def test_goal_free_run_needs_horizon_success():
    # the spec rejects it at construction, before any run
    with pytest.raises(ConfigError, match="horizon"):
        dataclasses.replace(builtin("case5_lanes"), success=SuccessSpec(kind="converge"))


@pytest.mark.parametrize("name, evals_per_step", [("case1", 4), ("case5_lanes", 1)])
def test_one_pair_pass_per_control_evaluation(monkeypatch, name, evals_per_step):
    # the tick's first evaluation, its weight sums and the collision monitor
    # share one pass over the whole pair table; each further RK4 stage gets
    # one pass over the pairs its displacement can bring within the cut-off,
    # filtered from the tick's, and reads the whole table no more
    counts = {}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(interaction, "near_pairs", counted("pass", interaction.near_pairs))
    # the full pair table: every quadratic pass over the pairs reads it
    monkeypatch.setattr(interaction, "pair_index", counted("table", interaction.pair_index))
    monkeypatch.setattr(engine.Runtime, "eval_controls",
                        counted("eval", engine.Runtime.eval_controls))
    spec = builtin(name)
    log, _ = run(dataclasses.replace(spec, sim=dataclasses.replace(spec.sim, t_max=3.0)))
    assert log.n_ticks > 100
    assert counts["eval"] == evals_per_step * (log.n_ticks - 1) + 1
    assert counts["pass"] == counts["eval"]
    assert counts["table"] == log.n_ticks


def _crowd_spec(seed):
    path = Path(__file__).resolve().parent.parent / "bench" / "crowd.py"
    module_spec = importlib.util.spec_from_file_location("bench_crowd", path)
    crowd = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(crowd)
    return scenarios.from_dict(crowd.generate(seed))


@pytest.mark.parametrize("name", ["case1", "case4", "crowd1"])
def test_step_is_the_same_with_and_without_the_ticks_pairs(name):
    # with the tick's pairs, the RK4 stages measure only the pairs that their
    # displacement can bring within the cut-off; without, each makes a full pass
    spec = _crowd_spec(1) if name == "crowd1" else builtin(name)
    log, _ = run(spec)
    rt = build_runtime(spec)
    assert rt.config.integrator == engine.RK4
    filtered = 0
    for x in log.positions[::7]:
        pairs = near_pairs(x, rt.radii, rt.profile)
        k1, _ = rt.eval_controls(x, pairs)
        want = step(rt, x)
        assert step(rt, x, k1=k1, pairs=pairs).tobytes() == want.tobytes()
        assert step(rt, x, k1=k1).tobytes() == want.tobytes()
        h = 0.5 * rt.config.dt
        room = interaction.stage_room(pairs, x, rt.profile, rt._pair_setup)
        filtered += len(interaction.stage_pairs(pairs, x + h * k1, h, k1, rt.radii, rt.profile,
                                                room, rt._pair_setup).table_gap)
        filtered -= len(pairs.table_gap)
    if name == "crowd1":
        assert filtered < 0     # the filter leaves pairs out


def test_run_rejects_invalid_scenario():
    spec = builtin("case1")
    bad = dataclasses.replace(
        spec,
        agents=(spec.agents[0],
                dataclasses.replace(spec.agents[1], goal=spec.agents[0].goal)),
    )
    with pytest.raises(ConfigError):
        run(bad)


def assert_events_replay_collision_audit(spec, log, metrics):
    """The run's collision events and clearance minima are what collision_audit
    reports on the logged snapshots, each pair or agent at its first overlap."""
    rt = build_runtime(spec)
    ids = log.agent_ids
    expected, seen = [], set()
    min_pair = min_obstacle = np.inf
    for t, x in zip(log.times, log.positions):
        out = collision_audit(x, rt.radii, rt.ws, spec.sim.collision_tol,
                              near_pairs(x, rt.radii, rt.profile))
        if out.pair_clearance.size:
            min_pair = min(min_pair, out.pair_clearance.min())
        if out.obstacle_clearance is not None:
            min_obstacle = min(min_obstacle, out.obstacle_clearance.min())
        for a, b in out.pairs:
            if ("pair", a, b) not in seen:
                seen.add(("pair", a, b))
                expected.append({"t": t, "kind": "collision", "agents": [ids[a], ids[b]]})
        for i in out.agents:
            if ("agent", i) not in seen:
                seen.add(("agent", i))
                expected.append({"t": t, "kind": "collision_obstacle", "agent": ids[i]})
    got = [e for e in log.events if e["kind"] in ("collision", "collision_obstacle")]
    assert got == expected
    reported = [(e["kind"], str(e.get("agents", e.get("agent")))) for e in got]
    assert len(set(reported)) == len(reported)
    assert metrics.min_pair_clearance == min_pair
    assert metrics.min_obstacle_clearance == min_obstacle
    return got


def test_head_on_without_interaction_flags_collision():
    spec = builtin("case1")
    ghost = dataclasses.replace(spec, crf=InteractionParams(kr=0.0, kt=0.0,
                                                            mode=SPRING_MODE))
    log, metrics = run(ghost)
    assert log.outcome == COLLISION
    assert metrics.min_pair_clearance < 0
    assert any(e["kind"] == "collision" for e in log.events)
    assert [e["kind"] for e in assert_events_replay_collision_audit(ghost, log, metrics)] \
        == ["collision"]


def test_weak_cushion_logs_penetration_and_obstacle_collision():
    # drift straight at a wall with a cushion too weak to stop the body
    spec = ScenarioSpec(
        name="ram",
        workspace=WorkspaceSpec((-6.0, -6.0), (6.0, 6.0),
                                obstacles=(Box((2.0, -6.0), (6.0, 6.0)),),
                                grid_h=0.25),
        agents=(AgentSpec(1, (-2.0, 0.0), 0.5, 0.5,
                          GoalSpec("drift", velocity=(2.0, 0.0)),
                          prior_knowledge="full"),),
        crf=InteractionParams(),
        profile=WeightProfile(SPRING, delta=0.5),
        obstacle_repulsion=scenarios.ObstacleRepulsionParams(strength=0.5, influence=0.25),
        sim=SimConfig(dt=0.01, t_max=5.0),
        success=SuccessSpec(kind="horizon"),
    )
    log, metrics = run(spec)
    kinds = {e["kind"] for e in log.events}
    assert "penetration" in kinds
    assert "collision_obstacle" in kinds
    assert log.outcome == COLLISION
    assert metrics.min_obstacle_clearance < 0
    assert [e["kind"] for e in assert_events_replay_collision_audit(spec, log, metrics)] \
        == ["collision_obstacle"]


def test_short_horizon_times_out():
    spec = single_agent_spec(t_max=0.5)
    log, _ = run(spec)
    assert log.outcome == TIMEOUT


def test_symmetric_stalemate_deadlocks():
    # two agents forced head-on with no circulating term and a gain matched
    # so that the radial push balances the goal springs away from the targets
    spec = two_agent_spec(crf=InteractionParams(kr=2.0, kt=0.0, mode=SPRING_MODE))
    spec = dataclasses.replace(spec, sim=dataclasses.replace(spec.sim, t_max=80.0))
    log, _ = run(spec)
    assert log.outcome == DEADLOCK
    final = log.positions[-1]
    assert np.linalg.norm(final[0] - [4.0, 0.0]) > 1.0


# ---------------------------------------------------------------------------
# monitors
# ---------------------------------------------------------------------------

def deadlock_tick(speeds, outside_target, cfg, v_eps):
    """First tick at which the incremental deadlock rule fires over a speed
    history (one row per tick), or None."""
    slow_time = 0.0
    for k, row in enumerate(speeds):
        slow_time, deadlocked = detect_deadlock(slow_time, row < v_eps, outside_target, cfg)
        if deadlocked:
            return k
    return None


def test_detect_deadlock_parked_is_success_not_deadlock():
    cfg = SimConfig(dt=0.1, t_max=10.0, w_dead=1.0)
    speeds = np.full((20, 2), 1e-6)
    assert deadlock_tick(speeds, np.array([False, False]), cfg, 1e-3) is None
    assert deadlock_tick(speeds, np.array([True, False]), cfg, 1e-3) is not None


def test_detect_deadlock_requires_slow_window():
    cfg = SimConfig(dt=0.1, t_max=10.0, w_dead=1.0)
    speeds = np.full((20, 2), 1e-2)
    assert deadlock_tick(speeds, np.array([True, True]), cfg, 1e-3) is None
    short = np.zeros((5, 1))
    assert deadlock_tick(short, np.array([True]), cfg, 1e-3) is None


def test_detect_deadlock_window_restarts_on_a_fast_tick():
    cfg = SimConfig(dt=0.25, t_max=10.0, w_dead=1.0)
    speeds = np.full((12, 1), 1e-6)
    assert deadlock_tick(speeds, np.array([True]), cfg, 1e-3) == 3
    speeds[2] = 1.0
    assert deadlock_tick(speeds, np.array([True]), cfg, 1e-3) == 6


@pytest.mark.parametrize("name", ["dt", "t_max", "w_dead", "collision_tol", "v_eps"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_sim_config_rejects_non_finite_values(name, value):
    with pytest.raises(ConfigError, match=name):
        SimConfig(**{name: value})


@pytest.mark.parametrize("name, value", [("w_dead", 0.0), ("w_dead", -1.0),
                                         ("collision_tol", -1e-3)])
def test_sim_config_rejects_out_of_range_values(name, value):
    with pytest.raises(ConfigError):
        SimConfig(**{name: value})


def test_in_target_is_false_for_nan_and_goal_free_agents():
    rt = build_runtime(builtin("case1"))
    inside = rt.in_target(np.array([[4.0, 0.5], [np.nan, 0.0]]))
    assert inside.tolist() == [True, False]
    lanes = build_runtime(builtin("case5_lanes"))
    assert not lanes.in_target(lanes.positions()).any()


def audit(positions, radii, ws, collision_tol=1e-3, profile=WeightProfile()):
    """`collision_audit` of a snapshot, given the snapshot's pair pass."""
    positions = np.asarray(positions, float)
    radii = np.asarray(radii, float)
    return collision_audit(positions, radii, ws, collision_tol,
                           near_pairs(positions, radii, profile))


def test_collision_audit_reports_overlaps():
    ws = Workspace((-5, -5), (5, 5), [scenarios.Box((2.0, -1.0), (4.0, 1.0))], h=0.25)
    positions = np.array([[0.0, 0.0], [1.5, 0.0], [2.0, 0.0]])
    radii = np.ones(3)
    out = audit(positions, radii, ws)
    assert out.pairs.tolist() == [[0, 1], [1, 2]]
    assert out.agents.tolist() == [1, 2]
    assert out.pair_clearance == pytest.approx([-0.5, 0.0, -1.5])
    assert out.obstacle_clearance == pytest.approx([1.0, -0.5, -1.0])


def test_collision_audit_matches_pairwise_loop():
    rng = np.random.default_rng(3)
    ws = Workspace((-6, -6), (6, 6), [scenarios.Ball((1.0, 1.0), 1.5)], h=0.25)
    positions = rng.uniform(-5, 5, size=(12, 2))
    radii = rng.uniform(0.3, 1.0, size=12)
    out = audit(positions, radii, ws)
    pairs, clearance = [], []
    for i in range(12):
        for j in range(i + 1, 12):
            c = np.hypot(*(positions[i] - positions[j])) - radii[i] - radii[j]
            clearance.append(c)
            if c < -1e-3:
                pairs.append([i, j])
    agents = [i for i in range(12)
              if np.hypot(*(positions[i] - (1.0, 1.0))) - 1.5 - radii[i] < -1e-3]
    assert out.pair_clearance == pytest.approx(clearance, abs=1e-12)
    assert out.pairs.tolist() == pairs and pairs
    assert out.agents.tolist() == agents and agents


def test_collision_audit_clean_for_case1_layout():
    ws = Workspace((-10, -10), (10, 10), h=0.25)
    positions = np.array([[-4.0, 0.0], [4.0, 0.0]])
    out = audit(positions, np.ones(2), ws)
    assert out.pairs.size == 0 and out.agents.size == 0
    assert out.pair_clearance.tolist() == [6.0]
    assert out.obstacle_clearance is None


def test_collision_audit_without_pairs_in_range():
    # no pair within delta: the pass keeps no pair, and the table still has every clearance
    ws = Workspace((-10, -10), (10, 10), [scenarios.Ball((0.0, 6.0), 1.0)], h=0.25)
    positions = np.array([[-6.0, 0.0], [0.0, 0.0], [6.0, 0.0], [0.0, 3.5]])
    radii = np.array([1.0, 1.0, 1.0, 0.6])
    out = audit(positions, radii, ws, profile=WeightProfile(delta=0.5))
    assert out.pairs.shape == (0, 2) and out.agents.size == 0
    gaps = [np.hypot(*(positions[i] - positions[j])) - radii[i] - radii[j]
            for i in range(4) for j in range(i + 1, 4)]
    assert out.pair_clearance == pytest.approx(gaps, abs=1e-12)
    assert min(gaps) > 0.5
    assert out.obstacle_clearance == pytest.approx([np.hypot(6, 6) - 2, 4.0, np.hypot(6, 6) - 2,
                                                    0.9])


def test_collision_audit_of_one_agent():
    ws = Workspace((-5, -5), (5, 5), [scenarios.Box((2.0, -1.0), (4.0, 1.0))], h=0.25)
    out = audit([[1.5, 0.0]], [1.0], ws)
    assert out.pair_clearance.shape == (0,)
    assert out.pairs.shape == (0, 2)
    assert out.obstacle_clearance == pytest.approx([-0.5])
    assert out.agents.tolist() == [0]


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

def test_curvature_straight_line_is_zero():
    t = np.linspace(0, 10, 500)[:, None]
    pts = t * np.array([[1.0, 0.5]])
    speeds = np.full(len(t), 1.0)
    _, kappa, kmax, degenerate, _ = curvature_profile(pts, speeds, 1e-3)
    assert not degenerate
    assert kmax < 1e-10


def test_curvature_circle_matches_inverse_radius():
    R = 2.0
    theta = np.arange(0, 2 * np.pi, 0.0025)
    pts = R * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    speeds = np.full(len(theta), 1.0)
    _, kappa, kmax, degenerate, _ = curvature_profile(pts, speeds, 1e-3)
    assert not degenerate
    assert kmax == pytest.approx(1.0 / R, rel=0.02)
    assert np.median(kappa) == pytest.approx(1.0 / R, rel=0.02)


def test_curvature_degenerate_trajectory():
    pts = np.zeros((10, 2))
    speeds = np.zeros(10)
    s, kappa, kmax, degenerate, _ = curvature_profile(pts, speeds, 1e-3)
    assert degenerate and kmax == 0.0 and len(s) == 0


def _arcs_with_corner(R, theta, step):
    """Two left-turning arcs of radius R, 1.5 rad each, whose tangents differ by
    theta where they meet; the joint falls mid-chord. Returns (points, breaks)."""
    def arc(p0, heading, s):
        return p0 + R * np.stack([np.sin(heading + s / R) - np.sin(heading),
                                  np.cos(heading) - np.cos(heading + s / R)], axis=1)

    length = (round(1.5 * R / step) + 0.5) * step
    first = arc(np.zeros(2), 0.0, np.arange(0.0, length, step))
    corner = arc(np.zeros(2), 0.0, np.array([length]))[0]
    second = arc(corner, length / R + theta, np.arange(0.5 * step, length, step))
    breaks = np.zeros(len(first) + len(second) - 1, dtype=bool)
    breaks[len(first) - 1] = True
    return np.concatenate([first, second]), breaks


def test_curvature_splits_at_corner_and_reports_its_angle():
    R, theta = 2.0, 0.5
    single = []
    for step in (0.005, 0.0025):
        pts, breaks = _arcs_with_corner(R, theta, step)
        speeds = np.ones(len(pts))
        _, _, kmax, degenerate, corners = curvature_profile(pts, speeds, 1e-3, breaks)
        assert not degenerate
        assert kmax == pytest.approx(1.0 / R, rel=0.02)
        assert corners == pytest.approx([theta], rel=0.02)
        _, _, kmax_single, _, no_corners = curvature_profile(pts, speeds, 1e-3)
        assert len(no_corners) == 0
        single.append(kmax_single)
    # one pass over the corner reads its angle over the resampling step
    assert single[1] > 1.5 * single[0] > 10.0 / R


@pytest.mark.parametrize("delta", [1.5, 3.0])
def test_corner_metric_keeps_kappa_max_independent_of_dt(delta):
    spec = builtin("case2_exp")
    spec = dataclasses.replace(
        spec,
        profile=dataclasses.replace(spec.profile, delta=delta),
        agents=tuple(dataclasses.replace(a, ring_width=delta) for a in spec.agents),
    )
    kappa, corner = {}, {}
    for dt in (0.01, 0.005):
        _, metrics = run(dataclasses.replace(spec, sim=dataclasses.replace(spec.sim, dt=dt)))
        kappa[dt] = max(metrics.kappa_max.values())
        corner[dt] = max(metrics.corner_angle_max.values())
        assert min(metrics.corner_angle_max.values()) > 0.0
    assert abs(kappa[0.005] - kappa[0.01]) <= 0.1 * kappa[0.01]
    # an unflagged step whose RK4 stages straddle the edge would split the corner
    assert abs(corner[0.005] - corner[0.01]) <= 0.05 * corner[0.01]


def test_corner_angle_is_zero_without_weight_jumps():
    _, metrics = run(builtin("case2_linear"))
    assert all(v == 0.0 for v in metrics.corner_angle_max.values())


# ---------------------------------------------------------------------------
# goal-potential trace
# ---------------------------------------------------------------------------

def test_potential_zero_when_parked_at_goals():
    rt = build_runtime(single_agent_spec(start=(4.0, 0.0)))
    assert rt.goal_potentials(np.array([[4.0, 0.0]])) == [0.0]


@pytest.mark.parametrize("name", ["case4_malfunction", "case5_lanes", "case7_unknown"])
def test_group_goal_terms_and_potentials_match_each_agent(name):
    rt = build_runtime(builtin(name))
    rng = np.random.default_rng(5)
    pos = rt.positions() + rng.uniform(-0.5, 0.5, size=(rt.n_agents, rt.dim))
    U = rt.goal_terms(pos)
    potentials = rt.goal_potentials(pos)
    for i, c in enumerate(rt.controllers):
        assert U[i].tobytes() == goal_term(c, pos[i]).tobytes()
        want = goal_potential(c, pos[i])
        assert potentials[i] == want and type(potentials[i]) is type(want)


@pytest.mark.parametrize("name", ["case7_unknown", "case8_tight"])
def test_harmonic_group_potentials_are_bit_identical_to_the_oracle(name):
    # an all-harmonic group takes its own path: each agent's field value
    rt = build_runtime(builtin(name))
    rng = np.random.default_rng(13)
    snapshots = 0
    while snapshots < 50:
        pos = rt.ws.lo + rng.uniform(size=(rt.n_agents, rt.dim)) * (rt.ws.hi - rt.ws.lo)
        try:
            want = [oracle_value_at(c.field, pos[i]) for i, c in enumerate(rt.controllers)]
        except harmonic.FieldQueryError:
            continue
        got = rt.goal_potentials(pos)
        assert [(type(v), np.float64(v).tobytes()) for v in got] == \
            [(type(v), np.float64(v).tobytes()) for v in want]
        snapshots += 1


def test_single_agent_descent_is_monotone():
    log, metrics = run(single_agent_spec())
    trace = np.asarray(metrics.potential_trace)
    assert log.outcome == CONVERGED
    assert np.all(np.diff(trace) <= 1e-12)


def test_case1_trace_decays_three_orders():
    log, metrics = run(builtin("case1"))
    trace = np.asarray(metrics.potential_trace)
    assert trace[0] == pytest.approx(25.6)
    assert trace[-1] < 1e-3 * trace[0]


def test_lyapunov_trace_matches_online_series_for_springs():
    spec = builtin("case1")
    log, metrics = run(spec)
    goals = np.array([a.goal for a in spec.agents])
    gains = np.array([a.control.gain for a in spec.agents])
    r2 = ((log.position_array() - goals) ** 2).sum(axis=2)
    expected = (0.5 * gains * r2).sum(axis=1)
    assert expected == pytest.approx(np.asarray(metrics.potential_trace), abs=1e-12)


def test_lyapunov_trace_unavailable_for_drift():
    spec = builtin("case5_lanes")
    short = dataclasses.replace(spec, sim=dataclasses.replace(spec.sim, t_max=0.05))
    _, metrics = run(short)
    assert metrics.potential_trace is None and metrics.potential_rate is None


# ---------------------------------------------------------------------------
# log output
# ---------------------------------------------------------------------------

def test_log_rejects_nonincreasing_time():
    log = TrajectoryLog([1], 2)
    log.append(0.0, np.zeros((1, 2)), np.zeros((1, 2)), np.zeros(1))
    with pytest.raises(ValueError):
        log.append(0.0, np.zeros((1, 2)), np.zeros((1, 2)), np.zeros(1))


def test_csv_rows_are_the_reprs_of_the_logged_values(tmp_path):
    spec = builtin("case4_malfunction")
    log, _ = run(dataclasses.replace(spec, sim=SimConfig(dt=0.01, t_max=0.3)))
    csv_path = tmp_path / "traj.csv"
    log.write_csv(csv_path)
    want = []
    for k, t in enumerate(log.times):
        for i, aid in enumerate(log.agent_ids):
            row = [repr(float(t)), str(aid)]
            row += [repr(float(v)) for v in log.positions[k][i]]
            row += [repr(float(v)) for v in log.controls[k][i]]
            row.append(repr(float(log.sigma_activity[k][i])))
            want.append(",".join(row))
    assert csv_path.read_text().splitlines()[1:] == want


def _log_state(log):
    return (list(log.times), log.positions.tobytes(), log.controls.tobytes(),
            log.sigma_activity.tobytes())


@pytest.mark.parametrize("t, x, u, sigma, field", [
    (0.2, np.ones(2), np.zeros((3, 2)), np.zeros(3), "positions"),         # would broadcast
    (0.2, np.ones((4, 2)), np.zeros((3, 2)), np.zeros(3), "positions"),
    (0.2, np.ones((3, 2)), np.zeros((3, 3)), np.zeros(3), "controls"),
    (0.2, np.ones((3, 2)), np.zeros(2), np.zeros(3), "controls"),
    (0.2, np.ones((3, 2)), np.zeros((3, 2)), np.zeros((3, 1)), "sigma_activity"),
    (0.2, np.ones((3, 2)), np.zeros((3, 2)), 0.0, "sigma_activity"),
    (0.05, np.ones((3, 2)), np.zeros((3, 2)), np.zeros(3), "time"),
    (0.01, np.ones((3, 2)), np.zeros((3, 2)), np.zeros(3), "time"),
    (math.nan, np.ones((3, 2)), np.zeros((3, 2)), np.zeros(3), "time"),
    (math.inf, np.ones((3, 2)), np.zeros((3, 2)), np.zeros(3), "time"),
    (-math.inf, np.ones((3, 2)), np.zeros((3, 2)), np.zeros(3), "time"),
])
def test_log_rejects_a_bad_tick_and_stays_as_it_was(t, x, u, sigma, field):
    log = TrajectoryLog([4, 5, 6], 2)
    if not math.isfinite(t):     # an empty log refuses it too
        with pytest.raises(ValueError, match=field):
            log.append(t, x, u, sigma)
        assert _log_state(log) == ([], b"", b"", b"")
    for k in range(2):     # the second append grows the one-row block
        log.append(0.05 * k, np.full((3, 2), k + 1.0), np.full((3, 2), -k - 1.0), np.full(3, 0.5))
    before = _log_state(log)
    with pytest.raises(ValueError, match=field):
        log.append(t, x, u, sigma)
    assert _log_state(log) == before


_LOG_SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1.7976931348623157e308])


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(1, 9), st.sampled_from([2, 3]), st.integers(0, 70), st.integers(0, 2**32 - 1))
def test_log_views_round_trip_every_tick_across_growths(n_agents, dim, n_ticks, seed):
    rng = np.random.default_rng(seed)
    ids = [3 * i + 1 for i in range(n_agents)]
    log = TrajectoryLog(ids, dim)
    assert log.positions.shape == log.controls.shape == (0, n_agents, dim)
    assert log.position_array().shape == log.control_array().shape == (0, n_agents, dim)
    assert log.sigma_activity.shape == (0, n_agents)
    assert log.agent_positions(ids[-1]).shape == (0, dim)
    with tempfile.TemporaryDirectory() as tmp:
        log.write_csv(Path(tmp) / "empty.csv")
        header = (Path(tmp) / "empty.csv").read_text()
    assert header == ",".join(["t", "agent_id", *"xyz"[:dim], *[f"u{a}" for a in "xyz"[:dim]],
                               "sigma_activity"]) + "\n"

    rows = rng.standard_normal((n_ticks, n_agents, 2 * dim + 1))
    special = rng.random(rows.shape) < 0.05
    rows[special] = rng.choice(_LOG_SPECIALS, size=int(special.sum()))
    times = np.cumsum(rng.uniform(1e-3, 1.0, n_ticks))
    half = None
    for k in range(n_ticks):
        log.append(times[k], rows[k, :, :dim], rows[k, :, dim:2 * dim], rows[k, :, 2 * dim])
        if k == n_ticks // 2:
            half = log.positions     # taken before later growths
    assert log.times == times.tolist() and log.n_ticks == n_ticks
    want_x, want_u, want_s = rows[:, :, :dim], rows[:, :, dim:2 * dim], rows[:, :, 2 * dim]
    views = [(log.positions, want_x), (log.position_array(), want_x),
             (log.controls, want_u), (log.control_array(), want_u),
             (log.sigma_activity, want_s)]
    views += [(log.agent_positions(aid), want_x[:, i, :]) for i, aid in enumerate(ids)]
    if half is not None:
        views.append((half, want_x[:n_ticks // 2 + 1]))
    for got, want in views:
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        with pytest.raises(ValueError):
            got[...] = 0.0
    with tempfile.TemporaryDirectory() as tmp:
        log.write_csv(Path(tmp) / "log.csv")
        lines = (Path(tmp) / "log.csv").read_text().splitlines()
    assert lines[0] + "\n" == header
    assert lines[1:] == [",".join([repr(float(t)), str(aid), *map(repr, row.tolist())])
                         for t, tick in zip(times, rows) for aid, row in zip(ids, tick)]


def test_log_memory_peak_is_near_its_data(tmp_path):
    # The traced heap peak of a run and its outputs, plot included, against
    # the log's data bytes. A tick costs its row in one growing block, whose
    # last doubling holds the 256 filled rows and the new 512-row block at
    # once: with the run's fixed state, 1.77x the data of these 501 ticks.
    # The CSV writer's fixed buffers (about 1 MB at its 2,048-value block)
    # on top of the 512-row block make the peak, 1.88x. Per-tick arrays,
    # whole-run stacks at the end of the run and a stacked, joined plot read
    # 2.93x. The ratio depends on where
    # the run ends between doublings: just past one (257 ticks) it nears 3x,
    # of which the new block's unwritten half is allocated but never touched
    # (no resident memory), so the bound holds for a run that ends in the
    # upper part of a doubling, as this one does.
    spec = _crowd_spec(1)
    spec = dataclasses.replace(spec, sim=dataclasses.replace(spec.sim, t_max=5.0))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        log, metrics = run(spec)
        cli._write_outputs(spec, log, metrics, tmp_path, want_plot=True)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    data = log.n_ticks * len(log.agent_ids) * (2 * log.dim + 1) * 8
    assert log.n_ticks == 501
    assert peak <= 2.25 * data, peak / data


def test_svg_tracks_map_each_point_like_a_single_point(tmp_path):
    rng = np.random.default_rng(2)
    track = rng.uniform(-10.0, 10.0, size=(50, 2))
    out = tmp_path / "plot.svg"
    svgplot.render((-10.0, -10.0), (10.0, 10.0), [], {1: track}, {}, out)
    mapper = svgplot._Mapper((-10.0, -10.0), (10.0, 10.0))
    points = " ".join(f"{svgplot._fmt(x)},{svgplot._fmt(y)}"
                      for x, y in (mapper.to_px(p) for p in track))
    assert f'<polyline points="{points}"' in out.read_text()


def test_non_finite_control_is_an_error_not_a_timeout(monkeypatch):
    build = scenarios.build_runtime

    def with_inf_gain(spec):
        rt = build(spec)
        rt._spring_gain[0] = math.inf   # set past the spec's own check
        return rt

    monkeypatch.setattr(scenarios, "build_runtime", with_inf_gain)
    with pytest.raises(SimulationError) as err:
        run(dataclasses.replace(builtin("case1"), sim=SimConfig(dt=0.01, t_max=0.5)))
    event = err.value.log.events[-1]
    assert event["kind"] == "error" and event["agents"] == [1] and event["t"] == 0.0
    assert "non-finite control" in event["message"]
    assert err.value.log.outcome is None


@pytest.mark.parametrize("fault", ["solver", "outside"])
def test_sense_phase_failure_is_an_error_event(monkeypatch, fault):
    if fault == "solver":
        # a discovery at t=0 whose re-solve does not converge
        monkeypatch.setattr(world, "sense_obstacles",
                            lambda agent, x, ws: np.argwhere(ws.boundary_mask)[:1])
        monkeypatch.setattr(harmonic, "resolve_incremental",
                            raising(harmonic.SolverError("no convergence")))
        message = "no convergence"
    else:
        message = "agent 1 is outside the workspace"
        monkeypatch.setattr(world, "sense_obstacles", raising(ConfigError(message)))
    with pytest.raises(SimulationError, match="sensing failed at t=0") as err:
        run(builtin("case7_unknown"))
    assert err.value.log.events[-1] == {"t": 0.0, "kind": "error", "message": message}
    assert err.value.log.outcome is None and err.value.log.n_ticks == 0


def test_overflowing_state_is_an_error_not_a_timeout():
    spec = builtin("case1")
    first = spec.agents[0]
    huge = dataclasses.replace(first, control=dataclasses.replace(first.control, gain=1e300))
    spec = dataclasses.replace(spec, agents=(huge,) + spec.agents[1:],
                               sim=SimConfig(dt=0.01, t_max=0.5))
    with pytest.raises(SimulationError) as err:
        run(spec)
    event = err.value.log.events[-1]
    assert event["kind"] == "error" and "non-finite position" in event["message"]
    assert np.isfinite(err.value.log.position_array()).all()


def test_log_csv_and_events_roundtrip(tmp_path):
    log, metrics = run(single_agent_spec(t_max=0.5))
    csv_path = tmp_path / "traj.csv"
    ev_path = tmp_path / "events.jsonl"
    log.write_csv(csv_path)
    log.write_events(ev_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "t,agent_id,x,y,ux,uy,sigma_activity"
    assert len(lines) == 1 + log.n_ticks
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and int(first[1]) == 1
    assert float(first[4]) == pytest.approx(3.2)
    for line in ev_path.read_text().splitlines():
        json.loads(line)
    metrics_path = tmp_path / "metrics.json"
    metrics.write_json(metrics_path)
    loaded = json.loads(metrics_path.read_text())
    assert "kappa_max" in loaded and "min_pair_clearance" in loaded
    assert loaded["corner_angle_max"] == {"1": 0.0}


def test_discovery_events_carry_converged_resolves():
    spec = builtin("case7_unknown")
    spec = dataclasses.replace(spec, sim=dataclasses.replace(spec.sim, t_max=2.7))
    tol = build_runtime(spec).controllers[0].field.tol
    log, _ = run(spec)
    found = [e for e in log.events if e["kind"] == "discovery"]
    assert len(found) == 2
    for e in found:
        assert e["solver_iterations"] > 0
        assert e["residual"] < tol


def test_each_cushion_index_holds_its_agents_map_after_a_run(monkeypatch):
    built = []

    def keep(spec):
        built.append(build_runtime(spec))
        return built[-1]

    monkeypatch.setattr(scenarios, "build_runtime", keep)
    run(builtin("case7_unknown"))
    for c in built[0].controllers:
        cells = np.argwhere(c.field.known_mask)
        assert len(cells) and np.array_equal(np.argwhere(c.boundary_index.mask), cells)
        assert c.boundary_index.centers.tobytes() == built[0].ws.grid.cell_centers(cells).tobytes()


def _run_log(spec):
    """The log of a run, whether it ends in an outcome or fails."""
    try:
        return run(spec)[0]
    except SimulationError as exc:
        return exc.log


def _log_bytes(log):
    return (log.times, log.outcome, [x.tobytes() for x in log.positions],
            [u.tobytes() for u in log.controls], [s.tobytes() for s in log.sigma_activity],
            [(k, flags.tobytes()) for k, flags in log.switches],
            json.dumps(log.events, sort_keys=True))


@settings(derandomize=True, max_examples=10, deadline=None)
@given(scenario_dicts())
def test_generated_runs_repeat_stay_finite_and_exit_as_they_end(raw):
    spec = scenarios.from_dict(raw)
    log = _run_log(spec)
    assert _log_bytes(_run_log(spec)) == _log_bytes(log)
    assert np.isfinite(log.position_array()).all() and np.isfinite(log.control_array()).all()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.json"
        scenarios.save(spec, path)
        code = cli.main(["run", str(path), "--out", str(Path(tmp) / "out")])
    if log.outcome is None:   # the run failed
        assert code == 1 and log.events[-1]["kind"] == "error"
    else:
        assert code == cli._OUTCOME_CODES[log.outcome]


# ---------------------------------------------------------------------------
# the wall cushion's reach test
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["case5_lanes", "case7_unknown"])
def test_cushion_reach_test_keeps_every_bit(name):
    # case5_lanes: eight agents share one index of every wall cell; in
    # case7_unknown each agent knows its own random half of the wall cells
    rt = build_runtime(builtin(name))
    rng = np.random.default_rng(3)
    cells = np.argwhere(rt.ws.boundary_mask)
    if name == "case7_unknown":
        for c in rt.controllers:
            known = np.zeros(rt.ws.grid.shape, dtype=bool)
            known[tuple(cells[rng.permutation(len(cells))[:len(cells) // 2]].T)] = True
            c.boundary_index = KnownBoundaryIndex(rt.ws.grid, known)
    walls = rt.ws.grid.cell_centers(cells)
    lo, hi = rt.ws.lo + rt.radii.max(), rt.ws.hi - rt.radii.max()
    skipped = queried = 0
    for k in range(300):
        if k % 3 == 0:      # near the walls: each agent within a radius or two of one
            pick = walls[rng.integers(0, len(walls), size=rt.n_agents)]
            x = pick + rng.uniform(-2.0, 2.0, size=pick.shape) * rt.radii[:, None]
        elif k % 3 == 1:    # anywhere
            x = rng.uniform(lo, hi, size=(rt.n_agents, rt.dim))
        else:               # around the starts, clear of the walls
            x = rt.starts + rng.uniform(-0.3, 0.3, size=rt.starts.shape)
        x = np.clip(x, lo, hi)
        U, pen = rt.eval_controls(x)
        U_all, pen_all = always_query_controls(rt, x)
        assert U.tobytes() == U_all.tobytes() and np.array_equal(pen, pen_all)
        for index, rows, members, radii, reach in rt._cushion_groups():
            if index.within_reach(x[rows].tolist(), reach):
                queried += 1
            else:
                skipped += 1
    assert skipped > 50 and queried > 50


def test_cushion_out_of_reach_still_adds_to_negative_zero():
    # -0.0 + 0.0 is +0.0: a zero cushion force still changes a -0.0 control,
    # so a body whose U holds -0.0 is queried even out of reach
    ws = Workspace((-4.0, -4.0), (4.0, 4.0), [Box((-4.0, -4.0), (-3.0, 4.0))], h=0.25)
    me = AgentSpec(1, (2.0, 0.0), 0.5, 0.5, GoalSpec("drift", velocity=(-0.0, 0.0)))
    index = KnownBoundaryIndex(ws.grid, ws.boundary_mask)
    rt = engine.Runtime(ws, [AgentController(me, boundary_index=index)],
                        InteractionParams(), WeightProfile(), ObstacleRepulsionParams(),
                        SuccessSpec(kind="horizon"), SimConfig())
    x = rt.positions()
    assert not index.within_reach(x.tolist(), 0.5 + rt.repulsion.influence)
    U, _ = rt.eval_controls(x)
    assert U.tobytes() == always_query_controls(rt, x)[0].tobytes()
    assert not np.signbit(U[0, 0]) and U[0, 0] == 0.0
