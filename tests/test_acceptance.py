"""Acceptance suite: one test per shipped criterion, each printing a PASS/FAIL line.

Criterion 2 encodes published curvature targets that no collision-free
exchange on the case2 geometry can meet: each unit-radius body must leave
the axis by about one radius inside an 8-unit swap, and a circular arc with
sagitta 1 on a chord of 8 already has curvature 1/8. It is left failing,
unloosened, until the paper's simulation setup (geometry, gains and how
curvature was measured) is available. Criterion 3 passes: kappa_max is
measured on the smooth stretches of a path, and the corner the exponential
profile makes at contact + delta is reported as a corner angle instead.
"""

import dataclasses
import math

import numpy as np
import pytest

from helpers import agent, component, direct_solve, pair_force, random_workspace
from vhpf import engine, harmonic, scenarios
from vhpf.engine import CONVERGED, DEADLOCK, TIMEOUT, SimConfig, run
from vhpf.harmonic import resolve_incremental, solve_dirichlet
from vhpf.interaction import (
    LINEAR,
    SPRING,
    SPRING_MODE,
    UNIT_MODE,
    InteractionParams,
    WeightProfile,
)
from vhpf.scenarios import (
    AgentSpec,
    GoalSpec,
    ScenarioSpec,
    WorkspaceSpec,
    builtin,
)
from vhpf.world import Box, GridSpec


def report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {num:>2} {label}: {status}{suffix}")
    assert ok, f"criterion {num} {label}{suffix}"


@pytest.fixture(scope="module")
def runs():
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = run(builtin(name))
        return cache[name]

    return get


def collision_events(log):
    return [e for e in log.events if e["kind"] in ("collision", "collision_obstacle")]


# ---------------------------------------------------------------------------
# 1. basic exchange
# ---------------------------------------------------------------------------

def test_criterion_01_basic_exchange(runs):
    log, metrics = runs("case1")
    spec = builtin("case1")
    final = log.positions[-1]
    in_target = all(
        np.linalg.norm(final[i] - np.asarray(a.goal)) <= a.r_target
        for i, a in enumerate(spec.agents)
    )
    ok = (log.outcome == CONVERGED
          and metrics.min_pair_clearance >= 0.0
          and np.all(log.sigma_activity[-1] == 0.0)
          and in_target)
    report(1, "two-agent exchange", ok,
           f"outcome={log.outcome}, min_clearance={metrics.min_pair_clearance:.4f}")


# ---------------------------------------------------------------------------
# 2. curvature values per weight profile
# ---------------------------------------------------------------------------

def test_criterion_02_curvature_values(runs):
    published = {"case2_linear": 0.0363, "case2_sin": 0.01434, "case2_exp": 0.00144}
    measured = {}
    for name in published:
        log, metrics = runs(name)
        measured[name] = max(metrics.kappa_max.values())
    within = all(abs(measured[n] - published[n]) <= 0.3 * published[n] for n in published)
    ordered = measured["case2_exp"] < measured["case2_sin"] < measured["case2_linear"]
    detail = ", ".join(f"{n.split('_')[1]}: measured={measured[n]:.4g} "
                       f"target={published[n]:.4g}" for n in published)
    report(2, "curvature reproduction", within and ordered, detail)


# ---------------------------------------------------------------------------
# 3. curvature vs action-zone width
# ---------------------------------------------------------------------------

def test_criterion_03_width_sweep_trend():
    base = builtin("case1")
    deltas = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
    failures = []
    rows = {}
    for kind in (LINEAR, "sinusoidal", "exponential"):
        kappas = []
        for d in deltas:
            spec = dataclasses.replace(
                base,
                profile=dataclasses.replace(base.profile, kind=kind, delta=d),
                agents=tuple(dataclasses.replace(a, ring_width=d) for a in base.agents),
            )
            log, metrics = run(spec)
            kappas.append(max(metrics.kappa_max.values()))
        rows[kind] = kappas
        for a, b in zip(kappas, kappas[1:]):
            if b > a * 1.05:
                failures.append(kind)
                break
    detail = "; ".join(f"{k}: " + ", ".join(f"{v:.3g}" for v in vs)
                       for k, vs in rows.items())
    report(3, "width sweep non-increasing", not failures, detail)


# ---------------------------------------------------------------------------
# 4.-9. scenario outcomes
# ---------------------------------------------------------------------------

def test_criterion_04_three_dimensional_exchange(runs):
    log, metrics = runs("case3_3d")
    ok = (log.outcome == CONVERGED
          and metrics.min_pair_clearance >= 0.0
          and not collision_events(log))
    report(4, "3-D exchange", ok, f"outcome={log.outcome}")


def test_criterion_05_symmetry_and_fault_tolerance(runs):
    log_a, metrics_a = runs("case4")
    log_b, metrics_b = runs("case4_malfunction")
    ok = all(log.outcome == CONVERGED and not collision_events(log)
             and metrics.min_pair_clearance >= 0.0
             for log, metrics in ((log_a, metrics_a), (log_b, metrics_b)))
    report(5, "triangle exchange incl. rogue agent", ok,
           f"cooperative={log_a.outcome}, rogue={log_b.outcome}, "
           f"clearances={metrics_a.min_pair_clearance:.3f}/{metrics_b.min_pair_clearance:.3f}")


def test_criterion_06_lane_passing(runs):
    log, metrics = runs("case5_lanes")
    spec = builtin("case5_lanes")
    cfg = spec.sim
    final = log.positions[-1]
    starts = np.array([a.start for a in spec.agents])
    left_movers = np.array([a.control.velocity[0] < 0 for a in spec.agents])
    crossed = (np.all(final[left_movers, 0] < starts[~left_movers, 0].min())
               and np.all(final[~left_movers, 0] > starts[left_movers, 0].max()))
    no_violations = (metrics.min_pair_clearance >= -cfg.collision_tol
                     and metrics.min_obstacle_clearance >= -cfg.collision_tol
                     and not collision_events(log))
    report(6, "lane passing", crossed and no_violations,
           f"outcome={log.outcome}, pair={metrics.min_pair_clearance:.3f}, "
           f"rail={metrics.min_obstacle_clearance:.3f}")


def test_criterion_07_circulation_vs_deadlock(runs):
    spec = builtin("case6_circulation")
    traveler = spec.agents[-1]

    log_off, _ = runs("case6_no_circulation")
    final_off = log_off.positions[-1][-1]
    stuck = (log_off.outcome in (DEADLOCK, TIMEOUT)
             and np.linalg.norm(final_off - np.asarray(traveler.goal)) > traveler.r_target)

    log_on, metrics_on = runs("case6_circulation")
    final_on = log_on.positions[-1]
    arrived = np.linalg.norm(final_on[-1] - np.asarray(traveler.goal)) <= traveler.r_target
    holders_back = all(
        np.linalg.norm(final_on[i] - np.asarray(a.start)) <= 0.5 * a.radius
        for i, a in enumerate(spec.agents[:-1])
    )
    ok = stuck and log_on.outcome == CONVERGED and arrived and holders_back
    report(7, "circulation unlocks the cluster", ok,
           f"ablation={log_off.outcome}, with={log_on.outcome}")


def test_criterion_08_unknown_environment(runs):
    log, metrics = runs("case7_unknown")
    cfg = builtin("case7_unknown").sim
    discoveries = {}
    for e in log.events:
        if e["kind"] == "discovery":
            discoveries[e["agent"]] = discoveries.get(e["agent"], 0) + 1
    ok = (log.outcome == CONVERGED
          and all(discoveries.get(aid, 0) >= 1 for aid in log.agent_ids)
          and metrics.min_obstacle_clearance >= -cfg.collision_tol
          and not collision_events(log))
    report(8, "discovery-driven exchange", ok,
           f"outcome={log.outcome}, discoveries={discoveries}, "
           f"obstacle_clearance={metrics.min_obstacle_clearance:.3f}")


def test_criterion_09_tight_passage_fails(runs):
    log, _ = runs("case8_tight")
    audited = any(e["kind"] == "audit_warning" for e in log.events)
    report(9, "tight passage deadlock", audited and log.outcome == DEADLOCK,
           f"outcome={log.outcome}, audit_warning={audited}")


def test_shipped_scenarios_stay_contact_free(runs):
    # every built-in except the tight passage keeps positive clearances
    for name in ("case2_sin", "case2_exp"):
        _, metrics = runs(name)
        assert metrics.min_pair_clearance >= 0.0, name


# ---------------------------------------------------------------------------
# 10. field laws on random workspaces
# ---------------------------------------------------------------------------

def test_criterion_10_field_properties():
    tol = 1e-10
    problems = []
    for seed in range(20):
        rng = np.random.default_rng(9000 + seed)
        ws, goal = random_workspace(rng)
        field = solve_dirichlet(ws.grid, np.argwhere(ws.boundary_mask), goal, tol=tol)
        free = field.free

        if not (field.values.min() == 0.0 and field.values.max() <= 1 + 10 * tol
                and np.all(field.values[free] > -10 * tol)
                and np.all(field.values[free] < 1 + 10 * tol)):
            problems.append(f"seed {seed}: extreme values escape [0, 1]")

        nb = np.zeros_like(field.values)
        for ax in (0, 1):
            nb += np.roll(field.values, 1, ax) + np.roll(field.values, -1, ax)
        if np.max(np.abs(nb[free] / 4.0 - field.values[free])) >= 10 * tol:
            problems.append(f"seed {seed}: mean-value residual too large")

        passable = free.copy()
        passable[field.goal_cell] = True
        comp = component(passable, field.goal_cell)
        for c in map(tuple, np.argwhere(comp)):
            if c == field.goal_cell:
                continue
            best = min(field.values[c[0] + di, c[1] + dj]
                       for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)))
            if best >= field.values[c]:
                problems.append(f"seed {seed}: spurious minimum at {c}")
                break

        cells = list(map(tuple, np.argwhere(ws.boundary_mask)))
        rng.shuffle(cells)
        half = len(cells) // 2
        warm = solve_dirichlet(ws.grid, set(cells[:half]), goal, tol=tol)
        resolve_incremental(warm, set(cells[half:]))
        cold = solve_dirichlet(ws.grid, set(cells), goal, tol=tol)
        if np.max(np.abs(warm.values - cold.values)) >= 10 * tol:
            problems.append(f"seed {seed}: warm/cold mismatch")
    report(10, "harmonic field laws on 20 random workspaces", not problems,
           "; ".join(problems) if problems else "all seeds clean")


# ---------------------------------------------------------------------------
# 11. goal-potential descent
# ---------------------------------------------------------------------------

def _spring_single():
    return ScenarioSpec(
        name="single_spring",
        workspace=WorkspaceSpec((-10.0, -10.0), (10.0, 10.0), grid_h=0.25),
        agents=(AgentSpec(1, (-4.0, 0.0), 1.0, 1.5, GoalSpec("spring", gain=0.4),
                          goal=(4.0, 0.0), r_target=1.0),),
        crf=InteractionParams(kr=2.0, kt=1.0, mode=SPRING_MODE),
        profile=WeightProfile(SPRING, delta=1.5),
        obstacle_repulsion=None,
        sim=SimConfig(dt=0.01, t_max=60.0),
    )


def _harmonic_single():
    return ScenarioSpec(
        name="single_harmonic",
        workspace=WorkspaceSpec((0.0, 0.0), (6.0, 6.0),
                                obstacles=(Box((2.5, 1.0), (3.5, 4.0)),),
                                grid_h=0.25),
        agents=(AgentSpec(1, (4.5, 2.0), 0.4, 0.4,
                          GoalSpec("harmonic", drive="raw", gain=1.0),
                          goal=(5.0, 5.0), r_target=0.4, prior_knowledge="full"),),
        crf=InteractionParams(mode=UNIT_MODE),
        profile=WeightProfile(LINEAR, delta=0.4),
        obstacle_repulsion=None,
        sim=SimConfig(dt=0.01, t_max=20.0),
    )


def test_criterion_11_goal_potential_descent(runs):
    log_s, metrics_s = run(_spring_single())
    trace_s = np.asarray(metrics_s.potential_trace)
    spring_monotone = bool(np.all(np.diff(trace_s) <= 1e-12))

    _, metrics_h = run(_harmonic_single())
    trace_h = np.asarray(metrics_h.potential_trace)
    harmonic_monotone = bool(np.all(np.diff(trace_h) <= 1e-12))

    log1, metrics1 = runs("case1")
    trace1 = np.asarray(metrics1.potential_trace)
    decayed = trace1[-1] < 1e-3 * trace1[0]

    report(11, "goal-potential descent", spring_monotone and harmonic_monotone and decayed,
           f"spring max step {np.diff(trace_s).max():.2e}, "
           f"harmonic max step {np.diff(trace_h).max():.2e}, "
           f"exchange ratio {trace1[-1] / trace1[0]:.2e}")


# ---------------------------------------------------------------------------
# 12. oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_12_oracle_equivalence():
    tol = 1e-10
    strip = solve_dirichlet(GridSpec((0.0,), 1.0, (5,)), set(), (0.5,), tol=tol)
    square = solve_dirichlet(GridSpec((0.0, 0.0), 1.0, (5, 5)), set(), (2.5, 2.5), tol=tol)
    strip_ok = np.max(np.abs(strip.values - direct_solve(strip))) < 10 * tol
    square_ok = np.max(np.abs(square.values - direct_solve(square))) < 10 * tol

    params = InteractionParams(kr=2.0, kt=1.0, mode=SPRING_MODE)
    profile = WeightProfile(SPRING, delta=1.5)
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(100):
        rel = rng.uniform(-5, 5, size=2)
        r = math.hypot(rel[0], rel[1])
        step = (1.0 if r - 2.0 >= 0 else 0.0) * (1.0 if 1.5 + 2.0 - r >= 0 else 0.0)
        sigma = (1.0 + (2.0 - r) / 1.5) * step
        expected = sigma * np.array([2.0 * rel[0] - rel[1], 2.0 * rel[1] + rel[0]])
        a = agent(1, rel)
        b = agent(2, (0.0, 0.0))
        worst = max(worst, float(np.max(np.abs(pair_force(a, b, params, profile) - expected))))
    force_ok = worst <= 1e-12

    report(12, "independent oracles agree", strip_ok and square_ok and force_ok,
           f"max pair-force deviation {worst:.2e}")
