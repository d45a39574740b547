import copy

import numpy as np
import pytest

from helpers import goal_term, oracle_value_at, unit_goal_term
from vhpf import controller, harmonic
from vhpf.controller import (
    CONSTANT_DRIFT,
    HARMONIC_GOAL,
    SPRING_GOAL,
    UNIT_DRIVE,
    AgentController,
    on_tick_sense,
)
from vhpf.engine import Runtime, SimConfig
from vhpf.interaction import SPRING, SPRING_MODE, InteractionParams, WeightProfile
from vhpf.scenarios import AgentSpec, GoalSpec, build_runtime, builtin
from vhpf.world import Box, ConfigError, Workspace, sense_obstacles

CASE_PARAMS = InteractionParams(kr=2.0, kt=1.0, mode=SPRING_MODE)
CASE_PROFILE = WeightProfile(SPRING, delta=1.5)


def spring_controller(aid, x, goal, gain=0.4, **kw):
    """A case1 agent at x with a spring toward goal."""
    spec = AgentSpec(aid, tuple(x), 1.0, 1.5, GoalSpec(SPRING_GOAL, gain=gain),
                     goal=tuple(goal), **kw)
    return AgentController(spec)


def at(x):
    return np.asarray(x, float)


def controls(ctrls):
    """Composed controls of a group at its start positions, as the engine evaluates them."""
    ws = Workspace((-10.0, -10.0), (10.0, 10.0), h=0.25)
    rt = Runtime(ws, ctrls, CASE_PARAMS, CASE_PROFILE, None, None, SimConfig())
    U, _ = rt.eval_controls(rt.positions())
    return U


def test_spring_control_at_start():
    u = controls([spring_controller(1, (-4.0, 0.0), (4.0, 0.0))])[0]
    assert u == pytest.approx([3.2, 0.0], abs=1e-15)


def test_spring_control_vanishes_at_goal():
    u = controls([spring_controller(1, (4.0, 0.0), (4.0, 0.0))])[0]
    assert np.array_equal(u, np.zeros(2))


def test_drift_control_far_from_everything():
    spec = AgentSpec(5, (-5.0, 1.3), 1.0, 1.5, GoalSpec(CONSTANT_DRIFT, velocity=(1.0, 0.0)))
    u = controls([AgentController(spec)])[0]
    assert np.array_equal(u, [1.0, 0.0])


def test_superposition_reduces_to_goal_term():
    ctrl = spring_controller(1, (0.5, -0.5), (2.0, 1.0))
    assert np.array_equal(controls([ctrl])[0], goal_term(ctrl, at((0.5, -0.5))))


def test_interaction_dissipates_out_of_range():
    me = spring_controller(1, (-4.0, 0.0), (4.0, 0.0))
    near = spring_controller(2, (-1.5, 0.5), (-4.0, 0.0))
    far = spring_controller(2, (4.0, 0.0), (-4.0, 0.0))
    alone = goal_term(me, at((-4.0, 0.0)))
    assert not np.array_equal(controls([me, near])[0], alone)
    assert np.array_equal(controls([me, far])[0], alone)


def test_noncooperative_agent_drops_own_pair_forces_only():
    a, b = at((0.0, 0.0)), at((2.5, 0.0))
    ctrl_a = spring_controller(1, a, (4.0, 0.0))
    ctrl_b_coop = spring_controller(2, b, (-4.0, 0.0))
    ctrl_b_rogue = spring_controller(2, b, (-4.0, 0.0), cooperative=False)

    u_rogue = controls([ctrl_a, ctrl_b_rogue])
    u_coop = controls([ctrl_a, ctrl_b_coop])
    assert np.array_equal(u_rogue[1], goal_term(ctrl_b_rogue, b))
    assert not np.array_equal(u_coop[1], goal_term(ctrl_b_coop, b))
    # the rogue flag on b does not change how a computes its own control
    assert not np.array_equal(u_rogue[0], goal_term(ctrl_a, a))
    assert np.array_equal(u_rogue[0], u_coop[0])


def test_control_ignores_other_agents_goals():
    me = spring_controller(1, (0.0, 0.0), (4.0, 0.0))
    other1 = spring_controller(2, (2.5, 0.0), (9.0, 9.0))
    other2 = spring_controller(2, (2.5, 0.0), (-9.0, 3.0))
    assert np.array_equal(controls([me, other1])[0], controls([me, other2])[0])


def test_control_does_not_depend_on_agent_order():
    ctrls = [spring_controller(1, (0.0, 0.0), (4.0, 0.0)),
             spring_controller(2, (2.5, 0.0), (-4.0, 0.0)),
             spring_controller(3, (0.5, -2.4), (0.0, 4.0))]
    u = controls(ctrls)
    order = [2, 0, 1]
    u_perm = controls([ctrls[k] for k in order])
    assert u_perm == pytest.approx(u[order], abs=1e-12)


# ---------------------------------------------------------------------------
# discovery loop
# ---------------------------------------------------------------------------

def room():
    return Workspace((-4, -4), (4, 4), [Box((1.0, -2.0), (2.0, 2.0))], h=0.25)


def harmonic_controller(ws, aid, goal, start=(-3.0, -3.0), radius=0.5):
    """A case7-like agent: radius 0.5, ring 0.5, unit drive at cruise 0.8."""
    spec = AgentSpec(aid, start, radius, 0.5,
                     GoalSpec(HARMONIC_GOAL, drive=UNIT_DRIVE, cruise=0.8), goal=goal)
    field = harmonic.solve_dirichlet(ws.grid, set(), goal, tol=1e-10, inflate=radius)
    return AgentController(spec, field)


def test_sense_without_walls_in_range_does_nothing():
    ws = room()
    ctrl = harmonic_controller(ws, 1, (-3.0, 3.0))
    before = ctrl.field.values.copy()
    assert on_tick_sense(ctrl, at((-3.0, -3.0)), ws, cushion=True) == 0
    assert np.array_equal(ctrl.field.values, before)


def test_first_wall_approach_resolves_field():
    ws = room()
    ctrl = harmonic_controller(ws, 1, (-3.0, 0.0))
    # agent to the right of the block, goal on the left: before discovery the
    # descent direction -grad(V) points straight through the unknown block
    x = at((2.7, 0.0))
    g_before = harmonic.gradient_at(ctrl.field, x)
    assert g_before[0] > 0  # V rises to the right, so descent points left

    probe = np.array([2.625, 0.0])  # first free column right of the inflated wall
    v_before = harmonic.value_at(ctrl.field, probe)

    n_new = on_tick_sense(ctrl, x, ws, cushion=True)
    assert n_new > 0
    assert np.count_nonzero(ctrl.field.known_mask) == n_new
    # the wall now carries the ceiling value, so the probe next to it climbs
    # most of the way to it
    v_after = harmonic.value_at(ctrl.field, probe)
    assert 1.0 - v_after < 0.5 * (1.0 - v_before)

    cold = harmonic.solve_dirichlet(ws.grid, np.argwhere(ctrl.field.known_mask), (-3.0, 0.0),
                                    tol=1e-10, inflate=0.5)
    assert np.max(np.abs(cold.values - ctrl.field.values)) < 1e-9


def test_revisiting_known_wall_is_quiet():
    ws = room()
    ctrl = harmonic_controller(ws, 1, (-3.0, 0.0))
    x = at((2.7, 0.0))
    assert on_tick_sense(ctrl, x, ws, cushion=True) > 0
    before = ctrl.field.values.copy()
    assert on_tick_sense(ctrl, x, ws, cushion=True) == 0
    assert np.array_equal(ctrl.field.values, before)


def walled_room():
    """A room closed by four walls, with a block standing in it."""
    walls = [Box((-4.0, -4.0), (4.0, -3.5)), Box((-4.0, 3.5), (4.0, 4.0)),
             Box((-4.0, -3.5), (-3.5, 3.5)), Box((3.5, -3.5), (4.0, 3.5))]
    return Workspace((-4, -4), (4, 4), walls + [Box((1.0, -2.0), (2.0, 2.0))], h=0.25)


def test_sensing_grows_the_map_by_exactly_the_unseen_cells():
    # the map (the field's known_mask) only grows; the new cells are the
    # sensed cells it lacked; a repeat call from the same position finds
    # nothing and leaves the field's values bit-identical; the cushion index
    # holds exactly the map's cells
    ws = walled_room()
    ctrl = harmonic_controller(ws, 1, (-2.0, 0.0), start=(-2.0, 0.0))
    field = ctrl.field
    rng = np.random.default_rng(3)
    discoveries = 0
    for x in rng.uniform(-3.5, 3.5, size=(60, 2)):
        before = field.known_mask.copy()
        sensed = np.zeros_like(before)
        sensed[tuple(sense_obstacles(ctrl.spec, x, ws).T)] = True
        n_new = on_tick_sense(ctrl, x, ws, cushion=True)
        assert np.array_equal(field.known_mask, before | sensed)
        assert n_new == np.count_nonzero(sensed & ~before)
        discoveries += n_new > 0
        values = field.values.tobytes()
        assert on_tick_sense(ctrl, x, ws, cushion=True) == 0
        assert field.values.tobytes() == values
        if ctrl.boundary_index is not None:
            cells = np.argwhere(field.known_mask)
            assert np.array_equal(np.argwhere(ctrl.boundary_index.mask), cells)
            assert ctrl.boundary_index.centers.tobytes() == ws.grid.cell_centers(cells).tobytes()
    assert discoveries > 5


@pytest.mark.parametrize("cushion", [True, False])
def test_discovery_rebuilds_the_cushion_index_only_with_a_cushion(cushion):
    ws = room()
    ctrl = harmonic_controller(ws, 1, (-3.0, 0.0), start=(-3.0, 0.0))
    # sensing from a position other than the agent's start
    assert on_tick_sense(ctrl, at((2.7, 0.0)), ws, cushion=cushion) > 0
    if cushion:
        assert len(ctrl.boundary_index) == np.count_nonzero(ctrl.field.known_mask)
    else:
        assert ctrl.boundary_index is None


def test_sense_requires_harmonic_mode():
    ws = room()
    ctrl = spring_controller(1, (0.0, -3.0), (0.0, 0.0))
    with pytest.raises(ConfigError):
        on_tick_sense(ctrl, at((0.0, -3.0)), ws, cushion=False)


def test_unit_drive_parks_inside_target_zone():
    ws = Workspace((-4, -4), (4, 4), h=0.25)
    ctrl = harmonic_controller(ws, 1, (2.0, 1.0))
    near = np.array([2.1, 1.2])
    u = goal_term(ctrl, near)
    # terminal spring: points straight at the goal, magnitude below cruise
    offset = np.array([2.0, 1.0]) - near
    assert u == pytest.approx(0.8 / 0.5 * offset, abs=1e-12)
    assert np.linalg.norm(u) < 0.8
    far = np.array([-3.0, -3.0])
    assert np.linalg.norm(goal_term(ctrl, far)) == pytest.approx(0.8, abs=1e-12)


def _bits(value):
    return type(value), np.asarray(value).dtype, np.shape(value), np.asarray(value).tobytes()


def _term_bits(ctrl, x):
    """The bits of `controller.goal_term` as an array; the term itself must
    be a list of Python floats."""
    term = controller.goal_term(ctrl, x)
    assert type(term) is list and all(type(a) is float for a in term), term
    return _bits(np.array(term))


def _free_points(ctrl, ws, rng, count):
    """Random points of the workspace where the agent's field can be sampled."""
    points = []
    while len(points) < count:
        x = rng.uniform(ws.lo, ws.hi)
        try:
            harmonic.value_at(ctrl.field, x)
        except harmonic.FieldQueryError:
            continue
        points.append(x)
    return points


def _on_radius(goal, r, axis, sign):
    """A point off the goal along one axis whose distance from it, as
    sqrt(offset . offset), is exactly r; None if the floats near it skip r."""
    x = goal.copy()
    x[axis] += sign * r
    for _ in range(16):
        offset = goal - x
        d = np.linalg.norm(offset)
        if d == r:
            return x
        x[axis] = np.nextafter(x[axis], goal[axis] if d > r else sign * np.inf)
    return None


@pytest.mark.parametrize("name", ["case7_unknown", "case8_tight"])
def test_unit_goal_term_and_value_are_bit_identical_to_the_oracles(name):
    rt = build_runtime(builtin(name))
    rng = np.random.default_rng(11)
    for c in rt.controllers:
        assert c.spec.control.drive == UNIT_DRIVE
        goal, r = np.asarray(c.spec.goal, float), c.spec.target_radius
        points = _free_points(c, rt.ws, rng, 200)
        inside = rng.normal(size=(40, rt.dim))
        inside *= rng.uniform(0.0, r, size=(40, 1)) / np.linalg.norm(inside, axis=1, keepdims=True)
        points += list(goal + inside)
        on_radius = [x for k in range(rt.dim) for sign in (-1.0, 1.0)
                     if (x := _on_radius(goal, r, k, sign)) is not None]
        assert len(on_radius) >= 2
        points += on_radius + [goal]
        for x in points:
            assert _term_bits(c, x) == _bits(unit_goal_term(c, x)), x
            assert _bits(harmonic.value_at(c.field, x)) == _bits(oracle_value_at(c.field, x)), x
        # where the gradient vanishes, a plateau of the potential around a free cell far
        # from the goal, the term is zero
        x = max(points[:200], key=lambda p: np.linalg.norm(p - goal))
        cell = c.field.grid.point_to_cell(x)
        flat = AgentController(c.spec, copy.copy(c.field))
        flat.field.values = c.field.values.copy()
        flat.field.values[tuple(slice(max(k - 3, 0), k + 4) for k in cell)] = 0.5
        flat.field._invalidate()
        x = c.field.grid.cell_centers([cell])[0]
        assert not any(controller.goal_term(flat, x))
        assert _term_bits(flat, x) == _bits(unit_goal_term(flat, x))


def test_controller_validation():
    # the control settings are checked where they are read, in the agent's spec
    with pytest.raises(ConfigError, match="teleport"):
        GoalSpec("teleport")
    with pytest.raises(ConfigError, match="needs a velocity"):
        GoalSpec(CONSTANT_DRIFT)
    with pytest.raises(ConfigError, match="unti"):
        GoalSpec(HARMONIC_GOAL, drive="unti")
    for kind in (SPRING_GOAL, HARMONIC_GOAL):
        with pytest.raises(ConfigError, match="needs a goal"):
            AgentSpec(1, (0.0, 0.0), 1.0, 1.5, GoalSpec(kind))
    for bad in ({"gain": 0.0}, {"gain": -1.0}, {"cruise": -0.5}):
        with pytest.raises(ConfigError, match="must be positive"):
            GoalSpec(CONSTANT_DRIFT, velocity=(1.0, 0.0), **bad)
    # the controller holds what the agent learns: a harmonic agent needs its field
    spec = AgentSpec(1, (0.0, 0.0), 1.0, 1.5, GoalSpec(HARMONIC_GOAL), goal=(3.0, 0.0))
    with pytest.raises(ConfigError, match="solved field"):
        AgentController(spec)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", ["gain", "cruise", "drift", "r_target"])
def test_controller_rejects_non_finite_numbers(field, value):
    # a drift agent's control vector is its velocity; its target zone, r_target
    control = {"gain": 1.0, "cruise": 1.0, "velocity": (1.0, 0.0)}
    r_target = value if field == "r_target" else 1.0
    if field == "drift":
        control["velocity"] = (value, 0.0)
    elif field != "r_target":
        control[field] = value
    with pytest.raises(ConfigError, match="velocity" if field == "drift" else field):
        AgentSpec(1, (0.0, 0.0), 1.0, 1.5, GoalSpec(CONSTANT_DRIFT, **control),
                  r_target=r_target)
