import numpy as np
import pytest

from vhpf import harmonic
from vhpf.controller import (
    CONSTANT_DRIFT,
    HARMONIC_GOAL,
    SPRING_GOAL,
    UNIT_DRIVE,
    AgentController,
    goal_term,
    on_tick_sense,
)
from vhpf.engine import Runtime, SimConfig
from vhpf.interaction import SPRING, SPRING_MODE, InteractionParams, WeightProfile
from vhpf.world import AgentBody, Box, ConfigError, KnowledgeMap, Workspace

CASE_PARAMS = InteractionParams(kr=2.0, kt=1.0, mode=SPRING_MODE)
CASE_PROFILE = WeightProfile(SPRING, delta=1.5)


def spring_controller(aid, goal, gain=0.4, **kw):
    return AgentController(agent_id=aid, goal_kind=SPRING_GOAL,
                           goal=np.asarray(goal, float), gain=gain, **kw)


def body(aid, x):
    return AgentBody(aid, np.asarray(x, float), 1.0, 1.5)


def controls(ctrls, bodies):
    """Composed controls of a group on its current snapshot, as the engine evaluates them."""
    ws = Workspace((-10.0, -10.0), (10.0, 10.0), h=0.25)
    rt = Runtime(ws, bodies, ctrls, CASE_PARAMS, CASE_PROFILE, None, None, SimConfig())
    U, _ = rt.eval_controls(rt.positions())
    return U


def test_spring_control_at_start():
    ctrl = spring_controller(1, (4.0, 0.0))
    u = controls([ctrl], [body(1, (-4.0, 0.0))])[0]
    assert u == pytest.approx([3.2, 0.0], abs=1e-15)


def test_spring_control_vanishes_at_goal():
    ctrl = spring_controller(1, (4.0, 0.0))
    u = controls([ctrl], [body(1, (4.0, 0.0))])[0]
    assert np.array_equal(u, np.zeros(2))


def test_drift_control_far_from_everything():
    ctrl = AgentController(agent_id=5, goal_kind=CONSTANT_DRIFT,
                           drift=np.array([1.0, 0.0]))
    u = controls([ctrl], [body(5, (-5.0, 1.3))])[0]
    assert np.array_equal(u, [1.0, 0.0])


def test_superposition_reduces_to_goal_term():
    ctrl = spring_controller(1, (2.0, 1.0))
    b = body(1, (0.5, -0.5))
    assert np.array_equal(controls([ctrl], [b])[0], goal_term(ctrl, b.x))


def test_interaction_dissipates_out_of_range():
    ctrl = spring_controller(1, (4.0, 0.0))
    other = spring_controller(2, (-4.0, 0.0))
    me = body(1, (-4.0, 0.0))
    near = body(2, (-1.5, 0.5))
    far = body(2, (4.0, 0.0))
    assert not np.array_equal(controls([ctrl, other], [me, near])[0], goal_term(ctrl, me.x))
    assert np.array_equal(controls([ctrl, other], [me, far])[0], goal_term(ctrl, me.x))


def test_noncooperative_agent_drops_own_pair_forces_only():
    a = body(1, (0.0, 0.0))
    b = body(2, (2.5, 0.0))
    ctrl_a = spring_controller(1, (4.0, 0.0))
    ctrl_b_coop = spring_controller(2, (-4.0, 0.0))
    ctrl_b_rogue = spring_controller(2, (-4.0, 0.0), cooperative=False)

    u_rogue = controls([ctrl_a, ctrl_b_rogue], [a, b])
    u_coop = controls([ctrl_a, ctrl_b_coop], [a, b])
    assert np.array_equal(u_rogue[1], goal_term(ctrl_b_rogue, b.x))
    assert not np.array_equal(u_coop[1], goal_term(ctrl_b_coop, b.x))
    # the rogue flag on b does not change how a computes its own control
    assert not np.array_equal(u_rogue[0], goal_term(ctrl_a, a.x))
    assert np.array_equal(u_rogue[0], u_coop[0])


def test_control_ignores_other_agents_goals():
    ctrl = spring_controller(1, (4.0, 0.0))
    me = body(1, (0.0, 0.0))
    other1 = AgentBody(2, np.array([2.5, 0.0]), 1.0, 1.5, goal=np.array([9.0, 9.0]))
    other2 = AgentBody(2, np.array([2.5, 0.0]), 1.0, 1.5, goal=np.array([-9.0, 3.0]))
    assert np.array_equal(controls([ctrl, spring_controller(2, other1.goal)], [me, other1])[0],
                          controls([ctrl, spring_controller(2, other2.goal)], [me, other2])[0])


def test_control_does_not_depend_on_agent_order():
    ctrls = [spring_controller(1, (4.0, 0.0)), spring_controller(2, (-4.0, 0.0)),
             spring_controller(3, (0.0, 4.0))]
    bodies = [body(1, (0.0, 0.0)), body(2, (2.5, 0.0)), body(3, (0.5, -2.4))]
    u = controls(ctrls, bodies)
    order = [2, 0, 1]
    u_perm = controls([ctrls[k] for k in order], [bodies[k] for k in order])
    assert u_perm == pytest.approx(u[order], abs=1e-12)


# ---------------------------------------------------------------------------
# discovery loop
# ---------------------------------------------------------------------------

def room():
    return Workspace((-4, -4), (4, 4), [Box((1.0, -2.0), (2.0, 2.0))], h=0.25)


def harmonic_controller(ws, aid, goal, radius=0.5):
    km = KnowledgeMap(aid)
    field = harmonic.solve_dirichlet(ws.grid, km.cells, goal, tol=1e-10, inflate=radius)
    return AgentController(agent_id=aid, goal_kind=HARMONIC_GOAL,
                           goal=np.asarray(goal, float), field=field, knowledge=km,
                           drive=UNIT_DRIVE, cruise=0.8, slow_radius=radius)


def test_sense_without_walls_in_range_does_nothing():
    ws = room()
    ctrl = harmonic_controller(ws, 1, (-3.0, 3.0))
    b = AgentBody(1, np.array([-3.0, -3.0]), 0.5, 0.5)
    before = ctrl.field.values.copy()
    assert on_tick_sense(ctrl, b, b.x, ws, cushion=True) == 0
    assert np.array_equal(ctrl.field.values, before)


def test_first_wall_approach_resolves_field():
    ws = room()
    ctrl = harmonic_controller(ws, 1, (-3.0, 0.0))
    # agent to the right of the block, goal on the left: before discovery the
    # descent direction -grad(V) points straight through the unknown block
    b = AgentBody(1, np.array([2.7, 0.0]), 0.5, 0.5)
    g_before = harmonic.gradient_at(ctrl.field, b.x)
    assert g_before[0] > 0  # V rises to the right, so descent points left

    probe = np.array([2.625, 0.0])  # first free column right of the inflated wall
    v_before = harmonic.value_at(ctrl.field, probe)

    n_new = on_tick_sense(ctrl, b, b.x, ws, cushion=True)
    assert n_new > 0
    assert ctrl.knowledge.cells
    # the wall now carries the ceiling value, so the probe next to it climbs
    # most of the way to it
    v_after = harmonic.value_at(ctrl.field, probe)
    assert 1.0 - v_after < 0.5 * (1.0 - v_before)

    cold = harmonic.solve_dirichlet(ws.grid, ctrl.knowledge.cells, (-3.0, 0.0),
                                    tol=1e-10, inflate=0.5)
    assert np.max(np.abs(cold.values - ctrl.field.values)) < 1e-9


def test_revisiting_known_wall_is_quiet():
    ws = room()
    ctrl = harmonic_controller(ws, 1, (-3.0, 0.0))
    b = AgentBody(1, np.array([2.7, 0.0]), 0.5, 0.5)
    assert on_tick_sense(ctrl, b, b.x, ws, cushion=True) > 0
    before = ctrl.field.values.copy()
    assert on_tick_sense(ctrl, b, b.x, ws, cushion=True) == 0
    assert np.array_equal(ctrl.field.values, before)


@pytest.mark.parametrize("cushion", [True, False])
def test_discovery_rebuilds_the_cushion_index_only_with_a_cushion(cushion):
    ws = room()
    ctrl = harmonic_controller(ws, 1, (-3.0, 0.0))
    b = AgentBody(1, np.array([-3.0, 0.0]), 0.5, 0.5)
    # sensing from a position other than the body's start
    assert on_tick_sense(ctrl, b, np.array([2.7, 0.0]), ws, cushion=cushion) > 0
    if cushion:
        assert len(ctrl.boundary_index) == len(ctrl.knowledge.cells)
    else:
        assert ctrl.boundary_index is None


def test_sense_requires_harmonic_mode():
    ws = room()
    ctrl = spring_controller(1, (0.0, 0.0))
    with pytest.raises(ConfigError):
        on_tick_sense(ctrl, body(1, (0.0, -3.0)), (0.0, -3.0), ws, cushion=False)


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


def test_controller_validation():
    with pytest.raises(ConfigError):
        AgentController(agent_id=1, goal_kind="teleport")
    with pytest.raises(ConfigError):
        AgentController(agent_id=1, goal_kind=CONSTANT_DRIFT)
    with pytest.raises(ConfigError):
        AgentController(agent_id=1, goal_kind=HARMONIC_GOAL)
    with pytest.raises(ConfigError, match="needs a goal"):
        AgentController(agent_id=1, goal_kind=SPRING_GOAL)
    for bad in ({"gain": 0.0}, {"gain": -1.0}, {"cruise": -0.5}):
        with pytest.raises(ConfigError, match="must be positive"):
            AgentController(agent_id=1, goal_kind=CONSTANT_DRIFT, drift=(1.0, 0.0), **bad)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", ["gain", "cruise", "drift", "slow_radius"])
def test_controller_rejects_non_finite_numbers(field, value):
    args = {"gain": 1.0, "cruise": 1.0, "drift": np.array([1.0, 0.0]), "slow_radius": 0.5}
    args[field] = np.array([value, 0.0]) if field == "drift" else value
    with pytest.raises(ConfigError, match=field):
        AgentController(agent_id=1, goal_kind=CONSTANT_DRIFT, **args)
