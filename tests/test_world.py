import numpy as np
import pytest
import scipy.ndimage as ndi

from helpers import neighbors
from vhpf.world import (
    AgentBody,
    Ball,
    Box,
    ConfigError,
    KnowledgeMap,
    Workspace,
    axis_norms,
    passage_width_audit,
    sense_obstacles,
    update_knowledge,
    validate_scenario,
)


def make_agent(aid, x, radius=1.0, ring=1.5, goal=None, r_target=None):
    return AgentBody(aid, np.asarray(x, float), radius, ring, goal=goal, r_target=r_target)


# ---------------------------------------------------------------------------
# shapes and rasterization
# ---------------------------------------------------------------------------

def test_box_signed_distance():
    b = Box((0.0, 0.0), (2.0, 1.0))
    assert b.signed_distance((3.0, 0.5)) == pytest.approx(1.0)
    assert b.signed_distance((1.0, 0.5)) == pytest.approx(-0.5)
    assert b.signed_distance((3.0, 2.0)) == pytest.approx(np.sqrt(2.0))


def test_ball_signed_distance():
    s = Ball((1.0, 1.0), 0.5)
    assert s.signed_distance((1.0, 2.5)) == pytest.approx(1.0)
    assert s.signed_distance((1.0, 1.0)) == pytest.approx(-0.5)


@pytest.mark.parametrize("dim", [2, 3])
def test_axis_norms_has_the_bits_of_linalg_norm(dim):
    scale = 10.0 ** np.arange(-3, 4)[:, None]
    v = np.random.default_rng(dim).normal(size=(5, 7, dim)) * scale
    assert axis_norms(v).tobytes() == np.linalg.norm(v, axis=-1).tobytes()
    assert axis_norms(v[0, 0]).tobytes() == np.linalg.norm(v[0, 0], axis=-1).tobytes()


def test_workspace_boundary_cells_touch_free_space():
    ws = Workspace((-4, -4), (4, 4), [Box((-1, -1), (1, 1))], h=0.25)
    free = ws.free_mask
    for cell in ws.boundary_cells:
        assert ws.obstacle_mask[cell]
        i, j = cell
        neighbors_free = []
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            ni, nj = i + di, j + dj
            if 0 <= ni < free.shape[0] and 0 <= nj < free.shape[1]:
                neighbors_free.append(free[ni, nj])
        assert any(neighbors_free)
    # interior obstacle cells are excluded
    interior = ws.obstacle_mask.sum() - len(ws.boundary_cells)
    assert interior > 0


def test_workspace_rejects_out_of_bounds_obstacle():
    with pytest.raises(ConfigError):
        Workspace((-2, -2), (2, 2), [Ball((2.0, 0.0), 1.0)], h=0.25)


def test_workspace_rejects_full_obstacle():
    with pytest.raises(ConfigError):
        Workspace((-1, -1), (1, 1), [Box((-1, -1), (1, 1))], h=0.25)


def test_workspace_rejects_indivisible_resolution():
    with pytest.raises(ConfigError):
        Workspace((0, 0), (1.0, 1.0), h=0.3)


# ---------------------------------------------------------------------------
# sensing
# ---------------------------------------------------------------------------

def test_sense_empty_workspace_sees_nothing():
    ws = Workspace((-5, -5), (5, 5), h=0.25)
    assert sense_obstacles(make_agent(1, (0, 0)), ws) == set()


def test_sense_matches_annulus_oracle():
    ws = Workspace((-5, -5), (5, 5), [Box((-5, -5), (5, -3)), Ball((2, 2), 1.0)], h=0.25)
    rng = np.random.default_rng(7)
    for _ in range(25):
        x = rng.uniform(-4, 4, size=2)
        agent = make_agent(1, x, radius=0.6, ring=1.1)
        got = sense_obstacles(agent, ws)
        expected = set()
        for cell in ws.boundary_cells:
            d = np.linalg.norm(ws.grid.cell_center(cell) - x)
            if agent.radius < d <= agent.reach:
                expected.add(cell)
        assert got == expected


def test_sense_near_wall_contains_nearest_cell():
    ws = Workspace((-5, -5), (5, 5), [Box((-5, -5), (5, -3))], h=0.25)
    agent = make_agent(1, (0.0, -3.0 + 1.0 + 0.75), radius=1.0, ring=1.5)
    sensed = sense_obstacles(agent, ws)
    assert sensed
    nearest = min(ws.boundary_cells,
                  key=lambda c: np.linalg.norm(ws.grid.cell_center(c) - agent.x))
    assert nearest in sensed


def test_sense_far_from_walls_sees_nothing():
    ws = Workspace((-5, -5), (5, 5), [Box((-5, -5), (5, -4))], h=0.25)
    assert sense_obstacles(make_agent(1, (0, 3)), ws) == set()


def test_sense_outside_bounds_is_config_error():
    ws = Workspace((-5, -5), (5, 5), h=0.25)
    with pytest.raises(ConfigError):
        sense_obstacles(make_agent(1, (6.0, 0.0)), ws)


def test_sensed_cells_lie_near_true_boundary():
    ws = Workspace((-5, -5), (5, 5), [Ball((0, 0), 1.5), Box((2, 2), (4, 4))], h=0.25)
    agent = make_agent(1, (0.0, 2.2), radius=0.4, ring=1.2)
    tol = ws.h * np.sqrt(2.0)
    for cell in sense_obstacles(agent, ws):
        center = ws.grid.cell_center(cell)
        assert abs(ws.obstacle_clearance(center)) <= tol


def test_sense_in_three_dimensions():
    ws = Workspace((-3, -3, -3), (3, 3, 3), [Ball((0.0, 0.0, 0.0), 1.0)], h=0.5)
    agent = AgentBody(1, np.array([0.0, 0.0, 2.0]), 0.3, 1.2)
    got = sense_obstacles(agent, ws)
    assert got
    for cell in got:
        d = np.linalg.norm(ws.grid.cell_center(cell) - agent.x)
        assert agent.radius < d <= agent.reach
    far = AgentBody(2, np.array([2.0, 2.0, 2.0]), 0.3, 0.4)
    assert sense_obstacles(far, ws) == set()


# ---------------------------------------------------------------------------
# knowledge bookkeeping
# ---------------------------------------------------------------------------

def test_update_knowledge_growth_and_idempotence():
    km = KnowledgeMap(1)
    _, novel = update_knowledge(km, {(1, 2)})
    assert novel and km.cells == {(1, 2)} and km.revision == 1
    _, novel = update_knowledge(km, {(1, 2)})
    assert not novel and km.revision == 1
    _, novel = update_knowledge(km, set())
    assert not novel and km.cells == {(1, 2)}


def test_knowledge_monotone_over_random_sequences():
    rng = np.random.default_rng(3)
    km = KnowledgeMap(1)
    universe = [(i, j) for i in range(6) for j in range(6)]
    previous = set()
    for _ in range(40):
        batch = {universe[k] for k in rng.integers(0, len(universe), size=4)}
        _, novel = update_knowledge(km, batch)
        assert previous <= km.cells
        assert novel == (not batch <= previous)
        previous = set(km.cells)


# ---------------------------------------------------------------------------
# neighborhood
# ---------------------------------------------------------------------------

def test_neighbors_ring_threshold():
    a = make_agent(1, (-4, 0))
    b = make_agent(2, (4, 0))
    assert neighbors(a, [a, b]) == []          # 8 > 1 + 1.5 + 1
    b2 = make_agent(2, (-1.0, 0))
    assert neighbors(a, [a, b2]) == [b2]       # 3.0 <= 3.5
    assert neighbors(a, [a]) == []


def test_neighbors_symmetric_for_uniform_agents():
    rng = np.random.default_rng(11)
    bodies = [make_agent(i, rng.uniform(-3, 3, size=2)) for i in range(6)]
    for a in bodies:
        for b in bodies:
            if a.id == b.id:
                continue
            assert (b in neighbors(a, bodies)) == (a in neighbors(b, bodies))


# ---------------------------------------------------------------------------
# passage audit
# ---------------------------------------------------------------------------

def _audit_oracle(ws, radius):
    """Distance-transform check: a free cell passes when some cell within `radius`
    has grid-clearance at least `radius` from obstacle cells."""
    free = ws.free_mask
    # distance from each cell center to the nearest obstacle cell center
    clearance = ndi.distance_transform_edt(free) * ws.h
    fits = clearance >= radius
    if not fits.any():
        return set(map(tuple, np.argwhere(free)))
    dist_to_fit = ndi.distance_transform_edt(~fits) * ws.h
    bad = free & (dist_to_fit > radius)
    return set(map(tuple, np.argwhere(bad)))


def test_audit_empty_workspace_passes():
    ws = Workspace((-10, -10), (10, 10), h=0.5)
    assert passage_width_audit(ws, 2.0) == []


def test_audit_tiny_obstacle_in_huge_workspace_passes():
    ws = Workspace((-10, -10), (10, 10), [Ball((0.0, 0.0), 0.3)], h=0.25)
    assert passage_width_audit(ws, 2.0) == []
    assert _audit_oracle(ws, 2.0) == set()


def test_audit_flags_narrow_corridor():
    # corridor of width 1.0 between two blocks; a radius-1.5 disc needs 3.0
    ws = Workspace((-6, -6), (6, 6),
                   [Box((-1, 0.5), (1, 5.0)), Box((-1, -5.0), (1, -0.5))], h=0.25)
    radius = 1.5
    report = set(passage_width_audit(ws, radius))
    assert report
    corridor_cell = ws.grid.point_to_cell((0.0, 0.0))
    assert corridor_cell in report
    oracle = _audit_oracle(ws, radius)
    assert corridor_cell in oracle


def test_audit_rejects_nonpositive_radius():
    ws = Workspace((-2, -2), (2, 2), h=0.25)
    with pytest.raises(ConfigError):
        passage_width_audit(ws, 0.0)


# ---------------------------------------------------------------------------
# scenario validation
# ---------------------------------------------------------------------------

def test_validate_clean_exchange_is_ok():
    ws = Workspace((-10, -10), (10, 10), h=0.25)
    agents = [
        make_agent(1, (-4, 0), goal=np.array([4.0, 0.0]), r_target=1.0),
        make_agent(2, (4, 0), goal=np.array([-4.0, 0.0]), r_target=1.0),
    ]
    assert validate_scenario(ws, agents) == []


def test_validate_flags_conflicting_targets():
    ws = Workspace((-10, -10), (10, 10), h=0.25)
    agents = [
        make_agent(1, (-4, 0), goal=np.array([0.0, 0.0]), r_target=1.0),
        make_agent(2, (4, 0), goal=np.array([0.0, 0.0]), r_target=1.0),
    ]
    out = validate_scenario(ws, agents)
    assert any("conflicting targets" in v for v in out)


def test_validate_flags_target_inside_obstacle():
    ws = Workspace((-10, -10), (10, 10), [Box((-1, -1), (1, 1))], h=0.25)
    agents = [make_agent(1, (-4, 0), goal=np.array([0.0, 0.0]), r_target=1.0)]
    out = validate_scenario(ws, agents)
    assert any("unattainable target" in v for v in out)


def test_validate_flags_overlapping_bodies():
    ws = Workspace((-10, -10), (10, 10), h=0.25)
    agents = [make_agent(1, (0, 0)), make_agent(2, (1.0, 0))]
    out = validate_scenario(ws, agents)
    assert any("bodies overlap" in v for v in out)


def test_validate_pair_checks_match_a_pairwise_loop():
    rng = np.random.default_rng(11)
    ws = Workspace((-10, -10), (10, 10), h=0.25)
    for _ in range(20):
        agents = []
        for k in range(int(rng.integers(2, 12))):
            goal = rng.uniform(-5, 5, size=2) if rng.random() < 0.7 else None
            agents.append(make_agent(k + 1, rng.uniform(-5, 5, size=2),
                                     radius=float(rng.choice([0.5, 1.0])), goal=goal))
        want = []
        for i, a in enumerate(agents):
            for b in agents[i + 1:]:
                if np.linalg.norm(a.x - b.x) < a.radius + b.radius - 1e-9:
                    want.append(f"agents {a.id},{b.id}: bodies overlap at start")
                if a.goal is not None and b.goal is not None:
                    if np.linalg.norm(a.goal - b.goal) < a.r_target + b.r_target - 1e-9:
                        want.append(f"agents {a.id},{b.id}: conflicting targets")
        got = [v for v in validate_scenario(ws, agents) if v.startswith("agents ")]
        assert got == want


def test_agent_invariants_enforced():
    with pytest.raises(ConfigError):
        make_agent(1, (0, 0), radius=1.0, goal=np.array([1.0, 0.0]), r_target=0.5)
    with pytest.raises(ConfigError):
        AgentBody(1, np.zeros(2), 1.0, 0.0)
    with pytest.raises(ConfigError):
        AgentBody(1, np.zeros(2), -1.0, 0.5)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", ["x", "radius", "ring_width", "goal", "r_target"])
def test_agent_body_rejects_non_finite_numbers(field, value):
    args = {"x": np.zeros(2), "radius": 1.0, "ring_width": 1.5,
            "goal": np.array([4.0, 0.0]), "r_target": 1.0}
    args[field] = np.array([0.0, value]) if field in ("x", "goal") else value
    with pytest.raises(ConfigError, match=field):
        AgentBody(1, **args)
