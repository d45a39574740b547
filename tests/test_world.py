import itertools

import numpy as np
import pytest
import scipy.ndimage as ndi
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import agent as make_agent
from helpers import (
    chebyshev_dilation,
    grid_masks,
    neighbors,
    obstacle_clearance_by_shape,
    passage_audit_tree,
    random_workspace,
    sense_full_scan,
    shape_distance,
)
from vhpf import harmonic
from vhpf.controller import HARMONIC_GOAL, UNIT_DRIVE, AgentController, on_tick_sense
from vhpf.scenarios import AgentSpec, GoalSpec
from vhpf.world import (
    Ball,
    Box,
    ConfigError,
    Workspace,
    axis_norms,
    passage_width_audit,
    reach_dilation,
    sense_obstacles,
    validate_scenario,
)


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


@st.composite
def clearance_cases(draw):
    """A workspace [0, 8]^dim with up to four boxes and balls on a quarter
    lattice, and points inside, outside, on the faces and at the corners of
    its shapes, on the workspace's bounds and off the lattice."""
    dim = draw(st.sampled_from([2, 3]))
    quarters = st.integers(0, 32)
    shapes = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            lo = draw(st.lists(st.integers(0, 28), min_size=dim, max_size=dim))
            size = draw(st.lists(st.integers(1, 12), min_size=dim, max_size=dim))
            shapes.append(Box(tuple(0.25 * a for a in lo),
                              tuple(0.25 * min(a + s, 32) for a, s in zip(lo, size))))
        else:
            center = draw(st.lists(st.integers(4, 28), min_size=dim, max_size=dim))
            room = min(min(c, 32 - c) for c in center)
            shapes.append(Ball(tuple(0.25 * c for c in center),
                               0.25 * draw(st.integers(1, min(room, 8)))))
    points = [[0.25 * a for a in draw(st.lists(quarters, min_size=dim, max_size=dim))]
              for _ in range(draw(st.integers(1, 12)))]
    points += draw(st.lists(st.lists(st.floats(0.0, 8.0), min_size=dim, max_size=dim),
                            max_size=6))
    for ob in shapes:
        if isinstance(ob, Box):
            corners = list(itertools.product(*zip(ob.lo, ob.hi)))
            points += corners
            for corner in corners:    # a face point: one coordinate moved inside the box
                k = draw(st.integers(0, dim - 1))
                points.append([0.5 * (ob.lo[a] + ob.hi[a]) if a == k else corner[a]
                               for a in range(dim)])
            points.append([0.5 * (a + b) for a, b in zip(ob.lo, ob.hi)])
        else:
            points.append(ob.center)
            for k in range(dim):      # on the sphere along each axis
                for sign in (-1.0, 1.0):
                    points.append([c + sign * ob.radius if a == k else c
                                   for a, c in enumerate(ob.center)])
    order = draw(st.permutations(range(len(points))))
    return Workspace((0.0,) * dim, (8.0,) * dim, shapes, h=0.5), np.array(points)[list(order)]


def _bits(value):
    return type(value), np.asarray(value).dtype, np.shape(value), np.asarray(value).tobytes()


@settings(derandomize=True, max_examples=150, deadline=None)
@given(clearance_cases())
def test_obstacle_clearance_is_bit_identical_to_one_shape_at_a_time(case):
    ws, points = case
    for p in (points, points[:1].reshape(1, 1, -1), points[0]):
        assert _bits(ws.obstacle_clearance(p)) == _bits(obstacle_clearance_by_shape(ws, p))
    for ob in ws.obstacles:
        assert _bits(ob.signed_distance(points)) == _bits(shape_distance(ob, points))
        assert _bits(ob.signed_distance(points[0])) == _bits(shape_distance(ob, points[0]))
    cells = np.indices(ws.grid.shape).reshape(ws.dim, -1).T
    centers = ws.grid.cell_centers(cells).reshape(*ws.grid.shape, ws.dim)
    assert _bits(ws.center_clearance) == _bits(ws.obstacle_clearance(centers))


def test_obstacle_clearance_without_obstacles_is_infinite():
    ws = Workspace((0.0, 0.0), (4.0, 4.0), h=0.5)
    assert ws.obstacle_clearance(np.array([1.0, 2.0])) == np.inf
    out = ws.obstacle_clearance(np.zeros((3, 2)))
    assert _bits(out) == _bits(np.full(3, np.inf))


def test_workspace_boundary_cells_touch_free_space():
    # an L: its inner corner cell touches free space only diagonally
    ws = Workspace((-4, -4), (4, 4), [Box((-1, -1), (1, 1)), Box((-1, 1), (0, 2))], h=0.25)
    free = ws.free_mask
    touching = set()
    for cell in map(tuple, np.argwhere(~ws.free_mask)):
        i, j = cell
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            ni, nj = i + di, j + dj
            if 0 <= ni < free.shape[0] and 0 <= nj < free.shape[1] and free[ni, nj]:
                touching.add(cell)
    assert set(map(tuple, np.argwhere(ws.boundary_mask))) == touching
    # interior obstacle cells are excluded
    interior = (~ws.free_mask).sum() - ws.boundary_mask.sum()
    assert interior > 0


@pytest.mark.parametrize("dim", [2, 3])
def test_boundary_cells_are_the_occupied_cells_touching_free_space(dim):
    rng = np.random.default_rng(30 + dim)
    for _ in range(5):
        size = 4.0 if dim == 2 else 3.0
        shapes = []
        for r in rng.uniform(0.3, 0.8, size=2):
            shapes.append(Ball(tuple(rng.uniform(r, size - r, size=dim)), float(r)))
        shapes.append(Box((0.0,) * dim, tuple([0.75] + [size] * (dim - 1))))   # on the rim
        ws = Workspace((0.0,) * dim, (size,) * dim, shapes, h=0.25)
        occupied, free = ~ws.free_mask, ws.free_mask
        want = np.zeros_like(occupied)
        for cell in map(tuple, np.argwhere(occupied)):
            for ax, step in itertools.product(range(dim), (-1, 1)):
                nb = list(cell)
                nb[ax] += step
                if 0 <= nb[ax] < free.shape[ax] and free[tuple(nb)]:
                    want[cell] = True
        assert want.any() and np.array_equal(ws.boundary_mask, want)


@pytest.mark.parametrize("dim", [2, 3])
def test_reach_dilation_matches_chebyshev_oracle(dim):
    # windows from one cell wide, narrower than the box, and cells on the rim
    rng = np.random.default_rng(10 + dim)
    for mask in grid_masks(rng, dim, 16 if dim == 2 else 9, 20):
        h = float(rng.choice([0.1, 0.25, 0.5]))
        for reach in (0.05, h, 1.0, 1.5):
            got = reach_dilation(mask, h, reach)
            assert got.dtype == bool
            assert np.array_equal(got, chebyshev_dilation(mask, h, reach)), (mask.shape, h, reach)
        assert not reach_dilation(np.zeros(mask.shape, bool), h, 1.0).any()


@pytest.mark.parametrize("lo, hi, h", [
    ((0.0, 0.0), (0.5, 4.0), 0.25),
    ((0.0, 0.0, 0.0), (4.0, 4.0, 0.5), 0.25),
])
def test_workspace_names_the_three_cell_minimum(lo, hi, h):
    with pytest.raises(ConfigError, match="at least 3 grid cells of 0.25 per axis") as err:
        Workspace(lo, hi, h=h)
    assert "np.float64" not in str(err.value)
    assert "evenly divide" not in str(err.value)


def test_workspace_uneven_extent_message_prints_plain_floats():
    with pytest.raises(ConfigError) as err:
        Workspace((0.0, 0.0), (4.1, 4.0), h=0.25)
    assert "must evenly divide workspace extents (4.1, 4.0)" in str(err.value)


def test_workspace_rejects_out_of_bounds_obstacle():
    with pytest.raises(ConfigError):
        Workspace((-2, -2), (2, 2), [Ball((2.0, 0.0), 1.0)], h=0.25)


def test_workspace_rejects_full_obstacle():
    with pytest.raises(ConfigError):
        Workspace((-1, -1), (1, 1), [Box((-1, -1), (1, 1))], h=0.25)


def test_workspace_rejects_indivisible_resolution():
    with pytest.raises(ConfigError):
        Workspace((0, 0), (1.0, 1.0), h=0.3)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("make, name", [
    (lambda v: Workspace((v, 0.0), (10.0, 10.0)), "lo"),
    (lambda v: Workspace((0.0, 0.0), (v, 10.0)), "hi"),
    (lambda v: Workspace((0.0, 0.0), (10.0, 10.0), h=v), "h"),
    (lambda v: Box((v, 0.0), (1.0, 1.0)), "lo"),
    (lambda v: Box((0.0, 0.0), (v, 1.0)), "hi"),
    (lambda v: Ball((v, 0.0), 1.0), "center"),
    (lambda v: Ball((0.0, 0.0), v), "radius"),
], ids=["workspace-lo", "workspace-hi", "workspace-h", "box-lo", "box-hi",
        "ball-center", "ball-radius"])
def test_geometry_rejects_non_finite_numbers(make, name, value):
    # an infinite bound once gave a 3-cell axis, and a NaN radius an
    # obstacle that rasterized to nothing
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        make(value)


# ---------------------------------------------------------------------------
# sensing
# ---------------------------------------------------------------------------

def test_sense_empty_workspace_sees_nothing():
    ws = Workspace((-5, -5), (5, 5), h=0.25)
    assert sense_obstacles(make_agent(1, (0, 0)), (0.0, 0.0), ws).shape == (0, 2)


def test_sense_matches_annulus_oracle():
    ws = Workspace((-5, -5), (5, 5), [Box((-5, -5), (5, -3)), Ball((2, 2), 1.0)], h=0.25)
    rng = np.random.default_rng(7)
    for _ in range(25):
        x = rng.uniform(-4, 4, size=2)
        agent = make_agent(1, x, radius=0.6, ring=1.1)
        got = sense_obstacles(agent, x, ws)
        # the boundary cells' index rows in C order, one at a time
        expected = []
        for i, j in itertools.product(*map(range, ws.grid.shape)):
            if ws.boundary_mask[i, j]:
                d = np.linalg.norm(ws.grid.cell_centers((i, j)) - x)
                if agent.radius < d <= agent.reach:
                    expected.append((i, j))
        assert np.array_equal(got, np.array(expected, dtype=int).reshape(-1, 2))


def test_sense_near_wall_contains_nearest_cell():
    ws = Workspace((-5, -5), (5, 5), [Box((-5, -5), (5, -3))], h=0.25)
    agent = make_agent(1, (0.0, -3.0 + 1.0 + 0.75), radius=1.0, ring=1.5)
    sensed = sense_obstacles(agent, agent.start, ws)
    assert len(sensed)
    cells = np.argwhere(ws.boundary_mask)
    nearest = cells[np.argmin(np.linalg.norm(ws.grid.cell_centers(cells) - agent.start, axis=1))]
    assert (sensed == nearest).all(axis=1).any()


def test_sense_far_from_walls_sees_nothing():
    ws = Workspace((-5, -5), (5, 5), [Box((-5, -5), (5, -4))], h=0.25)
    assert not len(sense_obstacles(make_agent(1, (0, 3)), (0.0, 3.0), ws))


def test_sense_outside_bounds_is_config_error():
    ws = Workspace((-5, -5), (5, 5), h=0.25)
    with pytest.raises(ConfigError):
        sense_obstacles(make_agent(1, (0.0, 0.0)), (6.0, 0.0), ws)


def test_sensed_cells_lie_near_true_boundary():
    ws = Workspace((-5, -5), (5, 5), [Ball((0, 0), 1.5), Box((2, 2), (4, 4))], h=0.25)
    agent = make_agent(1, (0.0, 2.2), radius=0.4, ring=1.2)
    tol = ws.h * np.sqrt(2.0)
    for center in ws.grid.cell_centers(sense_obstacles(agent, agent.start, ws)):
        assert abs(ws.obstacle_clearance(center)) <= tol


def test_sense_in_three_dimensions():
    ws = Workspace((-3, -3, -3), (3, 3, 3), [Ball((0.0, 0.0, 0.0), 1.0)], h=0.5)
    agent = make_agent(1, (0.0, 0.0, 2.0), radius=0.3, ring=1.2)
    got = sense_obstacles(agent, agent.start, ws)
    assert len(got) and ws.boundary_mask[tuple(got.T)].all()
    d = np.linalg.norm(ws.grid.cell_centers(got) - agent.start, axis=1)
    assert np.all((agent.radius < d) & (d <= agent.reach))
    far = make_agent(2, (2.0, 2.0, 2.0), radius=0.3, ring=0.4)
    assert sense_obstacles(far, far.start, ws).shape == (0, 3)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(0, 2**32 - 1), st.floats(0.05, 1.0),
       st.floats(0.05, 1.5))
def test_gated_sensing_matches_full_scan(dim, seed, radius, ring):
    rng = np.random.default_rng(seed)
    h = float(rng.choice([0.125, 0.25, 0.5]))
    lo = rng.integers(-4, 0, size=dim).astype(float)
    hi = lo + rng.integers(3, 9 if dim == 2 else 5, size=dim)
    obstacles = []
    for _ in range(int(rng.integers(0, 4))):
        a, b = np.sort(rng.uniform(lo, hi, size=(2, dim)), axis=0)
        obstacles.append(Box(tuple(a), tuple(b)) if rng.random() < 0.5
                         else Ball(tuple(a), float(min(b - a)) / 2))
    try:
        ws = Workspace(tuple(lo), tuple(hi), obstacles, h=h)
    except ConfigError:  # a draw that fills the workspace
        return
    agent = make_agent(1, lo, radius=radius, ring=ring)
    # anywhere in the workspace, on the cell faces, where floor rounds, and
    # near the boundary cells, where the gate opens
    pts = rng.uniform(lo, hi, size=(300, dim))
    pts[::3] = lo + np.round((pts[::3] - lo) / h) * h
    near = ws.grid.cell_centers(np.argwhere(ws.boundary_mask))
    if len(near):
        offsets = rng.uniform(-agent.reach - 2 * h, agent.reach + 2 * h, size=(150, dim))
        pts[1::2] = np.clip(near[rng.integers(0, len(near), size=150)] + offsets, lo, hi)
    for x in pts:
        got, full = sense_obstacles(agent, x, ws), sense_full_scan(agent, x, ws)
        assert got.dtype == full.dtype and got.shape == full.shape
        assert np.array_equal(got, full), x


# ---------------------------------------------------------------------------
# knowledge: an agent's map is its field's known_mask, grown by on_tick_sense
# ---------------------------------------------------------------------------

def mapping_agent(ws):
    """A harmonic agent (radius 0.5, ring 0.5) with an empty map."""
    spec = AgentSpec(1, (-3.0, 3.0), 0.5, 0.5,
                     GoalSpec(HARMONIC_GOAL, drive=UNIT_DRIVE, cruise=0.8), goal=(-3.0, 3.0))
    field = harmonic.solve_dirichlet(ws.grid, set(), spec.goal, tol=1e-8, inflate=spec.radius)
    return AgentController(spec, field)


def sensed_mask(ctrl, x, ws):
    mask = np.zeros(ws.grid.shape, dtype=bool)
    mask[tuple(sense_obstacles(ctrl.spec, x, ws).T)] = True
    return mask


def test_update_knowledge_growth_and_idempotence():
    ws = Workspace((-4, -4), (4, 4), [Box((1.0, -2.0), (2.0, 2.0))], h=0.25)
    ctrl = mapping_agent(ws)
    known = ctrl.field.known_mask
    a, b = np.array([0.5, 0.0]), np.array([0.5, 0.5])
    seen_a, seen_b = sensed_mask(ctrl, a, ws), sensed_mask(ctrl, b, ws)
    assert (seen_a & seen_b).any() and (seen_b & ~seen_a).any()
    assert on_tick_sense(ctrl, a, ws, cushion=False) == np.count_nonzero(seen_a)
    assert np.array_equal(known, seen_a)
    assert on_tick_sense(ctrl, b, ws, cushion=False) == np.count_nonzero(seen_b & ~seen_a)
    assert on_tick_sense(ctrl, a, ws, cushion=False) == 0
    # a position whose ring holds no wall adds nothing
    assert on_tick_sense(ctrl, np.array([-3.0, -3.0]), ws, cushion=False) == 0
    assert np.array_equal(known, seen_a | seen_b)


def test_knowledge_monotone_over_random_sequences():
    ws = Workspace((-4, -4), (4, 4), [Box((1.0, -2.0), (2.0, 2.0)), Ball((-1.5, -1.5), 1.0)],
                   h=0.25)
    ctrl = mapping_agent(ws)
    rng = np.random.default_rng(3)
    previous = ctrl.field.known_mask.copy()
    discoveries = 0
    for x in rng.uniform(-1.5, 3.0, size=(40, 2)):
        batch = sensed_mask(ctrl, x, ws)
        new = on_tick_sense(ctrl, x, ws, cushion=False)
        known = ctrl.field.known_mask
        assert not (previous & ~known).any()
        assert new == np.count_nonzero(batch & ~previous)
        assert np.array_equal(known, previous | batch)
        discoveries += new > 0
        previous = known.copy()
    assert discoveries > 5


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

def _flagged(ws, radius):
    """The cells `passage_width_audit` flags, as a set of index tuples."""
    return set(map(tuple, np.argwhere(passage_width_audit(ws, radius))))


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
    assert _flagged(ws, 2.0) == set()


def test_audit_tiny_obstacle_in_huge_workspace_passes():
    ws = Workspace((-10, -10), (10, 10), [Ball((0.0, 0.0), 0.3)], h=0.25)
    assert _flagged(ws, 2.0) == set()
    assert _audit_oracle(ws, 2.0) == set()


def test_audit_flags_narrow_corridor():
    # corridor of width 1.0 between two blocks; a radius-1.5 disc needs 3.0
    ws = Workspace((-6, -6), (6, 6),
                   [Box((-1, 0.5), (1, 5.0)), Box((-1, -5.0), (1, -0.5))], h=0.25)
    radius = 1.5
    report = _flagged(ws, radius)
    assert report
    assert not (passage_width_audit(ws, radius) & ~ws.free_mask).any()   # free cells only
    corridor_cell = ws.grid.point_to_cell((0.0, 0.0))
    assert corridor_cell in report
    oracle = _audit_oracle(ws, radius)
    assert corridor_cell in oracle


def test_passage_audit_matches_tree_oracle():
    rng = np.random.default_rng(40)
    for _ in range(12):
        ws, _ = random_workspace(rng)
        for radius in (0.3, 0.5, 0.75, 1.0, 1.25, 2.0):
            got = passage_width_audit(ws, radius)
            assert got.dtype == bool
            assert np.array_equal(got, passage_audit_tree(ws, radius)), radius


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
                if np.linalg.norm(np.subtract(a.start, b.start)) < a.radius + b.radius - 1e-9:
                    want.append(f"agents {a.id},{b.id}: bodies overlap at start")
                if a.goal is not None and b.goal is not None:
                    gap = np.linalg.norm(np.subtract(a.goal, b.goal))
                    if gap < a.target_radius + b.target_radius - 1e-9:
                        want.append(f"agents {a.id},{b.id}: conflicting targets")
        got = [v for v in validate_scenario(ws, agents) if v.startswith("agents ")]
        assert got == want


def test_agent_invariants_enforced():
    with pytest.raises(ConfigError):
        make_agent(1, (0, 0), radius=1.0, goal=(1.0, 0.0), r_target=0.5)
    with pytest.raises(ConfigError):
        make_agent(1, (0, 0), ring=0.0)
    with pytest.raises(ConfigError):
        make_agent(1, (0, 0), radius=-1.0, ring=0.5)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", ["x", "radius", "ring_width", "goal", "r_target"])
def test_agent_body_rejects_non_finite_numbers(field, value):
    # the spec's start is the body's position x
    name = "start" if field == "x" else field
    args = {"start": (0.0, 0.0), "radius": 1.0, "ring_width": 1.5,
            "goal": (4.0, 0.0), "r_target": 1.0}
    args[name] = (0.0, value) if name in ("start", "goal") else value
    with pytest.raises(ConfigError, match=name):
        AgentSpec(1, control=GoalSpec("spring"), **args)
