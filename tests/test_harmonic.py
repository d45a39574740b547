import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import component as _component
from helpers import (
    direct_solve,
    euclidean_inflation,
    grid_masks,
    neighbor_sum_by_slices,
    oracle_gradient_at,
    oracle_value_at,
    random_workspace,
    solve_error_bound,
    unit_goal_term,
)

from vhpf import scenarios
from vhpf.controller import HARMONIC_GOAL, UNIT_DRIVE, AgentController, goal_term
from vhpf.harmonic import (
    ConfigError,
    FieldQueryError,
    SolverError,
    _inflate_mask,
    _neighbor_sum,
    _SineTransform,
    gradient_at,
    resolve_incremental,
    solve_dirichlet,
    value_at,
)
from vhpf.scenarios import AgentSpec, GoalSpec
from vhpf.world import Box, GridSpec, Workspace, dilate, disk

TOL = 1e-10


def strip_field(tol=TOL):
    grid = GridSpec((0.0,), 1.0, (5,))
    return solve_dirichlet(grid, set(), (0.5,), tol=tol)


def square_field(tol=TOL):
    grid = GridSpec((0.0, 0.0), 1.0, (5, 5))
    return solve_dirichlet(grid, set(), (2.5, 2.5), tol=tol)


# ---------------------------------------------------------------------------
# fixtures with frozen expectations
# ---------------------------------------------------------------------------

def test_strip_matches_linear_ramp():
    f = strip_field()
    assert f.values == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0], abs=10 * TOL)
    assert f.values[f.goal_cell] == 0.0
    assert f.free.tolist() == [False, True, True, True, False]


def test_strip_matches_dense_oracle():
    f = strip_field()
    assert np.max(np.abs(f.values - direct_solve(f))) < 10 * TOL


def test_strip_gradient_is_constant_slope():
    f = strip_field()
    assert gradient_at(f, (2.5,)) == pytest.approx([0.25], abs=1e-9)
    assert gradient_at(f, (1.7,)) == pytest.approx([0.25], abs=1e-9)


def test_strip_stats():
    f = strip_field()
    free = f.free
    assert f.gradients()[0][free] == pytest.approx([0.25] * int(free.sum()), abs=1e-9)
    assert f.iterations > 0


def test_square_interior_strictly_inside_unit_interval():
    f = square_field()
    free = f.free
    assert np.all(f.values[free] > 0.0)
    assert np.all(f.values[free] < 1.0)


def test_square_symmetry_group():
    f = square_field()
    v = f.values
    assert np.allclose(v, np.rot90(v), atol=10 * TOL)
    assert np.allclose(v, v.T, atol=10 * TOL)
    assert np.allclose(v, v[::-1, :], atol=10 * TOL)


def test_square_matches_dense_oracle():
    f = square_field()
    assert np.max(np.abs(f.values - direct_solve(f))) < 10 * TOL


def test_square_gradient_vanishes_at_center():
    f = square_field()
    assert np.linalg.norm(gradient_at(f, (2.5, 2.5))) < 1e-9


def test_square_stats_match_oracle_scan():
    f = square_field()
    v = direct_solve(f)
    g = np.stack(np.gradient(v, 1.0))
    free = f.free
    assert np.max(np.abs(f.gradients()[:, free] - g[:, free])) < 1e-8


# ---------------------------------------------------------------------------
# classification and errors
# ---------------------------------------------------------------------------

def test_goal_inside_known_obstacle_rejected():
    grid = GridSpec((0.0, 0.0), 1.0, (5, 5))
    with pytest.raises(ConfigError):
        solve_dirichlet(grid, {(2, 2)}, (2.5, 2.5))


def test_goal_outside_grid_rejected():
    grid = GridSpec((0.0, 0.0), 1.0, (5, 5))
    with pytest.raises(ConfigError):
        solve_dirichlet(grid, set(), (9.0, 0.5))


def test_sweep_cap_raises_solver_error():
    # a wall across most of the grid: the preconditioner knows only the rim,
    # so this solve takes 10 iterations, where the empty grid takes 1
    grid = GridSpec((0.0, 0.0), 1.0, (16, 16))
    wall = {(8, j) for j in range(1, 13)}
    assert solve_dirichlet(grid, wall, (3.5, 8.0), tol=1e-12).iterations > 3
    with pytest.raises(SolverError):
        solve_dirichlet(grid, wall, (3.5, 8.0), tol=1e-12, max_sweeps=3)


def test_non_finite_value_raises_at_once():
    f = square_field()
    f.values[1, 2] = np.nan
    before = f.iterations
    with pytest.raises(SolverError, match="not finite"):
        resolve_incremental(f, set())
    assert f.iterations - before < 5  # the cap is 100 * (5 + 5) iterations


# ---------------------------------------------------------------------------
# the preconditioner's sine transform and the neighbor sum
# ---------------------------------------------------------------------------

def _assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _check_sine_transform(shape, rng):
    x = rng.standard_normal(shape)
    x[rng.random(shape) < 0.2] = 0.0       # the residual is 0 on every pinned cell
    x[rng.random(shape) < 0.05] = -0.0
    sine = _SineTransform(shape)
    want = scipy.fft.dstn(x, type=1, norm="ortho", workers=1)
    _assert_same_bits(want, scipy.fft.idstn(x, type=1, norm="ortho", workers=1))
    out = np.empty(shape)
    _assert_same_bits(sine(x, out), want)
    _assert_same_bits(sine(x, out), want)              # the buffers are reused
    # the fused division and product of `_relax`, from the negated operand
    eig = rng.uniform(0.01, 12.0, size=shape)
    _assert_same_bits(sine(x, out, np.divide, -eig), want / eig)
    free = (rng.random(shape) < 0.7).astype(float)
    _assert_same_bits(sine(x, out, np.multiply, -free), want * free)
    # reading the input buffer in place, as the inverse does
    sine.input[...] = want
    _assert_same_bits(sine(sine.input, out),
                      scipy.fft.idstn(want, type=1, norm="ortho", workers=1))


@pytest.mark.parametrize("shape", [(1,), (5,), (30,), (3, 7), (1, 1), (158, 94), (158, 62),
                                   (159, 95), (46, 46, 46), (40, 1, 3)])
def test_sine_transform_is_scipys_dst_bit_for_bit(shape):
    # (158, 94) is the case7_unknown interior, 46^3 the case3_3d one
    _check_sine_transform(shape, np.random.default_rng(sum(shape)))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 40), min_size=1, max_size=3), st.integers(0, 2**32 - 1))
def test_sine_transform_matches_scipy_on_any_shape(shape, seed):
    _check_sine_transform(tuple(shape), np.random.default_rng(seed))


@pytest.mark.parametrize("shape", [(1,), (2,), (7,), (1, 5), (5, 1), (3, 4), (160, 96),
                                   (1, 1, 3), (3, 1, 1), (4, 5, 6)])
def test_neighbor_sum_matches_slice_by_slice_oracle(shape):
    # rim cells included, and -0.0, whose sum with 0.0 is +0.0
    rng = np.random.default_rng(len(shape) * 100 + sum(shape))
    v = rng.standard_normal(shape)
    v[rng.random(shape) < 0.2] = -0.0
    want = neighbor_sum_by_slices(v)
    _assert_same_bits(_neighbor_sum(v), want)
    _assert_same_bits(_neighbor_sum(v, np.full(shape, np.nan)), want)


# preconditioned conjugate-gradient iterations of the solves below when these
# guards were set; a solver that silently slows down takes more than 1.5x as many
CASE7_COLD_ITERATIONS = 1
CASE7_RESOLVE_ITERATIONS = 13
CASE8_FULL_COLD_ITERATIONS = 30
# the 2 cells that agent 1 of case7_unknown discovers first, at its first
# discovery event
CASE7_FIRST_DISCOVERY = [(48, 44), (48, 45)]


def _case7_cold_field():
    spec = scenarios.builtin("case7_unknown")
    grid = scenarios.build_workspace(spec).grid
    assert grid.shape == (160, 96)
    agent = spec.agents[0]
    return solve_dirichlet(grid, set(), np.asarray(agent.goal, float), tol=1e-12,
                           inflate=agent.radius)


def _exact_residual(f):
    free = f.free
    two_dim = 2.0 * f.grid.dim
    return np.max(np.abs(_neighbor_sum(f.values) - two_dim * f.values)[free]) / two_dim


def test_case7_cold_solve_iteration_count():
    f = _case7_cold_field()
    assert f.iterations <= 1.5 * CASE7_COLD_ITERATIONS
    # the stopping residual is recomputed from the values, not taken from the
    # conjugate-gradient recurrence, which drifts from it by rounding
    assert f.residual == _exact_residual(f) < 1e-12


def test_case7_first_discovery_resolve_iteration_count():
    f = _case7_cold_field()
    cold = f.iterations
    resolve_incremental(f, CASE7_FIRST_DISCOVERY)
    assert 0 < f.iterations - cold <= 1.5 * CASE7_RESOLVE_ITERATIONS
    assert f.residual == _exact_residual(f) < 1e-12


def test_case8_full_knowledge_cold_solve_iteration_count():
    spec = scenarios.builtin("case8_tight")
    ws = scenarios.build_workspace(spec)
    agent = spec.agents[0]
    assert agent.prior_knowledge == scenarios.PRIOR_FULL
    f = solve_dirichlet(ws.grid, np.argwhere(ws.boundary_mask), np.asarray(agent.goal, float),
                        tol=1e-12, inflate=agent.radius)
    assert f.iterations <= 1.5 * CASE8_FULL_COLD_ITERATIONS
    assert f.residual == _exact_residual(f) < 1e-12


def test_query_inside_known_obstacle_rejected():
    grid = GridSpec((0.0, 0.0), 1.0, (7, 7))
    f = solve_dirichlet(grid, {(3, 3)}, (1.5, 1.5))
    with pytest.raises(FieldQueryError):
        gradient_at(f, (3.5, 3.5))
    with pytest.raises(FieldQueryError):
        value_at(f, (3.5, 3.5))
    with pytest.raises(FieldQueryError):
        gradient_at(f, (20.0, 3.5))


def _sampled(sample, field, x):
    """What one sampling call gives: its shape and bytes as a float array,
    or its error. The sampler's own results must be Python floats: a float,
    or a list of one per axis."""
    try:
        out = sample(field, x)
    except FieldQueryError as exc:
        return "error", str(exc)
    if sample in (gradient_at, value_at):
        each = out if sample is gradient_at else [out]
        assert type(out) is (list if sample is gradient_at else float)
        assert all(type(a) is float for a in each), out
    return np.asarray(out, float).shape, np.asarray(out, float).tobytes()


def _probe_points(field, rng):
    """Seeded random points a little past the grid on every side, cell
    centers and faces, the hi rim exactly and one ulp outside each side,
    NaN in each coordinate and the centers of the known cells."""
    grid = field.grid
    lo = np.asarray(grid.origin, float)
    hi = lo + np.asarray(grid.shape, float) * grid.h
    span = hi - lo
    points = list(rng.uniform(lo - 0.05 * span, hi + 0.05 * span, size=(400, grid.dim)))
    cells = np.stack([rng.integers(0, n, size=100) for n in grid.shape], axis=1)
    points += list(grid.cell_centers(cells))
    points += list(lo + cells * grid.h)                     # lower faces and corners
    points += list(lo + (cells + np.r_[[0.5] * (grid.dim - 1), 1.0]) * grid.h)   # upper faces
    for k in range(grid.dim):
        for edge, outside in ((hi[k], np.inf), (lo[k], -np.inf)):
            for x in points[:40]:
                for value in (edge, np.nextafter(edge, outside)):
                    x = x.copy()
                    x[k] = value
                    points.append(x)
        x = grid.cell_centers(cells[:1])[0]
        x[k] = np.nan
        points.append(x)
    points.append(hi.copy())
    points.append(np.nextafter(hi, np.inf))
    points += list(grid.cell_centers(np.argwhere(field.known_mask)))
    return points


@pytest.mark.parametrize("grid, known, goal", [
    (GridSpec((0.3,), 0.7, (9,)), {(6,)}, (1.5,)),
    (GridSpec((-1.1, 0.2), 0.25, (17, 13)), {(5, 5), (6, 5), (10, 3)}, (1.0, 1.5)),
    (GridSpec((0.0, 0.5, -0.3), 0.5, (7, 8, 6)), {(3, 3, 3), (4, 3, 3)}, (1.2, 1.6, 0.9)),
])
def test_sampling_matches_array_oracle_bit_for_bit(grid, known, goal):
    field = solve_dirichlet(grid, known, goal)
    rng = np.random.default_rng(len(grid.shape))
    reasons = ("outside the grid", "inside a known obstacle cell")
    seen = set()
    for x in _probe_points(field, rng):
        for sample, oracle in ((gradient_at, oracle_gradient_at), (value_at, oracle_value_at)):
            for point in (x, tuple(x.tolist())):
                got = _sampled(sample, field, point)
                assert got == _sampled(oracle, field, point), point
                if got[0] == "error":
                    seen.update(r for r in reasons if got[1].endswith(r))
    assert seen == set(reasons)


@st.composite
def sampled_fields(draw):
    """A 1-D, 2-D or 3-D grid of 2 to 8 cells per axis, its goal cell, the
    cells known at the first solve, the cells a later discovery adds and a
    seed for the query points."""
    dim = draw(st.integers(1, 3))
    shape = tuple(draw(st.lists(st.integers(2, 8), min_size=dim, max_size=dim)))
    h = draw(st.sampled_from([0.25, 0.5, 0.7, 1.0]))
    origin = tuple(draw(st.lists(st.sampled_from([-1.1, 0.0, 0.3]), min_size=dim,
                                 max_size=dim)))
    cells = st.tuples(*[st.integers(0, n - 1) for n in shape])
    goal_cell = draw(cells)
    others = cells.filter(lambda c: c != goal_cell)
    known = draw(st.sets(others, max_size=4))
    later = draw(st.sets(others, min_size=1, max_size=4))
    return GridSpec(origin, h, shape), goal_cell, known, later, draw(st.integers(0, 2**32 - 1))


def _query_points(grid, goal, rng):
    """Points as lists of floats, the form the tick passes: random points a
    little past the grid, cell faces and corners, the grid's bounds exactly,
    points of the last block along every axis, points near the goal and a
    NaN in each coordinate."""
    lo = np.asarray(grid.origin, float)
    n = np.asarray(grid.shape)
    hi = lo + n * grid.h
    points = list(rng.uniform(lo - 0.05 * (hi - lo), hi + 0.05 * (hi - lo), size=(30, grid.dim)))
    points += list(lo + rng.integers(0, n + 1, size=(20, grid.dim)) * grid.h)
    points += list(lo + rng.uniform(n - 1.5, n, size=(20, grid.dim)) * grid.h)
    points += list(goal + rng.uniform(-2.0, 2.0, size=(10, grid.dim)) * grid.h)
    for k in range(grid.dim):
        for edge in (lo[k], hi[k], np.nan):
            x = points[0].copy()
            x[k] = edge
            points.append(x)
    return [x.tolist() for x in points]


def _term(ctrl, x):
    """`goal_term` of the agent at x as an array's bytes, or the reason of
    its error (the oracles print the point as an array); the term itself
    must be a list of Python floats."""
    try:
        term = goal_term(ctrl, x)
    except FieldQueryError as exc:
        return "error", str(exc).rpartition("] ")[2]
    assert type(term) is list and all(type(a) is float for a in term), term
    return np.array(term).tobytes()


def _oracle_term(f, *args):
    try:
        return np.asarray(f(*args), float).tobytes()
    except FieldQueryError as exc:
        return "error", str(exc).rpartition("] ")[2]


@settings(derandomize=True, max_examples=80, deadline=None)
@given(sampled_fields())
def test_sampler_and_goal_term_match_the_oracles_bit_for_bit(case):
    # before and after a discovery re-solves the field that was sampled:
    # the sampler's tables must follow the new values, gradients and map
    grid, goal_cell, known, later, seed = case
    goal = tuple(grid.cell_centers([goal_cell])[0].tolist())
    field = solve_dirichlet(grid, known, goal)
    unit = AgentController(AgentSpec(1, goal, 0.5 * grid.h, 1.0,
                                     GoalSpec(HARMONIC_GOAL, drive=UNIT_DRIVE, cruise=0.8),
                                     goal=goal, r_target=1.5 * grid.h), field)
    raw = AgentController(AgentSpec(2, goal, 0.5 * grid.h, 1.0, GoalSpec(HARMONIC_GOAL, gain=1.3),
                                    goal=goal), field)
    points = _query_points(grid, np.asarray(goal), np.random.default_rng(seed))
    for discovery in (False, True):
        if discovery:
            resolve_incremental(field, later)
            points += [x.tolist() for x in grid.cell_centers(sorted(later))]
        for x in points:
            for sample, oracle in ((gradient_at, oracle_gradient_at), (value_at, oracle_value_at)):
                assert _sampled(sample, field, x) == _sampled(oracle, field, x), x
            assert _term(unit, x) == _oracle_term(unit_goal_term, unit, x), x
            assert _term(raw, x) == _oracle_term(lambda x: -1.3 * oracle_gradient_at(field, x),
                                                 x), x
    for cell in later:
        with pytest.raises(FieldQueryError, match="inside a known obstacle cell"):
            value_at(field, grid.cell_centers([cell])[0].tolist())


def test_inflation_pins_cells_within_radius():
    grid = GridSpec((0.0, 0.0), 0.5, (12, 12))
    f = solve_dirichlet(grid, {(6, 6)}, (1.0, 1.0), inflate=1.0)
    # cells within 1.0 world unit (2 cells) of the known cell are pinned
    assert not f.free[6, 6]
    assert not f.free[6, 8]
    assert f.free[6, 9]
    assert f.known_mask[6, 6] and not f.known_mask[6, 8]


@pytest.mark.parametrize("dim", [2, 3])
def test_inflation_matches_euclidean_oracle(dim):
    # `world.dilate` by the disk too; windows from one cell wide, narrower
    # than the disk, and cells on the rim
    rng = np.random.default_rng(dim)
    for mask in grid_masks(rng, dim, 12 if dim == 2 else 8, 20):
        shape = mask.shape
        h = float(rng.choice([0.1, 0.25, 0.5]))
        grid = GridSpec((0.0,) * dim, h, shape)
        # radii on, just off and between the offsets' lengths, and one below a cell
        for radius in (0.5 * h, h, np.sqrt(2) * h, 1.5 * h, 2.0 * h - 1e-12, 2.5 * h, 0.75):
            want = euclidean_inflation(mask, h, radius)
            got = _inflate_mask(mask, grid, radius)
            assert np.array_equal(got, want), (shape, h, radius)
            got = dilate(mask, disk(radius, h, dim))
            assert got.dtype == bool and np.array_equal(got, want), (shape, h, radius)
        assert not _inflate_mask(np.zeros(shape, bool), grid, 1.0).any()


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_windowed_inflation_matches_whole_grid_dilation(dim):
    # a few cells on grids much larger than their bounding box, some on the
    # rim: the dilation of the padded window equals that of the whole grid
    rng = np.random.default_rng(10 + dim)
    top = {1: 60, 2: 30, 3: 12}[dim]
    for _ in range(25):
        shape = tuple(int(n) for n in rng.integers(3, top, size=dim))
        mask = np.zeros(shape, dtype=bool)
        for _ in range(int(rng.integers(1, 4))):
            cell = [int(rng.integers(0, n)) for n in shape]
            if rng.random() < 0.5:   # onto the rim along one axis
                ax = int(rng.integers(0, dim))
                cell[ax] = int(rng.choice([0, shape[ax] - 1]))
            mask[tuple(cell)] = True
        h = float(rng.choice([0.125, 0.25, 0.5]))
        grid = GridSpec((0.0,) * dim, h, shape)
        for radius in (0.5 * h, h, 2.5 * h, 0.5, 4.0 * h + 1e-12, 0.25 * h * max(shape)):
            got = _inflate_mask(mask, grid, radius)
            assert got.dtype == bool
            assert np.array_equal(got, euclidean_inflation(mask, h, radius)), (shape, h, radius)


# ---------------------------------------------------------------------------
# incremental re-solve
# ---------------------------------------------------------------------------

def test_incremental_noop_keeps_field():
    f = strip_field()
    before = f.values.copy()
    resolve_incremental(f, set())
    assert np.array_equal(f.values, before)


def test_incremental_matches_cold_solve_on_strip():
    f = strip_field()
    resolve_incremental(f, {(2,)})
    cold = solve_dirichlet(GridSpec((0.0,), 1.0, (5,)), {(2,)}, (0.5,), tol=TOL)
    assert np.max(np.abs(f.values - cold.values)) < 10 * TOL


def test_sequential_discovery_matches_cold_solve():
    grid = GridSpec((0.0, 0.0), 1.0, (9, 9))
    wall = [(4, j) for j in range(1, 6)]
    f = solve_dirichlet(grid, set(), (1.5, 4.5), tol=TOL)
    for cell in wall:
        resolve_incremental(f, {cell})
    cold = solve_dirichlet(grid, set(wall), (1.5, 4.5), tol=TOL)
    assert np.max(np.abs(f.values - cold.values)) < 10 * TOL
    assert not f.free[4, 3]


def test_incremental_rejects_swallowing_goal():
    grid = GridSpec((0.0, 0.0), 1.0, (7, 7))
    f = solve_dirichlet(grid, set(), (3.5, 3.5), tol=TOL, inflate=1.0)
    with pytest.raises(ConfigError):
        resolve_incremental(f, {(3, 4)})


# ---------------------------------------------------------------------------
# randomized properties
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(8))
def test_random_fields_satisfy_grid_laws(seed):
    rng = np.random.default_rng(100 + seed)
    ws, goal = random_workspace(rng)
    f = solve_dirichlet(ws.grid, np.argwhere(ws.boundary_mask), goal, tol=TOL)
    free = f.free

    # bounds and extremes, with slack matching the iterative residual
    assert f.values.min() == 0.0 and f.values.max() <= 1 + 10 * TOL
    assert np.all(f.values[free] > -10 * TOL) and np.all(f.values[free] < 1 + 10 * TOL)

    # mean-value property
    nb = np.zeros_like(f.values)
    for ax in (0, 1):
        nb += np.roll(f.values, 1, ax) + np.roll(f.values, -1, ax)
    assert np.max(np.abs(nb[free] / 4.0 - f.values[free])) < 10 * TOL

    # no spurious local minima among free cells reachable from the goal in the
    # field's own graph (pockets sealed by pinned cells sit at the flat value 1)
    v = f.values
    passable = free.copy()
    passable[f.goal_cell] = True
    component = _component(passable, f.goal_cell)
    assert component.sum() > 1
    for c in map(tuple, np.argwhere(component)):
        if c == f.goal_cell:
            continue
        best = min(v[c[0] + di, c[1] + dj]
                   for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)))
        assert best < v[c], f"cell {c} has no descending neighbor"


@pytest.mark.parametrize("seed", range(4))
def test_random_warm_resolve_matches_cold(seed):
    rng = np.random.default_rng(500 + seed)
    ws, goal = random_workspace(rng)
    cells = list(map(tuple, np.argwhere(ws.boundary_mask)))
    rng.shuffle(cells)
    half = len(cells) // 2
    f = solve_dirichlet(ws.grid, set(cells[:half]), goal, tol=TOL)
    resolve_incremental(f, set(cells[half:]))
    cold = solve_dirichlet(ws.grid, set(cells), goal, tol=TOL)
    assert np.max(np.abs(f.values - cold.values)) < 10 * TOL


def test_three_dimensional_solve_matches_oracle():
    grid = GridSpec((0.0, 0.0, 0.0), 1.0, (7, 7, 7))
    f = solve_dirichlet(grid, {(2, 2, 2)}, (3.5, 3.5, 3.5), tol=TOL)
    assert np.max(np.abs(f.values - direct_solve(f))) < 10 * TOL
    free = f.free
    assert np.all(f.values[free] > 0.0) and np.all(f.values[free] < 1.0)
    # center of the goal cell: flat minimum up to the pinned corner cell's pull
    g = gradient_at(f, (3.5, 3.5, 3.5))
    assert len(g) == 3
    v_mid = value_at(f, (3.5, 3.5, 3.0))
    assert 0.0 < v_mid < 1.0


def test_three_dimensional_warm_resolve_matches_cold():
    grid = GridSpec((0.0, 0.0, 0.0), 1.0, (7, 7, 7))
    wall = [(3, j, k) for j in range(1, 6) for k in range(2, 5)]
    goal = (1.5, 3.5, 3.5)
    f = solve_dirichlet(grid, set(wall[:5]), goal, tol=TOL)
    resolve_incremental(f, set(wall[5:]))
    cold = solve_dirichlet(grid, set(wall), goal, tol=TOL)
    assert np.max(np.abs(f.values - cold.values)) < 10 * TOL
    assert np.max(np.abs(f.values - direct_solve(f))) < 10 * TOL


# grids with known cells, inflation and a goal, in one to three dimensions;
# the known cells split in two halves: known at the cold solve, discovered later
ORACLE_CASES = [
    (GridSpec((0.0,), 0.5, (40,)), [(8,), (30,), (22,)], (3.2,), 0.6),
    (GridSpec((-1.0, 0.5), 0.25, (33, 21)),
     [(10, j) for j in range(2, 15)] + [(20, j) for j in range(6, 20)], (6.1, 2.9), 0.3),
    (GridSpec((0.0, 0.0, 0.0), 0.5, (13, 11, 12)),
     [(5, j, k) for j in range(1, 8) for k in range(3, 9)] + [(9, 6, 6), (9, 7, 6)],
     (1.3, 2.6, 3.1), 0.5),
]


def _pinned_by_inflation(f):
    """How many interior cells, other than the goal, the field pins."""
    pinned = ~f.free
    pinned[f.goal_cell] = False
    return np.sum(pinned[(slice(1, -1),) * f.grid.dim])


def _pinned_oracle(f):
    """The cells a field must pin: the rim, the known cells' euclidean
    inflation and the goal cell."""
    pinned = euclidean_inflation(f.known_mask, f.grid.h, f.inflate)
    rim = np.ones(f.grid.shape, dtype=bool)
    rim[(slice(1, -1),) * f.grid.dim] = False
    pinned |= rim
    pinned[f.goal_cell] = True
    return pinned


@pytest.mark.parametrize("grid, known, goal, inflate", ORACLE_CASES)
def test_solve_matches_direct_oracle_within_tolerance_bound(grid, known, goal, inflate):
    for tol in (1e-6, 1e-10):
        f = solve_dirichlet(grid, known, goal, tol=tol, inflate=inflate)
        assert _pinned_by_inflation(f) > np.sum(f.known_mask)
        assert np.array_equal(~f.free, _pinned_oracle(f))
        assert np.max(np.abs(f.values - direct_solve(f))) <= solve_error_bound(f, tol)


@pytest.mark.parametrize("grid, known, goal, inflate", ORACLE_CASES)
def test_warm_resolve_matches_direct_oracle_and_cold_solve(grid, known, goal, inflate):
    half = len(known) // 2
    tol = 1e-10
    warm = solve_dirichlet(grid, known[:half], goal, tol=tol, inflate=inflate)
    resolve_incremental(warm, known[half:])
    cold = solve_dirichlet(grid, known, goal, tol=tol, inflate=inflate)
    assert np.array_equal(~warm.free, _pinned_oracle(warm))
    assert np.array_equal(warm.free, cold.free)
    bound = solve_error_bound(cold, tol)
    assert np.max(np.abs(warm.values - direct_solve(warm))) <= bound
    assert np.max(np.abs(warm.values - cold.values)) <= 2 * bound


@pytest.mark.parametrize("shape, goal", [
    ((1,), (0.5,)), ((2,), (1.5,)), ((2, 5), (0.5, 3.5)), ((3, 3), (1.5, 1.5)),
])
def test_grids_without_free_cells_solve_at_once(shape, goal):
    f = solve_dirichlet(GridSpec((0.0,) * len(shape), 1.0, shape), set(), goal)
    assert not np.any(f.free)
    assert f.iterations == 0 and f.residual == 0.0
    resolve_incremental(f, set())
    assert f.iterations == 0


def test_inflated_obstacles_match_dense_oracle():
    ws = Workspace((0, 0), (6, 6), [Box((2.0, 1.0), (3.0, 4.0))], h=0.25)
    f = solve_dirichlet(ws.grid, np.argwhere(ws.boundary_mask), (5.0, 5.0), tol=TOL, inflate=0.5)
    assert _pinned_by_inflation(f) > np.sum(f.known_mask)
    assert np.max(np.abs(f.values - direct_solve(f))) < 10 * TOL


def test_grid_refinement_consistency():
    shapes = [Box((2.0, 2.0), (3.0, 4.0))]
    probes = [(1.2, 1.3), (4.4, 4.6), (3.5, 1.5)]
    goal = (5.25, 5.25)
    vals = []
    for h in (0.5, 0.25, 0.125):
        ws = Workspace((0, 0), (6, 6), shapes, h=h)
        f = solve_dirichlet(ws.grid, np.argwhere(ws.boundary_mask), goal, tol=1e-11)
        vals.append(np.array([value_at(f, p) for p in probes]))
    d1 = np.abs(vals[1] - vals[0]).max()
    d2 = np.abs(vals[2] - vals[1]).max()
    assert d2 < d1

