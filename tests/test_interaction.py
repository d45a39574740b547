import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    CoincidentCentersError,
    dense_crf_forces,
    dense_sigma_activity,
    neighbors,
    pair_force,
    radial_direction,
    tangential_direction,
    weight,
)
from vhpf.controller import SPRING_GOAL, AgentController, goal_term
from vhpf.engine import Runtime, SimConfig
from vhpf.harmonic import FieldStats
from vhpf.interaction import (
    CCW,
    CW,
    EXPONENTIAL,
    LINEAR,
    SINUSOIDAL,
    SPRING,
    SPRING_MODE,
    UNIT_MODE,
    InteractionParams,
    KnownBoundaryIndex,
    ObstacleRepulsionParams,
    WeightProfile,
    circulation_bound_check,
    crf_forces,
    interaction_weights,
    repulsion_batch,
    sigma_activity,
    weight_can_jump,
)
from vhpf.world import AgentBody, Box, ConfigError, GridSpec, KnowledgeMap, Workspace


def body(aid, x, radius=1.0, ring=1.5):
    return AgentBody(aid, np.asarray(x, float), radius, ring)


# ---------------------------------------------------------------------------
# weight profiles
# ---------------------------------------------------------------------------

def test_linear_weight_anchor_points():
    p = WeightProfile(LINEAR, delta=1.5)
    assert weight(2.0, 2.0, p) == 1.0
    assert weight(3.5, 2.0, p) == 0.0
    assert weight(2.75, 2.0, p) == pytest.approx(0.5)
    assert weight(5.0, 2.0, p) == 0.0


def test_sinusoidal_weight_anchor_points():
    p = WeightProfile(SINUSOIDAL, delta=1.5)
    assert weight(2.0, 2.0, p) == 1.0
    assert weight(2.75, 2.0, p) == pytest.approx(0.5)
    assert weight(3.5, 2.0, p) == pytest.approx(0.0, abs=1e-15)


def test_exponential_weight_tail_and_truncation():
    p = WeightProfile(EXPONENTIAL, delta=1.5, beta=0.05)
    assert weight(2.0, 2.0, p) == 1.0
    assert weight(3.5, 2.0, p) == pytest.approx(0.05)
    assert weight(3.5001, 2.0, p) == 0.0


def test_spring_weight_matches_step_construction():
    p = WeightProfile(SPRING, delta=1.5)
    assert weight(8.0, 2.0, p) == 0.0          # far outside the ring
    assert weight(2.5, 2.0, p) == pytest.approx(1.0 + (2.0 - 2.5) / 1.5)
    assert weight(1.9, 2.0, p) == 0.0          # literal step factors below contact


def test_nonspring_weights_clamp_below_contact():
    for kind in (LINEAR, SINUSOIDAL, EXPONENTIAL):
        p = WeightProfile(kind, delta=1.5)
        assert weight(1.0, 2.0, p) == 1.0


def test_weights_monotone_on_support():
    for kind in (LINEAR, SINUSOIDAL, EXPONENTIAL, SPRING):
        p = WeightProfile(kind, delta=1.5)
        r = np.linspace(2.0, 3.5, 400)
        w = interaction_weights(r, 2.0, p)
        assert np.all(np.diff(w) <= 1e-12)
        assert np.all(w >= 0)


def test_profile_annulus_means_are_ordered():
    # area-weighted mean over the annulus: exponential < sinusoidal < linear
    contact, delta = 2.0, 1.5
    r = np.linspace(contact, contact + delta, 20001)
    means = {}
    for kind in (LINEAR, SINUSOIDAL, EXPONENTIAL):
        w = interaction_weights(r, contact, WeightProfile(kind, delta=delta, beta=0.05))
        means[kind] = np.trapezoid(w * r, r) / np.trapezoid(r, r)
    assert means[EXPONENTIAL] < means[SINUSOIDAL] < means[LINEAR]


def test_profile_validation():
    with pytest.raises(ConfigError):
        WeightProfile("cubic", delta=1.0)
    with pytest.raises(ConfigError):
        WeightProfile(LINEAR, delta=0.0)
    with pytest.raises(ConfigError):
        WeightProfile(EXPONENTIAL, delta=1.0, beta=1.5)


# ---------------------------------------------------------------------------
# directions
# ---------------------------------------------------------------------------

def test_radial_direction_examples():
    assert radial_direction((2.0, 0.0)) == pytest.approx([1.0, 0.0])
    assert radial_direction((0.0, -3.0)) == pytest.approx([0.0, -1.0])
    s = math.sqrt(2.0) / 2.0
    assert radial_direction((1.0, 1.0)) == pytest.approx([s, s])
    with pytest.raises(CoincidentCentersError):
        radial_direction((0.0, 0.0))


def test_tangential_direction_2d():
    ccw = InteractionParams(circulation=CCW)
    cw = InteractionParams(circulation=CW)
    assert tangential_direction((1.0, 0.0), ccw) == pytest.approx([0.0, 1.0])
    assert tangential_direction((0.0, 1.0), ccw) == pytest.approx([-1.0, 0.0])
    assert tangential_direction((1.0, 0.0), cw) == pytest.approx([0.0, -1.0])


def test_tangential_orthogonal_to_radial():
    rng = np.random.default_rng(5)
    params2 = InteractionParams()
    params3 = InteractionParams(axis=(0.0, 0.0, 1.0))
    for _ in range(50):
        rel2 = rng.normal(size=2)
        assert abs(np.dot(tangential_direction(rel2, params2),
                          radial_direction(rel2))) < 1e-12
        rel3 = rng.normal(size=3)
        t3 = tangential_direction(rel3, params3)
        assert abs(np.dot(t3, radial_direction(rel3))) < 1e-12
        assert np.linalg.norm(t3) == pytest.approx(1.0)


def test_tangential_3d_fallback_near_axis():
    params = InteractionParams(axis=(0.0, 0.0, 1.0))
    t = tangential_direction((0.0, 0.0, 2.0), params)
    assert np.linalg.norm(t) == pytest.approx(1.0)
    assert abs(t[2]) < 1e-12


def test_uniform_circulation_has_fixed_sign():
    rng = np.random.default_rng(9)
    params = InteractionParams(circulation=CCW)
    signs = set()
    for _ in range(100):
        rel = rng.normal(size=2)
        r = radial_direction(rel)
        t = tangential_direction(rel, params)
        signs.add(np.sign(r[0] * t[1] - r[1] * t[0]))
    assert signs == {1.0}


# ---------------------------------------------------------------------------
# pair force
# ---------------------------------------------------------------------------

CASE_PARAMS = InteractionParams(kr=2.0, kt=1.0, mode=SPRING_MODE)
CASE_PROFILE = WeightProfile(SPRING, delta=1.5)


def test_pair_force_zero_outside_ring():
    f = pair_force(body(1, (-4, 0)), body(2, (4, 0)), CASE_PARAMS, CASE_PROFILE)
    assert np.array_equal(f, np.zeros(2))


def test_pair_force_hand_value():
    f = pair_force(body(1, (2.5, 0.0)), body(2, (0.0, 0.0)), CASE_PARAMS, CASE_PROFILE)
    assert f == pytest.approx([10.0 / 3.0, 5.0 / 3.0], abs=1e-12)


def test_pair_force_radial_reciprocity():
    a, b = body(1, (0.3, -0.2)), body(2, (2.4, 0.7))
    fab = pair_force(a, b, CASE_PARAMS, CASE_PROFILE)
    fba = pair_force(b, a, CASE_PARAMS, CASE_PROFILE)
    rel = a.x - b.x
    rhat = rel / np.linalg.norm(rel)
    assert np.dot(fab, rhat) == pytest.approx(-np.dot(fba, rhat), abs=1e-12)


def test_pair_force_continuous_at_support_edge():
    for kind in (LINEAR, SINUSOIDAL, SPRING):
        profile = WeightProfile(kind, delta=1.5)
        just_in = pair_force(body(1, (3.4999995, 0)), body(2, (0, 0)),
                             CASE_PARAMS, profile)
        assert np.linalg.norm(just_in) < 1e-5


def test_pair_force_coincident_centers_is_zero_under_spring_profile():
    f = pair_force(body(1, (0.0, 0.0)), body(2, (0.0, 0.0)), CASE_PARAMS, CASE_PROFILE)
    assert np.array_equal(f, np.zeros(2))


def test_pair_force_matches_literal_evaluation():
    # independent straight-line evaluation of the published two-agent control
    rng = np.random.default_rng(42)
    kr, kt, delta, rho_sum = 2.0, 1.0, 1.5, 2.0
    for _ in range(100):
        rel = rng.uniform(-5, 5, size=2)
        r = math.hypot(rel[0], rel[1])
        step = 1.0 if r - rho_sum >= 0 else 0.0
        step *= 1.0 if delta + rho_sum - r >= 0 else 0.0
        sigma = (1.0 + (rho_sum - r) / delta) * step
        expected = sigma * np.array([
            kr * rel[0] + kt * (-rel[1]),
            kr * rel[1] + kt * rel[0],
        ])
        a = body(1, rel)
        b = body(2, (0.0, 0.0))
        got = pair_force(a, b, CASE_PARAMS, CASE_PROFILE)
        assert got == pytest.approx(expected, abs=1e-12)


def test_crf_batch_matches_pairwise_sum():
    rng = np.random.default_rng(8)
    params = InteractionParams(kr=3.0, kt=2.0, mode=UNIT_MODE)
    profile = WeightProfile(LINEAR, delta=1.0)
    bodies = [body(i, rng.uniform(-3, 3, size=2), radius=0.8, ring=1.0)
              for i in range(5)]
    pos = np.array([b.x for b in bodies])
    radii = np.array([b.radius for b in bodies])
    reach = np.array([b.reach for b in bodies])
    batch = crf_forces(pos, radii, params, profile, reach=reach)
    for i, a in enumerate(bodies):
        expected = np.zeros(2)
        for other in neighbors(a, bodies):
            expected += pair_force(a, other, params, profile)
        assert batch[i] == pytest.approx(expected, abs=1e-12)


def test_coincident_pair_adds_nothing_to_either_agent():
    # linear weights stay at 1 below contact, so only the missing direction
    # can make the coincident pair's force vanish
    params = InteractionParams(kr=2.0, kt=1.0, mode=SPRING_MODE)
    profile = WeightProfile(LINEAR, delta=1.5)
    bodies = [body(1, (0.0, 0.0)), body(2, (0.0, 0.0)), body(3, (2.5, 0.0))]
    pos = np.array([b.x for b in bodies])
    radii = np.ones(3)
    batch = crf_forces(pos, radii, params, profile)
    assert np.array_equal(pair_force(bodies[0], bodies[1], params, profile), np.zeros(2))
    assert np.array_equal(pair_force(bodies[1], bodies[0], params, profile), np.zeros(2))
    alone = crf_forces(pos[[0, 2]], radii[:2], params, profile)
    assert np.array_equal(batch[0], alone[0]) and np.array_equal(batch[1], alone[0])
    assert np.linalg.norm(batch[0]) > 0
    for i, a in enumerate(bodies):
        expected = np.zeros(2)
        for other in bodies:
            if other is not a:
                expected += pair_force(a, other, params, profile)
        assert batch[i] == pytest.approx(expected, abs=1e-12)


def test_crf_3d_falls_back_to_y_when_rel_is_parallel_to_axis_and_x():
    params = InteractionParams(kr=2.0, kt=1.0, mode=UNIT_MODE, axis=(1.0, 0.0, 0.0))
    profile = WeightProfile(LINEAR, delta=1.5)
    a, b = body(0, (0.0, 0.0, 0.0)), body(1, (2.5, 0.0, 0.0))
    out = crf_forces(np.array([a.x, b.x]), np.ones(2), params, profile)
    expected = pair_force(a, b, params, profile)
    assert expected == pytest.approx([-4.0 / 3.0, 0.0, 2.0 / 3.0], abs=1e-12)
    assert out[0] == pytest.approx(expected, abs=1e-12)
    assert out[1] == pytest.approx(pair_force(b, a, params, profile), abs=1e-12)


def test_crf_batch_suppressed_rows_are_zero():
    params = InteractionParams(kr=1.0, kt=1.0, mode=UNIT_MODE)
    profile = WeightProfile(LINEAR, delta=1.0)
    pos = np.array([[0.0, 0.0], [2.2, 0.0]])
    radii = np.array([1.0, 1.0])
    out = crf_forces(pos, radii, params, profile, suppressed=[0])
    assert np.array_equal(out[0], np.zeros(2))
    assert np.linalg.norm(out[1]) > 0


def _switch_key(kind, sep, ring=1.5):
    pos = np.array([[0.0, 0.0], [sep, 0.0]])
    radii = np.ones(2)
    _, key = crf_forces(pos, radii, InteractionParams(), WeightProfile(kind, delta=1.5),
                        reach=radii + ring, switch_key=True)
    return key


def _switched_rows(kind, sep, ring):
    changed = _switch_key(kind, sep - 1e-6, ring) != _switch_key(kind, sep + 1e-6, ring)
    return np.flatnonzero(changed.any(axis=1)).tolist()


@pytest.mark.parametrize("kind, sep, ring, jumps", [
    (EXPONENTIAL, 3.5, 1.5, True),     # weight beta at contact + delta, zero beyond
    (LINEAR, 3.5, 1.5, False),         # weight reaches zero at the edge
    (SINUSOIDAL, 3.5, 1.5, False),
    (SPRING, 3.5, 1.5, False),
    (SPRING, 2.0, 1.5, True),          # contact step
    (LINEAR, 3.0, 1.0, True),          # sensing ring ends inside the support
    (LINEAR, 3.0, 2.0, False),
])
def test_switch_key_flips_exactly_where_the_weight_jumps(kind, sep, ring, jumps):
    assert _switched_rows(kind, sep, ring) == ([0, 1] if jumps else [])


def test_weight_can_jump_by_profile_and_ring():
    radii = np.ones(3)
    assert weight_can_jump(WeightProfile(EXPONENTIAL), radii, radii + 1.5)
    assert weight_can_jump(WeightProfile(SPRING), radii, radii + 1.5)
    assert not weight_can_jump(WeightProfile(LINEAR), radii, radii + 1.5)
    assert not weight_can_jump(WeightProfile(SINUSOIDAL), radii, None)
    assert weight_can_jump(WeightProfile(SINUSOIDAL), radii, radii + np.array([1.5, 1.0, 2.0]))


def test_switch_key_leaves_forces_unchanged():
    rng = np.random.default_rng(21)
    pos = rng.uniform(-4, 4, size=(6, 2))
    radii = np.full(6, 0.8)
    reach = radii + rng.uniform(0.5, 2.0, size=6)
    params = InteractionParams(kr=2.0, kt=1.0, mode=SPRING_MODE)
    profile = WeightProfile(EXPONENTIAL, delta=1.5)
    plain = crf_forces(pos, radii, params, profile, suppressed=[2], reach=reach)
    forces, key = crf_forces(pos, radii, params, profile, suppressed=[2], reach=reach,
                             switch_key=True)
    assert np.array_equal(plain, forces)
    assert key.shape == (6, 6) and key.any() and not key[2].any()


@st.composite
def pair_layouts(draw):
    """Crowded layouts that hit every branch of the pair pass: lattice
    coordinates (so pairs line up with the circulation axis and with x),
    coincident and exactly touching pairs, narrow and wide rings, mixed radii
    and suppressed rows."""
    dim = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(2, 40))
    side = draw(st.sampled_from([2, 6, 16]))
    cells = draw(st.lists(st.lists(st.integers(-side, side), min_size=dim, max_size=dim),
                          min_size=n, max_size=n))
    pos = np.array(cells, float) * 0.5
    if draw(st.booleans()):
        pos += np.array(draw(st.lists(st.floats(-0.3, 0.3), min_size=n * dim,
                                      max_size=n * dim))).reshape(n, dim)
    radii = np.array(draw(st.lists(st.sampled_from([0.5, 1.0]), min_size=n, max_size=n)))
    # place agent a relative to agent b: on top of it, touching it, or a
    # lattice step away, along one coordinate axis
    for a, b, place, k in draw(st.lists(st.tuples(
            st.integers(0, n - 1), st.integers(0, n - 1),
            st.sampled_from(["coincident", "touching", "aligned"]), st.integers(0, dim - 1)),
            min_size=1, max_size=6)):
        pos[a] = pos[b]
        if a != b and place == "touching":
            pos[a, k] += radii[a] + radii[b]
        elif a != b and place == "aligned":
            pos[a, k] += draw(st.sampled_from([0.5, 1.5, 2.5]))
    ring = np.array(draw(st.lists(st.sampled_from([0.4, 1.5, 3.0]), min_size=n, max_size=n)))
    reach = None if draw(st.booleans()) else radii + ring
    suppressed = draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True))
    profile = WeightProfile(draw(st.sampled_from([LINEAR, SINUSOIDAL, EXPONENTIAL, SPRING])),
                            delta=draw(st.sampled_from([0.5, 1.5, 2.5])),
                            beta=draw(st.sampled_from([0.05, 0.3])))
    params = InteractionParams(kr=draw(st.sampled_from([0.0, 2.0, 0.7])),
                               kt=draw(st.sampled_from([0.0, 1.0, 1.3])),
                               mode=draw(st.sampled_from([UNIT_MODE, SPRING_MODE])),
                               circulation=draw(st.sampled_from([CCW, CW])),
                               axis=draw(st.sampled_from([(0.0, 0.0, 1.0), (1.0, 0.0, 0.0),
                                                          (0.0, 1.0, 0.0), (0.6, 0.0, 0.8)])))
    return pos, radii, reach, suppressed, profile, params


@settings(derandomize=True, max_examples=150, deadline=None)
@given(pair_layouts())
def test_pair_pass_is_bit_identical_to_dense_oracle(layout):
    pos, radii, reach, suppressed, profile, params = layout
    forces, key = crf_forces(pos, radii, params, profile, suppressed=suppressed, reach=reach,
                             switch_key=True)
    want_forces, want_key = dense_crf_forces(pos, radii, params, profile,
                                             suppressed=suppressed, reach=reach, switch_key=True)
    assert forces.tobytes() == want_forces.tobytes()
    assert key.tobytes() == want_key.tobytes()
    plain = crf_forces(pos, radii, params, profile, suppressed=suppressed, reach=reach)
    assert plain.tobytes() == want_forces.tobytes()
    sigma = sigma_activity(pos, radii, profile)
    assert sigma.tobytes() == dense_sigma_activity(pos, radii, profile).tobytes()


def test_weight_sums_of_crowded_rows_match_dense_pairwise_sums():
    # five partners in range of agent 0: NumPy sums a dense row pairwise, so
    # a left-to-right sum of these weights can differ in the last bit
    angles = np.linspace(0.0, 2.0 * np.pi, 6)[:-1]
    pos = np.vstack([[0.0, 0.0], np.column_stack([np.cos(angles), np.sin(angles)]) * 2.6])
    pos[1:] += np.arange(5)[:, None] * 1e-3
    radii = np.ones(6)
    for kind in (LINEAR, SINUSOIDAL, EXPONENTIAL, SPRING):
        profile = WeightProfile(kind, delta=1.5)
        got = sigma_activity(pos, radii, profile)
        assert got.tobytes() == dense_sigma_activity(pos, radii, profile).tobytes()
        assert got[0] > 0


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("make", [
    lambda v: WeightProfile(LINEAR, delta=v),
    lambda v: WeightProfile(EXPONENTIAL, beta=v),
    lambda v: InteractionParams(kr=v),
    lambda v: InteractionParams(kt=v),
    lambda v: InteractionParams(axis=(0.0, v, 1.0)),
    lambda v: ObstacleRepulsionParams(strength=v),
    lambda v: ObstacleRepulsionParams(influence=v),
], ids=["profile.delta", "profile.beta", "crf.kr", "crf.kt", "crf.axis",
        "repulsion.strength", "repulsion.influence"])
def test_interaction_settings_reject_non_finite_numbers(make, value):
    with pytest.raises(ConfigError, match="finite"):
        make(value)


def test_pair_force_strictly_local():
    # nonzero strictly inside the outer edge, exactly zero at and beyond it
    rng = np.random.default_rng(17)
    a = body(1, (0.0, 0.0))
    edge = 2.0 + 1.5
    for kind in (LINEAR, SINUSOIDAL, SPRING):
        profile = WeightProfile(kind, delta=1.5)
        for _ in range(40):
            r = rng.uniform(0.2, 6.0)
            theta = rng.uniform(0, 2 * np.pi)
            b = body(2, (r * np.cos(theta), r * np.sin(theta)))
            f = pair_force(a, b, CASE_PARAMS, profile)
            if r >= edge or (kind == SPRING and r < 2.0):
                assert np.array_equal(f, np.zeros(2)), (kind, r)
            elif 2.0 + 1e-6 < r < edge - 1e-6:
                assert np.linalg.norm(f) > 0, (kind, r)


# ---------------------------------------------------------------------------
# obstacle repulsion
# ---------------------------------------------------------------------------

def wall_index():
    # straight wall of cells along y = -2 (cells just below the line)
    grid = GridSpec((-5.0, -5.0), 0.5, (20, 20))
    wall = {(i, 5) for i in range(20)}  # cell centers at y = -2.25, top faces at -2.0
    return grid, KnownBoundaryIndex(grid, wall)


def cushion(x, radius, index, params):
    """Wall cushion for one body alone: (force vector, penetrated flag)."""
    F, pen = repulsion_batch(np.asarray(x, float)[None, :], np.array([radius]), index, params)
    return F[0], bool(pen[0])


def test_repulsion_zero_beyond_influence():
    grid, index = wall_index()
    params = ObstacleRepulsionParams(strength=6.0, influence=0.25)
    f, pen = cushion((0.0, 0.0), 0.5, index, params)
    assert np.array_equal(f, np.zeros(2)) and not pen


def test_repulsion_pushes_away_from_wall():
    grid, index = wall_index()
    params = ObstacleRepulsionParams(strength=6.0, influence=0.5)
    f, pen = cushion((0.0, -1.2), 0.5, index, params)
    assert f[1] > 0 and abs(f[0]) < 1e-9 and not pen


def test_repulsion_quadratic_magnitude():
    grid, index = wall_index()
    eps = 0.5
    params = ObstacleRepulsionParams(strength=8.0, influence=eps)
    # body surface clearance = eps/2 -> quarter of the peak
    f, pen = cushion((0.0, -2.0 + 0.5 + eps / 2.0), 0.5, index, params)
    assert np.linalg.norm(f) == pytest.approx(8.0 / 4.0, rel=1e-9)
    assert not pen


def test_repulsion_penetration_flag_and_peak():
    grid, index = wall_index()
    params = ObstacleRepulsionParams(strength=6.0, influence=0.25)
    f, pen = cushion((0.0, -1.8), 0.5, index, params)
    assert pen and np.linalg.norm(f) == pytest.approx(6.0)


def test_repulsion_without_knowledge_is_zero():
    # an agent right against a wall it has not discovered feels no cushion
    ws = Workspace((-4.0, -4.0), (4.0, 4.0), [Box((1.0, -4.0), (4.0, 4.0))], h=0.25)
    me = AgentBody(1, np.array([0.45, 0.0]), 0.5, 0.5)
    ctrl = AgentController(agent_id=1, goal_kind=SPRING_GOAL, goal=np.array([-3.0, 0.0]),
                           knowledge=KnowledgeMap(1), repulsion=ObstacleRepulsionParams())
    rt = Runtime(ws, [me], [ctrl], ctrl.params, ctrl.profile, ObstacleRepulsionParams(),
                 None, SimConfig())
    U, pen = rt.eval_controls(rt.positions())
    assert np.array_equal(U[0], goal_term(ctrl, me.x)) and not pen[0]
    # the same wall, once known, pushes back
    ctrl.boundary_index = KnownBoundaryIndex(ws.grid, ws.boundary_cells)
    U, _ = rt.eval_controls(rt.positions())
    assert U[0][0] < goal_term(ctrl, me.x)[0]


def test_repulsion_batch_matches_scalar():
    grid, index = wall_index()
    params = ObstacleRepulsionParams(strength=5.0, influence=0.75)
    pts = np.array([[0.0, -1.2], [1.0, -1.5], [2.0, 1.0]])
    radii = np.array([0.5, 0.5, 0.5])
    F, pen = repulsion_batch(pts, radii, index, params)
    for k in range(3):
        f, p = cushion(pts[k], radii[k], index, params)
        assert F[k] == pytest.approx(f, abs=1e-12)
        assert pen[k] == p


# ---------------------------------------------------------------------------
# circulation bound
# ---------------------------------------------------------------------------

def test_circulation_bound_warns_when_weak():
    stats = [FieldStats(1.2, 0.1, 10), FieldStats(0.8, 0.1, 10)]
    assert circulation_bound_check(0.0, stats) is not None
    assert circulation_bound_check(1.0, stats) is not None
    assert circulation_bound_check(4.0, stats) is None


def test_circulation_bound_vacuous_for_single_agent():
    assert circulation_bound_check(0.0, [FieldStats(5.0, 0.1, 10)]) is None
