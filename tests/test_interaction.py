import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import agent as body
from helpers import (
    CoincidentCentersError,
    dense_crf_forces,
    dense_sigma_activity,
    goal_term,
    nearest_box_scan,
    neighbors,
    pair_force,
    radial_direction,
    tangential_direction,
    weight,
)
from vhpf.controller import AgentController
from vhpf.engine import Runtime, SimConfig
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
    crf_forces,
    interaction_weights,
    near_pairs,
    pair_index,
    pair_setup,
    repulsion_batch,
    sigma_activity,
    stage_pairs,
    stage_room,
)
from vhpf.scenarios import AgentSpec, GoalSpec
from vhpf.world import Box, ConfigError, GridSpec, Workspace


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
    rel = np.subtract(a.start, b.start)
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
    pos = np.array([b.start for b in bodies])
    radii = np.array([b.radius for b in bodies])
    reach = np.array([b.reach for b in bodies])
    batch, _ = crf_forces(pos, radii, params, profile, reach=reach)
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
    pos = np.array([b.start for b in bodies])
    radii = np.ones(3)
    batch, _ = crf_forces(pos, radii, params, profile)
    assert np.array_equal(pair_force(bodies[0], bodies[1], params, profile), np.zeros(2))
    assert np.array_equal(pair_force(bodies[1], bodies[0], params, profile), np.zeros(2))
    alone, _ = crf_forces(pos[[0, 2]], radii[:2], params, profile)
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
    out, _ = crf_forces(np.array([a.start, b.start]), np.ones(2), params, profile)
    expected = pair_force(a, b, params, profile)
    assert expected == pytest.approx([-4.0 / 3.0, 0.0, 2.0 / 3.0], abs=1e-12)
    assert out[0] == pytest.approx(expected, abs=1e-12)
    assert out[1] == pytest.approx(pair_force(b, a, params, profile), abs=1e-12)


def test_crf_batch_suppressed_rows_are_zero():
    params = InteractionParams(kr=1.0, kt=1.0, mode=UNIT_MODE)
    profile = WeightProfile(LINEAR, delta=1.0)
    pos = np.array([[0.0, 0.0], [2.2, 0.0]])
    radii = np.array([1.0, 1.0])
    out, _ = crf_forces(pos, radii, params, profile, suppressed=[0])
    assert np.array_equal(out[0], np.zeros(2))
    assert np.linalg.norm(out[1]) > 0


def _switch_key(kind, sep, ring=1.5):
    pos = np.array([[0.0, 0.0], [sep, 0.0]])
    radii = np.ones(2)
    _, key = crf_forces(pos, radii, InteractionParams(), WeightProfile(kind, delta=1.5),
                        reach=radii + ring)
    return key


def _switched_rows(kind, sep, ring):
    changed = np.setxor1d(_switch_key(kind, sep - 1e-6, ring), _switch_key(kind, sep + 1e-6, ring))
    return np.unique(changed // 2).tolist()


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


def test_pair_setup_jumps_by_profile_and_ring():
    radii = np.ones(3)

    def jumps(kind, reach):
        return pair_setup(radii, 2, InteractionParams(), WeightProfile(kind), reach=reach).jumps

    assert jumps(EXPONENTIAL, radii + 1.5)
    assert jumps(SPRING, radii + 1.5)
    assert not jumps(LINEAR, radii + 1.5)
    assert not jumps(SINUSOIDAL, None)
    assert jumps(SINUSOIDAL, radii + np.array([1.5, 1.0, 2.0]))


def test_switch_key_leaves_forces_unchanged():
    rng = np.random.default_rng(21)
    pos = rng.uniform(-4, 4, size=(6, 2))
    radii = np.full(6, 0.8)
    reach = radii + rng.uniform(0.5, 2.0, size=6)
    params = InteractionParams(kr=2.0, kt=1.0, mode=SPRING_MODE)
    profile = WeightProfile(EXPONENTIAL, delta=1.5)
    setup = pair_setup(radii, 2, params, profile, [2], reach)
    # the same law with its key left out
    plain, none = crf_forces(pos, radii, params, profile, suppressed=[2], reach=reach,
                             setup=setup._replace(jumps=False))
    forces, key = crf_forces(pos, radii, params, profile, suppressed=[2], reach=reach,
                             setup=setup)
    assert np.array_equal(plain, forces) and none is setup.no_switch
    assert key.dtype == np.intp and ((key >= 0) & (key < 36)).all()
    assert len(key) and not (key // 6 == 2).any()


def _key_mask(key, n):
    """The (n, n) mask of a switch key's flat codes."""
    mask = np.zeros((n, n), dtype=bool)
    mask.flat[key] = True
    return mask


def _off_diagonal(key):
    """A dense switch key with its diagonal cleared: an agent's pair with
    itself is not a near pair, so its constant flag is not a code."""
    key = key.copy()
    np.fill_diagonal(key, False)
    return key


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
    forces, key = crf_forces(pos, radii, params, profile, suppressed=suppressed, reach=reach)
    want_forces, want_key = dense_crf_forces(pos, radii, params, profile,
                                             suppressed=suppressed, reach=reach)
    assert forces.tobytes() == want_forces.tobytes()
    assert len(np.unique(key)) == len(key)
    assert np.array_equal(_key_mask(key, len(pos)), _off_diagonal(want_key))
    # with the caller's setup and pass
    setup = pair_setup(radii, pos.shape[1], params, profile, suppressed, reach)
    plain, same = crf_forces(pos, radii, params, profile, suppressed=suppressed, reach=reach,
                             pairs=near_pairs(pos, radii, profile), setup=setup)
    assert plain.tobytes() == want_forces.tobytes() and same.tobytes() == key.tobytes()
    sigma = sigma_activity(pos, radii, profile)
    assert sigma.tobytes() == dense_sigma_activity(pos, radii, profile).tobytes()


@settings(derandomize=True, max_examples=150, deadline=None)
@given(pair_layouts(), st.data())
def test_switched_rows_of_the_codes_are_those_of_the_dense_keys(layout, data):
    """Between a layout and a perturbed copy, the rows of the codes in one
    switch key only are the rows where the dense (L, L) keys differ."""
    pos, radii, reach, suppressed, profile, params = layout
    n, dim = pos.shape
    shift = data.draw(st.lists(st.sampled_from([0.0, 0.0, 0.25, -0.5, 1.0, 1e-9]),
                               min_size=n * dim, max_size=n * dim))
    moved = pos + np.array(shift).reshape(n, dim)
    keys, dense = [], []
    for p in (pos, moved):
        keys.append(crf_forces(p, radii, params, profile, suppressed=suppressed, reach=reach)[1])
        dense.append(dense_crf_forces(p, radii, params, profile, suppressed=suppressed,
                                      reach=reach)[1])
    rows = np.unique(np.setxor1d(*keys) // n)
    assert rows.tolist() == np.flatnonzero((dense[0] != dense[1]).any(axis=1)).tolist()


@st.composite
def empty_pass_groups(draw):
    """Groups of 1 to 8 agents with no pair within the cut-off: lattice
    sites far enough apart for the widest pair and the widest profile, in
    2-D and 3-D, with narrow and wide rings, suppressed rows and drift
    velocities that hold -0.0."""
    dim = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 8))
    profile = WeightProfile(draw(st.sampled_from([LINEAR, SINUSOIDAL, EXPONENTIAL, SPRING])),
                            delta=draw(st.sampled_from([0.5, 1.5, 2.5])))
    sites = draw(st.lists(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim),
                          min_size=n, max_size=n, unique_by=tuple))
    # two radii of 1.0 and delta 2.5 need a gap above 4.5; the sites are 6 apart
    pos = 6.0 * np.array(sites, float) + np.array(draw(st.lists(
        st.floats(-0.5, 0.5), min_size=n * dim, max_size=n * dim))).reshape(n, dim)
    radii = draw(st.lists(st.sampled_from([0.5, 1.0]), min_size=n, max_size=n))
    rings = draw(st.lists(st.sampled_from([0.4, 1.5, 3.0]), min_size=n, max_size=n))
    drifts = draw(st.lists(st.lists(st.sampled_from([-0.0, 0.0, 0.7, -1.2]), min_size=dim,
                                    max_size=dim), min_size=n, max_size=n))
    suppressed = draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True))
    params = InteractionParams(mode=draw(st.sampled_from([UNIT_MODE, SPRING_MODE])),
                               circulation=draw(st.sampled_from([CCW, CW])))
    agents = [AgentSpec(i + 1, tuple(pos[i]), radii[i], rings[i],
                        GoalSpec("drift", velocity=tuple(drifts[i])),
                        cooperative=i not in suppressed) for i in range(n)]
    return pos, agents, sorted(suppressed), profile, params


def assert_read_only(*arrays):
    for a in arrays:
        with pytest.raises(ValueError):
            a[...] = 0


@settings(derandomize=True, max_examples=150, deadline=None)
@given(empty_pass_groups())
def test_a_pass_without_near_pairs_returns_the_setups_constants(group):
    pos, agents, suppressed, profile, params = group
    n, dim = pos.shape
    radii = np.array([a.radius for a in agents])
    reach = np.array([a.reach for a in agents])
    setup = pair_setup(radii, dim, params, profile, suppressed, reach)
    pairs = near_pairs(pos, radii, profile, setup=setup)
    assert not len(pairs.rows) and np.array_equal(pairs.table, pair_index(n))
    want_forces, want_key = dense_crf_forces(pos, radii, params, profile, suppressed=suppressed,
                                             reach=reach)
    assert not _off_diagonal(want_key).any()
    for given_pairs in (pairs, None):
        forces, key = crf_forces(pos, radii, params, profile, suppressed=suppressed, reach=reach,
                                 pairs=given_pairs, setup=setup)
        assert forces is setup.no_forces and key is setup.no_switch
        assert forces.tobytes() == want_forces.tobytes() and not len(key)
        sigma = sigma_activity(pos, radii, profile, pairs=given_pairs, setup=setup)
        assert sigma is setup.no_sigma
        assert sigma.tobytes() == dense_sigma_activity(pos, radii, profile).tobytes()
    # without a setup the same numbers come as new arrays
    forces, key = crf_forces(pos, radii, params, profile, suppressed=suppressed, reach=reach)
    assert forces.tobytes() == want_forces.tobytes() and not len(key)
    assert sigma_activity(pos, radii, profile).tobytes() == setup.no_sigma.tobytes()
    # a stage that measures no pair is the setup's empty pass
    room = stage_room(pairs, pos, profile, setup)
    assert room.near_table is setup.no_pairs.table
    slope = np.zeros_like(pos)
    stage = stage_pairs(pairs, pos + 0.005 * slope, 0.005, slope, radii, profile, room, setup)
    assert stage is setup.no_pairs
    assert_same_near_pairs(stage, near_pairs(pos, radii, profile, setup.no_pairs.table))
    no = setup.no_pairs
    assert_read_only(setup.no_forces, setup.no_switch, setup.no_sigma,
                     no.rows, no.cols, no.rel, no.dist, no.gap, no.weight, no.table, no.table_gap)

    rt = Runtime(Workspace((-30.0,) * dim, (30.0,) * dim), [AgentController(a) for a in agents],
                 params, profile, None, None, SimConfig())
    U, pen, key = rt.eval_controls(pos, pairs)
    want = np.array([goal_term(c, pos[i]) for i, c in enumerate(rt.controllers)])
    if n >= 2 and len(suppressed) < n:
        want += want_forces
        # adding the +0.0 forces turns a drift's -0.0 into +0.0
        assert not np.signbit(U[U == 0.0]).any()
    assert U.tobytes() == want.tobytes() and not pen.any()
    assert key is rt._pair_setup.no_switch
    assert rt.sigma_activity(pos, pairs) is rt._pair_setup.no_sigma


def assert_same_near_pairs(got, want):
    for name in ("rows", "cols", "rel", "dist", "gap", "weight"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


@st.composite
def stage_layouts(draw):
    """A snapshot far from the origin (coordinates up to 1e6), a stage slope
    k and step h, and the profile: agent 1 enters agent 0's support within
    the stage, or the two close their gap by the displacement bound and end
    on the support's edge; the other rows of k are small, zero, huge, NaN
    or +-inf."""
    dim = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(2, 24))
    profile = WeightProfile(draw(st.sampled_from([LINEAR, SINUSOIDAL, EXPONENTIAL, SPRING])),
                            delta=draw(st.sampled_from([0.5, 1.5, 2.5])))
    center = draw(st.sampled_from([0.0, 1e3, -1e6, 1e6]))
    side = draw(st.sampled_from([2.0, 8.0, 20.0]))
    local = np.array(draw(st.lists(st.floats(-side, side), min_size=n * dim,
                                   max_size=n * dim))).reshape(n, dim)
    radii = np.array(draw(st.lists(st.floats(0.2, 1.0), min_size=n, max_size=n)))
    h = draw(st.sampled_from([0.005, 0.01, 0.5, -0.01]))
    speed = draw(st.sampled_from([0.2, 10.0, 100.0]))
    k = np.array(draw(st.lists(st.floats(-speed, speed), min_size=n * dim,
                               max_size=n * dim))).reshape(n, dim)
    u = np.zeros(dim)
    u[draw(st.integers(0, dim - 1))] = 1.0
    gain = draw(st.sampled_from([1e-6, 1e-3, 0.1]))
    head_on = draw(st.booleans())
    local[1] = local[0] + u * (radii[0] + radii[1] + profile.delta + 2.0 * gain)
    k[0] = (gain / h) * u if head_on else 0.0
    k[1] = -(gain / h) * u if head_on else -(3.0 * gain / h) * u
    for row in draw(st.lists(st.integers(2, max(2, n - 1)), max_size=4)):
        if row < n:
            k[row] = draw(st.sampled_from([0.0, 1e150, -1e200, math.nan, math.inf, -math.inf]))
    return center + local, h, k, radii, profile, head_on


def group_setup(radii, positions, profile):
    """The `pair_setup` of a group of these bodies under this profile."""
    return pair_setup(radii, positions.shape[1], InteractionParams(), profile)


def stage_bound(h, k, room, profile):
    """The displacement bound of `stage_pairs`: delta + 2 m + slack, with
    m = |h| max_i |k_i|."""
    moved = abs(h) * math.sqrt(float((k * k).sum(axis=1).max()))
    return profile.delta + 2.0 * moved + 1e-9 * (1.0 + profile.delta + room.x_max + moved)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(stage_layouts())
def test_stage_pass_is_bit_identical_to_a_full_pass(layout):
    start, h, k, radii, profile, head_on = layout
    full = near_pairs(start, radii, profile)
    setup = group_setup(radii, start, profile)
    room = stage_room(full, start, profile, setup)

    def check(h, k):
        """The stage pass at x + h k against a full pass there; True when
        it read the near pairs from the room."""
        with np.errstate(invalid="ignore", over="ignore"):
            positions = start + h * k
            got = stage_pairs(full, positions, h, k, radii, profile, room, setup)
            want = near_pairs(positions, radii, profile)
            bound = stage_bound(h, k, room, profile)
        assert_same_near_pairs(got, want)
        # the measured table holds every pair within the cut-off at x + h k
        half = len(want.rows) // 2
        measured = set(zip(*got.table.tolist()))
        assert set(zip(want.rows[half:].tolist(), want.cols[half:].tolist())) <= measured
        # the far-gap test measures the pass's near pairs exactly when the
        # displacement bound keeps no other pair of the table
        kept = full.table.compress(~(full.table_gap > bound), axis=1)
        assert np.array_equal(got.table, kept)
        assert (room.far_gap > bound) == np.array_equal(kept, room.near_table)
        return room.far_gap > bound

    # agent 1 comes within the cut-off: no stage this long reads the room
    assert not check(h, k)
    if not head_on:
        with np.errstate(invalid="ignore", over="ignore"):
            want = near_pairs(start + h * k, radii, profile)
        assert ((want.rows == 1) & (want.cols == 0)).any()
    with np.errstate(invalid="ignore", over="ignore"):
        squares = k * k
        got = stage_pairs(full, start + h * k, h, k, radii, profile, room, setup)
    if not np.isfinite(squares).all():
        # a slope of unknown or overflowing size measures every pair
        assert np.array_equal(got.table, full.table)
        return
    # the same slope scaled so that |h| max |k| is just below, at and just
    # above the room that the far pairs leave, (far_gap - delta) / 2: at and
    # above, a far pair can come in; below, only the slack can fill the rest
    edge = 0.5 * (room.far_gap - profile.delta)
    longest = abs(h) * math.sqrt(float((k * k).sum(axis=1).max()))
    for f in (0.5, 1.0 - 1e-6, 1.0, 1.0 + 1e-6):
        scaled = k * (f * edge / longest)
        reads_room = check(h, scaled)
        slack = stage_bound(h, scaled, room, profile) - profile.delta - 2.0 * abs(h) * math.sqrt(
            float((scaled * scaled).sum(axis=1).max()))
        if f < 1.0:
            assert reads_room or slack > 0.9 * 2.0 * (1.0 - f) * edge
        else:
            assert not reads_room


@pytest.mark.parametrize("start, move, radii, delta", [
    ([[993.113548626327, 991.357423918879], [994.9040580979021, 990.887550463651]],
     [[0.08676317739980145, -0.02276877871835289], [-0.08676317739980145, 0.02276877871835289]],
     [0.732240523489667, 0.43949371199493137], 0.5),
    ([[1006.3297905849948, 1001.8490419827544, 991.649224836011],
      [1006.3254757593393, 1004.6610286118427, 992.6439793221585]],
     [[-1.2429997040625165e-06, 0.0008100671560723615, 0.0002865653517865721],
      [1.2429997040625165e-06, -0.0008100671560723615, -0.0002865653517865721]],
     [0.5379325052820658, 0.9431033882867983], 1.5),
], ids=["2d", "3d"])
def test_stage_pass_keeps_a_pair_that_rounding_brings_in(start, move, radii, delta):
    # the two close a gap of delta + 2 m by exactly 2 m; the full pass at the
    # end finds the pair within the cut-off, which delta + 2 m computed in
    # floating point alone would miss: the slack is what keeps it
    start, move, radii = np.array(start), np.array(move), np.array(radii)
    positions = start + 1.0 * move
    profile = WeightProfile(LINEAR, delta=delta)
    full = near_pairs(start, radii, profile)
    d = positions - start
    assert full.table_gap[0] > delta + 2.0 * math.sqrt(float((d * d).sum(axis=1).max()))
    setup = group_setup(radii, start, profile)
    got = stage_pairs(full, positions, 1.0, move, radii, profile,
                      stage_room(full, start, profile, setup), setup)
    assert got.rows.tolist() == [1, 0]
    assert got.gap.tobytes() == near_pairs(positions, radii, profile).gap.tobytes()


def test_stage_pass_measures_only_pairs_the_step_can_bring_in():
    start = np.array([[0.0, 0.0], [3.0, 0.0], [10.0, 0.0], [30.0, 0.0]])
    radii = np.ones(4)
    profile = WeightProfile(LINEAR, delta=1.5)
    full = near_pairs(start, radii, profile)
    k = np.array([[0.0, 0.0], [0.0, 0.0], [-400.0, 0.0], [0.0, 0.0]])
    setup = group_setup(radii, start, profile)
    got = stage_pairs(full, start + 0.01 * k, 0.01, k, radii, profile,
                      stage_room(full, start, profile, setup), setup)
    # gaps at the start 1, 8, 28, 5, 25, 18: a move of 4 can close a gap of
    # up to 1.5 + 2 * 4, and brings agent 2 within the cut-off of agent 1
    assert got.table.T.tolist() == [[0, 1], [0, 2], [1, 2]]
    assert got.rows.tolist() == [1, 2, 0, 1]
    assert got.cols.tolist() == [0, 1, 1, 2]
    # apart and barely moving: nothing to measure, and nothing near
    start, k = 10.0 * start, np.full((4, 2), 1.0)
    full = near_pairs(start, radii, profile)
    positions = start + 0.01 * k
    got = stage_pairs(full, positions, 0.01, k, radii, profile,
                      stage_room(full, start, profile, setup), setup)
    assert got.table.shape == (2, 0)
    assert_same_near_pairs(got, near_pairs(positions, radii, profile))


@pytest.mark.parametrize("near", [False, True])
def test_stage_pass_reads_the_near_pairs_until_a_far_pair_can_come_in(near):
    # agents 0 and 1 are in range when `near`; agent 2 is far, at gap 3 from agent 1
    start = np.array([[0.0, 0.0], [2.5 if near else 6.0, 0.0], [11.0, 0.0]])
    radii = np.ones(3)
    profile = WeightProfile(LINEAR, delta=1.5)
    full = near_pairs(start, radii, profile)
    setup = group_setup(radii, start, profile)
    room = stage_room(full, start, profile, setup)
    far = 11.0 - start[1, 0] - 2.0
    assert room.far_gap == far and room.x_max == 11.0
    assert room.near_table.T.tolist() == ([[0, 1]] if near else [])
    room_edge = 0.5 * (far - profile.delta)    # the displacement that can close the far gap
    for m, falls_back in ((room_edge * (1 - 1e-6), False), (room_edge, True),
                          (room_edge * (1 + 1e-6), True), (math.nan, True), (math.inf, True)):
        k = np.zeros((3, 2))
        k[2, 0] = -m
        with np.errstate(invalid="ignore"):
            positions = start + 1.0 * k
            got = stage_pairs(full, positions, 1.0, k, radii, profile, room, setup)
            want = near_pairs(positions, radii, profile)
        assert_same_near_pairs(got, want)
        measured = {tuple(p) for p in got.table.T.tolist()}
        assert ((1, 2) in measured) == falls_back, m
        if not falls_back:
            assert np.array_equal(got.table, room.near_table)
        if not math.isfinite(m):
            assert np.array_equal(got.table, full.table)


def test_stage_room_of_passes_without_far_pairs():
    profile = WeightProfile(LINEAR, delta=1.5)
    for start in (np.zeros((1, 2)), np.array([[0.0, 0.0], [2.5, 0.0]])):
        room = stage_room(near_pairs(start, np.ones(len(start)), profile), start, profile,
                          group_setup(np.ones(len(start)), start, profile))
        assert room.far_gap == math.inf and room.near_table.shape == (2, len(start) - 1)
    # without a far pair every stage measures the near pairs, the whole table, whatever its slope
    start = np.array([[0.0, 0.0], [2.5, 0.0]])
    full = near_pairs(start, np.ones(2), profile)
    setup = group_setup(np.ones(2), start, profile)
    for m in (0.0, 10.0, math.nan, math.inf):
        k = np.array([[m, 0.0], [0.0, 0.0]])
        with np.errstate(invalid="ignore"):
            positions = start + 1.0 * k
            got = stage_pairs(full, positions, 1.0, k, np.ones(2), profile,
                              stage_room(full, start, profile, setup), setup)
            assert_same_near_pairs(got, near_pairs(positions, np.ones(2), profile))
        assert np.array_equal(got.table, full.table)
    # a NaN gap is not near, so it is far, and no displacement can pass it
    start = np.array([[0.0, 0.0], [math.nan, 0.0], [2.5, 0.0]])
    with np.errstate(invalid="ignore"):
        room = stage_room(near_pairs(start, np.ones(3), profile), start, profile,
                          group_setup(np.ones(3), start, profile))
    assert math.isnan(room.far_gap) and room.near_table.T.tolist() == [[0, 2]]


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
    wall = np.zeros(grid.shape, dtype=bool)
    wall[:, 5] = True   # cell centers at y = -2.25, top faces at -2.0
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
    me = body(1, (0.45, 0.0), radius=0.5, ring=0.5, goal=(-3.0, 0.0))
    ctrl = AgentController(me)
    rt = Runtime(ws, [ctrl], InteractionParams(), WeightProfile(),
                 ObstacleRepulsionParams(), None, SimConfig())
    U, pen, _ = rt.eval_controls(rt.starts)
    assert np.array_equal(U[0], goal_term(ctrl, me.start)) and not pen[0]
    # the same wall, once known, pushes back
    ctrl.boundary_index = KnownBoundaryIndex(ws.grid, ws.boundary_mask)
    U = rt.eval_controls(rt.starts)[0]
    assert U[0][0] < goal_term(ctrl, me.start)[0]


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


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(0, 2**32 - 1), st.floats(0.05, 1.5),
       st.floats(0.01, 1.0))
def test_points_out_of_reach_feel_no_cushion(dim, seed, radius, influence):
    rng = np.random.default_rng(seed)
    h = float(rng.choice([0.125, 0.25, 0.5]))
    shape = tuple(int(n) for n in rng.integers(3, 40 if dim == 2 else 14, size=dim))
    grid = GridSpec(tuple(rng.uniform(-3.0, 3.0, size=dim).tolist()), h, shape)
    cells = np.zeros(shape, dtype=bool)
    for _ in range(int(rng.integers(1, 6))):
        cells[tuple(rng.integers(0, shape))] = True
    index = KnownBoundaryIndex(grid, cells)
    reach = radius + influence
    lo = np.asarray(grid.origin)
    hi = lo + np.asarray(shape) * h
    # anywhere around the grid, and on the cell faces, where floor rounds
    pts = rng.uniform(lo - reach - 2 * h, hi + reach + 2 * h, size=(300, dim))
    pts[::3] = lo + np.round((pts[::3] - lo) / h) * h
    out = np.array([not index.within_reach([p], reach) for p in pts.tolist()])
    # the exact clearance of each point to its nearest known cell box
    vec = pts[:, None, :] - np.clip(pts[:, None, :], index.box_lo, index.box_hi)
    clearance = np.linalg.norm(vec, axis=2).min(axis=1)
    assert np.all(clearance[out] - radius >= influence)
    F, pen = repulsion_batch(pts[out], np.full(out.sum(), radius), index,
                             ObstacleRepulsionParams(influence=influence))
    assert not np.any(F) and not np.any(pen)
    # a non-finite point is never ruled out
    assert index.within_reach([[np.nan] * dim], reach)


def _cornered_cells(rng, shape):
    """Known cells with concave corners: two or three wall segments along
    the axes that meet at a cell, as the rasterized rooms' walls do, and a
    few stray cells."""
    mask = np.zeros(shape, dtype=bool)
    corner = [int(rng.integers(0, n)) for n in shape]
    for ax in rng.permutation(len(shape))[:int(rng.integers(2, len(shape) + 1))]:
        wall = list(corner)
        wall[ax] = slice(corner[ax], None) if rng.random() < 0.5 else slice(0, corner[ax] + 1)
        mask[tuple(wall)] = True
    for _ in range(int(rng.integers(0, 4))):
        mask[tuple(int(rng.integers(0, n)) for n in shape)] = True
    return mask


def _probe_points(rng, grid, reach, mask, count):
    """Points around the grid: anywhere within reach + 2h of it, on cell
    faces, where floor rounds, and on the diagonals of known cells, where
    two walls of a corner are equally near."""
    dim, h = grid.dim, grid.h
    lo = np.asarray(grid.origin)
    hi = lo + np.asarray(grid.shape) * h
    pts = rng.uniform(lo - reach - 2 * h, hi + reach + 2 * h, size=(count, dim))
    pts[::4] = lo + np.round((pts[::4] - lo) / h) * h
    cells = np.argwhere(mask)
    pick = cells[rng.integers(0, len(cells), size=len(pts[1::4]))]
    step = rng.uniform(0.0, reach + h, size=(len(pick), 1)) * rng.choice([-1.0, 1.0], size=(len(pick), dim))
    pts[1::4] = lo + (pick + 0.5) * h + step
    return pts


@pytest.mark.parametrize("dim", [2, 3])
def test_cushion_index_finds_the_exact_nearest_box_within_reach(dim):
    rng = np.random.default_rng(60 + dim)
    checked = 0
    for _ in range(12 if dim == 2 else 6):
        h = float(rng.choice([0.125, 0.25, 0.5]))
        shape = tuple(int(n) for n in rng.integers(3, 30 if dim == 2 else 12, size=dim))
        grid = GridSpec(tuple(rng.uniform(-3.0, 3.0, size=dim).tolist()), h, shape)
        mask = _cornered_cells(rng, shape)
        index = KnownBoundaryIndex(grid, mask)
        for reach in (0.5 * h, 0.75, 1.5):
            pts = _probe_points(rng, grid, reach, mask, 400)
            dist, normal = index.clearance_normal(pts, reach)
            d, vec = nearest_box_scan(index, pts)
            nearest = d.min(axis=1)
            within = nearest <= reach
            want = np.where(nearest < 1e-12, 0.0, nearest)    # inside a box: 0
            assert dist[within].tobytes() == want[within].tobytes()
            assert np.all(np.isposinf(dist[~within])) and not normal[~within].any()
            # the normal points away from one of the nearest boxes
            for i in np.flatnonzero(within & (nearest >= 1e-12)):
                ties = vec[i, d[i] == nearest[i]] / nearest[i]
                assert any(t.tobytes() == normal[i].tobytes() for t in ties)
            checked += int(within.sum())
    assert checked > 1000


def test_cushion_rows_hold_only_boxes_that_can_be_nearest():
    # along a straight wall a cell can be nearest only to the box facing it
    # and, on its side faces, to that box's two neighbours
    grid, index = wall_index()
    table = index._nearest_rows(1.5)
    assert len(table.columns) == 3


def test_cushion_beyond_reach_is_positive_zero():
    grid, index = wall_index()
    params = ObstacleRepulsionParams(strength=6.0, influence=0.25)
    # a body 0.75 + reach above the wall, and one far off the grid
    pts = np.array([[0.0, -2.0 + 0.5 + 0.25 + 0.75], [0.3, -1.0], [40.0, -60.0]])
    F, pen = repulsion_batch(pts, np.full(3, 0.5), index, params)
    assert F.shape == (3, 2) and not F.any() and not np.signbit(F).any() and not pen.any()
    dist, normal = index.clearance_normal(pts, 0.75)
    assert np.all(np.isposinf(dist)) and not np.signbit(normal).any()


@pytest.mark.parametrize("dim", [2, 3])
def test_cushion_takes_no_points_and_an_empty_index(dim):
    grid = GridSpec((0.0,) * dim, 0.25, (8,) * dim)
    params = ObstacleRepulsionParams()
    full = KnownBoundaryIndex(grid, np.ones(grid.shape, dtype=bool))
    F, pen = repulsion_batch(np.zeros((0, dim)), np.zeros(0), full, params)
    assert F.shape == (0, dim) and pen.shape == (0,)
    empty = KnownBoundaryIndex(grid, np.zeros(grid.shape, dtype=bool))
    assert len(empty) == 0 and not empty.within_reach([[1.0] * dim], 10.0)
    F, pen = repulsion_batch(np.full((2, dim), 1.0), np.full(2, 0.5), empty, params)
    assert F.shape == (2, dim) and not F.any() and not np.signbit(F).any() and not pen.any()
    F, pen = repulsion_batch(np.zeros((0, dim)), np.zeros(0), empty, params)
    assert F.shape == (0, dim) and pen.shape == (0,)


def test_cushion_query_rejects_non_finite_points():
    grid, index = wall_index()
    for bad in ([np.nan, 0.0], [0.0, np.inf]):
        with pytest.raises(ValueError, match="finite"):
            index.clearance_normal(np.array([[0.0, -1.0], bad]), 1.0)
