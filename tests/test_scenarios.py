import dataclasses
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vhpf import cli, engine, scenarios
from vhpf.interaction import EXPONENTIAL, SPRING_MODE
from vhpf.scenarios import (
    BUILTIN_NAMES,
    build_bodies,
    build_runtime,
    build_workspace,
    builtin,
    from_dict,
    load,
    save,
    to_dict,
)
from vhpf.world import ConfigError, passage_width_audit, validate_scenario

EXPECTED_NAMES = {
    "case1", "case2_linear", "case2_sin", "case2_exp", "case3_3d",
    "case4", "case4_malfunction", "case5_lanes",
    "case6_no_circulation", "case6_circulation", "case7_unknown", "case8_tight",
}


def test_builtin_name_set():
    assert set(BUILTIN_NAMES) == EXPECTED_NAMES


def test_unknown_builtin_rejected():
    with pytest.raises(ConfigError):
        builtin("nosuch")


def test_case1_pinned_parameters():
    spec = builtin("case1")
    assert spec.agents[0].goal == (4.0, 0.0)
    assert spec.agents[1].goal == (-4.0, 0.0)
    assert spec.agents[0].start == (-4.0, 0.0)
    assert spec.agents[0].radius == 1.0
    assert spec.agents[0].ring_width == 1.5
    assert spec.agents[0].control.gain == 0.4
    assert spec.crf.kr == 2.0 and spec.crf.kt == 1.0
    assert spec.crf.mode == SPRING_MODE


def test_case2_exponential_tail_value():
    spec = builtin("case2_exp")
    assert spec.profile.kind == EXPONENTIAL
    assert spec.profile.beta == 0.05


def test_case5_pinned_parameters():
    spec = builtin("case5_lanes")
    assert spec.crf.kr == 20.0 and spec.crf.kt == 10.0
    assert len(spec.agents) == 8
    starts = [a.start for a in spec.agents]
    assert starts == [(2.0, 1.3), (5.0, 1.3), (2.0, -1.3), (5.0, -1.3),
                      (-2.0, 1.3), (-5.0, 1.3), (-2.0, -1.3), (-5.0, -1.3)]
    assert all(a.ring_width == 0.2 for a in spec.agents)
    for a in spec.agents[:4]:
        assert a.control.velocity == (-1.0, 0.0)
    for a in spec.agents[4:]:
        assert a.control.velocity == (1.0, 0.0)


def test_case4_paths_cross_at_centroid():
    spec = builtin("case4")
    starts = np.array([a.start for a in spec.agents])
    goals = np.array([a.goal for a in spec.agents])
    assert np.allclose(goals, -starts)
    side = np.linalg.norm(starts[0] - starts[1])
    assert side == pytest.approx(8.0)
    assert np.allclose(starts.mean(axis=0), 0.0, atol=1e-12)


def test_case6_variants_differ_only_in_circulation():
    a = builtin("case6_no_circulation")
    b = builtin("case6_circulation")
    assert a.crf.kt == 0.0 and b.crf.kt > 0.0
    assert dataclasses.replace(a, name="x", crf=b.crf) == dataclasses.replace(b, name="x")


def test_builtins_are_stable_and_valid():
    for name in BUILTIN_NAMES:
        spec_a = builtin(name)
        spec_b = builtin(name)
        assert spec_a == spec_b
        ws = build_workspace(spec_a)
        bodies = build_bodies(spec_a)
        assert validate_scenario(ws, bodies) == [], name


def test_case8_fails_passage_audit():
    spec = builtin("case8_tight")
    ws = build_workspace(spec)
    bodies = build_bodies(spec)
    reaches = sorted((b.reach for b in bodies), reverse=True)
    report = passage_width_audit(ws, reaches[0] + reaches[1])
    assert report
    assert ws.grid.point_to_cell((0.0, 0.0)) in set(report)


def test_case7_audit_is_clean_between_the_blocks():
    spec = builtin("case7_unknown")
    ws = build_workspace(spec)
    bodies = build_bodies(spec)
    reaches = sorted((b.reach for b in bodies), reverse=True)
    report = set(passage_width_audit(ws, reaches[0] + reaches[1]))
    assert ws.grid.point_to_cell((0.0, 0.0)) not in report


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
def test_roundtrip_through_file(tmp_path, name):
    spec = builtin(name)
    path = tmp_path / f"{name}.json"
    save(spec, path)
    assert load(path) == spec


def test_shipped_example_file_matches_builtin():
    path = Path(__file__).resolve().parent.parent / "docs" / "case1.json"
    assert load(path) == builtin("case1")


def test_loader_applies_defaults(tmp_path):
    raw = {
        "name": "minimal",
        "workspace": {"lo": [-5.0, -5.0], "hi": [5.0, 5.0]},
        "agents": [
            {"id": 1, "start": [-2.0, 0.0], "radius": 0.5,
             "control": {"kind": "spring", "gain": 0.5}, "goal": [2.0, 0.0]},
        ],
    }
    path = tmp_path / "minimal.json"
    path.write_text(json.dumps(raw))
    spec = load(path)
    assert spec.sim.integrator == "rk4"
    assert spec.sim.dt == 0.01
    assert spec.agents[0].ring_width == spec.profile.delta
    assert spec.agents[0].r_target is None
    body = build_bodies(spec)[0]
    assert body.r_target == body.radius


def test_loader_rejects_overlapping_targets(tmp_path):
    raw = to_dict(builtin("case1"))
    raw["agents"][1]["goal"] = raw["agents"][0]["goal"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ConfigError, match="conflicting targets"):
        load(path)


def test_loader_reports_json_errors_with_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "x",\n  "workspace": }\n')
    with pytest.raises(ConfigError, match="line 2"):
        load(path)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_loader_rejects_non_finite_literals(tmp_path, value):
    raw = to_dict(builtin("case1"))
    raw["agents"][0]["radius"] = value
    path = tmp_path / "non_finite.json"
    path.write_text(json.dumps(raw))   # written as the bare NaN/Infinity/-Infinity
    with pytest.raises(ConfigError, match="non-finite number"):
        load(path)


def test_loader_reports_missing_fields(tmp_path):
    path = tmp_path / "missing.json"
    path.write_text(json.dumps({"name": "x"}))
    with pytest.raises(ConfigError, match="workspace"):
        load(path)


def test_from_dict_rejects_unknown_obstacle():
    raw = to_dict(builtin("case1"))
    raw["workspace"]["obstacles"] = [{"kind": "torus"}]
    with pytest.raises(ConfigError, match="torus"):
        from_dict(raw)


# ---------------------------------------------------------------------------
# runtime assembly
# ---------------------------------------------------------------------------

def test_full_prior_knowledge_shares_boundary_index():
    rt = build_runtime(builtin("case5_lanes"))
    indexes = {id(c.boundary_index) for c in rt.controllers}
    assert len(indexes) == 1
    assert len(rt.controllers[0].knowledge.cells) > 0
    assert rt.controllers[0].knowledge.cells <= rt.ws.boundary_cells


def test_default_grid_resolution_follows_smallest_body():
    spec = builtin("case1")
    spec = dataclasses.replace(spec,
                               workspace=dataclasses.replace(spec.workspace, grid_h=None))
    ws = build_workspace(spec)
    assert ws.h == pytest.approx(0.25)


def test_harmonic_agents_get_private_fields():
    rt = build_runtime(builtin("case7_unknown"))
    f1, f2 = (c.field for c in rt.controllers)
    assert f1 is not f2
    assert f1.goal_cell != f2.goal_cell
    assert not rt.controllers[0].knowledge.cells


# ---------------------------------------------------------------------------
# property tests of the file format
# ---------------------------------------------------------------------------

def _num(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def scenario_dicts(draw):
    """Valid 2-D scenario dicts in the file format, every field written out.

    Agent k starts at (2 + 4k, 2) and aims at (2 + 4k, 8) of a 4n x 10
    workspace (shifted by an offset); obstacles stay in the band 4 <= y <= 6
    between the starts and the targets, so every layout passes validation.
    """
    n = draw(st.integers(1, 3))
    ox, oy = draw(st.integers(-20, 20)), draw(st.integers(-20, 20))
    width = 4.0 * n
    obstacles = []
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            x0, y0 = draw(_num(0.0, width - 1.0)), draw(_num(4.0, 5.0))
            obstacles.append({"kind": "box", "lo": [ox + x0, oy + y0],
                              "hi": [ox + x0 + draw(_num(0.1, 1.0)),
                                     oy + y0 + draw(_num(0.1, 1.0))]})
        else:
            obstacles.append({"kind": "ball", "center": [ox + draw(_num(1.0, width - 1.0)),
                                                         oy + 5.0],
                              "radius": draw(_num(0.1, 0.9))})
    agents = []
    for k in range(n):
        radius = draw(_num(0.2, 1.0))
        has_goal = draw(st.booleans())
        kind = draw(st.sampled_from(["spring", "drift", "harmonic"]) if has_goal
                    else st.just("drift"))
        if kind == "spring":
            control = {"kind": kind, "gain": draw(_num(0.1, 2.0))}
        elif kind == "drift":
            control = {"kind": kind, "velocity": [draw(_num(-1.0, 1.0)), draw(_num(-1.0, 1.0))]}
        else:
            control = {"kind": kind, "drive": draw(st.sampled_from(["raw", "unit"])),
                       "cruise": draw(_num(0.1, 2.0)), "gain": draw(_num(0.1, 2.0))}
        agents.append({
            "id": k + 1,
            "start": [ox + 2.0 + 4 * k, oy + 2.0],
            "radius": radius,
            "ring_width": draw(_num(0.1, 2.0)),
            "goal": [ox + 2.0 + 4 * k, oy + 8.0] if has_goal else None,
            "r_target": draw(st.none() | _num(radius, 1.5)) if has_goal else None,
            "control": control,
            "cooperative": draw(st.booleans()),
            "prior_knowledge": draw(st.sampled_from(["none", "full"])),
        })
    dt = draw(_num(0.005, 0.05))
    with_goal = any(a["goal"] is not None for a in agents)
    return {
        "name": "generated",
        "workspace": {"lo": [float(ox), float(oy)], "hi": [ox + width, oy + 10.0],
                      "obstacles": obstacles, "grid_h": draw(st.sampled_from([0.25, 0.5]))},
        "agents": agents,
        "crf": {"kr": draw(_num(0.0, 5.0)), "kt": draw(_num(0.0, 5.0)),
                "mode": draw(st.sampled_from(["spring", "unit"])),
                "circulation": draw(st.sampled_from(["ccw", "cw"])), "axis": [0.0, 0.0, 1.0]},
        "profile": {"kind": draw(st.sampled_from(["linear", "sinusoidal", "exponential",
                                                  "spring"])),
                    "delta": draw(_num(0.1, 2.0)), "beta": draw(_num(0.01, 0.5))},
        "obstacle_repulsion": draw(st.none() | st.fixed_dictionaries(
            {"strength": _num(0.0, 10.0), "influence": _num(0.05, 1.0)})),
        "sim": {"dt": dt, "t_max": draw(_num(2 * dt, 0.5)),
                "integrator": draw(st.sampled_from(["euler", "rk4"])),
                "v_eps": draw(st.none() | _num(1e-4, 1e-2)), "w_dead": draw(_num(0.1, 10.0)),
                "collision_tol": draw(_num(0.0, 1e-2))},
        "success": {"kind": draw(st.sampled_from(["converge", "horizon"])) if with_goal
                    else "horizon", "check": None},
    }


def _paths(d, path=()):
    """(path, value) of every entry of a nested dict/list, depth first."""
    items = d.items() if isinstance(d, dict) else enumerate(d)
    for key, value in items:
        yield path + (key,), value
        if isinstance(value, (dict, list)):
            yield from _paths(value, path + (key,))


def _leaves(d):
    """Paths to every number in a nested dict/list (bools excluded)."""
    return [p for p, v in _paths(d)
            if isinstance(v, (int, float)) and not isinstance(v, bool)]


def _with(d, path, value):
    """A deep copy of d with the entry at path replaced."""
    d = json.loads(json.dumps(d))
    inner = d
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    return d


def _get(d, path):
    for key in path:
        d = d[key]
    return d


@settings(derandomize=True, max_examples=40, deadline=None)
@given(scenario_dicts())
def test_valid_scenarios_round_trip(raw):
    spec = from_dict(raw)
    assert to_dict(spec) == raw
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.json"
        save(spec, path)
        assert load(path) == spec
    build_runtime(spec)   # valid all the way: the faults below are the only ones


# numbers for which a negative value means nothing (a size, a step, a gain)
_POSITIVE = {"radius", "ring_width", "r_target", "gain", "cruise", "dt", "t_max", "v_eps",
             "w_dead", "collision_tol", "delta", "kr", "kt", "strength", "influence", "grid_h"}


def _faults(raw):
    """Every single-fault variant of a valid scenario dict that a file can
    carry: each number made +inf or -inf, each size, step or gain made
    negative, each list or object replaced by a number, and each overlap the
    layout allows."""
    for path, value in _paths(raw):
        if isinstance(value, (dict, list)):
            yield _with(raw, path, 1)
    for path in _leaves(raw):
        yield _with(raw, path, math.inf)
        yield _with(raw, path, -math.inf)
        if path[-1] in _POSITIVE:
            yield _with(raw, path, -abs(_get(raw, path)) - 0.5)
    start = raw["agents"][0]["start"]
    yield _with(raw, ("workspace", "obstacles"), raw["workspace"]["obstacles"] + [
        {"kind": "ball", "center": start, "radius": 0.1}])
    yield _with(raw, ("workspace", "obstacles"), raw["workspace"]["obstacles"] + [
        {"kind": "box", "lo": start, "hi": [start[0] - 0.5, start[1] + 1.0]}])
    if len(raw["agents"]) > 1:
        yield _with(raw, ("agents", 1, "start"), [start[0] + 0.3, start[1]])
    goals = [k for k, a in enumerate(raw["agents"]) if a["goal"] is not None]
    if len(goals) > 1:
        yield _with(raw, ("agents", goals[1], "goal"), raw["agents"][goals[0]]["goal"])


@settings(derandomize=True, max_examples=8, deadline=None)
@given(scenario_dicts())
def test_every_single_fault_exits_five(raw):
    with tempfile.TemporaryDirectory() as tmp:
        for k, broken in enumerate(_faults(raw)):
            path = Path(tmp) / f"broken{k}.json"
            # 1e999 parses to infinity without passing json's parse_constant,
            # so it reaches the validators behind the parser
            path.write_text(json.dumps(broken).replace("Infinity", "1e999"))
            code = cli.main(["run", str(path), "--out", str(Path(tmp) / "out")])
            assert code == 5, broken


@settings(derandomize=True, max_examples=8, deadline=None)
@given(scenario_dicts())
def test_every_nan_is_a_config_error(raw):
    # a file cannot carry NaN (the loader rejects the literal), a dict can
    for path in _leaves(raw):
        with pytest.raises(ConfigError):
            engine.run(from_dict(_with(raw, path, math.nan)))
