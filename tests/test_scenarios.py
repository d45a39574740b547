import dataclasses
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from helpers import scenario_dicts
from vhpf import cli, engine, scenarios
from vhpf.engine import SimConfig
from vhpf.interaction import EXPONENTIAL, SPRING_MODE, InteractionParams, WeightProfile
from vhpf.scenarios import (
    BUILTIN_NAMES,
    GoalSpec,
    SuccessSpec,
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
        assert validate_scenario(ws, spec_a.agents) == [], name


def test_case8_fails_passage_audit():
    spec = builtin("case8_tight")
    ws = build_workspace(spec)
    reaches = sorted((a.reach for a in spec.agents), reverse=True)
    report = passage_width_audit(ws, reaches[0] + reaches[1])
    assert report.any()
    assert report[ws.grid.point_to_cell((0.0, 0.0))]


def test_case7_audit_is_clean_between_the_blocks():
    spec = builtin("case7_unknown")
    ws = build_workspace(spec)
    reaches = sorted((a.reach for a in spec.agents), reverse=True)
    report = passage_width_audit(ws, reaches[0] + reaches[1])
    assert not report[ws.grid.point_to_cell((0.0, 0.0))]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
def test_roundtrip_through_file(tmp_path, name):
    spec = builtin(name)
    path = tmp_path / f"{name}.json"
    save(spec, path)
    assert load(path) == spec


def test_shipped_example_file_matches_builtin(tmp_path):
    path = Path(__file__).resolve().parent.parent / "docs" / "case1.json"
    assert load(path) == builtin("case1")
    save(builtin("case1"), tmp_path / "case1.json")
    assert (tmp_path / "case1.json").read_bytes() == path.read_bytes()


def test_loader_applies_defaults(tmp_path):
    # every optional key omitted: each record is the one built with no arguments
    raw = {
        "workspace": {"lo": [-5.0, -5.0], "hi": [5.0, 5.0]},
        "agents": [
            {"id": 1, "start": [-2.0, 0.0], "radius": 0.5, "control": {}, "goal": [2.0, 0.0]},
        ],
    }
    path = tmp_path / "minimal.json"
    path.write_text(json.dumps(raw))
    spec = load(path)
    assert spec.name == "scenario"
    assert spec.workspace.obstacles == () and spec.workspace.grid_h is None
    assert spec.crf == InteractionParams()
    assert spec.profile == WeightProfile()
    assert spec.obstacle_repulsion is None
    assert spec.sim == SimConfig()
    assert spec.success == SuccessSpec()
    assert spec.sim.integrator == "rk4"
    assert spec.sim.dt == 0.01
    assert spec.agents[0].control == GoalSpec()
    assert spec.agents[0].ring_width == spec.profile.delta
    assert spec.agents[0].r_target is None
    assert spec.agents[0].target_radius == spec.agents[0].radius
    assert spec.agents[0].cooperative and spec.agents[0].prior_knowledge == "none"


def test_loader_rejects_overlapping_targets(tmp_path, capsys):
    # the placement audit runs once, when the run starts
    raw = to_dict(builtin("case1"))
    raw["agents"][1]["goal"] = raw["agents"][0]["goal"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 5
    assert "conflicting targets" in capsys.readouterr().err


def test_loader_reports_json_errors_with_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "x",\n  "workspace": }\n')
    with pytest.raises(ConfigError, match="line 2"):
        load(path)


@pytest.mark.parametrize("content", [
    b'{"name": "\xff"}',
    b'{"sim": {"dt": 1' + b"0" * 5000 + b"}}",   # more digits than Python converts
], ids=["not_utf8", "too_many_digits"])
def test_loader_rejects_unreadable_files(tmp_path, content):
    path = tmp_path / "unreadable.json"
    path.write_bytes(content)
    with pytest.raises(ConfigError, match="unreadable.json"):
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


def test_success_check_needs_a_horizon_run():
    # a converge run would ignore the check, so asking for one is an error
    with pytest.raises(ConfigError, match="only to a horizon run"):
        SuccessSpec(kind="converge", check="groups_crossed")
    assert SuccessSpec(kind="horizon").check is None


# ---------------------------------------------------------------------------
# runtime assembly
# ---------------------------------------------------------------------------

def test_full_prior_knowledge_shares_boundary_index():
    rt = build_runtime(builtin("case5_lanes"))
    indexes = {id(c.boundary_index) for c in rt.controllers}
    assert len(indexes) == 1
    mask = rt.controllers[0].boundary_index.mask
    assert mask.any() and np.array_equal(mask, rt.ws.boundary_mask)


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
    assert not rt.controllers[0].field.known_mask.any()


# ---------------------------------------------------------------------------
# property tests of the file format
# ---------------------------------------------------------------------------

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
    negative, each list or object replaced by a number, each enum string
    replaced by an unknown one, each coordinate list one number longer or
    shorter, an empty agent list, a repeated agent id, and each overlap the
    layout allows; and the malformed entries: each object key misspelled, an
    unknown key in each object, each number written as a string, a float
    field given an integer too large for a double, a string `cooperative`, a
    non-integral id, and a control key that the agent's control kind does not
    read."""
    for path, value in _paths(raw):
        if isinstance(value, dict):
            yield _with(raw, path, {**value, "extra": 1})
            for key in value:
                yield _with(raw, path, {(k[:-1] if k == key else k): v for k, v in value.items()})
        if isinstance(value, (dict, list)):
            yield _with(raw, path, 1)
        if isinstance(value, str) and path != ("name",):
            yield _with(raw, path, value[:-1])   # a misspelling: "sprin", "horizo", "rk"
        if _is_coordinates(path, value):
            yield _with(raw, path, value + [0.5])
            yield _with(raw, path, value[:-1])
    yield _with(raw, ("success", "check"), "grops_crossed")
    yield {**raw, "extra": 1}
    for key in raw:
        yield {(k[:-1] if k == key else k): v for k, v in raw.items()}
    for path in _leaves(raw):
        yield _with(raw, path, math.inf)
        yield _with(raw, path, -math.inf)
        yield _with(raw, path, str(_get(raw, path)))
        if path[-1] != "id":
            yield _with(raw, path, 10**400)
        if path[-1] in _POSITIVE:
            yield _with(raw, path, -abs(_get(raw, path)) - 0.5)
    for k, a in enumerate(raw["agents"]):
        yield _with(raw, ("agents", k, "cooperative"), "no")
        yield _with(raw, ("agents", k, "id"), a["id"] + 0.5)
        unread = {"gain": 1.0} if a["control"]["kind"] == "drift" else {"velocity": [1.0, 0.0]}
        yield _with(raw, ("agents", k, "control"), {**a["control"], **unread})
    yield {**raw, "agents": []}
    start = raw["agents"][0]["start"]
    yield _with(raw, ("workspace", "obstacles"), raw["workspace"]["obstacles"] + [
        {"kind": "ball", "center": start, "radius": 0.1}])
    yield _with(raw, ("workspace", "obstacles"), raw["workspace"]["obstacles"] + [
        {"kind": "box", "lo": start, "hi": [start[0] - 0.5, start[1] + 1.0]}])
    if len(raw["agents"]) > 1:
        yield _with(raw, ("agents", 1, "start"), [start[0] + 0.3, start[1]])
        yield _with(raw, ("agents", 1, "id"), raw["agents"][0]["id"])
    goals = [k for k, a in enumerate(raw["agents"]) if a["goal"] is not None]
    if len(goals) > 1:
        yield _with(raw, ("agents", goals[1], "goal"), raw["agents"][goals[0]]["goal"])


def _is_coordinates(path, value):
    """A point or vector of the workspace's dimension: the circulation axis
    has three numbers in any workspace and counts only in 3-D."""
    return (isinstance(value, list) and value and path[-1] != "axis"
            and all(isinstance(v, (int, float)) for v in value))


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
