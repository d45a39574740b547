import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import raising
from vhpf import cli, engine, harmonic, scenarios, world
from vhpf.world import Ball, ConfigError


def run_cli(args):
    return cli.main(args)


def test_run_case1_writes_bundle(tmp_path):
    out = tmp_path / "out"
    code = run_cli(["run", "case1", "--out", str(out)])
    assert code == 0
    csv_lines = (out / "trajectory.csv").read_text().splitlines()
    assert csv_lines[0] == "t,agent_id,x,y,ux,uy,sigma_activity"
    agent_ids = {line.split(",")[1] for line in csv_lines[1:]}
    assert agent_ids == {"1", "2"}
    assert (out / "events.jsonl").exists()
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["min_pair_clearance"] >= 0.0


def test_run_unknown_scenario_is_config_error(tmp_path):
    assert run_cli(["run", "nosuch", "--out", str(tmp_path)]) == 5


def test_run_outputs_are_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli(["run", "case1", "--out", str(out_a), "--plot"]) == 0
    assert run_cli(["run", "case1", "--out", str(out_b), "--plot"]) == 0
    for name in ("trajectory.csv", "events.jsonl", "metrics.json", "trajectories.svg"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_run_exit_codes_cover_outcomes(tmp_path):
    # circulation removed: symmetric stalemate -> deadlock
    assert run_cli(["run", "case1", "--kt", "0", "--tmax", "80",
                    "--out", str(tmp_path / "dead")]) == 2
    # pair forces removed entirely: agents ghost through -> collision flagged
    assert run_cli(["run", "case1", "--no-crf", "--tmax", "30",
                    "--out", str(tmp_path / "ghost")]) == 3
    # horizon too short -> timeout
    assert run_cli(["run", "case1", "--tmax", "0.5",
                    "--out", str(tmp_path / "slow")]) == 4


def test_run_accepts_scenario_file(tmp_path):
    path = tmp_path / "custom.json"
    scenarios.save(scenarios.builtin("case1"), path)
    assert run_cli(["run", str(path), "--out", str(tmp_path / "out")]) == 0


def _strict_json(text):
    """json.loads that refuses the non-standard NaN, Infinity and -Infinity."""
    def refuse(name):
        raise ValueError(f"not strict JSON: {name}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("agents", [2, 1], ids=["no-obstacles", "one-agent"])
def test_outputs_are_strict_json(tmp_path, capsys, agents):
    # a clearance that nothing measured is null: case1 has no obstacles, and
    # a lone agent has no pair; stdout prints the in-memory value, inf
    spec = scenarios.builtin("case1")
    path = tmp_path / "s.json"
    scenarios.save(dataclasses.replace(spec, agents=spec.agents[:agents]), path)
    out = tmp_path / "out"
    assert run_cli(["run", str(path), "--out", str(out)]) == 0
    metrics = _strict_json((out / "metrics.json").read_text())
    assert metrics["min_obstacle_clearance"] is None
    assert (metrics["min_pair_clearance"] is None) == (agents == 1)
    assert set(metrics["path_lengths"]) == {str(a.id) for a in spec.agents[:agents]}
    for line in (out / "events.jsonl").read_text().splitlines():
        _strict_json(line)
    assert ("min_pair_clearance=inf" in capsys.readouterr().out) == (agents == 1)


def _edited_file(tmp_path, edit, name="case1"):
    d = scenarios.to_dict(scenarios.builtin(name))
    edit(d)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(d))   # json writes NaN as the bare literal NaN
    return path


def test_nan_time_step_is_config_error(tmp_path):
    assert run_cli(["run", "case1", "--dt", "nan", "--out", str(tmp_path / "a")]) == 5
    path = _edited_file(tmp_path, lambda d: d["sim"].update(dt=float("nan")))
    assert run_cli(["run", str(path), "--out", str(tmp_path / "b")]) == 5


def test_nan_gain_never_reads_as_converged(tmp_path):
    path = _edited_file(tmp_path, lambda d: d["agents"][0]["control"].update(gain=float("nan")))
    code = run_cli(["run", str(path), "--tmax", "0.5", "--out", str(tmp_path / "out")])
    assert code == 5


def test_too_few_grid_cells_is_named(tmp_path, capsys):
    # 0.25 divides 0.5, but two cells are below the three-cell minimum per axis
    path = _edited_file(tmp_path, lambda d: d["workspace"].update(
        lo=[0.0, 0.0], hi=[0.5, 4.0], grid_h=0.25, obstacles=[]))
    assert run_cli(["run", str(path), "--out", str(tmp_path / "out")]) == 5
    err = capsys.readouterr().err
    assert "workspace extents (0.5, 4.0) must span at least 3 grid cells of 0.25 per axis" in err
    assert "evenly divide" not in err and "np.float64" not in err


SENTINEL = 123456.789


@pytest.mark.parametrize("edit", [
    lambda d: d["crf"].update(kr=SENTINEL),
    lambda d: d["agents"][0]["control"].update(gain=SENTINEL),
    lambda d: d["profile"].update(delta=SENTINEL),
    lambda d: d["workspace"].update(hi=[SENTINEL, 10.0]),
    lambda d: d["workspace"].update(obstacles=[{"kind": "box", "lo": [0.0, 5.0],
                                                "hi": [SENTINEL, 6.0]}]),
    lambda d: d["workspace"].update(obstacles=[{"kind": "ball", "center": [0.0, 5.0],
                                                "radius": SENTINEL}]),
], ids=["kr", "gain", "delta", "workspace-hi", "box-hi", "ball-radius"])
def test_overflowing_number_is_config_error(tmp_path, edit):
    path = _edited_file(tmp_path, edit)
    # json parses 1e999 as infinity without calling parse_constant
    path.write_text(path.read_text().replace(repr(SENTINEL), "1e999"))
    assert run_cli(["run", str(path), "--tmax", "0.5", "--out", str(tmp_path / "out")]) == 5


@pytest.mark.parametrize("name, edit, misspelled", [
    ("case1", lambda d: d["success"].update(kind="horizon", check="grops_crossed"),
     "grops_crossed"),
    ("case1", lambda d: d["success"].update(kind="converg"), "converg"),
    ("case7_unknown", lambda d: d["agents"][0]["control"].update(drive="unti"), "unti"),
], ids=["success-check", "success-kind", "drive"])
def test_misspelled_enum_value_is_config_error(tmp_path, capsys, name, edit, misspelled):
    # each once ran: a false "converged", a run to timeout, a silent raw drive
    path = _edited_file(tmp_path, edit, name)
    assert run_cli(["run", str(path), "--tmax", "0.5", "--out", str(tmp_path / "out")]) == 5
    assert repr(misspelled) in capsys.readouterr().err


@pytest.mark.parametrize("name, edit, message", [
    ("case1", lambda d: d["agents"][0].update(start=[-4.0, 0.0, 0.0]),
     "agent 1: start needs 2 coordinates, got 3"),
    ("case1", lambda d: d["agents"][0].update(start=[-4.0]),
     "agent 1: start needs 2 coordinates, got 1"),
    ("case1", lambda d: d["agents"][1].update(goal=[-4.0, 0.0, 0.0]),
     "agent 2: goal needs 2 coordinates, got 3"),
    ("case5_lanes", lambda d: d["agents"][0]["control"].update(velocity=[-1.0, 0.0, 0.0]),
     "agent 1: control velocity needs 2 coordinates, got 3"),
    ("case3_3d", lambda d: d["crf"].update(axis=[0.0, 1.0]),
     "crf axis needs 3 coordinates, got 2"),
    ("case1", lambda d: d["agents"][1].update(id=1), "agent ids must be unique; repeated: [1]"),
], ids=["start-3", "start-1", "goal-3", "velocity-3", "axis-2", "repeated-id"])
def test_coordinate_count_and_unique_ids_are_checked(tmp_path, capsys, name, edit, message):
    path = _edited_file(tmp_path, edit, name)
    assert run_cli(["run", str(path), "--tmax", "0.3", "--out", str(tmp_path / "out")]) == 5
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("fault", ["solver", "outside"])
def test_sense_phase_failure_exits_one(tmp_path, monkeypatch, capsys, fault):
    # a discovery at t=0 whose re-solve fails, or a sensor that finds its
    # agent outside the workspace: a failed run, not an invalid file
    if fault == "solver":
        monkeypatch.setattr(world, "sense_obstacles",
                            lambda agent, x, ws: np.argwhere(ws.boundary_mask)[:1])
        monkeypatch.setattr(harmonic, "resolve_incremental",
                            raising(harmonic.SolverError("no convergence")))
    else:
        monkeypatch.setattr(world, "sense_obstacles",
                            raising(ConfigError("agent 1 is outside the workspace")))
    out = tmp_path / "out"
    assert run_cli(["run", "case7_unknown", "--out", str(out)]) == 1
    assert "sensing failed at t=0" in capsys.readouterr().err
    assert not out.exists()


def test_overflowing_state_exits_one(tmp_path):
    path = _edited_file(tmp_path, lambda d: d["agents"][0]["control"].update(gain=1e300))
    assert run_cli(["run", str(path), "--tmax", "0.5", "--out", str(tmp_path / "out")]) == 1


@pytest.mark.parametrize("metric", ["path length", "potential trace"])
def test_overflowing_metric_exits_one(tmp_path, monkeypatch, capsys, metric):
    # the state stays finite but a metric overflows: a failed run, with no
    # traceback or warning, that writes nothing
    out = tmp_path / "out"
    args = ["run", "case1", "--tmax", "2", "--out", str(out)]
    if metric == "path length":     # positions reach 7.8e155: their squares overflow
        args += ["--kr", "1e160"]
    else:                           # two potentials whose sum overflows
        monkeypatch.setattr(engine.Runtime, "goal_potentials", lambda rt, x: [1e308, 1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(args) == 1
    assert capsys.readouterr().err == f"error: non-finite {metric} of agents [1, 2] at t=2\n"
    assert not out.exists()


def test_sweep_single_cell_matches_direct_run(tmp_path):
    out_csv = tmp_path / "sweep.csv"
    assert run_cli(["sweep-delta", "case1", "--deltas", "1.5",
                    "--profiles", "linear", "--out", str(out_csv)]) == 0
    rows = out_csv.read_text().splitlines()
    assert rows[0] == "profile,delta,kappa_max"
    profile, delta, kappa = rows[1].split(",")
    assert profile == "linear" and float(delta) == 1.5

    run_out = tmp_path / "direct"
    assert run_cli(["run", "case1", "--profile", "linear", "--delta", "1.5",
                    "--out", str(run_out)]) == 0
    metrics = json.loads((run_out / "metrics.json").read_text())
    assert float(kappa) == pytest.approx(max(metrics["kappa_max"].values()))


def test_sweep_rows_are_sorted(tmp_path):
    out_csv = tmp_path / "sweep.csv"
    assert run_cli(["sweep-delta", "case1", "--deltas", "2.0,1.0",
                    "--profiles", "sin,linear", "--out", str(out_csv)]) == 0
    rows = [r.split(",") for r in out_csv.read_text().splitlines()[1:]]
    keys = [(r[0], float(r[1])) for r in rows]
    assert keys == sorted(keys)


def test_sweep_empty_deltas_is_config_error(tmp_path):
    assert run_cli(["sweep-delta", "case1", "--deltas", "",
                    "--out", str(tmp_path / "sweep.csv")]) == 5


def test_sweep_requires_two_agents(tmp_path):
    assert run_cli(["sweep-delta", "case4", "--deltas", "1.5",
                    "--out", str(tmp_path / "s.csv")]) == 5


def test_plot_structural_checks(tmp_path):
    out = tmp_path / "out"
    assert run_cli(["run", "case1", "--out", str(out)]) == 0
    svg = tmp_path / "plot.svg"
    assert run_cli(["plot", str(out / "trajectory.csv"),
                    "--scenario", "case1", "--out", str(svg)]) == 0
    text = svg.read_text()
    assert text.count("<polyline") == 2
    assert "scale: 1 world unit" in text

    svg2 = tmp_path / "plot2.svg"
    assert run_cli(["plot", str(out / "trajectory.csv"),
                    "--scenario", "case1", "--out", str(svg2)]) == 0
    assert svg.read_bytes() == svg2.read_bytes()


def test_plot_header_only_csv_draws_workspace(tmp_path):
    csv_path = tmp_path / "empty.csv"
    csv_path.write_text("t,agent_id,x,y,ux,uy,sigma_activity\n")
    svg = tmp_path / "plot.svg"
    assert run_cli(["plot", str(csv_path), "--scenario", "case8_tight",
                    "--out", str(svg)]) == 0
    text = svg.read_text()
    assert "<polyline" not in text
    assert text.count("<rect") >= 3  # canvas + bounds + wall boxes


def test_run_grid_and_field_flags(tmp_path):
    assert run_cli(["run", "case1", "--grid-h", "0.5", "--no-uo",
                    "--out", str(tmp_path / "out")]) == 0


def test_plot_renders_ball_obstacles(tmp_path):
    import dataclasses

    spec = scenarios.builtin("case1")
    spec = dataclasses.replace(
        spec,
        workspace=dataclasses.replace(
            spec.workspace,
            obstacles=(Ball((0.0, 5.0), 1.0),),
        ),
    )
    path = tmp_path / "ball.json"
    scenarios.save(spec, path)
    csv_path = tmp_path / "empty.csv"
    csv_path.write_text("t,agent_id,x,y,ux,uy,sigma_activity\n")
    svg = tmp_path / "ball.svg"
    assert run_cli(["plot", str(csv_path), "--scenario", str(path),
                    "--out", str(svg)]) == 0
    assert '<circle cx="320.000" cy="184.000"' in svg.read_text()


def test_plot_malformed_csv_is_config_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("nope,nope\n1,2\n")
    assert run_cli(["plot", str(bad), "--scenario", "case1",
                    "--out", str(tmp_path / "x.svg")]) == 5


@pytest.mark.parametrize("flag, value", [
    ("--profiles", "bogus"),
    ("--deltas", "abc"),
], ids=["profile", "delta"])
def test_sweep_bad_list_value_is_config_error(tmp_path, capsys, flag, value):
    # the later of two copies of an option wins
    assert run_cli(["sweep-delta", "case1", "--deltas", "1.5", "--profiles", "linear",
                    flag, value, "--out", str(tmp_path / "s.csv")]) == 5
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}") and repr(value) in err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("text, named", [
    ("t,agent_id,x,y\n0.0,1,abc,0.0\n", "line 2, x: 'abc'"),
    ("t,agent_id,x,y\n0.0,one,1.0,0.0\n", "line 2, agent_id: 'one'"),
    ("t,agent_id,x\n0.0,1,1.0\n", "missing columns y"),
], ids=["x", "agent_id", "no-y-column"])
def test_plot_bad_csv_value_is_config_error(tmp_path, capsys, text, named):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    assert run_cli(["plot", str(bad), "--scenario", "case1",
                    "--out", str(tmp_path / "x.svg")]) == 5
    assert named in capsys.readouterr().err
    assert not (tmp_path / "x.svg").exists()


def test_run_io_failure_exits_one(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    assert run_cli(["run", "case1", "--out", str(blocker / "sub")]) == 1


def test_run_3d_scenario_with_plot(tmp_path):
    out = tmp_path / "out"
    assert run_cli(["run", "case3_3d", "--out", str(out), "--plot"]) == 0
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,agent_id,x,y,z,ux,uy,uz,sigma_activity"
    assert (out / "trajectories.svg").read_text().count("<polyline") == 2


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "vhpf.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "run" in proc.stdout and "sweep-delta" in proc.stdout


def _openblas_dynamic_arch() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return "DYNAMIC_ARCH" in str(blas.get("openblas configuration", ""))


def test_outputs_do_not_depend_on_the_blas_kernel(tmp_path):
    # no output's arithmetic goes through BLAS, so a child made to use
    # OpenBLAS's Haswell kernels (which fuse no multiply-adds in `ddot`)
    # writes the same bytes as one on the host's own kernel
    if not _openblas_dynamic_arch():
        pytest.skip("NumPy's BLAS is not an OpenBLAS DYNAMIC_ARCH build: OPENBLAS_CORETYPE "
                    "picks no other kernel, so this test would check nothing")
    src = Path(cli.__file__).resolve().parents[1]
    names = ("case1", "case2_exp", "case7_unknown")
    code = ("import sys\n"
            "from vhpf import cli\n"
            "for name in sys.argv[2:]:\n"
            "    cli.main(['run', name, '--out', sys.argv[1] + '/' + name])\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src),
                                                                      os.environ.get("PYTHONPATH")]))}
    env.pop("OPENBLAS_CORETYPE", None)
    for out, kernel in (("host", None), ("haswell", "Haswell")):
        child = env if kernel is None else {**env, "OPENBLAS_CORETYPE": kernel}
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / out), *names],
                              env=child, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    for name in names:
        for file in ("trajectory.csv", "metrics.json", "events.jsonl"):
            host = (tmp_path / "host" / name / file).read_bytes()
            assert host == (tmp_path / "haswell" / name / file).read_bytes(), (name, file)


def test_runs_import_no_scipy(tmp_path):
    # the package needs NumPy alone (SciPy serves the tests' oracles); a run
    # through walls, discoveries, re-solves and the wall cushion imports none
    src = Path(cli.__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "from vhpf import cli\n"
        "assert cli.main(['run', 'case1', '--out', sys.argv[1] + '/a']) == 0\n"
        "assert cli.main(['run', 'case7_unknown', '--tmax', '3', '--plot',"
        " '--out', sys.argv[1] + '/b']) == 4\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src),
                                                                      os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    events = (tmp_path / "b" / "events.jsonl").read_text()
    assert '"discovery"' in events and '"audit_warning"' in events
