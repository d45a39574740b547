import json
import subprocess
import sys

import pytest

from vhpf import cli, scenarios


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


def _case1_file(tmp_path, edit):
    d = scenarios.to_dict(scenarios.builtin("case1"))
    edit(d)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(d))   # json writes NaN as the bare literal NaN
    return path


def test_nan_time_step_is_config_error(tmp_path):
    assert run_cli(["run", "case1", "--dt", "nan", "--out", str(tmp_path / "a")]) == 5
    path = _case1_file(tmp_path, lambda d: d["sim"].update(dt=float("nan")))
    assert run_cli(["run", str(path), "--out", str(tmp_path / "b")]) == 5


def test_nan_gain_never_reads_as_converged(tmp_path):
    path = _case1_file(tmp_path, lambda d: d["agents"][0]["control"].update(gain=float("nan")))
    code = run_cli(["run", str(path), "--tmax", "0.5", "--out", str(tmp_path / "out")])
    assert code == 5


SENTINEL = 123456.789


@pytest.mark.parametrize("edit", [
    lambda d: d["crf"].update(kr=SENTINEL),
    lambda d: d["agents"][0]["control"].update(gain=SENTINEL),
    lambda d: d["profile"].update(delta=SENTINEL),
], ids=["kr", "gain", "delta"])
def test_overflowing_number_is_config_error(tmp_path, edit):
    path = _case1_file(tmp_path, edit)
    # json parses 1e999 as infinity without calling parse_constant
    path.write_text(path.read_text().replace(repr(SENTINEL), "1e999"))
    assert run_cli(["run", str(path), "--tmax", "0.5", "--out", str(tmp_path / "out")]) == 5


def test_overflowing_state_exits_one(tmp_path):
    path = _case1_file(tmp_path, lambda d: d["agents"][0]["control"].update(gain=1e300))
    assert run_cli(["run", str(path), "--tmax", "0.5", "--out", str(tmp_path / "out")]) == 1


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
            obstacles=(scenarios.ShapeSpec("ball", center=(0.0, 5.0), radius=1.0),),
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
