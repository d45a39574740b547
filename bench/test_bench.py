"""Tests of the benchmark's own logic: generator, span arithmetic, output checks.

Run from the checkout root: python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import child  # noqa: E402
import crowd  # noqa: E402
import run  # noqa: E402
from vhpf import scenarios  # noqa: E402


def test_crowd_same_seed_same_scenario(tmp_path):
    assert crowd.generate(7) == crowd.generate(7)
    assert crowd.generate(7) != crowd.generate(8)
    crowd.write(7, tmp_path / "a.json")
    crowd.write(7, tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_crowd_scenario_loads_and_records_its_seed(tmp_path):
    path = tmp_path / "crowd.json"
    crowd.write(11, path)
    spec = scenarios.load(path)
    assert spec.name == "crowd_seed11"
    assert len(spec.agents) == 64
    assert spec.obstacle_repulsion is None and not spec.workspace.obstacles


def test_self_times_on_a_synthetic_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7]
    parent = [-1, 0, 0, 2]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    np.testing.assert_allclose(run.self_times(parent, start, end), [3.0, 3.0, 3.0, 1.0])


def test_span_table_from_a_recorded_tracer(tmp_path):
    tr = child.Tracer()
    outer, inner = tr.name_id("outer"), tr.name_id("inner")
    i = tr.open(outer)
    for _ in range(3):
        j = tr.open(inner)
        time.sleep(0.001)
        tr.close(j)
    tr.close(i)
    tr.add("engine.ticks", 5)
    tr.save(tmp_path / "spans.npz")
    table, counts = run.span_table(tmp_path / "spans.npz")
    assert table["outer"]["calls"] == 1 and table["inner"]["calls"] == 3
    assert table["inner"]["self_s"] == pytest.approx(table["inner"]["total_s"])
    assert table["outer"]["self_s"] + table["inner"]["self_s"] == pytest.approx(table["outer"]["total_s"])
    assert counts == {"engine.ticks": 5}
    assert run.layer_metrics(table, counts)["engine.ticks"] == 5


def test_wrapper_counts_errors_and_keeps_results():
    class Owner:
        @staticmethod
        def ok(x):
            return x + 1

        @staticmethod
        def bad():
            raise ValueError("boom")

    tr = child.Tracer()
    child.wrap(tr, Owner, "ok", "layer.ok")
    child.wrap(tr, Owner, "bad", "layer.bad")
    assert Owner.ok(1) == 2
    with pytest.raises(ValueError):
        Owner.bad()
    assert tr.counts == {"layer.bad.errors": 1}
    assert len(tr.spans("layer.ok")) == 1 and tr.spans("layer.bad") != []


def _fake_run_outputs(out: Path, ticks: int, agents: int):
    out.mkdir()
    rows = "".join(f"{k * 0.01!r},{i},0.0,0.0,0.0,0.0,0.0\n"
                   for k in range(ticks) for i in range(agents))
    (out / "trajectory.csv").write_text("t,agent_id,x,y,ux,uy,sigma_activity\n" + rows)
    (out / "metrics.json").write_text(json.dumps({"min_pair_clearance": 1.0}))


def test_output_check_rejects_a_wrong_outcome(tmp_path):
    _fake_run_outputs(tmp_path / "o", ticks=4, agents=2)
    good = {"exit_code": 0, "outcomes": {"converged": 1}, "ticks": 4, "agents": 2}
    problems, digests = run.check_rep("discovery", good, tmp_path / "o")
    assert problems == [] and set(digests) == {"trajectory.csv", "metrics.json"}

    bad = dict(good, exit_code=2, outcomes={"deadlock": 1})
    problems, _ = run.check_rep("discovery", bad, tmp_path / "o")
    assert any("outcomes" in p for p in problems) and any("exit code" in p for p in problems)

    short = dict(good, ticks=5)
    problems, _ = run.check_rep("discovery", short, tmp_path / "o")
    assert any("rows" in p for p in problems)


def test_output_check_rejects_a_digest_mismatch():
    same = {"trajectory.csv": "aa", "metrics.json": "bb"}
    assert run.check_repeats([same, dict(same)]) == []
    problems = run.check_repeats([same, dict(same, **{"metrics.json": "cc"})])
    assert problems == ["metrics.json differs between repetitions"]


def test_sweep_check_rejects_non_finite_rows(tmp_path):
    out = tmp_path / "o"
    out.mkdir()
    rows = [f"linear,{d},1.5" for d in range(12)]
    (out / "sweep.csv").write_text("profile,delta,kappa_max\n" + "\n".join(rows) + "\n")
    result = {"exit_code": 0, "outcomes": {"converged": 12}}
    assert run.check_rep("sweep", result, out)[0] == []
    rows[3] = "linear,3,nan"
    (out / "sweep.csv").write_text("profile,delta,kappa_max\n" + "\n".join(rows) + "\n")
    assert run.check_rep("sweep", result, out)[0] == ["sweep CSV has a non-finite value"]


def test_svg_check(tmp_path):
    svg = tmp_path / "t.svg"
    svg.write_text('<svg xmlns="http://www.w3.org/2000/svg">'
                   + '<polyline points="0,0 1,1"/>' * 2 + "</svg>")
    assert run.check_svg(svg, 2) == []
    assert run.check_svg(svg, 3) == ["SVG has 2 tracks, want 3"]
    svg.write_text("<svg")
    assert run.check_svg(svg, 2)[0].startswith("SVG not well-formed")


def test_repetitions_stop_at_the_time_budget(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    s = run.Session("lanes", seed=1, seconds=28)
    s.longest = 12.0
    clock = {"t": 0.0}
    monkeypatch.setattr(s, "elapsed", lambda: clock["t"])
    s.reps = [{}]
    clock["t"] = 12.0
    assert s.wants_more(3)          # ends at 24 s, inside the budget
    s.reps = [{}, {}]
    clock["t"] = 24.0
    assert s.wants_more(3)          # ends at 36 s: over, but within 1.5 x 28 s for the third
    assert not s.wants_more(2)      # two already passed
    clock["t"] = 31.0
    assert not s.wants_more(3)      # would end at 43 s, past 1.5 x 28 s
    s.close()
    assert not (tmp_path / "work").exists()
