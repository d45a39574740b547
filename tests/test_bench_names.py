"""The benchmark (`bench/child.py`) times the package by wrapping its entry
points by name. One test resolves every wrapped name without wrapping
anything, so a rename or a deletion fails here instead of in a traced
benchmark run; another runs one short traced repetition and the scaling
probe, so a hook that can no longer read its call fails here too."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

CHILD = Path(__file__).resolve().parent.parent / "bench" / "child.py"


def test_every_name_the_benchmark_wraps_resolves(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))   # child.py prepends src/
    spec = importlib.util.spec_from_file_location("bench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    resolved = []

    def resolve(tracer, owner, attr, name, hook=None):
        assert callable(getattr(owner, attr)), f"{owner.__name__}.{attr}"
        resolved.append(name)

    monkeypatch.setattr(child, "wrap", resolve)
    child.install(child.Tracer(0), True)
    assert "engine.run" in resolved and "svgplot.render" in resolved


def test_a_traced_repetition_and_the_probe_run_their_hooks(tmp_path):
    def child(*args):
        done = subprocess.run([sys.executable, str(CHILD), *args], cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    child("--result", "run.json", "--trace", "spans.npz", "--",
          "run", "case1", "--tmax", "2", "--out", "out")
    counts = json.loads(str(np.load(tmp_path / "spans.npz")["counts"]))
    assert not [k for k in counts if k.endswith(".errors")], counts
    assert counts["interaction.crf_pair_slots"] > 0
    assert counts["interaction.crf_pairs_in_range"] > 0
    # a run cut at the horizon times out
    assert json.loads((tmp_path / "run.json").read_text())["outcomes"] == {"timeout": 1}

    child("--result", "probe.json", "--probe", "1")
    probe = json.loads((tmp_path / "probe.json").read_text())
    assert all(probe[f"interaction.crf_us_L{n}"] > 0 for n in (2, 64, 256, 1024))
