"""The benchmark (`bench/child.py`) times the package by wrapping its entry
points by name. This test resolves every wrapped name without wrapping
anything, so a rename or a deletion fails here instead of in a traced
benchmark run."""

import importlib.util
import sys
from pathlib import Path

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
