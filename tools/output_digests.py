"""Digests of every output the vhpf CLI writes, for byte-identity checks.

Runs the CLI of the package under `<root>/src`, one fresh process per call:
- `run NAME --plot` for each builtin scenario;
- `run crowd_seedN.json --plot` for crowd seeds 1 and 2 (the scenario dicts
  of `bench/crowd.py`'s `generate`);
- `run FILE --plot` for the scenario files `docs/case1.json` and
  `case5_lanes.json`/`case7_unknown.json`, written by the checkout's own
  `scenarios.save`: boxes, drift, prior knowledge, harmonic control and a
  horizon check, all read through `scenarios.load`;
- `run case1_agent1.json --plot`, `case1` with its agent 1 only, written the
  same way: the single-agent path, where no pair clearance is measured;
- `sweep-delta case1` with the benchmark's deltas and profiles;
- `plot` of the `case5_lanes` and `case7_unknown` trajectory CSVs.

For each call it records the exit code, stdout and stderr with the work
directory replaced by `<work>`, and the sha256 of every file the call wrote.
Two checkouts produce the same outputs exactly when their JSON files are
equal, so comparing them is the whole byte-identity check:

    python3 tools/output_digests.py --out change.json
    python3 tools/output_digests.py --root ../parent --out parent.json
    python3 tools/output_digests.py --compare parent.json change.json

It takes a few minutes (the builtins run to their outcomes). `--pinned` runs
only the few-second set that `tests/digests.json` pins (see `pinned`) and
records the NumPy version next to it; a tier-1 test reruns that set and
compares:

    python3 tools/output_digests.py --pinned --out tests/digests.json

`--compare A B` runs nothing: it prints one line per call whose entry
differs between the two digest files, naming what moved (a call on one side
only, the exit code, stdout, stderr, and each written file whose digest
differs or that only one side wrote), and exits 1 when any entry differs, 0
when none does.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
WALLED = ("case5_lanes", "case7_unknown")   # plotted, and run from saved files
CROWD_SEEDS = (1, 2)


def _module(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _python(root: Path, code: str, *args: str) -> str:
    """The stdout of `code` run against the package under `<root>/src`."""
    out = subprocess.run([sys.executable, "-c", code, *args], env=_env(root), check=True,
                         capture_output=True, text=True)
    return out.stdout


def _builtin_names(root: Path) -> list[str]:
    return _python(root, "from vhpf.scenarios import BUILTIN_NAMES; "
                         "print(' '.join(BUILTIN_NAMES))").split()


def _save_builtin(root: Path, name: str, path: Path, agents: int | None = None) -> None:
    """Save builtin `name` to `path`, keeping only its first `agents` agents
    when given."""
    _python(root, "import dataclasses, sys; from vhpf import scenarios; "
                  "spec = scenarios.builtin(sys.argv[1]); "
                  "n = int(sys.argv[3]) if sys.argv[3] else None; "
                  "scenarios.save(dataclasses.replace(spec, agents=spec.agents[:n]), sys.argv[2])",
            name, str(path), "" if agents is None else str(agents))


def _env(root: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(root / "src")}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _call(root: Path, argv: list[str], out: Path) -> dict:
    """Run `vhpf <argv>` in the new directory `out`: its exit code, its
    output with the work directory hidden, and the digests of its files."""
    out.mkdir(parents=True)
    proc = subprocess.run([sys.executable, "-m", "vhpf.cli", *argv], env=_env(root),
                          cwd=out, capture_output=True, text=True)
    files = sorted(p for p in out.rglob("*") if p.is_file())
    return {
        "exit_code": proc.returncode,
        "stdout": proc.stdout.replace(str(out.parent), "<work>"),
        "stderr": proc.stderr.replace(str(out.parent), "<work>"),
        "files": {str(p.relative_to(out)): _sha256(p) for p in files},
    }


def _write_crowd(root: Path, work: Path, seed: int) -> Path:
    """Write crowd seed `seed` (`bench/crowd.py`'s `generate`) into `work`."""
    crowd = _module(root / "bench" / "crowd.py", "bench_crowd")
    scenario = work / f"crowd_seed{seed}.json"
    scenario.write_text(json.dumps(crowd.generate(seed), indent=1) + "\n", encoding="utf-8")
    return scenario


def pinned(root: Path, work: Path) -> dict:
    """The record of each call of the set `tests/digests.json` pins, each
    with `--out . --plot`. It takes a few seconds, and no run uses the
    exponential profile, whose trajectory moves with NumPy's CPU dispatch."""
    crowd = str(_write_crowd(root, work, 1))
    calls = {
        "run case1": ["run", "case1"],
        "run case4_malfunction": ["run", "case4_malfunction"],
        "run case7_unknown": ["run", "case7_unknown"],
        "run case5_lanes --tmax 20": ["run", "case5_lanes", "--tmax", "20"],
        "run crowd seed 1 --tmax 5": ["run", crowd, "--tmax", "5"],
    }
    return {label: _call(root, [*argv, "--out", ".", "--plot"], work / f"call{k}")
            for k, (label, argv) in enumerate(calls.items())}


def digests(root: Path, work: Path) -> dict:
    """Every call's record, keyed by a label of the call."""
    bench = _module(root / "bench" / "run.py", "bench_run")
    runs = {}

    def call(label, argv):
        print(label, flush=True)
        out = work / f"call{len(runs)}"
        runs[label] = _call(root, argv, out)
        return out

    dirs = {}
    for name in _builtin_names(root):
        dirs[name] = call(f"run {name}", ["run", name, "--out", ".", "--plot"])
    for seed in CROWD_SEEDS:
        call(f"run crowd seed {seed}", ["run", str(_write_crowd(root, work, seed)),
                                         "--out", ".", "--plot"])
    call("run docs/case1.json", ["run", str(root / "docs" / "case1.json"), "--out", ".", "--plot"])
    for name in WALLED:
        scenario = work / f"{name}.json"
        _save_builtin(root, name, scenario)
        call(f"run saved {name}", ["run", str(scenario), "--out", ".", "--plot"])
    scenario = work / "case1_agent1.json"
    _save_builtin(root, "case1", scenario, agents=1)
    call("run saved case1 agent 1", ["run", str(scenario), "--out", ".", "--plot"])
    call("sweep-delta case1", ["sweep-delta", "case1", "--deltas", bench.SWEEP_DELTAS,
                               "--profiles", bench.SWEEP_PROFILES, "--out", "sweep.csv"])
    for name in WALLED:
        call(f"plot {name}", ["plot", str(dirs[name] / "trajectory.csv"),
                              "--scenario", name, "--out", "plot.svg"])
    return runs


def differences(a: dict, b: dict) -> dict:
    """What differs per call label between two digest records: the labels
    that only one side has, and for the others the fields (and, under
    `files`, the file names) whose entries differ."""
    out = {}
    for label in sorted(a.keys() | b.keys()):
        if label not in b or label not in a:
            out[label] = ["only in " + ("first" if label in a else "second")]
            continue
        moved = [key for key in ("exit_code", "stdout", "stderr") if a[label][key] != b[label][key]]
        fa, fb = a[label]["files"], b[label]["files"]
        moved += [f"file {name}" for name in sorted(fa.keys() | fb.keys())
                  if fa.get(name) != fb.get(name)]
        if moved:
            out[label] = moved
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=str(HERE),
                        help="checkout whose src/ and bench/ to use (default: this one)")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", help="where to write the digests JSON")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"),
                      help="list the calls and files whose entries differ between two digest JSONs")
    parser.add_argument("--pinned", action="store_true",
                        help="with --out: run only the set tests/digests.json pins, "
                             "and record the NumPy version")
    args = parser.parse_args(argv)
    if args.pinned and args.compare:
        parser.error("--pinned writes a digest file: give it with --out")
    if args.compare:
        # a pinned file keeps its records under "runs"
        a, b = (json.loads(Path(path).read_text(encoding="utf-8")) for path in args.compare)
        moved = differences(a.get("runs", a), b.get("runs", b))
        for label, what in moved.items():
            print(f"{label}: {', '.join(what)}")
        return 1 if moved else 0
    root = Path(args.root).resolve()
    with tempfile.TemporaryDirectory() as tmp:
        if args.pinned:
            numpy = _python(root, "import numpy; print(numpy.__version__)").strip()
            record = {"numpy": numpy, "runs": pinned(root, Path(tmp))}
        else:
            record = digests(root, Path(tmp))
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
