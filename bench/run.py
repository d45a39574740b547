"""The vhpf benchmark: four workloads through the public CLI, checked and timed.

Each repetition is one `vhpf` CLI call in a fresh Python process
(`child.py`), with `VHPF_THREADS` unset, so no worker threads run. The
end-to-end metrics are medians over the repetitions that fit in `--seconds`.
With `--trace 1` one repetition runs with every layer wrapped, and the report
gives per-layer self times and counters, the scaling probes and the tracing
overhead instead.

Usage (from the checkout root):
    python3 bench/run.py --workload discovery --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all                   # every workload in turn

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it are for
people. Metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from importlib import metadata
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(BENCH))

import crowd  # noqa: E402

SWEEP_DELTAS = "0.5,1.0,1.5,2.0"
SWEEP_PROFILES = "linear,sin,exp"
SWEEP_ROWS = 12

# Why each workload exists is written down in bench/README.md.
WORKLOADS = {
    "discovery": {"argv": ["run", "case7_unknown"], "agents": 2, "runs": 1},
    "crowd": {"argv": ["run", "{scenario}", "--plot"], "agents": 64, "runs": 1},
    "lanes": {"argv": ["run", "case5_lanes"], "agents": 8, "runs": 1},
    "sweep": {"argv": ["sweep-delta", "case1", "--deltas", SWEEP_DELTAS,
                       "--profiles", SWEEP_PROFILES], "agents": 2, "runs": SWEEP_ROWS},
}

MIN_REPS = 3          # a median of three outvotes one disturbed repetition
STRETCH = 1.5         # ... but reaching MIN_REPS may overrun --seconds by at most half
RUN_LIMIT_S = 170.0   # one invocation must end well within 180 s


class BenchError(RuntimeError):
    """The benchmark cannot run here at all (no program, no spec)."""


# ---------------------------------------------------------------------------
# Environment and spec
# ---------------------------------------------------------------------------

def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg": [round(v, 2) for v in os.getloadavg()],
    }


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def count_rows(path: Path) -> int:
    """Data rows of a CSV with one header line."""
    with open(path, "rb") as f:
        return sum(block.count(b"\n") for block in iter(lambda: f.read(1 << 20), b"")) - 1


def check_rep(workload: str, result: dict, out: Path) -> tuple[list[str], dict]:
    """Problems found in one repetition's outputs, and the digests of its files."""
    want = WORKLOADS[workload]
    problems = []
    if result.get("exit_code") != 0:
        problems.append(f"exit code {result.get('exit_code')}")
    if result.get("outcomes") != {"converged": want["runs"]}:
        problems.append(f"outcomes {result.get('outcomes')}, want {want['runs']} converged")
    digests = {}
    if workload == "sweep":
        path = out / "sweep.csv"
        if not path.is_file():
            return problems + ["no sweep CSV"], digests
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        if lines[:1] != ["profile,delta,kappa_max"] or len(rows) != SWEEP_ROWS:
            problems.append(f"sweep CSV has {len(rows)} rows, want {SWEEP_ROWS}")
        elif not all(len(r) == 3 and math.isfinite(float(r[1])) and math.isfinite(float(r[2]))
                     for r in rows):
            problems.append("sweep CSV has a non-finite value")
        digests["sweep.csv"] = sha256(path)
        return problems, digests

    traj, metrics_path = out / "trajectory.csv", out / "metrics.json"
    if not (traj.is_file() and metrics_path.is_file()):
        return problems + ["trajectory.csv or metrics.json missing"], digests
    rows = count_rows(traj)
    if result.get("agents") != want["agents"] or rows != result.get("ticks", -1) * want["agents"]:
        problems.append(f"trajectory.csv has {rows} rows, want {result.get('ticks')} ticks "
                        f"x {want['agents']} agents (run had {result.get('agents')})")
    digests["trajectory.csv"] = sha256(traj)
    digests["metrics.json"] = sha256(metrics_path)
    if workload == "crowd":
        problems += check_svg(out / "trajectories.svg", want["agents"])
    return problems, digests


def check_svg(path: Path, tracks: int) -> list[str]:
    try:
        root = ET.parse(path).getroot()
    except (OSError, ET.ParseError) as exc:
        return [f"SVG not well-formed: {exc}"]
    ns = "{http://www.w3.org/2000/svg}"
    if root.tag != ns + "svg":
        return [f"SVG root is {root.tag}"]
    n = len(root.findall(ns + "polyline"))
    return [] if n == tracks else [f"SVG has {n} tracks, want {tracks}"]


def check_repeats(digests: list[dict]) -> list[str]:
    """Bit-identity across repetitions of one invocation."""
    if not digests:
        return ["no repetition produced outputs"]
    return [f"{name} differs between repetitions"
            for name in sorted(digests[0])
            if len({d.get(name) for d in digests}) != 1]


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

def self_times(parent, start, end):
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children are disjoint and nested inside
    their parent, and their summed durations are the covered part.
    """
    dur = np.asarray(end, float) - np.asarray(start, float)
    parent = np.asarray(parent, int)
    covered = np.zeros_like(dur)
    has = parent >= 0
    np.add.at(covered, parent[has], dur[has])
    return dur - covered


def span_table(path: Path) -> tuple[dict, dict]:
    """Per span name: calls, self time, inclusive time and slowest call; plus counters."""
    with np.load(path) as z:
        names = [str(n) for n in z["names"]]
        name, parent, start, end = z["name"], z["parent"], z["start"], z["end"]
        counts = json.loads(str(z["counts"]))
    own = self_times(parent, start, end)
    dur = end - start
    table = {}
    for nid, label in enumerate(names):
        sel = name == nid
        table[label] = {"calls": int(sel.sum()), "self_s": float(own[sel].sum()),
                        "total_s": float(dur[sel].sum()),
                        "max_s": float(dur[sel].max()) if sel.any() else 0.0}
    return table, counts


# metric -> span name whose summed self time it is
SELF_TIME = {
    "harmonic.solve_s": "harmonic.solve",
    "harmonic.resolve_s": "harmonic.resolve",
    "harmonic.sample_s": "harmonic.sample",
    "interaction.crf_s": "interaction.crf",
    "interaction.cushion_s": "interaction.cushion",
    "interaction.index_build_s": "interaction.index_build",
    "world.sense_s": "world.sense",
    "world.clearance_s": "world.clearance",
    "world.audit_s": "world.audit",
    "world.validate_s": "world.validate",
    "controller.goal_s": "controller.goal",
    "controller.sense_tick_s": "controller.sense_tick",
    "engine.eval_self_s": "engine.eval",
    "engine.step_self_s": "engine.step",
    "engine.sigma_s": "engine.sigma",
    "engine.potential_s": "engine.potential",
    "engine.loop_self_s": "engine.run",
    "engine.write_csv_s": "engine.write_csv",
    "engine.write_events_s": "engine.write_events",
    "engine.write_metrics_s": "engine.write_metrics",
    "engine.agent_positions_s": "engine.agent_positions",
    "svgplot.render_s": "svgplot.render",
    "scenarios.load_s": "scenarios.load",
    "scenarios.build_runtime_s": "scenarios.build_runtime",
    "cli.self_s": "cli.main",
    "trace.hook_s": "bench.hook",
}
# metric -> span name whose call count it is
CALLS = {
    "harmonic.resolves": "harmonic.resolve",
    "harmonic.samples": "harmonic.sample",
    "interaction.crf_calls": "interaction.crf",
    "interaction.index_builds": "interaction.index_build",
    "world.sense_calls": "world.sense",
    "controller.goal_calls": "controller.goal",
    "engine.evals": "engine.eval",
}
# counters recorded by the wrappers under the metric's own name
COUNTERS = (
    "harmonic.solve_sweeps", "harmonic.resolve_sweeps",
    "interaction.crf_pair_slots", "interaction.crf_pairs_in_range",
    "interaction.cushion_points", "controller.discoveries",
    "engine.ticks", "engine.csv_bytes", "svgplot.svg_bytes",
)


def layer_metrics(table: dict, counts: dict) -> dict:
    def row(span):
        return table.get(span, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "max_s": 0.0})

    out = {m: row(s)["self_s"] for m, s in SELF_TIME.items()}
    out.update({m: row(s)["calls"] for m, s in CALLS.items()})
    out.update({m: counts.get(m, 0) for m in COUNTERS})
    out["harmonic.resolve_max_s"] = row("harmonic.resolve")["max_s"]
    out["harmonic.solver_errors"] = (counts.get("harmonic.solve.errors", 0)
                                     + counts.get("harmonic.resolve.errors", 0))
    slots = out["interaction.crf_pair_slots"]
    out["interaction.crf_useful_ratio"] = out["interaction.crf_pairs_in_range"] / slots if slots else 0.0
    ticks = row("controller.sense_tick")["calls"]
    out["controller.discovery_ratio"] = out["controller.discoveries"] / ticks if ticks else 0.0
    out["trace.spans"] = sum(r["calls"] for r in table.values())
    return out


# ---------------------------------------------------------------------------
# Repetitions
# ---------------------------------------------------------------------------

def child_env() -> dict:
    return {k: v for k, v in os.environ.items() if k != "VHPF_THREADS"}


def run_child(args: list[str], result_path: Path, timeout: float) -> dict | None:
    """Start child.py, wait for it, and return its result (None if it failed)."""
    cmd = [sys.executable, str(BENCH / "child.py"), "--result", str(result_path)] + args
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=max(timeout, 5.0))
    except subprocess.TimeoutExpired:
        print(f"  child timed out after {timeout:.0f} s", flush=True)
        return None
    if proc.returncode != 0 or not result_path.is_file():
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-3:]
        print(f"  child exited {proc.returncode}: {' | '.join(tail)}", flush=True)
        return None
    with open(result_path, encoding="utf-8") as f:
        return json.load(f)


class Session:
    """One workload invocation: its work directory, repetitions and checks."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seconds = seconds
        self.t0 = time.perf_counter()
        self.dir = WORK / f"{workload}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.scenario = None
        if workload == "crowd":
            self.scenario = self.dir / f"crowd_seed{seed}.json"
            crowd.write(seed, self.scenario)
        self.reps: list[dict] = []        # untraced repetitions that passed
        self.digests: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.longest = 0.0

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def argv(self, out: Path) -> list[str]:
        argv = [a.replace("{scenario}", str(self.scenario)) for a in WORKLOADS[self.workload]["argv"]]
        if self.workload == "sweep":
            return argv + ["--out", str(out / "sweep.csv")]
        return argv + ["--out", str(out)]

    def rep(self, traced: bool = False) -> tuple[dict | None, dict]:
        """One checked repetition. Returns (child result or None, digests)."""
        k = self.attempted
        self.attempted += 1
        out = self.dir / f"rep{k}"
        out.mkdir()
        extra = ["--trace", str(self.dir / "spans.npz")] if traced else []
        started = time.perf_counter()
        result = run_child(extra + ["--run-id", str(k), "--"] + self.argv(out),
                           self.dir / f"rep{k}.json", RUN_LIMIT_S - self.elapsed())
        self.longest = max(self.longest, time.perf_counter() - started)
        digests = {}
        problems = ["child failed"] if result is None else []
        if result is not None:
            more, digests = check_rep(self.workload, result, out)
            problems += more
        shutil.rmtree(out, ignore_errors=True)
        if problems:
            self.failed += 1
            self.problems += [f"rep {k}: {p}" for p in problems]
            print(f"  rep {k} FAILED: {'; '.join(problems)}", flush=True)
            return None, digests
        tag = "traced" if traced else "rep"
        print(f"  {tag} {k}: wall_s={result['wall_s']:.4f} setup_s={result['setup_s']:.4f} "
              f"ticks={result['ticks']} write_s={result['write_s']:.4f} "
              f"rss={result['peak_rss_mb']:.1f}MB", flush=True)
        return result, digests

    def untraced(self) -> bool:
        result, digests = self.rep()
        if result is not None:
            self.reps.append(result)
            self.digests.append(digests)
        return result is not None

    def wants_more(self, min_reps: int) -> bool:
        """Another repetition, if it would end within --seconds (the longest so
        far predicts its length), or if fewer than min_reps passed and it would
        end within STRETCH times --seconds. Never one that could cross the
        hard limit of one invocation."""
        end = self.elapsed() + self.longest
        if end > RUN_LIMIT_S - 10.0:
            return False
        if end <= self.seconds:
            return True
        return len(self.reps) < min_reps and end <= STRETCH * self.seconds

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()   # only if empty: another invocation may still be using it


# Units of what one invocation measures. BENCHMARK.json gates all of these but
# write_s, whose short window is not steady enough on every workload (README).
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "tick_us": "us", "write_s": "s",
                    "peak_rss_mb": "MB"}


def end_to_end(reps: list[dict]) -> dict:
    med = statistics.median
    return {
        "wall_s": med(r["wall_s"] for r in reps),
        "setup_s": med(r["setup_s"] for r in reps),
        "tick_us": med(r["loop_s"] / r["ticks"] * 1e6 for r in reps),
        "write_s": med(r["write_s"] for r in reps),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in reps),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload invocation. Returns a summary with metrics and checks."""
    s = Session(workload, seed, seconds)
    try:
        traced_result, per_layer = None, {}
        # a failed repetition stops the invocation: the failure is the finding
        if s.untraced():
            if trace:
                traced_result, traced_digests = s.rep(traced=True)
                if traced_result is not None:
                    if traced_digests != s.digests[0]:
                        s.problems.append("traced outputs differ from untraced outputs")
                    per_layer = layer_metrics(*span_table(s.dir / "spans.npz"))
                    probes = run_child(["--probe", str(seed)], s.dir / "probe.json",
                                       RUN_LIMIT_S - s.elapsed())
                    if probes is None:
                        s.problems.append("scaling probes failed")
                    else:
                        per_layer.update(probes)
            # a traced invocation needs only the one untraced repetition it compares with
            while s.wants_more(1 if trace else MIN_REPS) and s.untraced():
                pass
        s.problems += check_repeats(s.digests)
        e2e = end_to_end(s.reps) if s.reps else {}
        if traced_result is not None and s.reps:
            base = e2e["wall_s"]
            per_layer["trace.overhead_s"] = traced_result["wall_s"] - base
            per_layer["trace.overhead_ratio"] = (traced_result["wall_s"] - base) / base
        return {
            "workload": workload, "seed": seed, "reps": len(s.reps),
            "attempted": s.attempted, "failed": s.failed,
            "correct": not s.problems,
            "problems": s.problems, "digests": s.digests[0] if s.digests else {},
            "end_to_end": e2e, "per_layer": per_layer, "elapsed_s": s.elapsed(),
        }
    finally:
        s.close()


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

def select(values: dict, specs: list[dict]) -> dict:
    """The metrics BENCHMARK.json names, with its units, in its order."""
    missing = [m["name"] for m in specs if m["name"] not in values]
    if missing:
        raise KeyError(f"benchmark did not measure {', '.join(missing)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}


def report(summary: dict, spec: dict, trace: bool) -> dict:
    w = summary["workload"]
    print(f"{w}: seed={summary['seed']} reps={summary['reps']} attempted={summary['attempted']} "
          f"failed={summary['failed']} elapsed={summary['elapsed_s']:.1f}s", flush=True)
    print(f"  error_rate {summary['failed'] / summary['attempted']:.4f} ratio")
    for p in summary["problems"]:
        print(f"  CHECK FAILED: {p}")
    print(f"  digests {json.dumps(summary['digests'], sort_keys=True)}")
    if not summary["correct"]:
        return {}
    if trace:
        metrics = select(summary["per_layer"], spec["per_layer"])
        shown = metrics
    else:
        metrics = select(summary["end_to_end"], spec["end_to_end"])
        shown = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                 for k, v in summary["end_to_end"].items()}
    for name, m in shown.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (ROOT / "src" / "vhpf" / "cli.py").is_file():
            raise BenchError(f"no vhpf source under {ROOT / 'src'}")
        spec = load_spec()
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    print("env " + json.dumps(environment(), sort_keys=True), flush=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for w in names:
        summary = measure(w, args.seed, seconds, bool(args.trace))
        got = report(summary, spec, bool(args.trace))
        prefix = f"{w}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in got.items()})
        correct = correct and summary["correct"]
        attempted += summary["attempted"]
        failed += summary["failed"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
