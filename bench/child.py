"""One measured repetition: a single vhpf CLI call in a fresh process.

The parent (`run.py`) starts this file once per repetition, so every
repetition pays its own imports and first-touch costs and none inherits
another's heap. Timing happens at call boundaries from outside the program:
module functions and class methods of the package are replaced by timing
wrappers, which works because the package looks them up by attribute at call
time. Nothing inside the package changes.

Untraced, only the boundaries the end-to-end metrics need are wrapped
(`cli.main`, `scenarios.load`, `scenarios.build_runtime`, `engine.run`).
Traced (`--trace`), every public entry point of every layer is wrapped as
well and the spans are written to a file when the call returns.

Usage (from the checkout root):
    python3 bench/child.py --result r.json [--trace spans.npz] -- run case1 --out o/
    python3 bench/child.py --result r.json --probe SEED
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from array import array
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from vhpf import cli, controller, engine, harmonic, interaction, scenarios, svgplot, world  # noqa: E402

HOOK = "bench.hook"


class Tracer:
    """Spans in flat arrays: name id, parent index, start, end (perf_counter s).

    Spans stay in memory and are written out once, when the run ends. Counters
    recorded at the same boundaries live in `counts`. All spans of one file
    share the run id given at construction.
    """

    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, float] = {}
        self.sweeps_seen: dict[int, int] = {}   # id(field) -> iterations at last solve

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def spans(self, name: str) -> list[tuple[float, float]]:
        """(start, end) of every span with this name, in opening order."""
        nid = self._ids.get(name)
        return [(s, e) for n, s, e in zip(self.name, self.start, self.end) if n == nid]

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names, dtype=str), run_id=self.run_id,
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 counts=json.dumps(self.counts, sort_keys=True))


def wrap(tracer: Tracer, owner, attr: str, name: str, hook=None) -> None:
    """Replace owner.attr by a wrapper that records one span per call.

    `hook(tracer, args, kwargs, result)` records counters after the call. It
    runs inside its own `bench.hook` span, a sibling of the measured one, so
    its cost never lands in any layer's self time. An exception leaving the
    call is counted as `<name>.errors` and re-raised.
    """
    fn = getattr(owner, attr)
    nid = tracer.name_id(name)
    hook_id = tracer.name_id(HOOK)
    errors = name + ".errors"

    def timed(*args, **kwargs):
        i = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(i)
            tracer.add(errors, 1)
            raise
        tracer.close(i)
        if hook is not None:
            j = tracer.open(hook_id)
            hook(tracer, args, kwargs, result)
            tracer.close(j)
        return result

    setattr(owner, attr, timed)


# -- counter hooks -------------------------------------------------------------

def _run_hook(tr, args, kwargs, result):
    log, _ = result
    tr.add("engine.ticks", log.n_ticks)
    tr.add("engine.outcome." + str(log.outcome), 1)
    tr.add("engine.agents", len(log.agent_ids))


def _solve_hook(tr, args, kwargs, field):
    tr.add("harmonic.solve_sweeps", field.iterations)
    tr.sweeps_seen[id(field)] = field.iterations


def _resolve_hook(tr, args, kwargs, field):
    tr.add("harmonic.resolve_sweeps", field.iterations - tr.sweeps_seen.get(id(field), 0))
    tr.sweeps_seen[id(field)] = field.iterations


def _crf_hook(tr, args, kwargs, result):
    pos = np.asarray(args[0], float)
    radii = np.asarray(args[1], float)
    profile = args[3]
    n = len(pos)
    tr.add("interaction.crf_pair_slots", n * (n - 1))
    if n < 2:
        return
    dist = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)
    w = interaction.interaction_weights(dist, np.add.outer(radii, radii), profile)
    np.fill_diagonal(w, 0.0)
    reach = kwargs.get("reach")
    if reach is not None:
        w[dist > np.asarray(reach, float)[:, None] + radii[None, :]] = 0.0
    suppressed = kwargs.get("suppressed")
    if suppressed:
        w[list(suppressed)] = 0.0
    tr.add("interaction.crf_pairs_in_range", int(np.count_nonzero(w)))


def _cushion_hook(tr, args, kwargs, result):
    tr.add("interaction.cushion_points", len(args[0]))


def _sense_tick_hook(tr, args, kwargs, n_new):
    if n_new:
        tr.add("controller.discoveries", 1)


def _file_bytes(key, path_arg):
    def hook(tr, args, kwargs, result):
        tr.add(key, os.path.getsize(args[path_arg]))
    return hook


def install(tracer: Tracer, traced: bool) -> None:
    """Wrap the boundaries; with `traced`, every layer's entry points too."""
    wrap(tracer, scenarios, "load", "scenarios.load")
    wrap(tracer, scenarios, "build_runtime", "scenarios.build_runtime")
    wrap(tracer, engine, "run", "engine.run", _run_hook)
    if not traced:
        return
    wrap(tracer, harmonic, "solve_dirichlet", "harmonic.solve", _solve_hook)
    wrap(tracer, harmonic, "resolve_incremental", "harmonic.resolve", _resolve_hook)
    wrap(tracer, harmonic, "gradient_at", "harmonic.sample")
    wrap(tracer, harmonic, "value_at", "harmonic.sample")
    wrap(tracer, interaction, "crf_forces", "interaction.crf", _crf_hook)
    wrap(tracer, interaction, "repulsion_batch", "interaction.cushion", _cushion_hook)
    wrap(tracer, interaction.KnownBoundaryIndex, "__init__", "interaction.index_build")
    wrap(tracer, world, "sense_obstacles", "world.sense")
    wrap(tracer, world.Workspace, "obstacle_clearance", "world.clearance")
    wrap(tracer, world, "passage_width_audit", "world.audit")
    wrap(tracer, world, "validate_scenario", "world.validate")
    wrap(tracer, controller, "goal_term", "controller.goal")
    wrap(tracer, controller, "on_tick_sense", "controller.sense_tick", _sense_tick_hook)
    wrap(tracer, engine.Runtime, "eval_controls", "engine.eval")
    wrap(tracer, engine, "step", "engine.step")
    wrap(tracer, engine.Runtime, "sigma_activity", "engine.sigma")
    wrap(tracer, engine, "agent_potential", "engine.potential")
    wrap(tracer, engine.TrajectoryLog, "write_csv", "engine.write_csv",
         _file_bytes("engine.csv_bytes", 1))
    wrap(tracer, engine.TrajectoryLog, "write_events", "engine.write_events")
    wrap(tracer, engine.MetricsReport, "write_json", "engine.write_metrics")
    wrap(tracer, engine.TrajectoryLog, "agent_positions", "engine.agent_positions")
    wrap(tracer, svgplot, "render", "svgplot.render", _file_bytes("svgplot.svg_bytes", 5))


def measure(argv: list[str], traced: bool, run_id: int = 0):
    """Run `vhpf <argv>` once. Returns (result dict, tracer)."""
    tracer = Tracer(run_id)
    install(tracer, traced)
    main_id = tracer.name_id("cli.main")
    i = tracer.open(main_id)
    code = cli.main(argv)
    tracer.close(i)

    end = tracer.end[i]

    def total(name):
        return sum(e - s for s, e in tracer.spans(name))

    runs = tracer.spans("engine.run")
    return {
        "exit_code": code,
        "wall_s": end - tracer.start[i],
        "setup_s": total("scenarios.load") + total("scenarios.build_runtime"),
        # engine.run calls build_runtime itself, so every build lies inside a run
        "loop_s": total("engine.run") - total("scenarios.build_runtime"),
        "write_s": end - max(e for _, e in runs) if runs else 0.0,
        "ticks": int(tracer.counts.get("engine.ticks", 0)),
        "agents": int(tracer.counts.get("engine.agents", 0)),
        "outcomes": {k.split(".", 2)[2]: v for k, v in tracer.counts.items()
                     if k.startswith("engine.outcome.")},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, tracer


# -- scaling probes ------------------------------------------------------------

PROBE_SIZES = (2, 64, 256, 1024)
PROBE_CALLS = {2: 2000, 64: 200, 256: 20, 1024: 5}
AREA_PER_AGENT = 72.0   # the crowd workload's density


def probe(seed: int) -> dict:
    """Kernel timings the workloads do not cover: `crf_forces` at several
    agent counts on seeded uniform layouts at the crowd's density, and cold
    harmonic solves on the case7 grid (2-D) and an obstacle-free 48^3 grid."""
    rng = np.random.default_rng(seed)
    params = interaction.InteractionParams(kr=2.0, kt=1.0, mode=interaction.SPRING_MODE)
    profile = interaction.WeightProfile(kind=interaction.SPRING, delta=1.5)
    out = {}
    for n in PROBE_SIZES:
        side = (AREA_PER_AGENT * n) ** 0.5
        pos = rng.uniform(0.0, side, size=(n, 2))
        radii = np.ones(n)
        reach = radii + 1.5
        times = []
        for _ in range(PROBE_CALLS[n]):
            t0 = time.perf_counter()
            interaction.crf_forces(pos, radii, params, profile, reach=reach)
            times.append(time.perf_counter() - t0)
        out[f"interaction.crf_us_L{n}"] = float(np.median(times)) * 1e6

    case7 = scenarios.builtin("case7_unknown")
    grid2 = scenarios.build_workspace(case7).grid
    agent = case7.agents[0]
    t0 = time.perf_counter()
    field = harmonic.solve_dirichlet(grid2, set(), np.asarray(agent.goal, float),
                                     tol=1e-12, inflate=agent.radius)
    out["harmonic.cold_solve_s_2d"] = time.perf_counter() - t0
    out["harmonic.cold_solve_sweeps_2d"] = field.iterations

    grid3 = world.GridSpec((0.0, 0.0, 0.0), 1.0, (48, 48, 48))
    t0 = time.perf_counter()
    field = harmonic.solve_dirichlet(grid3, set(), np.array([24.5, 24.5, 24.5]), tol=1e-12)
    out["harmonic.cold_solve_s_3d"] = time.perf_counter() - t0
    out["harmonic.cold_solve_sweeps_3d"] = field.iterations
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description="one measured vhpf CLI call")
    parser.add_argument("--result", required=True, help="where to write the result JSON")
    parser.add_argument("--trace", help="record every layer and write the spans here (.npz)")
    parser.add_argument("--run-id", type=int, default=0)
    parser.add_argument("--probe", type=int, metavar="SEED",
                        help="run the scaling probes instead of a CLI call")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- then the vhpf arguments")
    args = parser.parse_args()
    if args.probe is not None:
        result = probe(args.probe)
    else:
        argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
        result, tracer = measure(argv, traced=bool(args.trace), run_id=args.run_id)
        if args.trace:
            tracer.save(args.trace)
    with open(args.result, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
