"""Command-line front end: run scenarios, sweep the action-zone width, plot runs.

Exit codes: 0 converged (or horizon success), 2 deadlock, 3 collision,
4 timeout, 5 configuration/validation error, 1 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import gc
import sys
from pathlib import Path

import numpy as np

from . import engine, scenarios, svgplot
from .world import ConfigError

# what the imports made lives as long as the process: spare it the cyclic
# collector's full passes, which would scan it again each time
gc.freeze()

EXIT_OK = 0
EXIT_IO = 1
EXIT_DEADLOCK = 2
EXIT_COLLISION = 3
EXIT_TIMEOUT = 4
EXIT_CONFIG = 5

_OUTCOME_CODES = {
    engine.CONVERGED: EXIT_OK,
    engine.DEADLOCK: EXIT_DEADLOCK,
    engine.COLLISION: EXIT_COLLISION,
    engine.TIMEOUT: EXIT_TIMEOUT,
}

_PROFILE_ALIASES = {"linear": "linear", "sin": "sinusoidal", "sinusoidal": "sinusoidal",
                    "exp": "exponential", "exponential": "exponential", "spring": "spring"}


def _parse(convert, text, where):
    """`convert(text)`; a value it cannot convert is a ConfigError naming it."""
    try:
        return convert(text)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}: {text!r} is not a valid value") from None


def _profile_kind(name: str) -> str:
    if name not in _PROFILE_ALIASES:
        raise ConfigError(f"--profiles: unknown profile {name!r}; "
                          f"choose one of {', '.join(sorted(_PROFILE_ALIASES))}")
    return _PROFILE_ALIASES[name]


def _resolve_scenario(ref: str) -> scenarios.ScenarioSpec:
    if ref in scenarios.BUILTIN_NAMES:
        return scenarios.builtin(ref)
    path = Path(ref)
    if path.exists():
        return scenarios.load(path)
    raise ConfigError(f"scenario {ref!r} is neither a builtin name nor an existing file")


def _apply_overrides(spec: scenarios.ScenarioSpec, args) -> scenarios.ScenarioSpec:
    sim = spec.sim
    sim_kwargs = {}
    if args.dt is not None:
        sim_kwargs["dt"] = args.dt
    if args.tmax is not None:
        sim_kwargs["t_max"] = args.tmax
    if args.integrator is not None:
        sim_kwargs["integrator"] = args.integrator
    if sim_kwargs:
        sim = dataclasses.replace(sim, **sim_kwargs)

    crf = spec.crf
    crf_kwargs = {}
    if args.kr is not None:
        crf_kwargs["kr"] = args.kr
    if args.kt is not None:
        crf_kwargs["kt"] = args.kt
    if getattr(args, "no_crf", False):
        crf_kwargs["kr"] = 0.0
        crf_kwargs["kt"] = 0.0
    if crf_kwargs:
        crf = dataclasses.replace(crf, **crf_kwargs)

    profile = spec.profile
    if args.profile is not None:
        profile = dataclasses.replace(profile, kind=_PROFILE_ALIASES[args.profile])

    workspace = spec.workspace
    if args.grid_h is not None:
        workspace = dataclasses.replace(workspace, grid_h=args.grid_h)

    repulsion = None if getattr(args, "no_uo", False) else spec.obstacle_repulsion
    spec = dataclasses.replace(spec, sim=sim, crf=crf, profile=profile,
                               workspace=workspace, obstacle_repulsion=repulsion)
    return spec if args.delta is None else _with_width(spec, args.delta)


def _with_width(spec, delta, **profile):
    """The spec with action-zone width `delta`, which is also every agent's
    sensing-ring width, and any other `profile` settings given."""
    return dataclasses.replace(
        spec,
        profile=dataclasses.replace(spec.profile, delta=delta, **profile),
        agents=tuple(dataclasses.replace(a, ring_width=delta) for a in spec.agents),
    )


def _write_outputs(spec, log, metrics, out_dir: Path, want_plot: bool):
    out_dir.mkdir(parents=True, exist_ok=True)
    traj = out_dir / "trajectory.csv"
    events = out_dir / "events.jsonl"
    metrics_path = out_dir / "metrics.json"
    log.write_csv(traj)
    log.write_events(events)
    metrics.write_json(metrics_path)
    svg = None
    if want_plot:
        svg = out_dir / "trajectories.svg"
        positions = log.positions
        _render(spec, {aid: positions[:, i, :] for i, aid in enumerate(log.agent_ids)}, svg)
    return traj, events, metrics_path, svg


def _render(spec, trajectories, out_path):
    """Draw the scenario's workspace, obstacles and agents with the given
    trajectories ({agent_id: (T, dim) array}) to an SVG file."""
    svgplot.render(spec.workspace.lo, spec.workspace.hi, spec.workspace.obstacles,
                   trajectories, spec.agents, out_path)


def cmd_run(args) -> int:
    spec = _apply_overrides(_resolve_scenario(args.scenario), args)
    log, metrics = engine.run(spec)
    out_dir = Path(args.out)
    _write_outputs(spec, log, metrics, out_dir, args.plot)
    for ev in log.events:
        if ev["kind"] == "audit_warning":
            print(f"warning: {ev['cells']} free cells too tight for a "
                  f"radius-{ev['radius']:g} conflict disc", file=sys.stderr)
    print(f"{spec.name}: outcome={log.outcome} t_end={log.times[-1]:.4g} "
          f"min_pair_clearance={metrics.min_pair_clearance:.4g}")
    return _OUTCOME_CODES[log.outcome]


def _sweep_one(spec, profile_kind, delta):
    log, metrics = engine.run(_with_width(spec, delta, kind=profile_kind))
    return profile_kind, delta, max(metrics.kappa_max.values())


def cmd_sweep_delta(args) -> int:
    spec = _apply_overrides(_resolve_scenario(args.scenario), args)
    if len(spec.agents) != 2:
        raise ConfigError("the width sweep needs a two-agent exchange scenario")
    deltas = [_parse(float, v, "--deltas") for v in args.deltas.split(",") if v.strip()]
    if not deltas:
        raise ConfigError("no widths given for the sweep")
    profiles = [_profile_kind(p.strip()) for p in args.profiles.split(",") if p.strip()]
    if not profiles:
        raise ConfigError("no profiles given for the sweep")
    rows = [_sweep_one(spec, p, d) for p in profiles for d in deltas]
    rows.sort(key=lambda r: (r[0], r[1]))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as f:
        f.write("profile,delta,kappa_max\n")
        for profile_kind, delta, kmax in rows:
            f.write(f"{profile_kind},{delta!r},{kmax!r}\n")
    print(f"sweep: {len(rows)} rows -> {out}")
    return EXIT_OK


def cmd_plot(args) -> int:
    spec = _resolve_scenario(args.scenario)
    path = Path(args.csv)
    if not path.exists():
        raise ConfigError(f"trajectory file {path} does not exist")
    trajectories: dict = {}
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.DictReader(f)
        cols = reader.fieldnames or []
        axes = ("x", "y", "z")[:len(spec.workspace.lo)]
        missing = [c for c in ("agent_id", *axes) if c not in cols]
        if missing:
            raise ConfigError(f"{path}: not a trajectory CSV of a {len(axes)}-D scenario "
                              f"(missing columns {', '.join(missing)})")
        for row in reader:
            where = f"{path}, line {reader.line_num}"
            aid = _parse(int, row["agent_id"], f"{where}, agent_id")
            point = [_parse(float, row[a], f"{where}, {a}") for a in axes]
            trajectories.setdefault(aid, []).append(point)
    _render(spec, {k: np.asarray(v) for k, v in trajectories.items()}, Path(args.out))
    print(f"plot -> {args.out}")
    return EXIT_OK


def _add_common_overrides(p):
    p.add_argument("--dt", type=float, default=None, help="integration step override")
    p.add_argument("--tmax", type=float, default=None, help="horizon override")
    p.add_argument("--integrator", choices=["euler", "rk4"], default=None)
    p.add_argument("--profile", choices=sorted(set(_PROFILE_ALIASES)), default=None,
                   help="interaction weight profile")
    p.add_argument("--kt", type=float, default=None, help="circulating gain override")
    p.add_argument("--kr", type=float, default=None, help="radial gain override")
    p.add_argument("--delta", type=float, default=None,
                   help="action-zone width (also sets the sensing-ring width)")
    p.add_argument("--no-crf", action="store_true", help="disable pair forces")
    p.add_argument("--no-uo", action="store_true", help="disable obstacle repulsion")
    p.add_argument("--grid-h", type=float, default=None, help="grid resolution override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vhpf",
        description="Deterministic multi-agent navigation simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario and write its outputs")
    p_run.add_argument("scenario", help="builtin name or scenario file path")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--plot", action="store_true", help="also write an SVG plot")
    _add_common_overrides(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep-delta", help="rerun a two-agent exchange over "
                                                 "profiles and action-zone widths")
    p_sweep.add_argument("scenario", help="builtin name or scenario file path")
    p_sweep.add_argument("--deltas", required=True, help="comma-separated widths")
    p_sweep.add_argument("--profiles", default="linear,sin,exp",
                         help="comma-separated profile kinds")
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    _add_common_overrides(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep_delta)

    p_plot = sub.add_parser("plot", help="render a trajectory CSV to SVG")
    p_plot.add_argument("csv", help="trajectory CSV written by `run`")
    p_plot.add_argument("--scenario", required=True,
                        help="scenario reference for workspace geometry")
    p_plot.add_argument("--out", required=True, help="output SVG path")
    p_plot.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except engine.SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
