"""Interleaved A/B of two checkouts' `engine.run` on one scenario.

Each run is a fresh Python process that imports the package under
`<root>/src`, builds nothing but the scenario, and times one `engine.run`
call from outside; the time of its `scenarios.build_runtime` (rasterization,
cold solves, cushion indexes) is taken out, so what is left is the loop.
The two sides alternate run by run, and the side that goes first alternates
round by round, so a slow spell of a shared host falls on both.

    python3 tools/inprocess_ab.py ../parent . case7_unknown --rounds 12
    python3 tools/inprocess_ab.py ../parent . crowd.json --rounds 8

The scenario is a builtin name or a scenario file. The report is one line
per side: the per-tick time (µs) of its fastest and median run, the number
of rounds whose run it won, and the sha256 of its outputs (positions,
controls, events, outcome and metrics); each side's digest must be the same
in every run, and the two sides' digests agree exactly when the runs are
bit-identical. The last line is a JSON object with the same numbers and
every run's µs per tick. Exit code 0 when every run of both sides gave the
same digest, 1 when any differs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

# One run, in the child process: argv is the scenario.
CHILD = r"""
import hashlib, json, sys, time
from pathlib import Path
from vhpf import engine, scenarios

name = sys.argv[1]
spec = scenarios.load(name) if Path(name).is_file() else scenarios.builtin(name)
build = scenarios.build_runtime
built = [0.0]

def timed_build(*args, **kwargs):
    t0 = time.perf_counter()
    try:
        return build(*args, **kwargs)
    finally:
        built[0] += time.perf_counter() - t0

scenarios.build_runtime = timed_build
t0 = time.perf_counter()
log, metrics = engine.run(spec)
loop = time.perf_counter() - t0 - built[0]
h = hashlib.sha256()
h.update(log.position_array().tobytes())
h.update(log.control_array().tobytes())
h.update(json.dumps(log.events, sort_keys=True).encode())
h.update(str(log.outcome).encode())
h.update(json.dumps(metrics.to_dict(), sort_keys=True).encode())
print(json.dumps({"ticks": log.n_ticks, "loop_s": loop, "digest": h.hexdigest()}))
"""


def run_once(root: Path, scenario: str) -> dict:
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    out = subprocess.run([sys.executable, "-c", CHILD, scenario], env=env,
                         check=True, capture_output=True, text=True)
    return json.loads(out.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="first checkout (its src/ is imported)")
    parser.add_argument("b", help="second checkout")
    parser.add_argument("scenario", help="builtin scenario name or scenario file")
    parser.add_argument("--rounds", type=int, default=8, help="runs per side (default 8)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    scenario = str(Path(args.scenario).resolve()) if Path(args.scenario).is_file() else args.scenario
    sides = {"a": Path(args.a).resolve(), "b": Path(args.b).resolve()}
    runs = {"a": [], "b": []}
    for k in range(args.rounds):
        for side in ("a", "b") if k % 2 == 0 else ("b", "a"):
            runs[side].append(run_once(sides[side], scenario))
        a, b = (1e6 * runs[s][-1]["loop_s"] / runs[s][-1]["ticks"] for s in ("a", "b"))
        print(f"round {k + 1}: a {a:.1f} us/tick, b {b:.1f} us/tick", flush=True)

    report = {"scenario": args.scenario, "rounds": args.rounds}
    same = True
    for side, other in (("a", "b"), ("b", "a")):
        per_tick = [1e6 * r["loop_s"] / r["ticks"] for r in runs[side]]
        wins = sum(r["loop_s"] < o["loop_s"] for r, o in zip(runs[side], runs[other]))
        digests = {r["digest"] for r in runs[side]}
        same &= len(digests) == 1
        report[side] = {"root": str(sides[side]), "ticks": runs[side][0]["ticks"],
                        "min_us_per_tick": round(min(per_tick), 1),
                        "median_us_per_tick": round(statistics.median(per_tick), 1),
                        "wins": wins, "us_per_tick": [round(v, 1) for v in per_tick],
                        "digest": sorted(digests)}
        print(f"{side}: {sides[side]}: min {min(per_tick):.1f}, "
              f"median {statistics.median(per_tick):.1f} us/tick over {report[side]['ticks']} "
              f"ticks, won {wins} of {args.rounds}, outputs {', '.join(sorted(digests))}")
    report["same_outputs"] = same and report["a"]["digest"] == report["b"]["digest"]
    print(json.dumps(report))
    return 0 if report["same_outputs"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
