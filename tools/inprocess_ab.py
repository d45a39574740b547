"""Interleaved A/B of two checkouts on one vhpf command: loop time, write time and peak RSS.

Each run is a fresh Python process that imports the package under
`<root>/src` and makes one `vhpf` CLI call (`cli.main`) with its own
`--out` in a temporary directory. It times every `engine.run` call of the
command and takes out the time of its `scenarios.build_runtime`
(rasterization, cold solves, cushion indexes), so what is left is the loops
of all the command's runs; a `sweep-delta` makes twelve of them. Its write
time runs from the last `engine.run` returning to `cli.main` returning, as
the benchmark's `write_s` does: the CSV, JSONL and JSON outputs and the
plot, or a sweep's CSV. The two sides alternate run by run, and the side
that goes first alternates round by round, so a slow spell of a shared host
falls on both.

    python3 tools/inprocess_ab.py ../parent . case7_unknown --rounds 12
    python3 tools/inprocess_ab.py ../parent . crowd.json --rounds 8
    python3 tools/inprocess_ab.py ../parent . --rounds 8 -- sweep-delta case1 \\
        --deltas 0.5,1.0,1.5,2.0 --profiles linear,sin,exp

A bare scenario (a builtin name or a scenario file) means `run SCENARIO`;
any other command follows `--`, without `--out`. The report is one line per
side: the per-tick time (µs, the summed loop time over the summed ticks) of
its fastest and median run, the number of rounds whose run it won, the
write time (s) of its fastest and median run, the peak resident set size of
its smallest and median run (MB, the process's `ru_maxrss` when the command
returns: imports, build, runs and writes), and the sha256 of the command's
exit code and of every file it wrote; each side's digest must be the same
in every run, and the two sides' digests agree exactly when the outputs are
byte-identical. The last line is a JSON object with the same numbers and
every run's µs per tick, write time and peak RSS. Exit code 0 when every
run of both sides gave the same digest, 1 when any differs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

# One run, in the child process: argv is the vhpf command line.
CHILD = r"""
import hashlib, json, resource, sys, tempfile, time
from pathlib import Path
from vhpf import cli, engine, scenarios

build, simulate = scenarios.build_runtime, engine.run
spent = {"build_s": 0.0, "loop_s": 0.0, "ticks": 0, "runs": 0, "ran": 0.0}

def timed_build(*args, **kwargs):
    t0 = time.perf_counter()
    try:
        return build(*args, **kwargs)
    finally:
        spent["build_s"] += time.perf_counter() - t0

def timed_run(*args, **kwargs):
    built = spent["build_s"]
    t0 = time.perf_counter()
    log, metrics = simulate(*args, **kwargs)
    spent["ran"] = time.perf_counter()
    spent["loop_s"] += spent["ran"] - t0 - (spent["build_s"] - built)
    spent["ticks"] += log.n_ticks
    spent["runs"] += 1
    return log, metrics

scenarios.build_runtime = timed_build
engine.run = timed_run
with tempfile.TemporaryDirectory() as work:
    code = cli.main(sys.argv[1:] + ["--out", str(Path(work) / "out")])
    write_s = time.perf_counter() - spent["ran"]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0   # before hashing
    h = hashlib.sha256(str(code).encode())
    for path in sorted(p for p in Path(work).rglob("*") if p.is_file()):
        h.update(path.relative_to(work).as_posix().encode())
        h.update(path.read_bytes())
print(json.dumps({"ticks": spent["ticks"], "runs": spent["runs"], "loop_s": spent["loop_s"],
                  "write_s": write_s, "digest": h.hexdigest(),
                  "peak_rss_mb": rss_mb}))
"""


def run_once(root: Path, command: list) -> dict:
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    out = subprocess.run([sys.executable, "-c", CHILD, *command], env=env,
                         check=True, capture_output=True, text=True)
    result = json.loads(out.stdout.splitlines()[-1])
    if not result["ticks"]:
        raise SystemExit(f"{root}: `vhpf {' '.join(command)}` ran no simulation")
    return result


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = None
    if "--" in argv:
        cut = argv.index("--")
        argv, command = argv[:cut], argv[cut + 1:]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="first checkout (its src/ is imported)")
    parser.add_argument("b", help="second checkout")
    parser.add_argument("scenario", nargs="?",
                        help="builtin scenario name or scenario file, for `run SCENARIO`")
    parser.add_argument("--rounds", type=int, default=8, help="runs per side (default 8)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if (args.scenario is None) == (command is None):
        parser.error("give either a scenario or a vhpf command after --")
    if command is None:
        command = ["run", args.scenario]
    if not command or "--out" in command:
        parser.error("the vhpf command must be given, without --out")
    sides = {"a": Path(args.a).resolve(), "b": Path(args.b).resolve()}
    runs = {"a": [], "b": []}
    for k in range(args.rounds):
        for side in ("a", "b") if k % 2 == 0 else ("b", "a"):
            runs[side].append(run_once(sides[side], command))
        a, b = (1e6 * runs[s][-1]["loop_s"] / runs[s][-1]["ticks"] for s in ("a", "b"))
        print(f"round {k + 1}: a {a:.1f} us/tick, b {b:.1f} us/tick", flush=True)

    report = {"command": command, "rounds": args.rounds}
    same = True
    for side, other in (("a", "b"), ("b", "a")):
        per_tick = [1e6 * r["loop_s"] / r["ticks"] for r in runs[side]]
        rss = [r["peak_rss_mb"] for r in runs[side]]
        write = [r["write_s"] for r in runs[side]]
        wins = sum(r["loop_s"] < o["loop_s"] for r, o in zip(runs[side], runs[other]))
        digests = {r["digest"] for r in runs[side]}
        same &= len(digests) == 1
        report[side] = {"root": str(sides[side]), "ticks": runs[side][0]["ticks"],
                        "runs": runs[side][0]["runs"],
                        "min_us_per_tick": round(min(per_tick), 1),
                        "median_us_per_tick": round(statistics.median(per_tick), 1),
                        "wins": wins, "us_per_tick": [round(v, 1) for v in per_tick],
                        "min_write_s": round(min(write), 4),
                        "median_write_s": round(statistics.median(write), 4),
                        "write_s": [round(v, 4) for v in write],
                        "min_peak_rss_mb": round(min(rss), 2),
                        "median_peak_rss_mb": round(statistics.median(rss), 2),
                        "peak_rss_mb": [round(v, 2) for v in rss],
                        "digest": sorted(digests)}
        print(f"{side}: {sides[side]}: min {min(per_tick):.1f}, "
              f"median {statistics.median(per_tick):.1f} us/tick over {report[side]['ticks']} "
              f"ticks in {report[side]['runs']} runs, won {wins} of {args.rounds}; "
              f"write min {min(write):.4f}, median {statistics.median(write):.4f} s; "
              f"peak RSS min {min(rss):.2f}, median {statistics.median(rss):.2f} MB; "
              f"outputs {', '.join(sorted(digests))}")
    report["same_outputs"] = same and report["a"]["digest"] == report["b"]["digest"]
    print(json.dumps(report))
    return 0 if report["same_outputs"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
