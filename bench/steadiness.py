"""Run-to-run spread of the end-to-end metrics, the way a regression gate sees it.

Runs `run.py` once per seed on each workload (untraced) and reports, per
metric, the median and the distance between the first and third quartile as
a share of the median, next to the metric's bound from BENCHMARK.json.

Usage (from the checkout root):
    python3 bench/steadiness.py --workloads lanes,crowd --seeds 1-5 [--out summary.json]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import environment  # noqa: E402


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """One invocation: (final JSON, recorded digests)."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-500:]}")
    digests = {}
    for line in lines:
        if line.strip().startswith("digests "):
            digests = json.loads(line.strip()[len("digests "):])
    return json.loads(lines[-1]), digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="discovery,crowd,lanes,sweep")
    parser.add_argument("--seeds", default="1-10", help="a range like 1-10 or a list like 3,5,8")
    parser.add_argument("--out", help="write medians, spreads and digests here (JSON)")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    seeds = parse_seeds(args.seeds)
    summary = {"env": environment(), "run_seconds": spec["run_seconds"]}
    ok = True
    for w in args.workloads.split(","):
        runs = []
        for seed in seeds:
            result, digests = run_once(w, seed, spec["run_seconds"])
            ok = ok and result["correct"] and result["failed"] == 0
            runs.append((seed, result, digests))
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()), flush=True)
        summary[w] = {"seeds": seeds, "metrics": {}, "digests": {str(s): d for s, _, d in runs}}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for _, r, _ in runs]
            s = spread(values)
            summary[w]["metrics"][m["name"]] = {
                "unit": m["unit"], "median": statistics.median(values), "spread": s,
                "bound": m["bound"], "values": values}
            flag = "" if s <= m["bound"] / 3 else ("  > bound/3" if s <= m["bound"] else "  > BOUND")
            print(f"  {w} {m['name']}: median {statistics.median(values):.6g} {m['unit']}, "
                  f"spread {s:.4f} (bound {m['bound']}){flag}", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(summary, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
