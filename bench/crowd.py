"""Seeded generator for the `crowd` workload's scenario file.

32 two-agent exchanges (64 agents) sit on a jittered 8 x 4 lattice in an open
arena, each with the physics of the builtin `case1`: spring goals, the
spring-mode pair force and RK4. Every exchange keeps case1's 8-unit swap
length; the seed only moves and turns the pairs, so the dynamics of an
isolated pair (and the run length) barely depend on it while the inputs do.
The lattice pitch leaves the pairs mostly out of each other's range, which is
what makes the pair layer's L^2 work mostly wasted.

Usage: python3 bench/crowd.py --seed 7 --out crowd.json
"""

from __future__ import annotations

import argparse
import json
import math
import random

COLUMNS = 8
ROWS = 4
PITCH_X = 13.0
PITCH_Y = 9.0
HALF_SWAP = 4.0          # case1: starts at -4 and +4 on the exchange axis
CENTER_JITTER = 0.6
ANGLE_JITTER = math.radians(25.0)
MARGIN = 3.0


def generate(seed: int) -> dict:
    """The scenario as a dict in the JSON scenario format. Same seed, same dict."""
    rng = random.Random(seed)
    width = COLUMNS * PITCH_X + 2 * MARGIN
    height = ROWS * PITCH_Y + 2 * MARGIN
    agents = []
    for row in range(ROWS):
        for col in range(COLUMNS):
            cx = -width / 2 + MARGIN + (col + 0.5) * PITCH_X + rng.uniform(-CENTER_JITTER, CENTER_JITTER)
            cy = -height / 2 + MARGIN + (row + 0.5) * PITCH_Y + rng.uniform(-CENTER_JITTER, CENTER_JITTER)
            angle = rng.uniform(-ANGLE_JITTER, ANGLE_JITTER)
            dx, dy = HALF_SWAP * math.cos(angle), HALF_SWAP * math.sin(angle)
            a = (round(cx - dx, 6), round(cy - dy, 6))
            b = (round(cx + dx, 6), round(cy + dy, 6))
            for start, goal in ((a, b), (b, a)):
                agents.append({
                    "id": len(agents) + 1,
                    "start": list(start),
                    "goal": list(goal),
                    "radius": 1.0,
                    "ring_width": 1.5,
                    "r_target": 1.0,
                    "control": {"kind": "spring", "gain": 0.4},
                })
    return {
        "name": f"crowd_seed{seed}",
        "workspace": {"lo": [-width / 2, -height / 2], "hi": [width / 2, height / 2],
                      "obstacles": [], "grid_h": 0.5},
        "agents": agents,
        "crf": {"kr": 2.0, "kt": 1.0, "mode": "spring", "circulation": "ccw"},
        "profile": {"kind": "spring", "delta": 1.5},
        "obstacle_repulsion": None,
        "sim": {"dt": 0.01, "t_max": 60.0, "integrator": "rk4"},
        "success": {"kind": "converge"},
    }


def write(seed: int, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(generate(seed), f, indent=1)
        f.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    write(args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
