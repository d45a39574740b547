"""What each agent learns while it runs, its goal-seeking term and the
discovery loop.

`engine.Runtime.eval_controls` adds the pair forces and the wall cushion to
the goal term. Each agent's control uses only its own position, its own
discovered map, and the positions of agents inside its sensing ring. Nothing
reads another agent's goal or knowledge, which is what keeps the group
decentralized. The pair law, its weight profile and the cushion are the same
for every agent, so `engine.Runtime` holds them once for the group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import harmonic, interaction, world
from .world import ConfigError, Workspace

SPRING_GOAL = "spring"
CONSTANT_DRIFT = "drift"
HARMONIC_GOAL = "harmonic"
GOAL_KINDS = (SPRING_GOAL, CONSTANT_DRIFT, HARMONIC_GOAL)

RAW_DRIVE = "raw"
UNIT_DRIVE = "unit"
DRIVES = (RAW_DRIVE, UNIT_DRIVE)


@dataclass
class AgentController:
    """What one agent learns while it runs, next to its `scenarios.AgentSpec`:
    its goal field (harmonic control only), whose `known_mask` is the
    agent's map of the boundary cells, and its wall-cushion index over the
    cells it knows (None without one). An agent without a field never senses."""

    spec: object                           # scenarios.AgentSpec
    field: harmonic.ScalarGridField | None = None
    boundary_index: interaction.KnownBoundaryIndex | None = None

    def __post_init__(self):
        if self.spec.control.kind == HARMONIC_GOAL and self.field is None:
            raise ConfigError(f"agent {self.spec.id}: harmonic control needs a solved field")


def _length(v) -> float:
    """Euclidean length of a sequence of floats, its squares added left to
    right: the bits of `world.axis_norms` of the same row."""
    total = 0.0
    for a in v:
        total += a * a
    return math.sqrt(total)


def goal_term(ctrl: AgentController, x) -> list:
    """The harmonic goal term of the agent at position x (floats, or an
    array), from its spec's control settings and goal and its field, as a
    list of floats. `engine.Runtime` stacks the spring and drift terms
    itself."""
    spec, control = ctrl.spec, ctrl.spec.control
    if isinstance(x, np.ndarray):
        x = x.tolist()
    if control.drive == UNIT_DRIVE:
        # constant-speed descent cannot stop on its own: inside the target
        # zone (obstacle-free by validation) park with a terminal spring
        # whose magnitude matches the cruise speed at the zone boundary
        offset = [a - b for a, b in zip(spec.goal, x)]
        if _length(offset) <= spec.target_radius:
            k = control.cruise / spec.target_radius
            return [k * a for a in offset]
        g = harmonic.gradient_at(ctrl.field, x)
        n = _length(g)
        if n < 1e-12:
            return [0.0] * len(g)
        k = -control.cruise
        return [k * a / n for a in g]
    k = -control.gain
    return [k * a for a in harmonic.gradient_at(ctrl.field, x)]


def on_tick_sense(ctrl: AgentController, x, ws: Workspace, cushion: bool) -> int:
    """Sense from position x (floats, or an array) with the agent's ring;
    the sensed cells not yet in its map are new. On novelty, add them to the
    map and re-solve the field; with `cushion`, also rebuild its wall-cushion
    index over the grown map. Returns the number of new cells (0 = no
    event)."""
    if ctrl.spec.control.kind != HARMONIC_GOAL:
        raise ConfigError("discovery loop only applies to harmonic goal control")
    sensed = world.sense_obstacles(ctrl.spec, x, ws)
    if not len(sensed):
        return 0
    field = ctrl.field
    new = sensed[~field.known_mask[tuple(sensed.T)]]
    if not len(new):
        return 0
    harmonic.resolve_incremental(field, new)
    if cushion:
        ctrl.boundary_index = interaction.KnownBoundaryIndex(ws.grid, field.known_mask)
    return len(new)
