"""Per-agent controller state, the goal-seeking term and the discovery loop.

`engine.Runtime.eval_controls` adds the pair forces and the wall cushion to
the goal term. Each agent's control uses only its own position, its own
discovered map, and the positions of agents inside its sensing ring. Nothing
reads another agent's goal or knowledge, which is what keeps the group
decentralized. The pair law, its weight profile and the cushion are the same
for every agent, so `engine.Runtime` holds them once for the group.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import harmonic, interaction, world
from .world import AgentBody, ConfigError, KnowledgeMap, Workspace, require_finite

SPRING_GOAL = "spring"
CONSTANT_DRIFT = "drift"
HARMONIC_GOAL = "harmonic"
GOAL_KINDS = (SPRING_GOAL, CONSTANT_DRIFT, HARMONIC_GOAL)

RAW_DRIVE = "raw"
UNIT_DRIVE = "unit"


@dataclass
class AgentController:
    """Everything one agent needs to act: goal source, gains, private map and field."""

    agent_id: int
    goal_kind: str
    goal: np.ndarray | None = None
    gain: float = 1.0                      # spring stiffness, or harmonic gradient scale
    drift: np.ndarray | None = None
    drive: str = RAW_DRIVE                 # harmonic only: follow -grad raw or at unit speed
    cruise: float = 1.0                    # harmonic speed when drive == "unit"
    slow_radius: float = 0.0               # unit drive parks via a spring inside this radius
    field: harmonic.ScalarGridField | None = None
    knowledge: KnowledgeMap | None = None
    boundary_index: interaction.KnownBoundaryIndex | None = None
    cooperative: bool = True               # False: the agent's own pair-force sum is dropped

    def __post_init__(self):
        if self.goal_kind not in GOAL_KINDS:
            raise ConfigError(f"unknown goal-control kind {self.goal_kind!r}")
        require_finite(f"agent {self.agent_id} control", gain=self.gain, cruise=self.cruise,
                       drift=self.drift, slow_radius=self.slow_radius)
        if self.gain <= 0 or self.cruise <= 0:
            raise ConfigError(f"agent {self.agent_id} control: gain and cruise must be positive")
        if self.goal_kind == SPRING_GOAL and self.goal is None:
            raise ConfigError(f"agent {self.agent_id}: spring control needs a goal")
        if self.goal_kind == CONSTANT_DRIFT and self.drift is None:
            raise ConfigError("drift control needs a drift vector")
        if self.goal_kind == HARMONIC_GOAL and self.field is None:
            raise ConfigError("harmonic control needs a solved field")
        if self.drift is not None:
            self.drift = np.asarray(self.drift, float)
        if self.goal is not None:
            self.goal = np.asarray(self.goal, float)


def spring_term(gain, goal, x):
    """The spring goal term gain * (goal - x), for one agent or for stacked
    agents (gain (n, 1), goal and x (n, dim)) with the same bits per row."""
    return gain * (goal - x)


def goal_term(ctrl: AgentController, x) -> np.ndarray:
    """The goal-seeking component of the control at position x."""
    x = np.asarray(x, float)
    if ctrl.goal_kind == SPRING_GOAL:
        return spring_term(ctrl.gain, ctrl.goal, x)
    if ctrl.goal_kind == CONSTANT_DRIFT:
        return ctrl.drift.copy()
    if ctrl.drive == UNIT_DRIVE:
        if ctrl.slow_radius > 0 and ctrl.goal is not None:
            # constant-speed descent cannot stop on its own: inside the target
            # zone (obstacle-free by validation) park with a terminal spring
            # whose magnitude matches the cruise speed at the zone boundary
            offset = ctrl.goal - x
            if float(np.linalg.norm(offset)) <= ctrl.slow_radius:
                return (ctrl.cruise / ctrl.slow_radius) * offset
        g = harmonic.gradient_at(ctrl.field, x)
        n = np.linalg.norm(g)
        if n < 1e-12:
            return np.zeros_like(g)
        return -ctrl.cruise * g / n
    return -ctrl.gain * harmonic.gradient_at(ctrl.field, x)


def on_tick_sense(ctrl: AgentController, body: AgentBody, x, ws: Workspace,
                  cushion: bool) -> int:
    """Sense from position x, merge into the agent's map, and re-solve its
    field on novelty; with `cushion`, also rebuild its wall-cushion index
    over the grown map. Returns the number of new cells (0 = no event)."""
    if ctrl.goal_kind != HARMONIC_GOAL:
        raise ConfigError("discovery loop only applies to harmonic goal control")
    new = world.update_knowledge(ctrl.knowledge, world.sense_obstacles(body, x, ws))
    if not new:
        return 0
    harmonic.resolve_incremental(ctrl.field, new)
    if cushion:
        ctrl.boundary_index = interaction.KnownBoundaryIndex(ws.grid, ctrl.knowledge.cells)
    return len(new)
