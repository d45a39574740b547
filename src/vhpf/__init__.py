"""Deterministic multi-agent navigation with harmonic and circulating potential fields."""

from .controller import AgentController, goal_term, on_tick_sense
from .engine import (
    MetricsReport,
    SimConfig,
    TrajectoryLog,
    collision_audit,
    curvature_profile,
    detect_deadlock,
    run,
    step,
)
from .harmonic import (
    ScalarGridField,
    gradient_at,
    resolve_incremental,
    solve_dirichlet,
    value_at,
)
from .interaction import InteractionParams, ObstacleRepulsionParams, WeightProfile
from .scenarios import BUILTIN_NAMES, AgentSpec, GoalSpec, ScenarioSpec, builtin, load, save
from .world import (
    Ball,
    Box,
    ConfigError,
    Workspace,
    passage_width_audit,
    sense_obstacles,
    validate_scenario,
)

__version__ = "0.1.0"
