"""Built-in simulation scenarios and the JSON scenario file format.

Each builtin pins every parameter of one canonical setup. A scenario file
holds the same records as JSON objects: their keys are the records' fields,
an omitted field takes the record's default, and an unknown key or a value of
the wrong JSON type is a `ConfigError`. The top-level keys are `name`,
`workspace`, `agents`, `crf`, `profile`, `obstacle_repulsion`, `sim` and
`success`.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import types
import typing
from dataclasses import MISSING, dataclass

import numpy as np

from . import controller as ctl
from . import harmonic, interaction
from .engine import Runtime, SimConfig
from .interaction import InteractionParams, ObstacleRepulsionParams, WeightProfile
from .world import Ball, Box, ConfigError, Shape, Workspace, require_finite

PRIOR_NONE = "none"
PRIOR_FULL = "full"


@dataclass(frozen=True)
class WorkspaceSpec:
    lo: tuple[float, ...]
    hi: tuple[float, ...]
    obstacles: tuple[Shape, ...] = ()
    grid_h: float | None = None


@dataclass(frozen=True)
class GoalSpec:
    """An agent's goal-seeking control: its kind, and the settings of that
    kind. `CONTROL_FIELDS` names the settings each kind reads."""

    kind: str = ctl.SPRING_GOAL     # "spring" | "drift" | "harmonic"
    gain: float = 1.0               # spring stiffness, or harmonic gradient scale
    velocity: tuple[float, ...] | None = None   # drift only: the constant control vector
    drive: str = ctl.RAW_DRIVE      # harmonic only: follow -grad raw or at unit speed
    cruise: float = 1.0             # harmonic speed when drive == "unit"

    def __post_init__(self):
        if self.kind not in ctl.GOAL_KINDS:
            raise ConfigError(f"unknown goal-control kind {self.kind!r}; "
                              f"choose one of {', '.join(ctl.GOAL_KINDS)}")
        if self.drive not in ctl.DRIVES:
            raise ConfigError(f"unknown harmonic drive {self.drive!r}; "
                              f"choose one of {', '.join(ctl.DRIVES)}")
        require_finite("control", gain=self.gain, cruise=self.cruise, velocity=self.velocity)
        if self.gain <= 0 or self.cruise <= 0:
            raise ConfigError("control: gain and cruise must be positive")
        if self.kind == ctl.CONSTANT_DRIFT and self.velocity is None:
            raise ConfigError("drift control needs a velocity")


@dataclass(frozen=True)
class AgentSpec:
    """One agent, from the scenario file to the tick: its body, its sensing
    ring, its goal and its control. The run loop owns the moving position.

    `r_target` None means the target zone has the body's radius;
    `target_radius` applies that rule.
    """

    id: int
    start: tuple[float, ...]
    radius: float
    ring_width: float
    control: GoalSpec
    goal: tuple[float, ...] | None = None
    r_target: float | None = None
    cooperative: bool = True       # False: the agent's own pair-force sum is dropped
    prior_knowledge: str = PRIOR_NONE

    def __post_init__(self):
        owner = f"agent {self.id}"
        require_finite(owner, start=self.start, radius=self.radius,
                       ring_width=self.ring_width, goal=self.goal, r_target=self.r_target)
        if self.radius <= 0:
            raise ConfigError(f"{owner}: body radius must be positive")
        if self.ring_width <= 0:
            raise ConfigError(f"{owner}: sensing-ring width must be positive")
        if self.goal is not None and self.target_radius < self.radius:
            raise ConfigError(f"{owner}: target-zone radius {self.r_target} "
                              "smaller than body radius")
        if self.goal is None and self.control.kind != ctl.CONSTANT_DRIFT:
            raise ConfigError(f"{owner}: {self.control.kind} control needs a goal")
        if self.prior_knowledge not in (PRIOR_NONE, PRIOR_FULL):
            raise ConfigError(f"{owner}: unknown prior_knowledge {self.prior_knowledge!r}")

    @property
    def reach(self):
        """Outer radius of the sensing ring."""
        return self.radius + self.ring_width

    @property
    def target_radius(self):
        """Radius of the target zone: `r_target`, or the body radius without one."""
        return self.radius if self.r_target is None else self.r_target


@dataclass(frozen=True)
class SuccessSpec:
    """How a run is judged. "converge" succeeds once every agent with a goal
    parks in its target zone. "horizon" runs to t_max and succeeds there if
    `check` holds; "groups_crossed" asks that the drift groups passed each
    other, and None asks nothing more than reaching t_max."""

    kind: str = "converge"  # "converge" | "horizon"
    check: str | None = None

    def __post_init__(self):
        if self.kind not in ("converge", "horizon"):
            raise ConfigError(f"unknown success kind {self.kind!r}; choose converge or horizon")
        if self.check not in (None, "groups_crossed"):
            raise ConfigError(f"unknown success check {self.check!r}; "
                              "choose groups_crossed or null")
        if self.check is not None and self.kind != "horizon":
            raise ConfigError("a success check applies only to a horizon run")


@dataclass(frozen=True, kw_only=True)
class ScenarioSpec:
    """A whole scenario. Only `workspace` and `agents` have no default."""

    name: str = "scenario"
    workspace: WorkspaceSpec
    agents: tuple[AgentSpec, ...]
    crf: InteractionParams = InteractionParams()
    profile: WeightProfile = WeightProfile()
    obstacle_repulsion: ObstacleRepulsionParams | None = None
    sim: SimConfig = dataclasses.field(default_factory=SimConfig)
    success: SuccessSpec = SuccessSpec()

    def __post_init__(self):
        if not self.agents:
            raise ConfigError("a scenario needs at least one agent")
        dim = len(self.workspace.lo)
        for a in self.agents:
            for what, point in (("start", a.start), ("goal", a.goal),
                                ("control velocity", a.control.velocity)):
                if point is not None and len(point) != dim:
                    raise ConfigError(f"agent {a.id}: {what} needs {dim} coordinates, "
                                      f"got {len(point)}")
        if dim == 3 and len(self.crf.axis) != 3:
            raise ConfigError(f"crf axis needs 3 coordinates, got {len(self.crf.axis)}")
        ids = [a.id for a in self.agents]
        if len(set(ids)) != len(ids):
            twice = sorted({i for i in ids if ids.count(i) > 1})
            raise ConfigError(f"agent ids must be unique; repeated: {twice}")
        if self.success.kind == "converge" and all(a.goal is None for a in self.agents):
            raise ConfigError("convergence needs at least one agent with a goal; "
                              "use a horizon success criterion for pure drift runs")


# ---------------------------------------------------------------------------
# Runtime assembly
# ---------------------------------------------------------------------------

def build_workspace(spec: ScenarioSpec) -> Workspace:
    h = spec.workspace.grid_h
    if h is None:
        h = min(a.radius for a in spec.agents) / 4.0
    return Workspace(spec.workspace.lo, spec.workspace.hi, spec.workspace.obstacles, h=h)


def build_runtime(spec: ScenarioSpec) -> Runtime:
    ws = build_workspace(spec)
    repulsion = spec.obstacle_repulsion
    walls = np.argwhere(ws.boundary_mask)
    shared_full_index = None
    controllers = []
    for a in spec.agents:
        full = a.prior_knowledge == PRIOR_FULL and len(walls) > 0
        field = None
        if a.control.kind == ctl.HARMONIC_GOAL:
            # tight tolerance: behind narrow passages the potential varies by
            # less than 1e-8, and the drive direction must outrank residual noise
            field = harmonic.solve_dirichlet(ws.grid, walls if full else (), a.goal,
                                             tol=1e-12, inflate=a.radius)
        index = None
        if repulsion is not None and full:
            # only agents with full prior knowledge start knowing cells; they share one index
            if shared_full_index is None:
                shared_full_index = interaction.KnownBoundaryIndex(ws.grid, ws.boundary_mask)
            index = shared_full_index
        controllers.append(ctl.AgentController(a, field, index))
    return Runtime(ws, controllers, spec.crf, spec.profile, repulsion,
                   spec.success, dataclasses.replace(spec.sim))


# ---------------------------------------------------------------------------
# Builtins
# ---------------------------------------------------------------------------

def _exchange_pair(profile_kind: str, name: str, dim: int = 2) -> ScenarioSpec:
    """Two agents swapping places along the first axis, goal springs plus pair
    forces, in a box of half-width 10 (the plane) or 6 (3-D)."""
    rest = (0.0,) * (dim - 1)
    half = 10.0 if dim == 2 else 6.0
    goal_control = GoalSpec(kind=ctl.SPRING_GOAL, gain=0.4)
    agents = (
        AgentSpec(1, (-4.0, *rest), 1.0, 1.5, goal_control, goal=(4.0, *rest), r_target=1.0),
        AgentSpec(2, (4.0, *rest), 1.0, 1.5, goal_control, goal=(-4.0, *rest), r_target=1.0),
    )
    return ScenarioSpec(
        name=name,
        workspace=WorkspaceSpec((-half,) * dim, (half,) * dim, grid_h=0.25),
        agents=agents,
        crf=InteractionParams(kr=2.0, kt=1.0, mode=interaction.SPRING_MODE),
        profile=WeightProfile(kind=profile_kind, delta=1.5, beta=0.05),
        obstacle_repulsion=None,
        sim=SimConfig(dt=0.01, t_max=60.0),
    )


def _case1():
    return _exchange_pair(interaction.SPRING, "case1")


def _case2_linear():
    return _exchange_pair(interaction.LINEAR, "case2_linear")


def _case2_sin():
    return _exchange_pair(interaction.SINUSOIDAL, "case2_sin")


def _case2_exp():
    return _exchange_pair(interaction.EXPONENTIAL, "case2_exp")


def _case3_3d():
    return _exchange_pair(interaction.SPRING, "case3_3d", dim=3)


def _triangle_vertices(side: float):
    r = side / math.sqrt(3.0)
    angles = (0.5 * math.pi, 0.5 * math.pi + 2 * math.pi / 3, 0.5 * math.pi + 4 * math.pi / 3)
    return [(r * math.cos(a), r * math.sin(a)) for a in angles]


def _case4(malfunction: bool):
    # three symmetric exchanges whose straight-line paths all cross at the centroid
    vertices = _triangle_vertices(8.0)
    goal_control = GoalSpec(kind=ctl.SPRING_GOAL, gain=0.4)
    agents = tuple(
        AgentSpec(i + 1, v, 1.0, 1.5, goal_control,
                  goal=(-v[0], -v[1]), r_target=1.0,
                  cooperative=not (malfunction and i == 1))
        for i, v in enumerate(vertices)
    )
    return ScenarioSpec(
        name="case4_malfunction" if malfunction else "case4",
        workspace=WorkspaceSpec((-8.0, -8.0), (8.0, 8.0), grid_h=0.25),
        agents=agents,
        crf=InteractionParams(kr=2.0, kt=1.0, mode=interaction.SPRING_MODE),
        profile=WeightProfile(kind=interaction.SPRING, delta=1.5),
        obstacle_repulsion=None,
        sim=SimConfig(dt=0.01, t_max=100.0),
    )


def _case5_lanes():
    # two groups of four drifting through each other between soft side rails
    starts = [(2.0, 1.3), (5.0, 1.3), (2.0, -1.3), (5.0, -1.3),
              (-2.0, 1.3), (-5.0, 1.3), (-2.0, -1.3), (-5.0, -1.3)]
    agents = []
    for i, s in enumerate(starts):
        vel = (-1.0, 0.0) if i < 4 else (1.0, 0.0)
        agents.append(AgentSpec(i + 1, s, 1.0, 0.2,
                                GoalSpec(kind=ctl.CONSTANT_DRIFT, velocity=vel),
                                prior_knowledge=PRIOR_FULL))
    rails = (
        Box((-30.0, 3.5), (30.0, 6.0)),
        Box((-30.0, -6.0), (30.0, -3.5)),
    )
    return ScenarioSpec(
        name="case5_lanes",
        workspace=WorkspaceSpec((-30.0, -6.0), (30.0, 6.0), obstacles=rails, grid_h=0.25),
        agents=tuple(agents),
        crf=InteractionParams(kr=20.0, kt=10.0, mode=interaction.SPRING_MODE),
        profile=WeightProfile(kind=interaction.SPRING, delta=0.2),
        obstacle_repulsion=ObstacleRepulsionParams(strength=60.0, influence=0.5),
        sim=SimConfig(dt=0.002, t_max=16.0, integrator="euler"),
        success=SuccessSpec(kind="horizon", check="groups_crossed"),
    )


def _case6(kt: float, name: str):
    # seven spring-held agents in a hex cluster; one traveler crossing the box
    ring = 3.0
    holders = [(ring * math.cos(k * math.pi / 3), ring * math.sin(k * math.pi / 3))
               for k in range(6)] + [(0.0, 0.0)]
    agents = [
        AgentSpec(i + 1, p, 1.0, 0.5, GoalSpec(kind=ctl.SPRING_GOAL, gain=2.0),
                  goal=p, r_target=1.0)
        for i, p in enumerate(holders)
    ]
    agents.append(AgentSpec(8, (-7.0, 0.0), 1.0, 0.5,
                            GoalSpec(kind=ctl.SPRING_GOAL, gain=0.4),
                            goal=(7.0, 0.0), r_target=1.0))
    return ScenarioSpec(
        name=name,
        workspace=WorkspaceSpec((-11.0, -7.0), (11.0, 7.0), grid_h=0.25),
        agents=tuple(agents),
        crf=InteractionParams(kr=6.0, kt=kt, mode=interaction.UNIT_MODE),
        profile=WeightProfile(kind=interaction.LINEAR, delta=0.5),
        obstacle_repulsion=None,
        sim=SimConfig(dt=0.01, t_max=120.0),
    )


def _room_walls(lo, hi, thickness):
    x0, y0 = lo
    x1, y1 = hi
    t = thickness
    return (
        Box((x0, y1 - t), (x1, y1)),
        Box((x0, y0), (x1, y0 + t)),
        Box((x0, y0), (x0 + t, y1)),
        Box((x1 - t, y0), (x1, y1)),
    )


def _case7_unknown():
    # a walled room with two blocks between swapped start/goal pairs; nothing
    # is known up front, so the goal fields grow as the walls are discovered
    obstacles = _room_walls((-10.0, -6.0), (10.0, 6.0), 0.5) + (
        Box((-4.0, -1.25), (-2.5, 1.25)),
        Box((2.5, -1.25), (4.0, 1.25)),
    )
    goal_control = GoalSpec(kind=ctl.HARMONIC_GOAL, drive=ctl.UNIT_DRIVE, cruise=0.8)
    agents = (
        AgentSpec(1, (-7.0, -0.6), 0.5, 0.5, goal_control, goal=(7.0, 0.6), r_target=0.5),
        AgentSpec(2, (7.0, 0.6), 0.5, 0.5, goal_control, goal=(-7.0, -0.6), r_target=0.5),
    )
    return ScenarioSpec(
        name="case7_unknown",
        workspace=WorkspaceSpec((-10.0, -6.0), (10.0, 6.0), obstacles=obstacles, grid_h=0.125),
        agents=agents,
        crf=InteractionParams(kr=2.0, kt=2.0, mode=interaction.UNIT_MODE),
        profile=WeightProfile(kind=interaction.LINEAR, delta=0.5),
        obstacle_repulsion=ObstacleRepulsionParams(strength=6.0, influence=0.25),
        sim=SimConfig(dt=0.01, t_max=200.0),
    )


def _case8_tight():
    # two rooms joined by a corridor too narrow for two bodies side by side:
    # a head-on meeting inside it has no room to circulate and jams
    obstacles = _room_walls((-10.0, -4.0), (10.0, 4.0), 0.5) + (
        Box((-1.0, 0.75), (1.0, 3.5)),
        Box((-1.0, -3.5), (1.0, -0.75)),
    )
    goal_control = GoalSpec(kind=ctl.HARMONIC_GOAL, drive=ctl.UNIT_DRIVE, cruise=0.8)
    agents = (
        AgentSpec(1, (-6.0, 0.0), 0.5, 0.5, goal_control, goal=(6.0, 0.0), r_target=0.5,
                  prior_knowledge=PRIOR_FULL),
        AgentSpec(2, (6.0, 0.0), 0.5, 0.5, goal_control, goal=(-6.0, 0.0), r_target=0.5,
                  prior_knowledge=PRIOR_FULL),
    )
    return ScenarioSpec(
        name="case8_tight",
        workspace=WorkspaceSpec((-10.0, -4.0), (10.0, 4.0), obstacles=obstacles, grid_h=0.125),
        agents=agents,
        crf=InteractionParams(kr=2.0, kt=2.0, mode=interaction.UNIT_MODE),
        profile=WeightProfile(kind=interaction.LINEAR, delta=0.5),
        obstacle_repulsion=ObstacleRepulsionParams(strength=6.0, influence=0.25),
        sim=SimConfig(dt=0.01, t_max=150.0),
    )


_BUILTINS = {
    "case1": _case1,
    "case2_linear": _case2_linear,
    "case2_sin": _case2_sin,
    "case2_exp": _case2_exp,
    "case3_3d": _case3_3d,
    "case4": lambda: _case4(False),
    "case4_malfunction": lambda: _case4(True),
    "case5_lanes": _case5_lanes,
    "case6_no_circulation": lambda: _case6(0.0, "case6_no_circulation"),
    "case6_circulation": lambda: _case6(3.0, "case6_circulation"),
    "case7_unknown": _case7_unknown,
    "case8_tight": _case8_tight,
}

BUILTIN_NAMES = tuple(sorted(_BUILTINS))


def builtin(name: str) -> ScenarioSpec:
    """A fully pinned built-in scenario. Two calls return equal specs."""
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise ConfigError(f"unknown scenario {name!r}; choose one of {', '.join(BUILTIN_NAMES)}")
    return factory()


# ---------------------------------------------------------------------------
# Serialization: the records' fields, types and defaults are the file format
# ---------------------------------------------------------------------------

# the keys each goal-control kind reads besides `kind`; a file carries only these
CONTROL_FIELDS = {
    ctl.SPRING_GOAL: ("gain",),
    ctl.CONSTANT_DRIFT: ("velocity",),
    ctl.HARMONIC_GOAL: ("drive", "cruise", "gain"),
}
_SHAPE_KINDS = {Box: "box", Ball: "ball"}
_TYPE_NAMES = {float: "a number", int: "an integer", bool: "true or false", str: "a string"}


@functools.cache
def _fields(cls):
    """The reader of each field of a record class by name, and the names of
    the fields without a default."""
    hints = typing.get_type_hints(cls)
    fields = dataclasses.fields(cls)
    return ({f.name: _reader(hints[f.name]) for f in fields},
            [f.name for f in fields if f.default is MISSING and f.default_factory is MISSING])


@functools.cache
def _reader(tp):
    """A function (raw, where) that reads the JSON value `raw`, found at path
    `where` of the file, as the annotated type `tp`."""
    if tp in _TYPE_NAMES:
        return functools.partial(_scalar, tp)
    if tp == Shape:
        return _shape
    if isinstance(tp, types.UnionType):   # X | None
        read = _reader(typing.get_args(tp)[0])
        return lambda raw, where: None if raw is None else read(raw, where)
    if typing.get_origin(tp) is tuple:    # tuple[X, ...]
        return functools.partial(_tuple, _reader(typing.get_args(tp)[0]))
    return functools.partial(_record, tp)


def _record(cls, raw, where):
    """A JSON object as a record of class `cls`: every key must be a field,
    and an omitted field takes the record's default."""
    owner = where or "scenario"
    if type(raw) is not dict:
        raise ConfigError(f"{owner}: expected an object, got {raw!r}")
    readers, required = _fields(cls)
    for key in raw:
        if key not in readers:
            raise ConfigError(f"{owner}: unknown key {key!r}")
    for name in required:
        if name not in raw:
            raise ConfigError(f"{owner}: missing key {name!r}")
    record = cls(**{k: readers[k](v, f"{where}.{k}" if where else k) for k, v in raw.items()})
    if cls is GoalSpec:
        extra = [k for k in raw if k != "kind" and k not in CONTROL_FIELDS[record.kind]]
        if extra:
            raise ConfigError(f"{where}: {record.kind} control does not read {extra[0]!r}")
    return record


def _shape(raw, where):
    """A JSON object tagged with its `kind` as a world.Box or world.Ball."""
    kind = raw.get("kind") if type(raw) is dict else None
    for cls, name in _SHAPE_KINDS.items():
        if kind == name:
            return _record(cls, {k: v for k, v in raw.items() if k != "kind"}, where)
    raise ConfigError(f"{where}: unknown kind {kind!r}; choose box or ball")


def _tuple(read, raw, where):
    if type(raw) is not list:
        raise ConfigError(f"{where}: expected a list, got {raw!r}")
    return tuple(read(v, f"{where}[{k}]") for k, v in enumerate(raw))


def _scalar(tp, raw, where):
    """A JSON scalar as a float, int, bool or str: integers become floats in
    float fields, and the others take only their own JSON type."""
    if tp is float and type(raw) is int:
        try:
            raw = float(raw)
        except OverflowError:
            raise ConfigError(f"{where}: integer too large for a number") from None
    if type(raw) is not tp:
        raise ConfigError(f"{where}: expected {_TYPE_NAMES[tp]}, got {raw!r}")
    return raw


def _plain(obj):
    """`obj` as JSON data: records become objects (a shape tagged with its
    kind, a goal control with only the keys its kind reads), tuples lists."""
    if isinstance(obj, tuple):
        return [_plain(v) for v in obj]
    if not dataclasses.is_dataclass(obj):
        return obj
    out = {"kind": _SHAPE_KINDS[type(obj)]} if type(obj) in _SHAPE_KINDS else {}
    names = (("kind", *CONTROL_FIELDS[obj.kind]) if isinstance(obj, GoalSpec)
             else [f.name for f in dataclasses.fields(obj)])
    out.update((name, _plain(getattr(obj, name))) for name in names)
    return out


def to_dict(spec: ScenarioSpec) -> dict:
    return _plain(spec)


def from_dict(d: dict) -> ScenarioSpec:
    """The spec of a scenario in the file format (docs/scenario_format.md)."""
    agents = d.get("agents") if type(d) is dict else None
    if type(agents) is list:
        # the one default no record owns: a sensing ring as wide as the annulus
        delta = _record(WeightProfile, d.get("profile", {}), "profile").delta
        d = {**d, "agents": [{"ring_width": delta, **a} if type(a) is dict else a
                             for a in agents]}
    return _record(ScenarioSpec, d, "")


def save(spec: ScenarioSpec, path):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(to_dict(spec), f, indent=2)
        f.write("\n")


def load(path) -> ScenarioSpec:
    """Parse a scenario file into a checked spec. The placement of the agents
    in the workspace is audited when the run starts (`engine.run`)."""
    def reject_constant(literal):
        # json accepts the bare literals NaN, Infinity and -Infinity
        raise ConfigError(f"{path}: non-finite number {literal} is not allowed")

    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f, parse_constant=reject_constant)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except ConfigError:
        raise
    except ValueError as exc:   # bytes that are not UTF-8, an integer of too many digits
        raise ConfigError(f"{path}: {exc}") from exc
    return from_dict(raw)
