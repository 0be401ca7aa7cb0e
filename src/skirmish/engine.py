"""Deterministic fixed-timestep combat engine.

Two teams of units fight on a rectangular arena.  One call to
:func:`step_world_arrays` advances the whole world by ``step_dt`` time
units under one command per unit, given as flat arrays: a code (0 stop,
1 move, 2 attack, 3 heal), a world-frame move direction and the global
index of the victim or patient.  Movement comes first, then the approach
leg of attack-move macros, then every ready attack resolved against the
state captured at the start of the step, then heals, cooldowns, shield
regeneration and the clock.  Because damage lands simultaneously, mutual
kills are possible and mirrored set-ups stay exactly mirrored.

The engine trusts its commands: :class:`~skirmish.env.BattleEnv` checks
every action against the agent's available-action mask before it builds
them, so a dead unit, an attack on an ally or a heal on an enemy or a
healer never reaches this module.

Positions are stored relative to the arena centre.  Point reflection of a
world is then plain negation of coordinates, which IEEE arithmetic carries
out exactly; that is what makes mirror-symmetric rollouts bit-reproducible.
Adding a world's ``(half_w, half_h)`` gives map coordinates, as replay
lines do.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np


class EngineError(ValueError):
    """Base class for combat-rule violations."""


class ArmorClass(enum.Enum):
    LIGHT = "light"
    ARMORED = "armored"


class Race(enum.Enum):
    TERRAN = "terran"
    PROTOSS = "protoss"


class Team(enum.IntEnum):
    RED = 0
    BLUE = 1

    @property
    def other(self) -> "Team":
        return Team.BLUE if self is Team.RED else Team.RED


class Outcome(enum.Enum):
    ONGOING = "ongoing"
    RED_WIN = "red_win"
    BLUE_WIN = "blue_win"
    DRAW = "draw"

    def is_win_for(self, team: Team) -> bool:
        return (self is Outcome.RED_WIN) if team is Team.RED else (self is Outcome.BLUE_WIN)

    def is_loss_for(self, team: Team) -> bool:
        return self.is_win_for(team.other)


@dataclass(frozen=True)
class UnitSpec:
    """Static combat parameters of one unit type."""

    spec_id: int
    name: str
    race: Race
    max_health: float
    max_shield: float
    attack_range: float
    sight_range: float
    base_damage: float | None
    bonus_vs: tuple[ArmorClass, float] | None
    attack_period: float | None
    move_speed: float
    armor_class: ArmorClass
    is_healer: bool = False
    heal_per_action: float = 0.0
    splash_radius: float = 0.0


# The built-in roster.  The medivac has no weapon; its listed move speed is
# shared with every other unit so mixed squads can advance together.
MARINE = UnitSpec(0, "marine", Race.TERRAN, 45.0, 0.0, 6.0, 9.0, 6.0, None, 0.86, 2.25, ArmorClass.LIGHT)
MARAUDER = UnitSpec(1, "marauder", Race.TERRAN, 125.0, 0.0, 6.0, 9.0, 10.0, (ArmorClass.ARMORED, 20.0), 1.5, 2.25, ArmorClass.ARMORED)
MEDIVAC = UnitSpec(2, "medivac", Race.TERRAN, 150.0, 0.0, 6.0, 9.0, None, None, None, 2.25, ArmorClass.ARMORED, is_healer=True, heal_per_action=7.0)
ZEALOT = UnitSpec(3, "zealot", Race.PROTOSS, 100.0, 50.0, 6.0, 9.0, 16.0, None, 1.2, 2.25, ArmorClass.LIGHT)
STALKER = UnitSpec(4, "stalker", Race.PROTOSS, 80.0, 80.0, 6.0, 9.0, 13.0, (ArmorClass.ARMORED, 18.0), 1.87, 2.25, ArmorClass.ARMORED)
COLOSSUS = UnitSpec(5, "colossus", Race.PROTOSS, 200.0, 150.0, 6.0, 9.0, 20.0, (ArmorClass.LIGHT, 30.0), 1.5, 2.25, ArmorClass.ARMORED, splash_radius=1.0)

CATALOG: dict[str, UnitSpec] = {
    s.name: s for s in (MARINE, MARAUDER, MEDIVAC, ZEALOT, STALKER, COLOSSUS)
}


@dataclass(frozen=True)
class EngineConfig:
    """Tunable mechanics shared by every scenario."""

    step_dt: float = 0.5
    shield_regen_delay: float = 10.0
    shield_regen_rate: float = 2.0

    def __post_init__(self) -> None:
        # A step of 0 runs battles in which nothing moves.
        if not 0 < self.step_dt < math.inf:
            raise EngineError(f"engine step_dt must be a finite number above 0, not {self.step_dt!r}")


@dataclass
class TeamEvents:
    damage_dealt: float = 0.0
    kills: int = 0
    damage_taken: float = 0.0
    deaths: int = 0
    heals: float = 0.0


@dataclass
class StepEvents:
    """What happened to each team during one engine step."""

    red: TeamEvents = field(default_factory=TeamEvents)
    blue: TeamEvents = field(default_factory=TeamEvents)

    def for_team(self, team: Team) -> TeamEvents:
        return self.red if team is Team.RED else self.blue


def _split_damage(health: float, shield: float, amount: float) -> tuple[float, float, float]:
    """Shield absorbs first; overflow reduces health, clamped at zero.

    Returns (new_health, new_shield, effective_amount).
    """
    shield_loss = shield if amount > shield else amount
    health_loss = amount - shield_loss
    if health_loss > health:
        health_loss = health
    return health - health_loss, shield - shield_loss, shield_loss + health_loss


@dataclass(frozen=True)
class SpecArrays:
    """Per-unit spec constants unpacked into flat arrays for the step loop."""

    max_health: np.ndarray
    max_shield: np.ndarray
    move_speed: np.ndarray
    attack_range: np.ndarray
    sight_range: np.ndarray
    base_damage: np.ndarray       # nan where unarmed
    bonus_damage: np.ndarray      # nan where no bonus
    bonus_class: np.ndarray       # armor-class ordinal, -1 where no bonus
    armor_class: np.ndarray
    attack_period: np.ndarray     # 0 where unarmed
    is_healer: np.ndarray
    heal_amount: np.ndarray
    splash_radius: np.ndarray
    has_shields: bool


_ARMOR_CODE = {ArmorClass.LIGHT: 0, ArmorClass.ARMORED: 1}


def _spec_arrays(specs: tuple[UnitSpec, ...]) -> SpecArrays:
    n = len(specs)
    out = SpecArrays(
        max_health=np.empty(n), max_shield=np.empty(n), move_speed=np.empty(n),
        attack_range=np.empty(n), sight_range=np.empty(n), base_damage=np.empty(n),
        bonus_damage=np.empty(n), bonus_class=np.empty(n, dtype=np.int64),
        armor_class=np.empty(n, dtype=np.int64), attack_period=np.empty(n),
        is_healer=np.empty(n, dtype=bool), heal_amount=np.empty(n), splash_radius=np.empty(n),
        has_shields=any(s.max_shield > 0 for s in specs),
    )
    for i, s in enumerate(specs):
        out.max_health[i] = s.max_health
        out.max_shield[i] = s.max_shield
        out.move_speed[i] = s.move_speed
        out.attack_range[i] = s.attack_range
        out.sight_range[i] = s.sight_range
        out.base_damage[i] = math.nan if s.base_damage is None else s.base_damage
        out.bonus_damage[i] = math.nan if s.bonus_vs is None else s.bonus_vs[1]
        out.bonus_class[i] = -1 if s.bonus_vs is None else _ARMOR_CODE[s.bonus_vs[0]]
        out.armor_class[i] = _ARMOR_CODE[s.armor_class]
        out.attack_period[i] = 0.0 if s.attack_period is None else s.attack_period
        out.is_healer[i] = s.is_healer
        out.heal_amount[i] = s.heal_per_action
        out.splash_radius[i] = s.splash_radius
    for value in vars(out).values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False  # worlds of one roster share these arrays
    return out


@dataclass
class WorldState:
    """Full simulation snapshot.

    Treated as immutable: :func:`step_world_arrays` returns a fresh value and
    never mutates its input, so snapshots can be kept, compared and shipped
    across contexts.  Coordinates are centre-origin; adding
    ``(half_w, half_h)`` restores map space.
    """

    config: EngineConfig
    specs: tuple[UnitSpec, ...]
    stats: SpecArrays
    team_of: np.ndarray           # int8, RED=0 / BLUE=1
    n_red: int
    pos_x: np.ndarray
    pos_y: np.ndarray
    health: np.ndarray
    shield: np.ndarray
    cooldown: np.ndarray
    alive: np.ndarray
    last_damaged: np.ndarray
    time: float
    step_count: int
    half_w: float
    half_h: float

    @property
    def n_units(self) -> int:
        return len(self.specs)

    def team_slice(self, team: Team) -> slice:
        return slice(0, self.n_red) if team is Team.RED else slice(self.n_red, self.n_units)


def new_world(
    members: list[tuple[UnitSpec, Team]],
    positions: list[tuple[float, float]],
    config: EngineConfig | None = None,
    *,
    arena: tuple[float, float],
    stats: SpecArrays | None = None,
) -> WorldState:
    """Build a world from (spec, team) pairs and map-coordinate positions.

    Red units must precede blue units; within a team, list order fixes the
    mirror-paired unit ids.  ``arena`` is the (width, height) of the map.
    ``stats`` reuses the read-only spec arrays of an earlier world with the
    same specs, in the same order, instead of building them again.
    """
    config = config or EngineConfig()
    if len(members) != len(positions):
        raise EngineError("one position per unit required")
    teams = [t for _, t in members]
    n_red = sum(1 for t in teams if t is Team.RED)
    if any(t is Team.BLUE for t in teams[:n_red]):
        raise EngineError("red units must precede blue units")
    specs = tuple(s for s, _ in members)
    n = len(specs)
    cx, cy = arena[0] / 2.0, arena[1] / 2.0
    world = WorldState(
        config=config,
        specs=specs,
        stats=_spec_arrays(specs) if stats is None else stats,
        team_of=np.array([int(t) for t in teams], dtype=np.int8),
        n_red=n_red,
        pos_x=np.array([p[0] - cx for p in positions]),
        pos_y=np.array([p[1] - cy for p in positions]),
        health=np.array([s.max_health for s in specs]),
        shield=np.array([s.max_shield for s in specs]),
        cooldown=np.zeros(n),
        alive=np.ones(n, dtype=bool),
        last_damaged=np.full(n, -math.inf),
        time=0.0,
        step_count=0,
        half_w=cx,
        half_h=cy,
    )
    out_x = np.abs(world.pos_x) > world.half_w
    out_y = np.abs(world.pos_y) > world.half_h
    if out_x.any() or out_y.any():
        raise EngineError("spawn position outside arena bounds")
    return world


def step_world_arrays(
    world: WorldState,
    kind: np.ndarray,
    dir_x: np.ndarray,
    dir_y: np.ndarray,
    target: np.ndarray,
) -> tuple[WorldState, StepEvents]:
    """Advance the world one step; returns the successor and what happened.

    ``kind[i]`` is unit ``i``'s command code (0 stop, 1 move, 2 attack,
    3 heal; dead units must stop), ``dir_x``/``dir_y`` its world-frame move
    direction and ``target[i]`` the global index of its victim (an enemy)
    or patient (an ally that is not a healer).  Resolution order:
    (1) movement, (2) attack-move approach for units out of range,
    (3) ready attacks decided against the start-of-step snapshot,
    (4) damage and heals applied together, (5) cooldowns, (6) shield
    regeneration, (7) clock.
    """
    stats = world.stats
    n = world.n_units
    dt = world.config.step_dt
    half_w, half_h, now = world.half_w, world.half_h, world.time
    # The loops run on Python floats, which are the same IEEE doubles as the
    # arrays' elements but far cheaper to read and write one at a time.
    kind, dir_x, dir_y, target, team_of = (a.tolist() for a in (kind, dir_x, dir_y, target, world.team_of))
    (move_speed, attack_range, max_health, base_damage, bonus_damage, bonus_class, armor_class, splash_radius,
     heal_amount, attack_period) = (a.tolist() for a in (
        stats.move_speed, stats.attack_range, stats.max_health, stats.base_damage, stats.bonus_damage,
        stats.bonus_class, stats.armor_class, stats.splash_radius, stats.heal_amount, stats.attack_period))
    # Every decision reads the start-of-step snapshot; the copies take the results.
    px0, py0, health0, shield0, cd0, alive0, last_damaged = (a.tolist() for a in (
        world.pos_x, world.pos_y, world.health, world.shield, world.cooldown, world.alive, world.last_damaged))
    px = px0.copy()
    py = py0.copy()
    health = health0.copy()
    shield = shield0.copy()
    cooldown = [0.0] * n
    alive = alive0.copy()
    incoming = [0.0] * n
    fired = [False] * n
    heal_target = [-1] * n

    for i in range(n):
        k = kind[i]
        if k == 0:
            continue
        if k == 1:
            step_len = move_speed[i] * dt
            nx = px0[i] + dir_x[i] * step_len
            ny = py0[i] + dir_y[i] * step_len
            px[i] = min(half_w, max(-half_w, nx))
            py[i] = min(half_h, max(-half_h, ny))
            continue
        t = target[i]
        if not alive0[t]:
            continue  # macro dissolves to stop
        dx = px0[t] - px0[i]
        dy = py0[t] - py0[i]
        dist = math.sqrt(dx * dx + dy * dy)
        if dist > attack_range[i]:
            step_len = move_speed[i] * dt
            if dist <= step_len:
                nx, ny = px0[t], py0[t]
            else:
                nx = px0[i] + dx / dist * step_len
                ny = py0[i] + dy / dist * step_len
            px[i] = min(half_w, max(-half_w, nx))
            py[i] = min(half_h, max(-half_h, ny))
        elif k == 2:
            if cd0[i] <= 0.0:
                fired[i] = True
                dmg = bonus_damage[i] if bonus_class[i] == armor_class[t] else base_damage[i]
                radius = splash_radius[i]
                if radius > 0.0:
                    for j in range(n):
                        if alive0[j] and team_of[j] != team_of[i]:
                            ddx = px0[j] - px0[t]
                            ddy = py0[j] - py0[t]
                            if math.sqrt(ddx * ddx + ddy * ddy) <= radius:
                                incoming[j] += dmg
                else:
                    incoming[t] += dmg
        else:
            heal_target[i] = t

    tallies = (TeamEvents(), TeamEvents())  # indexed by team
    for j in range(n):
        amount = incoming[j]
        if amount <= 0.0:
            continue
        h, s, effective = _split_damage(health0[j], shield0[j], amount)
        health[j] = h
        shield[j] = s
        last_damaged[j] = now
        victim, attacker = tallies[team_of[j]], tallies[1 - team_of[j]]
        attacker.damage_dealt += effective
        victim.damage_taken += effective
        if h <= 0.0:
            alive[j] = False
            attacker.kills += 1
            victim.deaths += 1

    for i in range(n):
        t = heal_target[i]
        if t < 0 or not alive[t]:
            continue
        healed = min(max_health[t] - health[t], heal_amount[i])
        if healed > 0.0:
            health[t] += healed
            tallies[team_of[i]].heals += healed

    for i in range(n):
        if fired[i]:
            cooldown[i] = attack_period[i]
        else:
            c = cd0[i] - dt
            cooldown[i] = c if c > 0.0 else 0.0

    if stats.has_shields:
        max_shield = stats.max_shield.tolist()
        gain = world.config.shield_regen_rate * dt
        delay = world.config.shield_regen_delay
        for i in range(n):
            if alive[i] and max_shield[i] > 0.0 and now - last_damaged[i] >= delay:
                shield[i] = min(max_shield[i], shield[i] + gain)

    nxt = WorldState(
        config=world.config,
        specs=world.specs,
        stats=stats,
        team_of=world.team_of,
        n_red=world.n_red,
        pos_x=np.array(px),
        pos_y=np.array(py),
        health=np.array(health),
        shield=np.array(shield),
        cooldown=np.array(cooldown),
        alive=np.array(alive),
        last_damaged=np.array(last_damaged),
        time=now + dt,
        step_count=world.step_count + 1,
        half_w=half_w,
        half_h=half_h,
    )
    return nxt, StepEvents(red=tallies[Team.RED], blue=tallies[Team.BLUE])


def terminal_status(world: WorldState, step_limit: int) -> Outcome:
    """Elimination beats the clock; simultaneous elimination and timeouts draw."""
    red_alive = bool(world.alive[: world.n_red].any())
    blue_alive = bool(world.alive[world.n_red :].any())
    if not red_alive and not blue_alive:
        return Outcome.DRAW
    if not blue_alive:
        return Outcome.RED_WIN
    if not red_alive:
        return Outcome.BLUE_WIN
    if world.step_count >= step_limit:
        return Outcome.DRAW
    return Outcome.ONGOING
