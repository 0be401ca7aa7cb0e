"""Dual-team battle environment: reset/step lifecycle, per-agent
observations, centralized state, action masks and team rewards.

Both teams see the battlefield in a canonical frame in which their own side
spawns west and attacks eastward; blue's frame is the point reflection of
red's.  In a symmetric scenario with a mirrored world, red agent ``i`` and
blue agent ``i`` therefore receive element-for-element identical
observations, which keeps self-play exactly fair.

Action codes: 0 no-op (dead only), 1 stop, 2-5 move north/south/east/west
in the canonical frame, ``6+k`` target action on slot ``k`` — enemies for
armed units, own-team patients (self excluded) for healers.
:func:`team_layout` is the one place that derives the action count, the
position and width of every observation block and the state length.

Each reset or step encodes both teams in one pass over every pair of units;
each team's observations and masks are gathered from it through index tables
built once per environment, as are the tables that turn codes into commands.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .engine import (
    EngineConfig,
    Outcome,
    StepEvents,
    Team,
    WorldState,
    new_world,
    step_world_arrays,
    terminal_status,
)
from .scenario import ScenarioSpec, spawn_layout


class EnvError(ValueError):
    pass


class UnavailableAction(EnvError):
    """An agent was given an action its current mask forbids."""

    def __init__(self, team: Team, agent: int, code: int):
        super().__init__(f"action {code} unavailable for {team.name.lower()} agent {agent}")
        self.team = team
        self.agent = agent
        self.code = code


class EpisodeAlreadyTerminated(EnvError):
    pass


ACTION_NOOP = 0
ACTION_STOP = 1
ACTION_MOVE_NORTH = 2
ACTION_MOVE_SOUTH = 3
ACTION_MOVE_EAST = 4
ACTION_MOVE_WEST = 5
TARGET_OFFSET = 6

# Canonical-frame direction vectors for codes 2..5.
_DIRECTIONS = ((0.0, 1.0), (0.0, -1.0), (1.0, 0.0), (-1.0, 0.0))


@dataclass(frozen=True)
class RewardConfig:
    """Weights of the per-step and terminal reward terms."""

    kill_bonus: float = 10.0
    win_bonus: float = 200.0
    self_damage_weight: float = 0.5
    death_penalty: float = 10.0
    draw_penalty: float = 50.0
    loss_penalty: float = 50.0
    scale_target: float = 20.0

    def __post_init__(self) -> None:
        # With every weight at least 0, reward_scale divides by at least the enemy health pool.
        for f in fields(self):
            value, positive = getattr(self, f.name), f.name == "scale_target"
            if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
                raise EnvError(f"reward {f.name} must be a finite number {'above' if positive else 'of at least'} 0, "
                               f"not {value!r}")


def reward_scale(scenario: ScenarioSpec, team: Team, config: RewardConfig) -> float:
    """Normalises the maximum achievable positive reward to ``scale_target``."""
    enemies = scenario.team_units(team.other)
    pool = sum(s.max_health + s.max_shield for s in enemies)
    return config.scale_target / (pool + config.kill_bonus * len(enemies) + config.win_bonus)


def compute_reward(
    events: StepEvents,
    outcome: Outcome,
    team: Team,
    config: RewardConfig,
    scale: float,
) -> float:
    """One team's reward for one step, terminal terms included.

    ``scale`` is the team's :func:`reward_scale`, computed once per scenario.
    """
    te = events.for_team(team)
    value = (
        te.damage_dealt
        + config.kill_bonus * te.kills
        - config.self_damage_weight * (te.damage_taken + config.death_penalty * te.deaths)
    )
    if outcome.is_win_for(team):
        value += config.win_bonus
    elif outcome is Outcome.DRAW:
        value -= config.draw_penalty
    elif outcome.is_loss_for(team):
        value -= config.loss_penalty
    return value * scale


class TeamStepResult:
    """Everything one team receives after reset or one step.

    ``state`` is the centralized training-only encoding of the world this
    result was produced from; it is computed lazily on first access so
    execution-time consumers never pay for it.
    """

    __slots__ = ("observations", "masks", "reward", "terminated", "outcome", "_state", "_state_fn")

    def __init__(self, observations, masks, reward, terminated, outcome, state_fn):
        self.observations = observations
        self.masks = masks
        self.reward = reward
        self.terminated = terminated
        self.outcome = outcome
        self._state = None
        self._state_fn = state_fn

    @property
    def state(self) -> np.ndarray:
        if self._state is None:
            self._state = self._state_fn()
        return self._state


@dataclass(frozen=True)
class TeamSpec:
    """Shapes a policy needs to drive one team."""

    team: Team
    n_agents: int
    n_enemies: int
    obs_len: int
    state_len: int
    n_actions: int
    scenario: str


@dataclass(frozen=True)
class TeamLayout:
    """Shapes and block offsets of one team's observation and state vectors.

    An agent's observation is 4 move flags, then one row per enemy (id,
    distance, dx, dy, health, shield, type one-hot) from ``enemy_off``, one
    row per other ally (the same without the id) from ``ally_off``, and the
    agent's own health, shield and type one-hot from ``own_off``.  Distances
    and offsets are in units of the agent's sight range; a row the agent
    cannot see, and every row of a dead agent, is zero.  An ally row is the
    tail of the enemy row the same observer and unit would give, which is
    what lets one table of unit pairs serve every block of both teams.  The
    state is one row per enemy (health, weapon cooldown, x, y, shield, type
    one-hot), then one per ally (the same without cooldown), over every unit
    regardless of sight.
    """

    n_agents: int
    n_enemies: int
    n_actions: int
    enemy_off: int
    enemy_width: int
    ally_off: int
    ally_width: int
    own_off: int
    obs_len: int
    state_len: int

    def team_spec(self, team: Team, scenario_name: str) -> TeamSpec:
        return TeamSpec(
            team=team,
            n_agents=self.n_agents,
            n_enemies=self.n_enemies,
            obs_len=self.obs_len,
            state_len=self.state_len,
            n_actions=self.n_actions,
            scenario=scenario_name,
        )


def team_layout(scenario: ScenarioSpec, team: Team) -> TeamLayout:
    """Observation, state and action layout of ``team`` in ``scenario``."""
    units = scenario.team_units(team)
    A, E, T = len(units), len(scenario.team_units(team.other)), len(scenario.unit_types())
    n_targets = max(E, A - 1) if any(u.is_healer for u in units) else E
    enemy_off, enemy_width, ally_width = 4, 6 + T, 5 + T
    ally_off = enemy_off + E * enemy_width
    own_off = ally_off + (A - 1) * ally_width
    return TeamLayout(
        n_agents=A,
        n_enemies=E,
        n_actions=TARGET_OFFSET + n_targets,
        enemy_off=enemy_off,
        enemy_width=enemy_width,
        ally_off=ally_off,
        ally_width=ally_width,
        own_off=own_off,
        obs_len=own_off + 2 + T,
        state_len=E * (5 + T) + A * (4 + T),
    )


def ally_slots(n_agents: int) -> np.ndarray:
    """Row a lists agent a's allies (itself excluded) as team-local indices, in the order of its ally rows."""
    A = n_agents
    return np.broadcast_to(np.arange(A), (A, A))[~np.eye(A, dtype=bool)].reshape(A, A - 1)


class _TeamView:
    """One team's constants, from which the env builds its gather and command tables once."""

    def __init__(self, env: "BattleEnv", team: Team):
        world = env._proto_world
        self.layout = layout = team_layout(env.scenario, team)
        A = layout.n_agents
        self.sign = 1.0 if team is Team.RED else -1.0
        self.own = world.team_slice(team)
        self.other = world.team_slice(team.other)
        self.agents = np.arange(world.n_units)[self.own]
        self.enemies = np.arange(world.n_units)[self.other]
        self.is_healer = world.stats.is_healer[self.own]

        # Row a of ally_gather lists the unit ids of agent a's ally rows.
        self.ally_gather = self.agents[ally_slots(A)]

        # Target code TARGET_OFFSET + k of agent a addresses unit
        # slot_unit[a, k]: enemy k for an armed agent, ally k for a healer.
        # slot_ok is False on padding slots and where a healer meets a healer.
        k = np.arange(layout.n_actions - TARGET_OFFSET)
        healer = self.is_healer[:, None]
        pad = np.zeros((A, len(k)), dtype=np.intp)
        allies = np.concatenate([self.ally_gather, pad], axis=1)[:, : len(k)]
        self.slot_unit = np.where(healer, allies, np.concatenate([self.enemies, pad[0]])[: len(k)])
        self.slot_ok = k < np.where(healer, A - 1, layout.n_enemies)
        self.slot_ok &= ~(healer & world.stats.is_healer[self.slot_unit])


class BattleEnv:
    """Two-team environment over one scenario.

    One instance owns one world; run independent instances for parallel
    rollouts.  All stochasticity lives in the reset seed.  ``events`` holds
    what happened in the last step, and is ``None`` after a reset or restore.
    """

    def __init__(
        self,
        scenario: ScenarioSpec,
        engine_config: EngineConfig | None = None,
        reward_config: RewardConfig | None = None,
    ):
        self.scenario = scenario
        self.engine_config = engine_config or EngineConfig()
        self.reward_config = reward_config or RewardConfig()
        self._proto_world = world = self._build_world(spawn_layout(scenario, seed=0))
        self.views = {Team.RED: _TeamView(self, Team.RED), Team.BLUE: _TeamView(self, Team.BLUE)}
        # Per-unit constants shared by both teams' encodings.
        n, n_red, stats = world.n_units, world.n_red, world.stats
        type_col = {s.spec_id: k for k, s in enumerate(scenario.unit_types())}
        self._onehot = np.zeros((n, len(type_col)))
        self._onehot[np.arange(n), [type_col[s.spec_id] for s in world.specs]] = 1.0
        self._inv_h = 1.0 / stats.max_health
        self._inv_s = np.divide(1.0, stats.max_shield, out=np.zeros(n), where=stats.max_shield > 0)
        self._inv_p = np.divide(1.0, stats.attack_period, out=np.zeros(n), where=stats.attack_period > 0)
        self._sign = np.where(world.team_of == Team.RED, 1.0, -1.0)
        self._sight = stats.sight_range[:, None]
        self._inv_sight = 1.0 / self._sight
        # dx * (sign * inv_sight) is sign * dx * inv_sight bit for bit: IEEE
        # rounding is symmetric, so a product's sign factors out exactly.
        self._signed_inv_sight = self._sign[:, None] * self._inv_sight
        self._step_len = stats.move_speed * self.engine_config.step_dt
        # Rows: id as an enemy (index in its team / team size), health, shield (set per step), type one-hot.
        ids = [np.arange(size, dtype=float) / size for size in (n_red, n - n_red)]
        self._columns = np.concatenate([np.concatenate(ids)[None], np.zeros((2, n)), self._onehot.T])

        # The per-step tables that _encode fills.  Plane p of _pairs holds,
        # at cell (i, j), what observer i sees of unit j: p = 0, 1, 2 are
        # distance, dx and dy, and p >= 3 is row p - 3 of _columns.  _bools
        # holds seen, the move flags, dead, alive and one cell always False.
        nn, planes = n * n, 3 + len(self._columns)
        self._floats = np.empty(planes * nn + 4 * n)
        self._pairs = self._floats[: planes * nn].reshape(planes, n, n)
        self._float_moves = self._floats[planes * nn :].reshape(4, n)
        self._bools = np.zeros(nn + 6 * n + 1, dtype=bool)
        self._seen = self._bools[:nn].reshape(n, n)
        self._bool_moves = self._bools[nn : nn + 4 * n].reshape(4, n)
        self._life = self._bools[nn + 4 * n : nn + 6 * n].reshape(2, n)  # dead, alive

        # Index tables gather each team's observations and masks from those.  Cell (i, j) of a plane is
        # i * n + j.  An enemy row reads planes 3, 0, 1, 2, 4, ... (id first), an ally row the same without the
        # id, and an agent's own block planes 4, ... on the diagonal, since seen[i, i] is i's alive flag.  A
        # target slot that is never available reads the bool table's last cell.
        row_planes = np.r_[3, 0:3, 4:planes] * nn
        self._obs_index, self._mask_index = {}, {}
        for team, v in self.views.items():
            A, g = v.layout.n_agents, v.agents[:, None]
            moves = np.arange(4) * n + g
            self._obs_index[team] = np.concatenate([
                planes * nn + moves,
                (row_planes + (g * n + v.enemies)[:, :, None]).reshape(A, -1),
                (row_planes[1:] + (g * n + v.ally_gather)[:, :, None]).reshape(A, -1),
                row_planes[4:] + g * (n + 1),
            ], axis=1)
            self._mask_index[team] = np.concatenate([
                nn + 4 * n + g,  # no-op: dead
                nn + 5 * n + g,  # stop: alive
                nn + moves,
                np.where(v.slot_ok, g * n + v.slot_unit, self._bools.size - 1),
            ], axis=1)

        # Cell (u, c) of each command table holds the engine command of unit
        # u's action code c: kind, world-frame move direction and target.
        n_codes = max(v.layout.n_actions for v in self.views.values())
        kind, target = np.zeros((n, n_codes), dtype=np.int8), np.full((n, n_codes), -1, dtype=np.int64)
        dir_x, dir_y = np.zeros((n, n_codes)), np.zeros((n, n_codes))
        moves = slice(ACTION_MOVE_NORTH, TARGET_OFFSET)
        for v in self.views.values():
            targets = slice(TARGET_OFFSET, v.layout.n_actions)
            kind[v.own, moves] = 1
            dir_x[v.own, moves] = [v.sign * x for x, _ in _DIRECTIONS]
            dir_y[v.own, moves] = [v.sign * y for _, y in _DIRECTIONS]
            kind[v.own, targets] = np.where(v.is_healer, 3, 2)[:, None]
            target[v.own, targets] = v.slot_unit
        self._commands = (kind, dir_x, dir_y, target)
        self._command_row = np.arange(n) * n_codes
        self._scale = {t: reward_scale(scenario, t, self.reward_config) for t in Team}
        self._world: WorldState | None = None
        self._terminated = True
        self._outcome: Outcome | None = None
        self._masks: dict[Team, np.ndarray] = {}
        self.events: StepEvents | None = None

    def _build_world(self, layout, stats=None) -> WorldState:
        members = [(s, Team.RED) for s in self.scenario.team_units(Team.RED)]
        members += [(s, Team.BLUE) for s in self.scenario.team_units(Team.BLUE)]
        positions = list(layout.red_positions) + list(layout.blue_positions)
        return new_world(members, positions, self.engine_config, arena=self.scenario.arena, stats=stats)

    # -- lifecycle ---------------------------------------------------------

    def reset(self, seed: int) -> tuple[TeamStepResult, TeamStepResult]:
        """Start a fresh episode with a seeded spawn layout."""
        world = self._build_world(spawn_layout(self.scenario, seed), self._proto_world.stats)
        return self._install(world)

    def restore(self, world: WorldState) -> tuple[TeamStepResult, TeamStepResult]:
        """Adopt an externally built world snapshot (replay tooling, tests)."""
        if len(world.specs) != len(self._proto_world.specs) or world.n_red != self._proto_world.n_red:
            raise EnvError("world roster does not match the scenario")
        return self._install(world)

    def _install(self, world: WorldState) -> tuple[TeamStepResult, TeamStepResult]:
        self._world = world
        self.events = None
        self._outcome = terminal_status(world, self.scenario.episode_step_limit)
        self._terminated = self._outcome is not Outcome.ONGOING
        outcome = self._outcome if self._terminated else None
        return self._results(dict.fromkeys(Team, 0.0), outcome)

    @property
    def world(self) -> WorldState:
        if self._world is None:
            raise EnvError("reset the environment first")
        return self._world

    @property
    def terminated(self) -> bool:
        return self._terminated

    def team_spec(self, team: Team) -> TeamSpec:
        return self.views[team].layout.team_spec(team, self.scenario.name)

    def step(
        self, red_actions: np.ndarray, blue_actions: np.ndarray
    ) -> tuple[TeamStepResult, TeamStepResult]:
        """Advance one engine step under both teams' action codes."""
        if self._world is None:
            raise EnvError("reset the environment first")
        if self._terminated:
            raise EpisodeAlreadyTerminated("episode is over; call reset")
        codes = np.concatenate([self._codes(Team.RED, red_actions), self._codes(Team.BLUE, blue_actions)])
        cells = self._command_row + codes
        world, events = step_world_arrays(self._world, *(table.take(cells) for table in self._commands))
        self._world = world
        self.events = events
        outcome = terminal_status(world, self.scenario.episode_step_limit)
        self._outcome = outcome
        self._terminated = outcome is not Outcome.ONGOING
        rewards = {t: compute_reward(events, outcome, t, self.reward_config, self._scale[t]) for t in Team}
        reported = self._outcome if self._terminated else None
        return self._results(rewards, reported)

    def _codes(self, team: Team, actions) -> np.ndarray:
        """``team``'s action codes, each checked against its agent's current mask."""
        layout = self.views[team].layout
        codes = np.asarray(actions).astype(np.int64, copy=False)
        if codes.shape != (layout.n_agents,):
            raise EnvError(f"{team.name.lower()} actions must have shape ({layout.n_agents},)")
        ok = (codes >= 0) & (codes < layout.n_actions)
        ok &= self._masks[team].take(np.arange(layout.n_agents) * layout.n_actions + codes, mode="clip")
        if not ok.all():
            a = int(np.argmin(ok))
            raise UnavailableAction(team, a, int(codes[a]))
        return codes

    # -- encoding ----------------------------------------------------------

    def _results(self, rewards: dict, outcome) -> tuple[TeamStepResult, TeamStepResult]:
        """Both teams' results for the current world, from one encode."""
        world = self._world
        self._encode()
        results = []
        for team in Team:
            mask = self._masks[team] = self._bools.take(self._mask_index[team])
            results.append(
                TeamStepResult(
                    observations=self._floats.take(self._obs_index[team]),
                    masks=mask,
                    reward=rewards[team],
                    terminated=self._terminated,
                    outcome=outcome,
                    state_fn=lambda team=team: self.encode_state(team, world),
                )
            )
        return tuple(results)

    def _encode(self) -> None:
        """Fill the tables every observation and mask is gathered from.

        ``dx[i, j]``, ``dy[i, j]`` and ``dist[i, j]`` run from unit ``i`` to
        unit ``j``, in ``i``'s frame and sight range.  A cell ``i`` cannot see
        is zeroed by multiplying it by its flag, never with np.where: a hidden
        negative offset must become -0.0, or the seeded output bytes that
        test_env pins would change.
        """
        world = self._world
        px, py, alive = world.pos_x, world.pos_y, world.alive
        pairs, seen = self._pairs, self._seen
        dx = np.subtract(px[None, :], px[:, None], out=pairs[1])
        dy = np.subtract(py[None, :], py[:, None], out=pairs[2])
        dist = np.sqrt(dx * dx + dy * dy, out=pairs[0])
        np.less_equal(dist, self._sight, out=seen)
        seen &= alive
        seen &= alive[:, None]
        dist *= self._inv_sight
        pairs[1:3] *= self._signed_inv_sight
        pairs[:3] *= seen
        columns = self._columns
        np.multiply(world.health, self._inv_h, out=columns[1])
        np.multiply(world.shield, self._inv_s, out=columns[2])
        np.multiply(columns[:, None, :], seen, out=pairs[3:])

        sx, sy, d, moves = self._sign * px, self._sign * py, self._step_len, self._bool_moves
        moves[...] = (sy + d <= world.half_h, sy - d >= -world.half_h,
                      sx + d <= world.half_w, sx - d >= -world.half_w)
        moves &= alive
        self._float_moves[...] = moves
        np.logical_not(alive, out=self._life[0])
        self._life[1] = alive

    def encode_state(self, team: Team, world: WorldState | None = None) -> np.ndarray:
        """Centralized full-information encoding in the team's frame.

        Encodes ``world``, by default the current one: the enemy rows, then
        the ally rows without their cooldown column (see :class:`TeamLayout`).
        """
        view = self.views[team]
        world = self._world if world is None else world
        inv_sight = self._inv_sight[view.agents[0], 0]
        table = np.empty((world.n_units, 5 + self._onehot.shape[1]))
        table[:, 0] = world.health * self._inv_h
        table[:, 1] = world.cooldown * self._inv_p
        table[:, 2] = view.sign * world.pos_x * inv_sight
        table[:, 3] = view.sign * world.pos_y * inv_sight
        table[:, 4] = world.shield * self._inv_s
        table[:, 5:] = self._onehot
        table *= world.alive[:, None]
        return np.concatenate([table[view.other].reshape(-1), np.delete(table[view.own], 1, axis=1).reshape(-1)])

    def available_actions(self, team: Team) -> np.ndarray:
        """Current per-agent action mask for one team."""
        if self._world is None:
            raise EnvError("reset the environment first")
        return self._masks[team]


# -- replay logs ---------------------------------------------------------

REPLAY_SCHEMA_VERSION = 1


def replay_record(
    env: BattleEnv,
    episode: int,
    step: int,
    actions: dict[str, list[int]] | None,
    rewards: dict[str, float],
    outcome: Outcome | None,
) -> dict:
    """One replay line: every unit of ``env.world`` in map coordinates, what both
    teams just did, and ``env.events`` per team (``None`` after a reset)."""
    world = env.world
    units = []
    for i in range(world.n_units):
        team = Team(int(world.team_of[i]))
        units.append(
            {
                "team": team.name.lower(),
                "id": i if team is Team.RED else i - world.n_red,
                "x": float(world.pos_x[i]) + world.half_w,
                "y": float(world.pos_y[i]) + world.half_h,
                "health": float(world.health[i]),
                "shield": float(world.shield[i]),
                "cooldown": float(world.cooldown[i]),
                "alive": bool(world.alive[i]),
            }
        )
    events = env.events
    return {
        "v": REPLAY_SCHEMA_VERSION,
        "episode": episode,
        "step": step,
        "units": units,
        "actions": actions,
        "rewards": rewards,
        "events": None if events is None else {t.name.lower(): asdict(events.for_team(t)) for t in Team},
        "outcome": outcome.value if outcome is not None else None,
    }


class ReplayWriter:
    """Newline-delimited JSON replay sink."""

    def __init__(self, path):
        self._fh = open(path, "w", encoding="utf-8")

    def write(self, record: dict) -> None:
        self._fh.write(json.dumps(record, separators=(",", ":")) + "\n")

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "ReplayWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ReplayError(ValueError):
    """A replay file that is not UTF-8 text or has a line that is no replay record."""


def read_replay(path) -> list[dict]:
    """The records of a replay file, each a JSON object with integer ``v``, ``episode`` and ``step``.

    Raises :class:`ReplayError`, naming the file, for a file that is not UTF-8 text or has any other line.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ReplayError(f"{path} is not UTF-8 text: {exc}") from exc
    records = []
    for number, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ReplayError(f"{path} line {number} is not JSON: {exc}") from exc
        if not (isinstance(record, dict) and all(type(record.get(key)) is int for key in ("v", "episode", "step"))):
            raise ReplayError(f"{path} line {number} is no replay record (a JSON object with integer v, "
                              "episode and step)")
        records.append(record)
    return records
