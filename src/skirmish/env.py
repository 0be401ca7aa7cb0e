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
:func:`team_layout` is the one place that derives the action count and the
position and width of every observation and state block.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

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

    __slots__ = ("observations", "masks", "reward", "terminated", "outcome", "info", "_state", "_state_fn")

    def __init__(self, observations, masks, reward, terminated, outcome, info, state_fn):
        self.observations = observations
        self.masks = masks
        self.reward = reward
        self.terminated = terminated
        self.outcome = outcome
        self.info = info
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
    """Where each block of one team's observation and state vectors sits.

    Observation: 4 move flags; one row per enemy (id, distance, dx, dy,
    health, shield, type one-hot); one row per other ally (distance, dx, dy,
    health, shield, type one-hot); then the agent's own health, shield and
    type one-hot.  State: one row per enemy (health, weapon cooldown, x, y,
    shield, type one-hot), then one per ally (the same without cooldown).
    """

    n_agents: int
    n_enemies: int
    n_types: int
    n_targets: int
    n_actions: int
    enemy_off: int
    enemy_width: int
    ally_off: int
    ally_width: int
    own_off: int
    obs_len: int
    state_enemy_width: int
    state_ally_width: int
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
        n_types=T,
        n_targets=n_targets,
        n_actions=TARGET_OFFSET + n_targets,
        enemy_off=enemy_off,
        enemy_width=enemy_width,
        ally_off=ally_off,
        ally_width=ally_width,
        own_off=own_off,
        obs_len=own_off + 2 + T,
        state_enemy_width=5 + T,
        state_ally_width=4 + T,
        state_len=E * (5 + T) + A * (4 + T),
    )


class _TeamView:
    """Per-team constants precomputed once per environment."""

    def __init__(self, env: "BattleEnv", team: Team):
        world = env._proto_world
        self.layout = team_layout(env.scenario, team)
        self.sign = 1.0 if team is Team.RED else -1.0
        self.agents = np.arange(world.n_units)[world.team_slice(team)]
        self.enemies = np.arange(world.n_units)[world.team_slice(team.other)]
        A, E = len(self.agents), len(self.enemies)
        self.n_agents = A
        self.n_enemies = E
        type_col = {s.spec_id: k for k, s in enumerate(env.scenario.unit_types())}
        onehot_all = np.zeros((world.n_units, len(type_col)))
        for i, s in enumerate(world.specs):
            onehot_all[i, type_col[s.spec_id]] = 1.0
        self.onehot_self = onehot_all[self.agents]
        self.onehot_enemy = onehot_all[self.enemies]
        self.onehot_all = onehot_all
        self.is_healer = world.stats.is_healer[self.agents]
        self.has_healer = bool(self.is_healer.any())

        # Own-team slots with self excluded, in unit-id order: row a lists the
        # global indices of agent a's potential heal patients / visible allies.
        gather = np.empty((A, A - 1), dtype=np.intp)
        for a in range(A):
            gather[a] = np.concatenate([self.agents[:a], self.agents[a + 1 :]])
        self.ally_gather = gather
        self.heal_ok = ~world.stats.is_healer[gather]

        self.enemy_id_norm = np.arange(E, dtype=float) / E
        self.sight = world.stats.sight_range[self.agents][:, None]
        self.inv_sight = 1.0 / self.sight
        self.step_len = world.stats.move_speed[self.agents] * env.engine_config.step_dt

        stats = world.stats
        with np.errstate(divide="ignore"):
            inv_h = 1.0 / stats.max_health
            inv_s = np.where(stats.max_shield > 0, 1.0 / np.where(stats.max_shield > 0, stats.max_shield, 1.0), 0.0)
            inv_p = np.where(stats.attack_period > 0, 1.0 / np.where(stats.attack_period > 0, stats.attack_period, 1.0), 0.0)
        self.inv_h_all = inv_h
        self.inv_s_all = inv_s
        self.inv_p_all = inv_p


class BattleEnv:
    """Two-team environment over one scenario.

    One instance owns one world; run independent instances for parallel
    rollouts.  All stochasticity lives in the reset seed.
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
        self._proto_world = self._build_world(spawn_layout(scenario, seed=0, spread=0.0))
        self.views = {Team.RED: _TeamView(self, Team.RED), Team.BLUE: _TeamView(self, Team.BLUE)}
        self._scale = {t: reward_scale(scenario, t, self.reward_config) for t in Team}
        self._world: WorldState | None = None
        self._terminated = True
        self._outcome: Outcome | None = None
        self._masks: dict[Team, np.ndarray] = {}

    def _build_world(self, layout) -> WorldState:
        members = [(s, Team.RED) for s in self.scenario.team_units(Team.RED)]
        members += [(s, Team.BLUE) for s in self.scenario.team_units(Team.BLUE)]
        positions = list(layout.red_positions) + list(layout.blue_positions)
        return new_world(members, positions, self.engine_config, arena=self.scenario.arena)

    # -- lifecycle ---------------------------------------------------------

    def reset(self, seed: int) -> tuple[TeamStepResult, TeamStepResult]:
        """Start a fresh episode with a seeded spawn layout."""
        world = self._build_world(spawn_layout(self.scenario, seed))
        return self._install(world)

    def restore(self, world: WorldState) -> tuple[TeamStepResult, TeamStepResult]:
        """Adopt an externally built world snapshot (replay tooling, tests)."""
        if len(world.specs) != len(self._proto_world.specs) or world.n_red != self._proto_world.n_red:
            raise EnvError("world roster does not match the scenario")
        return self._install(world)

    def _install(self, world: WorldState) -> tuple[TeamStepResult, TeamStepResult]:
        self._world = world
        self._outcome = terminal_status(world, self.scenario.episode_step_limit)
        self._terminated = self._outcome is not Outcome.ONGOING
        outcome = self._outcome if self._terminated else None
        return (
            self._result(Team.RED, 0.0, self._terminated, outcome, {}),
            self._result(Team.BLUE, 0.0, self._terminated, outcome, {}),
        )

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
        n = self._world.n_units
        kind = np.zeros(n, dtype=np.int8)
        dir_x = np.zeros(n)
        dir_y = np.zeros(n)
        target = np.full(n, -1, dtype=np.int64)
        self._fill_commands(Team.RED, np.asarray(red_actions), kind, dir_x, dir_y, target)
        self._fill_commands(Team.BLUE, np.asarray(blue_actions), kind, dir_x, dir_y, target)
        world, events = step_world_arrays(self._world, kind, dir_x, dir_y, target)
        self._world = world
        outcome = terminal_status(world, self.scenario.episode_step_limit)
        self._outcome = outcome
        self._terminated = outcome is not Outcome.ONGOING
        rewards = {t: compute_reward(events, outcome, t, self.reward_config, self._scale[t]) for t in Team}
        reported = self._outcome if self._terminated else None
        info = {t: self._info(events, t) for t in Team}
        return (
            self._result(Team.RED, rewards[Team.RED], self._terminated, reported, info[Team.RED]),
            self._result(Team.BLUE, rewards[Team.BLUE], self._terminated, reported, info[Team.BLUE]),
        )

    @staticmethod
    def _info(events: StepEvents, team: Team) -> dict:
        te = events.for_team(team)
        return {
            "damage_dealt": te.damage_dealt,
            "kills": te.kills,
            "damage_taken": te.damage_taken,
            "deaths": te.deaths,
            "heals": te.heals,
        }

    def _fill_commands(self, team: Team, actions: np.ndarray, kind, dir_x, dir_y, target) -> None:
        view = self.views[team]
        if actions.shape != (view.n_agents,):
            raise EnvError(f"{team.name.lower()} actions must have shape ({view.n_agents},)")
        mask = self._masks[team]
        sign = view.sign
        agents = view.agents
        for a in range(view.n_agents):
            code = int(actions[a])
            if code < 0 or code >= view.layout.n_actions or not mask[a, code]:
                raise UnavailableAction(team, a, code)
            if code <= ACTION_STOP:
                continue  # no-op (dead) or stop: nothing to fill
            g = agents[a]
            if code < TARGET_OFFSET:
                dx, dy = _DIRECTIONS[code - 2]
                kind[g] = 1
                dir_x[g] = sign * dx
                dir_y[g] = sign * dy
            else:
                k = code - TARGET_OFFSET
                if view.is_healer[a]:
                    kind[g] = 3
                    target[g] = view.ally_gather[a, k]
                else:
                    kind[g] = 2
                    target[g] = view.enemies[k]

    # -- encoding ----------------------------------------------------------

    def _result(self, team: Team, reward: float, terminated: bool, outcome, info) -> TeamStepResult:
        obs, mask = self._encode_team(team)
        self._masks[team] = mask
        world = self._world
        return TeamStepResult(
            observations=obs,
            masks=mask,
            reward=reward,
            terminated=terminated,
            outcome=outcome,
            info=info,
            state_fn=lambda: self.encode_state(team, world),
        )

    def _move_avail(self, view: _TeamView, world: WorldState) -> np.ndarray:
        sx = view.sign * world.pos_x[view.agents]
        sy = view.sign * world.pos_y[view.agents]
        d = view.step_len
        avail = np.empty((view.n_agents, 4), dtype=bool)
        avail[:, 0] = sy + d <= world.half_h
        avail[:, 1] = sy - d >= -world.half_h
        avail[:, 2] = sx + d <= world.half_w
        avail[:, 3] = sx - d >= -world.half_w
        return avail

    def _encode_team(self, team: Team) -> tuple[np.ndarray, np.ndarray]:
        """Per-agent observations and action masks of one team."""
        view = self.views[team]
        layout = view.layout
        world = self._world
        obs = np.zeros((view.n_agents, layout.obs_len))
        mask = np.zeros((view.n_agents, layout.n_actions), dtype=bool)
        A, E, T = view.n_agents, view.n_enemies, layout.n_types
        ag, en = view.agents, view.enemies

        px, py, alive = world.pos_x, world.pos_y, world.alive
        alive_a = alive[ag]
        dx_ae = px[en][None, :] - px[ag][:, None]
        dy_ae = py[en][None, :] - py[ag][:, None]
        dist_ae = np.sqrt(dx_ae * dx_ae + dy_ae * dy_ae)
        enemy_avail = alive[en][None, :] & (dist_ae <= view.sight)

        move_avail = self._move_avail(view, world)

        # Mask: no-op for the dead, everything else gated on being alive.
        mask[:, ACTION_NOOP] = ~alive_a
        mask[:, ACTION_STOP] = alive_a
        mask[:, 2:6] = move_avail & alive_a[:, None]
        targets = np.zeros((A, layout.n_targets), dtype=bool)
        attackers = ~view.is_healer
        targets[attackers, :E] = (enemy_avail & alive_a[:, None])[attackers]
        if A > 1:
            gather = view.ally_gather
            dx_aa = px[gather] - px[ag][:, None]
            dy_aa = py[gather] - py[ag][:, None]
            dist_aa = np.sqrt(dx_aa * dx_aa + dy_aa * dy_aa)
            ally_vis = alive[gather] & (dist_aa <= view.sight)
            if view.has_healer:
                heal_avail = ally_vis & view.heal_ok & alive_a[:, None]
                targets[view.is_healer, : A - 1] = heal_avail[view.is_healer]
        mask[:, TARGET_OFFSET:] = targets

        # Observation blocks, zeroed wherever the subject is dead or unseen.
        sign = view.sign
        eb = np.empty((A, E, layout.enemy_width))
        eb[:, :, 0] = view.enemy_id_norm[None, :]
        eb[:, :, 1] = dist_ae * view.inv_sight
        eb[:, :, 2] = sign * dx_ae * view.inv_sight
        eb[:, :, 3] = sign * dy_ae * view.inv_sight
        eb[:, :, 4] = (world.health[en] * view.inv_h_all[en])[None, :]
        eb[:, :, 5] = (world.shield[en] * view.inv_s_all[en])[None, :]
        eb[:, :, 6:] = view.onehot_enemy[None, :, :]
        eb *= (enemy_avail & alive_a[:, None])[:, :, None]

        if A > 1:
            ab = np.empty((A, A - 1, layout.ally_width))
            ab[:, :, 0] = dist_aa * view.inv_sight
            ab[:, :, 1] = sign * dx_aa * view.inv_sight
            ab[:, :, 2] = sign * dy_aa * view.inv_sight
            ab[:, :, 3] = world.health[gather] * view.inv_h_all[gather]
            ab[:, :, 4] = world.shield[gather] * view.inv_s_all[gather]
            ab[:, :, 5:] = view.onehot_all[gather]
            ab *= (ally_vis & alive_a[:, None])[:, :, None]
            obs[:, layout.ally_off : layout.own_off] = ab.reshape(A, -1)

        personal = np.empty((A, 2 + T))
        personal[:, 0] = world.health[ag] * view.inv_h_all[ag]
        personal[:, 1] = world.shield[ag] * view.inv_s_all[ag]
        personal[:, 2:] = view.onehot_self
        personal *= alive_a[:, None]

        obs[:, : layout.enemy_off] = (move_avail & alive_a[:, None]).astype(float)
        obs[:, layout.enemy_off : layout.ally_off] = eb.reshape(A, -1)
        obs[:, layout.own_off :] = personal
        return obs, mask

    def encode_state(self, team: Team, world: WorldState | None = None) -> np.ndarray:
        """Centralized full-information encoding in the team's frame.

        Encodes ``world``, by default the current one; enemy rows carry the
        weapon cooldown and ally rows do not (see :class:`TeamLayout`).
        """
        view = self.views[team]
        layout = view.layout
        world = self._world if world is None else world
        sign = view.sign

        def block(indices: np.ndarray, with_cd: bool) -> np.ndarray:
            width = layout.state_enemy_width if with_cd else layout.state_ally_width
            rows = np.empty((len(indices), width))
            col = 0
            rows[:, col] = world.health[indices] * view.inv_h_all[indices]
            col += 1
            if with_cd:
                rows[:, col] = world.cooldown[indices] * view.inv_p_all[indices]
                col += 1
            rows[:, col] = sign * world.pos_x[indices] * view.inv_sight[0, 0]
            rows[:, col + 1] = sign * world.pos_y[indices] * view.inv_sight[0, 0]
            rows[:, col + 2] = world.shield[indices] * view.inv_s_all[indices]
            rows[:, col + 3 :] = view.onehot_all[indices]
            rows *= world.alive[indices][:, None]
            return rows

        enemies = block(view.enemies, with_cd=True)
        allies = block(view.agents, with_cd=False)
        return np.concatenate([enemies.reshape(-1), allies.reshape(-1)])

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
    info: dict | None,
    outcome: Outcome | None,
) -> dict:
    """One replay line: full unit state plus what both teams just did."""
    world = env.world
    units = []
    for u in world.units():
        units.append(
            {
                "team": u.team.name.lower(),
                "id": u.unit_id,
                "x": u.pos[0],
                "y": u.pos[1],
                "health": u.health,
                "shield": u.shield,
                "cooldown": u.weapon_cooldown,
                "alive": u.alive,
            }
        )
    return {
        "v": REPLAY_SCHEMA_VERSION,
        "episode": episode,
        "step": step,
        "units": units,
        "actions": actions,
        "rewards": rewards,
        "events": info,
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


def read_replay(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]
