"""Environment API: encodings, masks, rewards, lifecycle, replay logs."""

import dataclasses
import hashlib
import json
from types import SimpleNamespace

import numpy as np
import pytest

from skirmish import env as env_mod
from skirmish.engine import CATALOG, Outcome, Team, new_world
from skirmish.env import (
    ACTION_MOVE_EAST,
    ACTION_MOVE_NORTH,
    ACTION_MOVE_WEST,
    ACTION_NOOP,
    ACTION_STOP,
    TARGET_OFFSET,
    BattleEnv,
    EnvError,
    EpisodeAlreadyTerminated,
    ReplayWriter,
    RewardConfig,
    UnavailableAction,
    ally_slots,
    compute_reward,
    read_replay,
    replay_record,
    reward_scale,
    team_layout,
)
from skirmish.engine import StepEvents, TeamEvents
from skirmish.learners import make_learner
from skirmish.scenario import builtin_scenarios, get_scenario

from conftest import tiny_scenario, zero_jitter


def restore_world(env, units):
    members = [(CATALOG[name], team) for name, team, _ in units]
    positions = [pos for _, _, pos in units]
    world = new_world(members, positions, env.engine_config, arena=env.scenario.arena)
    return env.restore(world)


def all_stop(env, team):
    return np.full(env.team_spec(team).n_agents, ACTION_STOP)


# -- reset ---------------------------------------------------------------------


def test_reset_deterministic():
    env_a, env_b = BattleEnv(get_scenario("3m")), BattleEnv(get_scenario("3m"))
    ra, _ = env_a.reset(seed=1)
    rb, _ = env_b.reset(seed=1)
    assert np.array_equal(ra.observations, rb.observations)
    assert np.array_equal(ra.masks, rb.masks)
    assert np.array_equal(ra.state, rb.state)
    rc, _ = env_a.reset(seed=2)
    assert not np.array_equal(ra.observations, rc.observations)


def test_resets_share_one_read_only_spec_table():
    env = BattleEnv(get_scenario("MMM2"))
    env.reset(seed=1)
    stats = env.world.stats
    env.reset(seed=2)
    assert env.world.stats is stats
    with pytest.raises(ValueError):
        stats.max_health[0] = 1.0


def test_reset_enemies_out_of_sight():
    env = BattleEnv(get_scenario("3m"))
    r, b = env.reset(seed=0)
    E, T = 3, 1
    enemy_block = r.observations[:, 4 : 4 + E * (6 + T)]
    assert (enemy_block == 0).all()
    assert (b.observations[:, 4 : 4 + E * (6 + T)] == 0).all()
    assert not r.masks[:, TARGET_OFFSET:].any()
    assert r.reward == 0.0 and not r.terminated and r.outcome is None


def test_reset_team_sizes_mmm2():
    env = BattleEnv(get_scenario("MMM2"))
    r, b = env.reset(seed=0)
    assert r.observations.shape[0] == 10
    assert b.observations.shape[0] == 12


@pytest.mark.parametrize(
    "name,expected",
    [
        ("3m", 4 + 3 * 7 + 2 * 6 + 3),          # T=1 -> 40
        ("MMM", 4 + 10 * 9 + 9 * 8 + 5),        # T=3
        ("2s3z", 4 + 5 * 8 + 4 * 7 + 4),        # T=2
    ],
)
def test_observation_length_formula(name, expected):
    env = BattleEnv(get_scenario(name))
    r, _ = env.reset(seed=0)
    assert env.team_spec(Team.RED).obs_len == expected
    assert r.observations.shape == (env.team_spec(Team.RED).n_agents, expected)


def test_restore_rejects_wrong_roster():
    env = BattleEnv(tiny_scenario())
    world = new_world(
        [(CATALOG["marine"], Team.RED), (CATALOG["marine"], Team.BLUE)], [(10, 16), (20, 16)], arena=(32.0, 32.0)
    )
    with pytest.raises(EnvError):
        env.restore(world)


# -- observation encoding --------------------------------------------------------


def test_visible_enemy_fields():
    env = BattleEnv(tiny_scenario())
    r, b = restore_world(
        env,
        [
            ("marine", Team.RED, (13.0, 16.0)),
            ("marine", Team.RED, (10.0, 16.0)),
            ("marine", Team.BLUE, (21.0, 16.0)),   # 8 east of red 0: in sight, out of range
            ("marine", Team.BLUE, (28.0, 16.0)),   # out of sight
        ],
    )
    row = r.observations[0]
    # enemy slot 0: [id, dist, rel_x, rel_y, health, shield, type...]
    assert row[4] == 0.0          # id 0 normalised by enemy count
    assert row[5] == pytest.approx(8.0 / 9.0)
    assert row[6] == pytest.approx(8.0 / 9.0)   # eastward in canonical frame
    assert row[7] == 0.0
    assert row[8] == 1.0          # full health
    assert row[9] == 0.0          # marines have no shield
    assert row[10] == 1.0         # one-hot (T=1)
    # enemy slot 1 is out of sight: zeroed
    assert (row[11:18] == 0).all()
    # its target action is available through the attack-move macro
    assert r.masks[0, TARGET_OFFSET + 0]
    assert not r.masks[0, TARGET_OFFSET + 1]


def test_ally_fields_and_personal_block():
    env = BattleEnv(tiny_scenario())
    r, _ = restore_world(
        env,
        [
            ("marine", Team.RED, (13.0, 16.0)),
            ("marine", Team.RED, (10.0, 16.0)),
            ("marine", Team.BLUE, (28.0, 15.0)),
            ("marine", Team.BLUE, (28.0, 17.0)),
        ],
    )
    row = r.observations[0]
    ally = row[4 + 2 * 7 : 4 + 2 * 7 + 6]
    assert ally[0] == pytest.approx(3.0 / 9.0)     # distance
    assert ally[1] == pytest.approx(-3.0 / 9.0)    # ally is west of observer
    assert ally[2] == 0.0
    assert ally[3] == 1.0 and ally[4] == 0.0 and ally[5] == 1.0
    personal = row[-3:]
    assert personal[0] == 1.0 and personal[1] == 0.0 and personal[2] == 1.0


def test_mirrored_observations_in_symmetric_world():
    for name in ("3m", "2s3z", "MMM"):
        env = BattleEnv(zero_jitter(name))
        r, b = env.reset(seed=0)
        assert np.array_equal(r.observations, b.observations)
        assert np.array_equal(r.masks, b.masks)
        assert np.array_equal(r.state, b.state)


def test_observation_bounds_over_random_play(rng):
    env = BattleEnv(get_scenario("MMM2"))
    red = make_learner("random", env.team_spec(Team.RED))
    blue = make_learner("random", env.team_spec(Team.BLUE))
    r, b = env.reset(seed=3)
    for _ in range(80):
        if env.terminated:
            break
        assert (r.observations >= -1.0).all() and (r.observations <= 1.0).all()
        assert (b.observations >= -1.0).all() and (b.observations <= 1.0).all()
        r, b = env.step(red.act(r.observations, r.masks, 0, rng), blue.act(b.observations, b.masks, 0, rng))


def test_dead_agent_rows_zeroed_and_masked():
    env = BattleEnv(tiny_scenario())
    r, b = restore_world(
        env,
        [
            ("marine", Team.RED, (10.0, 16.0)),
            ("marine", Team.RED, (12.0, 16.0)),
            ("marine", Team.BLUE, (20.0, 16.0)),
            ("marine", Team.BLUE, (22.0, 16.0)),
        ],
    )
    world = env.world
    world.alive[0] = False
    world.health[0] = 0.0
    r, b = env.restore(world)
    assert (r.observations[0] == 0).all()
    assert r.masks[0, ACTION_NOOP] and r.masks[0, 1:].sum() == 0
    # the dead unit's row in teammates' views is zeroed too
    ally_row = r.observations[1, 4 + 2 * 7 : 4 + 2 * 7 + 6]
    assert (ally_row == 0).all()


# -- masks -----------------------------------------------------------------------


def test_move_mask_at_arena_edge():
    env = BattleEnv(tiny_scenario())
    r, b = restore_world(
        env,
        [
            ("marine", Team.RED, (0.5, 16.0)),    # near west wall
            ("marine", Team.RED, (10.0, 16.0)),
            ("marine", Team.BLUE, (20.0, 16.0)),
            ("marine", Team.BLUE, (31.5, 16.0)),  # near east wall
        ],
    )
    assert not r.masks[0, ACTION_MOVE_WEST]
    assert r.masks[0, ACTION_MOVE_EAST]
    # blue's canonical east points at the west wall, so its edge flips too
    assert not b.masks[1, ACTION_MOVE_WEST]   # canonical west = map east
    assert b.masks[1, ACTION_MOVE_EAST]


def test_healer_mask_targets_allies():
    scn = get_scenario("MMM")
    env = BattleEnv(zero_jitter(scn.name))
    r, _ = env.reset(seed=0)
    # agent 0 is the medivac: its target slots address teammates
    assert env.views[Team.RED].is_healer[0]
    heal_slots = r.masks[0, TARGET_OFFSET:]
    assert heal_slots[: 9].any()
    # marines next to it are valid patients, enemies are out of sight anyway
    assert not r.masks[1, TARGET_OFFSET:].any()


def test_masks_keep_heals_among_allies_and_attacks_on_enemies():
    """The masks are the only check on targets: the engine trusts the commands the env builds."""
    comp = ((CATALOG["medivac"], 2), (CATALOG["marine"], 2))
    env = BattleEnv(dataclasses.replace(tiny_scenario(), red_composition=comp, blue_composition=comp))
    units = [
        ("medivac", Team.RED, (10.0, 15.0)), ("medivac", Team.RED, (10.0, 17.0)),
        ("marine", Team.RED, (12.0, 15.0)), ("marine", Team.RED, (12.0, 17.0)),
        ("medivac", Team.BLUE, (17.0, 15.0)), ("medivac", Team.BLUE, (17.0, 17.0)),
        ("marine", Team.BLUE, (15.0, 15.0)), ("marine", Team.BLUE, (15.0, 17.0)),
    ]
    for team, res in zip(Team, restore_world(env, units)):
        view = env.views[team]
        for a in (0, 1):  # medivacs: both marines are patients, the other medivac never is
            offered = view.ally_gather[a][res.masks[a, TARGET_OFFSET : TARGET_OFFSET + 3]]
            assert sorted(offered) == list(view.agents[2:])
        assert res.masks[2:, TARGET_OFFSET:].all()  # marines: every enemy is in sight
    red = all_stop(env, Team.RED)
    red[0] = TARGET_OFFSET  # medivac 0's slot 0 is the other medivac
    with pytest.raises(UnavailableAction) as err:
        env.step(red, all_stop(env, Team.BLUE))
    assert (err.value.agent, err.value.code) == (0, TARGET_OFFSET)
    n_actions = env.team_spec(Team.RED).n_actions
    for codes in ([1, 1, 1, n_actions], [1, -1, 1, 1]):  # outside the action range
        with pytest.raises(UnavailableAction):
            env.step(np.array(codes), all_stop(env, Team.BLUE))
    with pytest.raises(EnvError):  # one code per agent, none missing
        env.step(all_stop(env, Team.RED)[:3], all_stop(env, Team.BLUE))
    for k in range(4):  # a marine's slot k attacks enemy k and nobody else
        restore_world(env, units)
        red = all_stop(env, Team.RED)
        red[2] = TARGET_OFFSET + k
        env.step(red, all_stop(env, Team.BLUE))
        damaged = np.flatnonzero(env.world.health < env.world.stats.max_health)
        assert list(damaged) == [env.views[Team.RED].enemies[k]]


def test_medivac_target_codes_heal_and_never_damage():
    """A medivac has no weapon: each target code it may use heals one teammate."""
    red_comp = ((CATALOG["medivac"], 1), (CATALOG["marine"], 2))
    env = BattleEnv(dataclasses.replace(tiny_scenario(), red_composition=red_comp))
    units = [
        ("medivac", Team.RED, (14.0, 16.0)),
        ("marine", Team.RED, (12.0, 15.0)),
        ("marine", Team.RED, (12.0, 17.0)),
        ("marine", Team.BLUE, (16.0, 15.0)),  # both enemies in the medivac's range
        ("marine", Team.BLUE, (16.0, 17.0)),
    ]
    for code in range(TARGET_OFFSET, env.team_spec(Team.RED).n_actions):
        restore_world(env, units)
        world = env.world
        world.health[1:3] = 20.0
        r, _ = env.restore(world)
        assert r.masks[0, code]
        red = all_stop(env, Team.RED)
        red[0] = code
        r, _ = env.step(red, all_stop(env, Team.BLUE))
        assert env.events.red.damage_dealt == 0.0 and env.events.red.heals == 7.0
        assert (env.world.health[3:] == 45.0).all()
        assert list(np.flatnonzero(env.world.health[1:3] > 20.0)) == [code - TARGET_OFFSET]


# -- step lifecycle ----------------------------------------------------------------


def test_all_stop_step():
    env = BattleEnv(get_scenario("3m"))
    env.reset(seed=0)
    r, b = env.step(all_stop(env, Team.RED), all_stop(env, Team.BLUE))
    assert r.reward == 0.0 and b.reward == 0.0
    assert not r.terminated and r.outcome is None


def test_step_after_termination_raises():
    env = BattleEnv(tiny_scenario(step_limit=1))
    env.reset(seed=0)
    r, b = env.step(all_stop(env, Team.RED), all_stop(env, Team.BLUE))
    assert r.terminated and r.outcome is Outcome.DRAW
    with pytest.raises(EpisodeAlreadyTerminated):
        env.step(all_stop(env, Team.RED), all_stop(env, Team.BLUE))


def test_unavailable_action_identifies_agent():
    env = BattleEnv(tiny_scenario())
    restore_world(
        env,
        [
            ("marine", Team.RED, (10.0, 16.0)),
            ("marine", Team.RED, (12.0, 16.0)),
            ("marine", Team.BLUE, (20.0, 16.0)),
            ("marine", Team.BLUE, (22.0, 16.0)),
        ],
    )
    world = env.world
    world.alive[0] = False
    world.health[0] = 0.0
    env.restore(world)
    with pytest.raises(UnavailableAction) as err:
        env.step(np.array([2, ACTION_STOP]), all_stop(env, Team.BLUE))
    assert err.value.team is Team.RED and err.value.agent == 0 and err.value.code == 2
    # attacking an out-of-sight enemy is equally rejected (slot 1 is 10 away)
    with pytest.raises(UnavailableAction):
        env.step(np.array([ACTION_NOOP, TARGET_OFFSET + 1]), all_stop(env, Team.BLUE))


# -- rewards -----------------------------------------------------------------------


def test_reward_scale_3m():
    assert reward_scale(get_scenario("3m"), Team.RED, RewardConfig()) == 20.0 / 365.0


def test_damage_only_rewards():
    env = BattleEnv(tiny_scenario())
    restore_world(
        env,
        [
            ("marine", Team.RED, (12.0, 16.0)),
            ("marine", Team.RED, (10.0, 12.0)),
            ("marine", Team.BLUE, (17.0, 16.0)),  # in range of red 0
            ("marine", Team.BLUE, (26.0, 16.0)),
        ],
    )
    scale = 20.0 / (2 * 45 + 2 * 10 + 200)
    r, b = env.step(np.array([TARGET_OFFSET, ACTION_STOP]), all_stop(env, Team.BLUE))
    assert r.reward == pytest.approx(6.0 * scale)
    assert b.reward == pytest.approx(-0.5 * 6.0 * scale)
    assert env.events.red.damage_dealt == 6.0 and env.events.blue.damage_taken == 6.0


def test_reward_formula_example_values():
    # 6 damage on 3m: r_red = 6 * 20/365, r_blue = -0.5 * 6 * 20/365
    events = StepEvents(red=TeamEvents(damage_dealt=6.0), blue=TeamEvents(damage_taken=6.0))
    cfg = RewardConfig()
    scn = get_scenario("3m")
    red_scale, blue_scale = (reward_scale(scn, t, cfg) for t in (Team.RED, Team.BLUE))
    assert compute_reward(events, Outcome.ONGOING, Team.RED, cfg, red_scale) == pytest.approx(0.3288, abs=1e-4)
    assert compute_reward(events, Outcome.ONGOING, Team.BLUE, cfg, blue_scale) == pytest.approx(-0.1644, abs=1e-4)


def test_draw_penalty_on_timeout():
    env = BattleEnv(tiny_scenario(step_limit=1))
    env.reset(seed=0)
    r, b = env.step(all_stop(env, Team.RED), all_stop(env, Team.BLUE))
    scale = 20.0 / (2 * 45 + 2 * 10 + 200)
    assert r.outcome is Outcome.DRAW
    assert r.reward == pytest.approx(-50.0 * scale)
    assert b.reward == pytest.approx(-50.0 * scale)


def test_win_and_loss_terminal_rewards():
    env = BattleEnv(tiny_scenario(red=("marine", 1), blue=("marine", 1)))
    restore_world(env, [("marine", Team.RED, (12.0, 16.0)), ("marine", Team.BLUE, (17.0, 16.0))])
    world = env.world
    world.health[1] = 6.0
    env.restore(world)
    r, b = env.step(np.array([TARGET_OFFSET]), np.array([ACTION_STOP]))
    scale = 20.0 / (45 + 10 + 200)
    assert r.terminated and r.outcome is Outcome.RED_WIN
    assert r.reward == pytest.approx((6.0 + 10.0 + 200.0) * scale)
    assert b.reward == pytest.approx((-0.5 * (6.0 + 10.0) - 50.0) * scale)


def test_zero_sum_damage_under_full_self_weight():
    reward = RewardConfig(self_damage_weight=1.0)
    env = BattleEnv(tiny_scenario(), reward_config=reward)
    restore_world(
        env,
        [
            ("marine", Team.RED, (12.0, 16.0)),
            ("marine", Team.RED, (10.0, 12.0)),
            ("marine", Team.BLUE, (17.0, 16.0)),
            ("marine", Team.BLUE, (26.0, 16.0)),
        ],
    )
    r, b = env.step(np.array([TARGET_OFFSET, ACTION_STOP]), all_stop(env, Team.BLUE))
    assert r.reward == -b.reward != 0.0


# -- global state -------------------------------------------------------------------


def test_state_length_and_layout():
    env = BattleEnv(get_scenario("3m"))
    r, _ = env.reset(seed=0)
    # enemies first (health, weapon_cd, rel_x, rel_y, shield, type) then
    # allies (health, rel_x, rel_y, shield, type)
    assert len(r.state) == 3 * 6 + 3 * 5
    assert env.team_spec(Team.RED).state_len == 33


def test_state_weapon_cooldown_normalised():
    env = BattleEnv(tiny_scenario())
    restore_world(
        env,
        [
            ("marine", Team.RED, (12.0, 16.0)),
            ("marine", Team.RED, (10.0, 12.0)),
            ("marine", Team.BLUE, (17.0, 16.0)),
            ("marine", Team.BLUE, (26.0, 16.0)),
        ],
    )
    r, b = env.step(np.array([TARGET_OFFSET, ACTION_STOP]), all_stop(env, Team.BLUE))
    # blue's enemy rows describe red units; red agent 0 just fired
    assert b.state[1] == 1.0          # 0.86 / 0.86
    assert r.state[1] == 0.0          # blue never fired


def test_state_symmetric_world_equal_vectors():
    env = BattleEnv(zero_jitter("3s5z"))
    r, b = env.reset(seed=0)
    assert np.array_equal(r.state, b.state)


def test_state_belongs_to_the_step_that_produced_it():
    env = BattleEnv(get_scenario("3m"))
    first, _ = env.reset(seed=4)
    rng = np.random.default_rng(0)
    for _ in range(5):
        r, b = env.step(
            [int(rng.choice(np.flatnonzero(m))) for m in env.available_actions(Team.RED)],
            [int(rng.choice(np.flatnonzero(m))) for m in env.available_actions(Team.BLUE)],
        )
    fresh, _ = BattleEnv(get_scenario("3m")).reset(seed=4)
    assert np.array_equal(first.state, fresh.state)  # read only now, five steps later
    assert np.array_equal(r.state, env.encode_state(Team.RED))


def test_layout_shared_by_env_and_bot():
    from skirmish.learners import ScriptedBot

    for name in ("3m", "MMM2", "5m_vs_6m", "1c3s5z"):
        scn = get_scenario(name)
        env = BattleEnv(scn)
        r, b = env.reset(seed=0)
        for team, res in ((Team.RED, r), (Team.BLUE, b)):
            spec = env.team_spec(team)
            assert ScriptedBot(scn, team).team_spec == spec
            assert spec.state_len == len(res.state) > 0
            assert res.observations.shape == (spec.n_agents, spec.obs_len)
            assert res.masks.shape == (spec.n_agents, spec.n_actions)


def test_state_not_affected_by_sight():
    env = BattleEnv(get_scenario("3m"))
    r, _ = env.reset(seed=0)
    enemy_rows = r.state[: 3 * 6].reshape(3, 6)
    assert (enemy_rows[:, 0] == 1.0).all()  # enemies visible in state despite fog


# -- reference encoder and command loop -----------------------------------------------
# The env encodes both teams in one pass and looks commands up in tables.  Below
# are the per-team encoder and the per-agent command loop that it replaced: its
# observations, masks and engine commands must equal theirs byte for byte.


def reference_view(env, team):
    """One team's constants, derived as the per-team encoder derived them."""
    world = env.world
    layout = team_layout(env.scenario, team)
    own, other = world.team_slice(team), world.team_slice(team.other)
    agents, enemies = np.arange(world.n_units)[own], np.arange(world.n_units)[other]
    is_healer = world.stats.is_healer[own]
    ally_gather = agents[ally_slots(layout.n_agents)]
    n_targets = layout.n_actions - TARGET_OFFSET
    slot_unit = np.zeros((layout.n_agents, n_targets), dtype=np.intp)
    slot_ok = np.zeros((layout.n_agents, n_targets), dtype=bool)
    for a in range(layout.n_agents):
        slots = ally_gather[a] if is_healer[a] else enemies
        slot_unit[a, : len(slots)] = slots
        slot_ok[a, : len(slots)] = ~(is_healer[a] & world.stats.is_healer[slots])
    sight = world.stats.sight_range[own][:, None]
    return SimpleNamespace(
        layout=layout, own=own, other=other, agents=agents, enemies=enemies, is_healer=is_healer,
        sign=1.0 if team is Team.RED else -1.0, sight=sight, inv_sight=1.0 / sight,
        step_len=world.stats.move_speed[own] * env.engine_config.step_dt,
        enemy_id_norm=np.arange(layout.n_enemies, dtype=float) / layout.n_enemies,
        ally_gather=ally_gather, slot_unit=slot_unit, slot_ok=slot_ok,
        ally_flat=np.arange(layout.n_agents)[:, None] * world.n_units + ally_gather,
        slot_flat=np.arange(layout.n_agents)[:, None] * world.n_units + slot_unit,
    )


def reference_encode(env, team):
    """Observations and masks of ``team`` in the current world, one team at a time."""
    world, view = env.world, reference_view(env, team)
    stats = world.stats
    type_col = {s.spec_id: k for k, s in enumerate(env.scenario.unit_types())}
    units = np.zeros((world.n_units, 2 + len(type_col)))
    units[:, 0] = world.health * (1.0 / stats.max_health)
    units[:, 1] = world.shield * np.divide(1.0, stats.max_shield, out=np.zeros(world.n_units),
                                           where=stats.max_shield > 0)
    units[np.arange(world.n_units), [2 + type_col[s.spec_id] for s in world.specs]] = 1.0
    layout = view.layout
    own, other, sign = view.own, view.other, view.sign
    A, E = layout.n_agents, layout.n_enemies
    dx = (world.pos_x[None, :] - world.pos_x[:, None])[own]
    dy = (world.pos_y[None, :] - world.pos_y[:, None])[own]
    dist = np.sqrt(dx * dx + dy * dy)
    alive_a = world.alive[own]
    seen = world.alive[None, :] & (dist <= view.sight) & alive_a[:, None]
    sx = sign * world.pos_x[own]
    sy = sign * world.pos_y[own]
    d = view.step_len
    moves = np.stack([sy + d <= world.half_h, sy - d >= -world.half_h,
                      sx + d <= world.half_w, sx - d >= -world.half_w], axis=1)
    moves &= alive_a[:, None]

    mask = np.empty((A, layout.n_actions), dtype=bool)
    mask[:, ACTION_NOOP] = ~alive_a
    mask[:, ACTION_STOP] = alive_a
    mask[:, ACTION_MOVE_NORTH:TARGET_OFFSET] = moves
    mask[:, TARGET_OFFSET:] = np.take(seen, view.slot_flat) & view.slot_ok

    rows = np.empty((A, world.n_units, layout.ally_width))
    rows[:, :, 0] = dist * view.inv_sight
    rows[:, :, 1] = sign * dx * view.inv_sight
    rows[:, :, 2] = sign * dy * view.inv_sight
    rows[:, :, 3:] = units
    rows *= seen.astype(float)[:, :, None]

    obs = np.empty((A, layout.obs_len))
    obs[:, : layout.enemy_off] = moves
    enemy = obs[:, layout.enemy_off : layout.ally_off].reshape(A, E, layout.enemy_width)
    enemy[:, :, 0] = view.enemy_id_norm * seen[:, other]
    enemy[:, :, 1:] = rows[:, other]
    by_unit = rows.reshape(-1, layout.ally_width)
    obs[:, layout.ally_off : layout.own_off] = np.take(by_unit, view.ally_flat, axis=0).reshape(A, -1)
    obs[:, layout.own_off :] = units[own] * alive_a[:, None]
    return obs, mask


def reference_commands(env, red_actions, blue_actions):
    """The engine's (kind, dir_x, dir_y, target) arrays, filled one agent at a time."""
    n = env.world.n_units
    kind = np.zeros(n, dtype=np.int8)
    dir_x = np.zeros(n)
    dir_y = np.zeros(n)
    target = np.full(n, -1, dtype=np.int64)
    directions = ((0.0, 1.0), (0.0, -1.0), (1.0, 0.0), (-1.0, 0.0))
    for team, actions in ((Team.RED, np.asarray(red_actions)), (Team.BLUE, np.asarray(blue_actions))):
        view = reference_view(env, team)
        A = view.layout.n_agents
        if actions.shape != (A,):
            raise EnvError(f"{team.name.lower()} actions must have shape ({A},)")
        mask = env.available_actions(team)
        for a in range(A):
            code = int(actions[a])
            if code < 0 or code >= view.layout.n_actions or not mask[a, code]:
                raise UnavailableAction(team, a, code)
            if code <= ACTION_STOP:
                continue
            g = view.agents[a]
            if code < TARGET_OFFSET:
                dx, dy = directions[code - 2]
                kind[g] = 1
                dir_x[g] = view.sign * dx
                dir_y[g] = view.sign * dy
            else:
                kind[g] = 3 if view.is_healer[a] else 2
                target[g] = view.slot_unit[a, code - TARGET_OFFSET]
    return kind, dir_x, dir_y, target


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_matches_reference(env, results):
    for team, res in zip(Team, results):
        obs, mask = reference_encode(env, team)
        assert same_bytes(res.observations, obs), team
        assert same_bytes(res.masks, mask), team


def random_codes(masks, rng):
    return np.array([rng.choice(np.flatnonzero(m)) for m in masks])


@pytest.fixture
def engine_calls(monkeypatch):
    """The command arrays of every engine step the env takes."""
    calls = []
    step = env_mod.step_world_arrays

    def recording(world, *commands):
        calls.append(commands)
        return step(world, *commands)

    monkeypatch.setattr(env_mod, "step_world_arrays", recording)
    return calls


@pytest.mark.parametrize("name", sorted(builtin_scenarios()))
def test_one_pass_encode_and_command_tables_match_the_reference(name, engine_calls):
    env = BattleEnv(get_scenario(name))
    rng = np.random.default_rng(11)
    results, seed = env.reset(seed=0), 0
    for _ in range(30):
        assert_matches_reference(env, results)
        if env.terminated:
            seed += 1
            results = env.reset(seed=seed)
            continue
        actions = [random_codes(res.masks, rng) for res in results]
        expected = reference_commands(env, *actions)
        results = env.step(*actions)
        assert all(same_bytes(got, want) for got, want in zip(engine_calls[-1], expected, strict=True))


def edge_world(env, seed):
    """A reset world with some dead units and units on, near and beside each arena edge."""
    env.reset(seed=seed)
    world = env.world
    n, hw, hh = world.n_units, world.half_w, world.half_h
    rng = np.random.default_rng(seed)
    # Everyone within a few sight ranges of the centre, so rows and targets are seen.
    world.pos_x[:] = rng.uniform(-12.0, 12.0, n)
    world.pos_y[:] = rng.uniform(-12.0, 12.0, n)
    spots = [(hw, 0.0), (-hw, 0.0), (0.0, hh), (0.0, -hh), (hw, hh), (-hw, -hh),
             (hw - 0.5, 1.0), (-hw + 1.125, -1.0), (-0.0, hh - 1.125), (0.0, -0.0)]
    for i, (x, y) in zip(rng.permutation(n), spots):
        world.pos_x[i], world.pos_y[i] = x, y
    dead = rng.permutation(n)[: n // 4]
    world.alive[dead] = False
    world.health[dead] = 0.0
    world.shield[dead] = 0.0
    world.health[world.alive] *= rng.uniform(0.1, 1.0, int(world.alive.sum()))
    world.shield *= rng.uniform(0.0, 1.0, n)
    return world


@pytest.mark.parametrize("name", ["3m", "MMM", "MMM2", "1c3s5z", "two medivacs"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_restored_worlds_match_the_reference(name, seed, engine_calls):
    if name == "two medivacs":  # a healer that meets a healer in its target slots
        comp = ((CATALOG["medivac"], 2), (CATALOG["marine"], 2))
        scenario = dataclasses.replace(tiny_scenario(), red_composition=comp, blue_composition=comp)
    else:
        scenario = get_scenario(name)
    env = BattleEnv(scenario)
    world = edge_world(env, seed)
    results = env.restore(world)
    assert_matches_reference(env, results)
    if env.terminated:
        return
    rng = np.random.default_rng(seed)
    actions = [random_codes(res.masks, rng) for res in results]
    expected = reference_commands(env, *actions)
    assert_matches_reference(env, env.step(*actions))
    assert all(same_bytes(got, want) for got, want in zip(engine_calls[-1], expected, strict=True))


def test_unavailable_action_names_the_first_bad_agent_red_before_blue():
    env = BattleEnv(get_scenario("8m"))
    env.reset(seed=0)
    red, blue = all_stop(env, Team.RED), all_stop(env, Team.BLUE)
    n_actions = env.team_spec(Team.RED).n_actions
    cases = [
        (Team.RED, 2, {Team.RED: {2: -1, 5: n_actions}, Team.BLUE: {0: n_actions}}),
        (Team.RED, 1, {Team.RED: {1: TARGET_OFFSET, 3: ACTION_NOOP}}),  # enemies out of sight; alive
        (Team.BLUE, 4, {Team.BLUE: {4: ACTION_NOOP, 6: -3}}),
    ]
    for team, agent, bad in cases:
        actions = {Team.RED: red.copy(), Team.BLUE: blue.copy()}
        for t, codes in bad.items():
            for a, code in codes.items():
                actions[t][a] = code
        for run in (lambda *acts: reference_commands(env, *acts), env.step):
            with pytest.raises(UnavailableAction) as err:
                run(actions[Team.RED], actions[Team.BLUE])
            assert (err.value.team, err.value.agent, err.value.code) == (team, agent, bad[team][agent])
    assert not env.terminated and env.world.step_count == 0


# -- results do not share memory -----------------------------------------------------


def test_results_outlive_later_steps_resets_and_restores():
    env = BattleEnv(get_scenario("MMM2"))
    rng = np.random.default_rng(5)
    kept = []

    def keep(results):
        for team, res in zip(Team, results):
            assert same_bytes(env.available_actions(team), res.masks)
        kept.append((results, [(res.observations.copy(), res.masks.copy()) for res in results]))
        return results

    results = keep(env.reset(seed=2))
    for _ in range(10):
        results = keep(env.step(*(random_codes(res.masks, rng) for res in results)))
    keep(env.reset(seed=3))
    keep(env.restore(edge_world(BattleEnv(get_scenario("MMM2")), 1)))
    for results, copies in kept:
        for res, (obs, mask) in zip(results, copies):
            assert same_bytes(res.observations, obs) and same_bytes(res.masks, mask)


def test_writing_into_an_observation_changes_no_later_result():
    env, twin = BattleEnv(get_scenario("MMM2")), BattleEnv(get_scenario("MMM2"))
    rng = np.random.default_rng(6)
    results, twin_results = env.reset(seed=4), twin.reset(seed=4)
    for _ in range(10):
        actions = [random_codes(res.masks, rng) for res in results]
        for res in results:
            res.observations.fill(7.0)
        results, twin_results = env.step(*actions), twin.step(*actions)
        for res, twin_res in zip(results, twin_results):
            assert same_bytes(res.observations, twin_res.observations)
            assert same_bytes(res.masks, twin_res.masks)


# -- seeded outputs -----------------------------------------------------------------

# sha256 of every result below and each step's events; any change to an
# encoding, mask, reward or event byte on any built-in scenario changes it.
PINNED_OUTPUT_DIGEST = "331039b748724c25f554fc1b2c58e5075c9047453089d2515a09ace606094314"


def seeded_output_digest():
    """Hash one random-vs-random and one bot-vs-bot episode on each built-in scenario."""
    digest = hashlib.sha256()
    for scn in builtin_scenarios().values():
        env = BattleEnv(scn)
        for algo in ("random", "bot"):
            red = make_learner(algo, env.team_spec(Team.RED), scenario=scn)
            blue = make_learner(algo, env.team_spec(Team.BLUE), scenario=scn)
            rng = np.random.default_rng(7)
            results = env.reset(seed=5)
            while True:
                for team, res in zip(Team, results):
                    for array in (res.observations, res.masks, res.state, np.float64(res.reward)):
                        digest.update(array.tobytes())
                    events = {} if env.events is None else dataclasses.asdict(env.events.for_team(team))
                    digest.update(json.dumps([events, str(res.outcome)], sort_keys=True).encode())
                if env.terminated:
                    break
                r, b = results
                results = env.step(red.act(r.observations, r.masks, 0.0, rng), blue.act(b.observations, b.masks, 0.0, rng))
    return digest.hexdigest()


def test_seeded_outputs_match_the_pinned_digest():
    assert seeded_output_digest() == PINNED_OUTPUT_DIGEST


# -- replay logs --------------------------------------------------------------------


def test_replay_round_trip(tmp_path):
    env = BattleEnv(get_scenario("3m"))
    env.reset(seed=0)
    path = tmp_path / "replay.jsonl"
    with ReplayWriter(path) as writer:
        writer.write(replay_record(env, 0, 0, None, {"red": 0.0, "blue": 0.0}, None))
        r, b = env.step(all_stop(env, Team.RED), all_stop(env, Team.BLUE))
        writer.write(replay_record(env, 0, 1, {"red": [1, 1, 1], "blue": [1, 1, 1]},
                                   {"red": r.reward, "blue": b.reward}, r.outcome))
    records = read_replay(path)
    assert len(records) == 2
    assert records[0]["v"] == 1
    assert len(records[0]["units"]) == 6
    unit = records[0]["units"][0]
    assert set(unit) == {"team", "id", "x", "y", "health", "shield", "cooldown", "alive"}
    assert records[1]["actions"]["red"] == [1, 1, 1]
    assert records[0]["events"] is None  # nothing has happened yet after a reset
    assert records[1]["events"] == {t: dataclasses.asdict(env.events.for_team(Team[t.upper()])) for t in ("red", "blue")}
    assert (unit["x"], unit["y"]) == (env.world.pos_x[0] + env.world.half_w, env.world.pos_y[0] + env.world.half_h)
    assert json.dumps(records[1])  # serialisable as-is
