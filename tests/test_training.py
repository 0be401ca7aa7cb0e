"""Training controllers: bot, paired and mixed runs and pool building share one loop."""

import dataclasses

import numpy as np
import pytest

from skirmish.engine import Team
from skirmish.env import BattleEnv
from skirmish.learners import LearnerConfig, ScriptedBot, make_learner
from skirmish.scenario import get_scenario
from skirmish.training import (
    MutablePoolMember,
    OpponentPool,
    TrainConfig,
    TrainingError,
    _packed,
    build_opponent_pool,
    run_episode,
    train_mixed,
    train_paired,
    train_vs_bot,
)

from conftest import dense_obs

SCENARIO = get_scenario("3m")
LEARNER = LearnerConfig(hidden=(16,), batch_episodes=2, buffer_episodes=16, epsilon_anneal_steps=300, target_interval=3)
CONFIG = TrainConfig(total_env_steps=300, test_interval=150, test_episodes=2, learner=LEARNER)


def learner(algo, team=Team.RED, seed=0):
    return make_learner(algo, BattleEnv(SCENARIO).team_spec(team), LEARNER, seed=seed)


def small_pool(algos=("vdn",), bot=True, seed=0):
    members = build_opponent_pool(SCENARIO, algos, TrainConfig(total_env_steps=120, learner=LEARNER), seed)
    return OpponentPool(members + ([ScriptedBot(SCENARIO, Team.BLUE)] if bot else []))


def points(metrics):
    return [(p.env_step, p.wins, p.draws, p.losses, p.mean_return_red, p.mean_return_blue) for p in metrics.points]


def test_paired_reports_one_evaluation_from_both_sides():
    a, b = learner("iql", Team.RED, 1), learner("qmix", Team.BLUE, 2)
    before = a.checkpoint_hash(), b.checkpoint_hash()
    ma, mb = train_paired(a, b, SCENARIO, CONFIG, seed=3)
    assert (ma.algo_red, ma.algo_blue, mb.algo_red, mb.algo_blue) == ("iql", "qmix", "qmix", "iql")
    assert [p.env_step for p in ma.points] == [p.env_step for p in mb.points] == [0, 150, 300]
    for pa, pb in zip(ma.points, mb.points):
        assert (pa.wins, pa.draws, pa.losses) == (pb.losses, pb.draws, pb.wins)
        assert (pa.mean_return_red, pa.mean_return_blue) == (pb.mean_return_blue, pb.mean_return_red)
    assert a.checkpoint_hash() != before[0] and b.checkpoint_hash() != before[1]
    assert a.env_steps == b.env_steps >= CONFIG.total_env_steps


def test_mixed_trains_red_and_leaves_the_pool_unchanged():
    pool = small_pool()
    before = pool.hashes()
    red = learner("vdn", seed=4)
    start = red.checkpoint_hash()
    metrics = train_mixed(red, pool, SCENARIO, CONFIG, seed=5)
    assert (metrics.mode, metrics.algo_blue) == ("mixed", "pool")
    assert [p.env_step for p in metrics.points] == [0, 150, 300]
    assert all(p.episodes == CONFIG.test_episodes for p in metrics.points)
    assert pool.hashes() == before
    assert red.checkpoint_hash() != start


def test_mixed_rejects_a_member_that_changes():
    pool = small_pool(bot=False)
    member = pool.members[0]
    act = member.act

    def drifting_act(obs, masks, epsilon=0.0, rng=None):
        member.parameter_arrays()[0].flat[0] += 1.0
        return act(obs, masks, epsilon, rng)

    member.act = drifting_act
    with pytest.raises(MutablePoolMember):
        train_mixed(learner("iql"), pool, SCENARIO, CONFIG, seed=0)
    with pytest.raises(MutablePoolMember):
        OpponentPool([learner("iql", Team.BLUE)])
    with pytest.raises(TrainingError):
        OpponentPool([])


def test_build_opponent_pool_trains_frozen_blue_members():
    budget = 120
    members = small_pool(("iql", "qmix"), bot=False).members
    assert [m.algo for m in members] == ["iql", "qmix"]
    fresh = [learner(algo, Team.BLUE).checkpoint_hash() for algo in ("iql", "qmix")]
    for member, untrained in zip(members, fresh):
        assert member.frozen
        assert member.team_spec.team is Team.BLUE
        assert budget <= member.env_steps < budget + SCENARIO.episode_step_limit
        assert member.train_steps > 0
        assert member.checkpoint_hash() != untrained


def test_same_seed_gives_identical_runs():
    def run():
        bot_red = learner("qmix", seed=6)
        bot = train_vs_bot(bot_red, SCENARIO, CONFIG, seed=7)
        a, b = learner("vdn", Team.RED, 8), learner("iql", Team.BLUE, 9)
        paired = train_paired(a, b, SCENARIO, CONFIG, seed=10)
        pool = small_pool(("iql",), seed=11)
        mixed_red = learner("iql", seed=12)
        mixed = train_mixed(mixed_red, pool, SCENARIO, CONFIG, seed=13)
        return (
            [points(m) for m in (bot, *paired, mixed)],
            [x.checkpoint_hash() for x in (bot_red, a, b, mixed_red)],
            pool.hashes(),
        )

    first = run()
    assert run() == first
    assert [len(p) for p in first[0]] == [3, 3, 3, 3]


def arrays_of(episode):
    return [getattr(episode, f.name) for f in dataclasses.fields(episode)]


def test_buffered_episodes_are_exact_copies_in_a_mapping_of_their_own_size():
    env = BattleEnv(SCENARIO)
    red, blue = learner("iql"), ScriptedBot(SCENARIO, Team.BLUE)
    recorded = run_episode(env, red, blue, seed=3, epsilon_red=1.0, rng_red=np.random.default_rng(0),
                           collect_red=True).red_episode
    for want, got in zip(arrays_of(recorded), arrays_of(_packed(recorded))):
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
    train_vs_bot(red, SCENARIO, CONFIG)
    for ep in red.buffer:  # not views of a recorder's mapping, which has room for the step limit
        arrays = arrays_of(ep)
        owners = []
        for owner in arrays:
            while isinstance(owner, np.ndarray):
                owner = owner.base
            owners.append(owner.obj)  # the mmap under np.frombuffer's memoryview
        assert all(o is owners[0] for o in owners)
        assert len(owners[0]) <= sum(a.nbytes for a in arrays) + 64 * len(arrays)


def test_collected_episodes_match_the_env_step_by_step():
    env = BattleEnv(SCENARIO)
    red = make_learner("random", env.team_spec(Team.RED), seed=1)
    blue = make_learner("bot", env.team_spec(Team.BLUE), scenario=SCENARIO)
    first = run_episode(env, red, blue, seed=4, epsilon_red=1.0, rng_red=np.random.default_rng(0), collect_red=True,
                        collect_blue=True)
    names = ("blank", "live_obs", "state", "masks", "actions", "rewards")
    kept = {name: getattr(first.red_episode, name).copy() for name in names}
    run_episode(env, red, blue, seed=5, epsilon_red=1.0, rng_red=np.random.default_rng(1), collect_red=True)
    for name, array in kept.items():  # a later episode writes into arrays of its own
        assert np.array_equal(getattr(first.red_episode, name), array)

    rng = np.random.default_rng(0)
    red.begin_episode()
    blue.begin_episode()
    r_res, b_res = env.reset(4)
    obs, state, masks, actions, rewards = [r_res.observations], [r_res.state], [r_res.masks], [], []
    while not env.terminated:
        a_r = red.act(r_res.observations, r_res.masks, 1.0, rng)
        a_b = blue.act(b_res.observations, b_res.masks, 0.0, None)
        r_res, b_res = env.step(a_r, a_b)
        obs.append(r_res.observations)
        state.append(r_res.state)
        masks.append(r_res.masks)
        actions.append(a_r)
        rewards.append(r_res.reward)
    ep = first.red_episode
    assert ep.length == first.length == len(actions)
    assert ep.live_obs.dtype == ep.state.dtype == np.float32 and ep.masks.dtype == ep.blank.dtype == bool
    assert ep.actions.dtype == np.int16 and ep.rewards.dtype == np.float64
    obs = np.array(obs, dtype=np.float32)
    blank = ~obs.any(axis=-1)
    assert np.array_equal(ep.blank, blank) and blank.any()  # units die in this episode
    obs[blank] = 0.0  # a blank row is kept as its flag alone, so the -0.0s a dead unit's row holds read back as 0.0
    assert dense_obs(ep).tobytes() == obs.tobytes()
    assert np.array_equal(ep.state, np.array(state, dtype=np.float32))
    assert np.array_equal(ep.masks, np.array(masks))
    assert np.array_equal(ep.actions, np.array(actions))
    assert np.array_equal(ep.rewards, np.array(rewards))
    assert all(getattr(ep, name).flags.writeable and getattr(ep, name).flags.c_contiguous for name in names)
