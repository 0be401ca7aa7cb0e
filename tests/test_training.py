"""Training controllers: bot, paired and mixed runs share one loop.

A mixed run's pool members are learners trained by earlier runs and frozen;
one trained as red plays blue once its ``team_spec`` names blue.
"""

import dataclasses

import numpy as np
import pytest

from skirmish.engine import Team
from skirmish.env import BattleEnv
from skirmish.learners import LearnerConfig, ScriptedBot, _collate, make_learner, unpack_masks
from skirmish.scenario import get_scenario
from skirmish.training import (
    MutablePoolMember,
    OpponentPool,
    TrainConfig,
    TrainingError,
    run_episode,
    train_mixed,
    train_paired,
    train_vs_bot,
)

from conftest import dense_obs, dense_state

SCENARIO = get_scenario("3m")
LEARNER = LearnerConfig(hidden=(16,), batch_episodes=2, buffer_episodes=16, epsilon_anneal_steps=300, target_interval=3)
CONFIG = TrainConfig(total_env_steps=300, test_interval=150, test_episodes=2, learner=LEARNER)


def learner(algo, team=Team.RED, seed=0):
    return make_learner(algo, BattleEnv(SCENARIO).team_spec(team), LEARNER, seed=seed)


def member(algo, seed=0):
    """A pool member: a red learner trained against the bot, frozen and relabelled to play blue."""
    trained = learner(algo, seed=seed)
    train_vs_bot(trained, SCENARIO, TrainConfig(total_env_steps=120, test_interval=120, test_episodes=1,
                                                learner=LEARNER), seed)
    trained.freeze()
    trained.team_spec = BattleEnv(SCENARIO).team_spec(Team.BLUE)
    return trained


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
    pool = OpponentPool([member("vdn"), ScriptedBot(SCENARIO, Team.BLUE)])
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
    drifting = member("vdn")
    pool = OpponentPool([drifting])
    act = drifting.act

    def drifting_act(obs, masks, epsilon=0.0, rng=None):
        drifting.parameter_arrays()[0].flat[0] += 1.0
        return act(obs, masks, epsilon, rng)

    drifting.act = drifting_act
    with pytest.raises(MutablePoolMember):
        train_mixed(learner("iql"), pool, SCENARIO, CONFIG, seed=0)
    with pytest.raises(MutablePoolMember):
        OpponentPool([learner("iql", Team.BLUE)])
    with pytest.raises(TrainingError):
        OpponentPool([])


def test_same_seed_gives_identical_runs():
    def run():
        bot_red = learner("qmix", seed=6)
        bot = train_vs_bot(bot_red, SCENARIO, CONFIG, seed=7)
        a, b = learner("vdn", Team.RED, 8), learner("iql", Team.BLUE, 9)
        paired = train_paired(a, b, SCENARIO, CONFIG, seed=10)
        pool = OpponentPool([member("iql", seed=11), ScriptedBot(SCENARIO, Team.BLUE)])
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


def test_buffered_episodes_live_in_a_mapping_of_their_own_size():
    red = learner("iql")
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


def recorded_and_dense(scenario, seed):
    """A random red against the blue bot, as ``run_episode`` records it and as dense arrays read off the env."""
    env = BattleEnv(scenario)
    red = make_learner("random", env.team_spec(Team.RED))
    blue = make_learner("bot", env.team_spec(Team.BLUE), scenario=scenario)
    recorded = run_episode(env, red, blue, seed=seed, epsilon_red=1.0, rng_red=np.random.default_rng(seed),
                           collect_red=True, collect_blue=True)
    rng = np.random.default_rng(seed)
    r_res, b_res = env.reset(seed)
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
    obs = np.array(obs, dtype=np.float32)
    obs[~obs.any(axis=-1)] = 0.0  # a blank row is kept as its flag alone, so the -0.0s a dead unit's row holds read back as 0.0
    dense = {"obs": obs, "state": np.array(state, dtype=np.float32), "masks": np.array(masks),
             "actions": np.array(actions), "rewards": np.array(rewards)}
    return recorded, dense


def negative_zeros(a):
    return int(((a == 0) & np.signbit(a)).sum())


def test_collected_episodes_match_the_env_step_by_step():
    spec = BattleEnv(SCENARIO).team_spec(Team.RED)
    first, dense = recorded_and_dense(SCENARIO, 4)
    kept = [a.copy() for a in arrays_of(first.red_episode)]
    recorded_and_dense(SCENARIO, 5)
    for array, copy in zip(arrays_of(first.red_episode), kept):  # a later episode writes into arrays of its own
        assert np.array_equal(array, copy)

    ep = first.red_episode
    assert ep.length == first.length == len(dense["actions"])
    assert ep.obs_values.dtype == ep.state_values.dtype == np.float32 and ep.blank.dtype == bool
    assert ep.obs_bits.dtype == ep.state_bits.dtype == ep.masks.dtype == np.uint8
    assert ep.actions.dtype == np.int16 and ep.rewards.dtype == np.float64
    assert np.array_equal(ep.blank, ~dense["obs"].any(axis=-1)) and ep.blank.any()  # units die in this episode
    assert dense_obs(ep, spec.obs_len).tobytes() == dense["obs"].tobytes()
    assert dense_state(ep, spec.state_len).tobytes() == dense["state"].tobytes()
    assert np.array_equal(unpack_masks(ep.masks, spec.n_agents, spec.n_actions), dense["masks"])
    assert np.array_equal(ep.actions, dense["actions"])
    assert np.array_equal(ep.rewards, dense["rewards"])
    assert all(a.flags.writeable and a.flags.c_contiguous for a in arrays_of(ep))


@pytest.mark.parametrize("name", ["3m", "MMM2"])
def test_stored_episodes_round_trip_bit_for_bit(name):
    """Every observation and state cell reads back with its float32 bits, ``-0.0`` included, whoever dies."""
    scenario = get_scenario(name)
    spec = BattleEnv(scenario).team_spec(Team.RED)
    wiped_out = negatives = 0
    for seed in range(3):
        recorded, dense = recorded_and_dense(scenario, seed)
        ep = recorded.red_episode
        assert np.array_equal(dense_obs(ep, spec.obs_len).view(np.uint32), dense["obs"].view(np.uint32))
        assert np.array_equal(dense_state(ep, spec.state_len).view(np.uint32), dense["state"].view(np.uint32))
        wiped_out += bool(ep.blank[-1].all())
        negatives += negative_zeros(ep.obs_values) + negative_zeros(ep.state_values)
    assert wiped_out and negatives  # an episode in which every red agent dies, and -0.0 cells kept as values


@pytest.mark.parametrize("name", ["3m", "MMM2"])
def test_stored_masks_are_each_rows_mask_packed_to_bits(name):
    """A row's ``(A, n_actions)`` mask is stored row-major, eight entries to a byte, the last byte zero-padded."""
    scenario = get_scenario(name)
    spec = BattleEnv(scenario).team_spec(Team.RED)
    recorded, dense = recorded_and_dense(scenario, 1)
    ep = recorded.red_episode
    width = spec.n_agents * spec.n_actions
    assert ep.masks.dtype == np.uint8 and ep.masks.shape == (ep.length + 1, -(-width // 8))
    bits = np.unpackbits(ep.masks, axis=1)
    assert np.array_equal(bits[:, :width].view(bool), dense["masks"].reshape(len(bits), width))
    assert not bits[:, width:].any()


def test_collate_of_stored_episodes_matches_the_dense_batch():
    scenario = get_scenario("MMM2")
    spec = BattleEnv(scenario).team_spec(Team.RED)
    learner = make_learner("qmix", spec, LEARNER)
    played = [recorded_and_dense(scenario, seed) for seed in range(3)]
    batch = _collate(learner, [recorded.red_episode for recorded, _ in played])
    A, L, nA = spec.n_agents, spec.obs_len, spec.n_actions
    inputs = []
    for _, dense in played:  # each row's input built from the dense arrays
        rows = np.zeros((len(dense["obs"]), A, learner.input_dim), dtype=np.float32)
        rows[..., :L] = dense["obs"]
        rows[..., L : L + A] = np.eye(A)
        rows[1:, :, L + A :] = np.eye(nA)[dense["actions"]]
        inputs.append(rows)
    assert batch.inputs[batch.inverse].tobytes() == np.concatenate(inputs).tobytes()
    assert batch.states.dtype == np.float32
    assert batch.states.tobytes() == np.concatenate([dense["state"] for _, dense in played]).tobytes()
    assert batch.avail.tobytes() == np.concatenate([dense["masks"] for _, dense in played]).tobytes()


def test_an_mmm2_episode_stores_in_at_most_half_its_dense_bytes():
    recorded, dense = recorded_and_dense(get_scenario("MMM2"), 0)
    ep = recorded.red_episode
    live = dense["obs"][~ep.blank]
    dense_bytes = sum(a.nbytes for a in (ep.blank, live, dense["state"], dense["masks"], ep.actions, ep.rewards))
    assert sum(a.nbytes for a in arrays_of(ep)) <= 0.5 * dense_bytes
