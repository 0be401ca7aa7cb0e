"""Policies, mixers and trainers: behaviour rules, gradients, reductions."""

import numpy as np
import pytest

from skirmish import nn
from skirmish.engine import CATALOG, Team
from skirmish.env import ACTION_MOVE_EAST, ACTION_NOOP, TARGET_OFFSET, BattleEnv, TeamSpec
from skirmish.learners import (
    LearnerConfig,
    NoAvailableAction,
    RandomPolicy,
    ScriptedBot,
    TeamEpisode,
    ValueLearner,
    epsilon_greedy,
    load_learner,
    make_identity_mixer,
    make_learner,
    make_mixer,
    qmix_mix,
    save_learner,
    team_td_train_step,
    vdn_mix,
)

from conftest import tiny_scenario
from test_env import restore_world


def toy_spec(A=2, obs_len=6, nA=5, S=4):
    return TeamSpec(team=Team.RED, n_agents=A, n_enemies=2, obs_len=obs_len, state_len=S, n_actions=nA, scenario="toy")


def toy_episode(spec, T, rng, rewards=None, masks=None, actions=None):
    A, L, nA, S = spec.n_agents, spec.obs_len, spec.n_actions, spec.state_len
    return TeamEpisode(
        obs=rng.random((T + 1, A, L)).astype(np.float32),
        state=rng.random((T + 1, S)).astype(np.float32),
        masks=np.ones((T + 1, A, nA), dtype=bool) if masks is None else masks,
        actions=rng.integers(0, nA, (T, A)).astype(np.int16) if actions is None else actions,
        rewards=rng.normal(size=T) if rewards is None else np.asarray(rewards, dtype=float),
    )


# -- epsilon-greedy ---------------------------------------------------------------


def test_greedy_argmax():
    q = np.array([[1.0, 5.0, 3.0]])
    mask = np.ones((1, 3), dtype=bool)
    assert epsilon_greedy(q, mask, 0.0, None)[0] == 1


def test_greedy_respects_mask():
    q = np.array([[1.0, 5.0, 3.0]])
    mask = np.array([[True, False, True]])
    assert epsilon_greedy(q, mask, 0.0, None)[0] == 2


def test_greedy_tie_breaks_low():
    q = np.array([[2.0, 2.0, 1.0]])
    assert epsilon_greedy(q, np.ones((1, 3), bool), 0.0, None)[0] == 0


def test_no_available_action():
    with pytest.raises(NoAvailableAction):
        epsilon_greedy(np.zeros((1, 3)), np.zeros((1, 3), bool), 0.0, None)


def test_full_exploration_is_uniform():
    rng = np.random.default_rng(123)
    n = 100_000
    q = np.zeros((n, 4))
    mask = np.ones((n, 4), dtype=bool)
    actions = epsilon_greedy(q, mask, 1.0, rng)
    freq = np.bincount(actions, minlength=4) / n
    assert np.all(np.abs(freq - 0.25) < 0.02)


def test_mask_safety_over_random_calls():
    rng = np.random.default_rng(9)
    for _ in range(100):
        A, nA = int(rng.integers(1, 6)), int(rng.integers(2, 12))
        mask = rng.random((A, nA)) < 0.4
        mask[np.arange(A), rng.integers(0, nA, A)] = True  # at least one available
        q = rng.normal(size=(A, nA))
        for eps in (0.0, 0.3, 1.0):
            actions = epsilon_greedy(q, mask, eps, rng)
            assert mask[np.arange(A), actions].all()
    # and in bulk: one big batch of 10^5 rows
    mask = rng.random((100_000, 6)) < 0.3
    mask[np.arange(len(mask)), rng.integers(0, 6, len(mask))] = True
    actions = epsilon_greedy(rng.normal(size=mask.shape), mask, 0.5, rng)
    assert mask[np.arange(len(mask)), actions].all()


def test_random_policy_uniform_and_safe():
    rng = np.random.default_rng(5)
    policy = RandomPolicy(toy_spec())
    mask = np.array([[True, False, True, False, True]] * 3)
    counts = np.zeros(5)
    for _ in range(3000):
        a = policy.act(None, mask, rng=rng)
        assert mask[np.arange(3), a].all()
        counts += np.bincount(a, minlength=5)
    assert counts[1] == counts[3] == 0
    freq = counts / counts.sum()
    assert np.all(np.abs(freq[[0, 2, 4]] - 1 / 3) < 0.02)


# -- scripted bot -----------------------------------------------------------------


def test_bot_focus_fires_lowest_pool():
    scn = tiny_scenario(red=("marine", 1), blue=("marine", 2))
    env = BattleEnv(scn)
    r, _ = restore_world(
        env,
        [
            ("marine", Team.RED, (12.0, 16.0)),
            ("marine", Team.BLUE, (18.0, 15.0)),
            ("marine", Team.BLUE, (18.0, 17.0)),
        ],
    )
    world = env.world
    world.health[1] = 40.0
    world.health[2] = 10.0
    r, _ = env.restore(world)
    bot = ScriptedBot(scn, Team.RED)
    actions = bot.act(r.observations, r.masks)
    assert actions[0] == TARGET_OFFSET + 1  # the 10-health enemy

    # ties break toward the lower slot
    world.health[2] = 40.0
    r, _ = env.restore(world)
    assert bot.act(r.observations, r.masks)[0] == TARGET_OFFSET + 0


def test_bot_counts_shields_in_focus_value():
    scn = tiny_scenario(red=("stalker", 1), blue=("zealot", 2))
    env = BattleEnv(scn)
    r, _ = restore_world(
        env,
        [
            ("stalker", Team.RED, (12.0, 16.0)),
            ("zealot", Team.BLUE, (18.0, 15.0)),
            ("zealot", Team.BLUE, (18.0, 17.0)),
        ],
    )
    world = env.world
    world.health[1] = 100.0
    world.shield[1] = 0.0    # pool 100
    world.health[2] = 60.0
    world.shield[2] = 50.0   # pool 110
    r, _ = env.restore(world)
    bot = ScriptedBot(scn, Team.RED)
    assert bot.act(r.observations, r.masks)[0] == TARGET_OFFSET + 0


def test_bot_advances_east_when_blind():
    scn = tiny_scenario()
    env = BattleEnv(scn)
    r, b = env.reset(seed=0)
    bot_r = ScriptedBot(scn, Team.RED)
    bot_b = ScriptedBot(scn, Team.BLUE)
    assert (bot_r.act(r.observations, r.masks) == ACTION_MOVE_EAST).all()
    assert (bot_b.act(b.observations, b.masks) == ACTION_MOVE_EAST).all()  # mirrored frame


def test_bot_noop_when_dead():
    scn = tiny_scenario()
    env = BattleEnv(scn)
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
    r, _ = env.restore(world)
    bot = ScriptedBot(scn, Team.RED)
    actions = bot.act(r.observations, r.masks)
    assert actions[0] == ACTION_NOOP


def test_bot_heals_lowest_damaged_ally():
    from skirmish.scenario import ScenarioSpec

    scn = ScenarioSpec(
        name="custom",
        red_composition=((CATALOG["medivac"], 1), (CATALOG["marine"], 2)),
        blue_composition=((CATALOG["marine"], 1),),
        spawn_spread=0.0,
    )
    env = BattleEnv(scn)
    restore_world(
        env,
        [
            ("medivac", Team.RED, (10.0, 16.0)),
            ("marine", Team.RED, (11.0, 15.0)),
            ("marine", Team.RED, (11.0, 17.0)),
            ("marine", Team.BLUE, (30.0, 16.0)),
        ],
    )
    world = env.world
    world.health[1] = 40.0
    world.health[2] = 30.0
    r, _ = env.restore(world)
    bot = ScriptedBot(scn, Team.RED)
    actions = bot.act(r.observations, r.masks)
    assert actions[0] == TARGET_OFFSET + 1  # heal slot 1 = second marine (30 hp)
    # undamaged team: medivac falls back to advancing
    world.health[1] = 45.0
    world.health[2] = 45.0
    r, _ = env.restore(world)
    assert bot.act(r.observations, r.masks)[0] == ACTION_MOVE_EAST


# -- mixing -----------------------------------------------------------------------


def test_vdn_mix_sums():
    assert vdn_mix(np.array([1.0, 2.0, -0.5])) == 2.5
    assert vdn_mix(np.array([3.25])) == 3.25
    perm = np.array([-0.5, 1.0, 2.0])
    assert vdn_mix(perm) == vdn_mix(np.array([1.0, 2.0, -0.5]))
    batch = np.array([[1.0, 2.0], [3.0, -1.0]])
    assert np.array_equal(vdn_mix(batch), [3.0, 2.0])


def test_identity_mixer_reduces_to_vdn():
    mixer = make_identity_mixer(state_dim=4, n_agents=3)
    rng = np.random.default_rng(0)
    q = rng.normal(size=(10, 3))
    s = rng.normal(size=(10, 4))
    assert np.array_equal(qmix_mix(q, s, mixer), vdn_mix(q))


def test_mixer_hand_computed_value():
    mixer = make_mixer(state_dim=3, n_agents=2, embed=1, layers=2, seed=0)
    for net in mixer.nets():
        for w in net.weights:
            w[:] = 0.0
        for b in net.biases:
            b[:] = 0.0
    mixer.hyper_w1.biases[0][:] = [0.5, -1.5]   # |.| -> [0.5, 1.5]
    mixer.hyper_b1.biases[0][:] = [0.25]
    mixer.hyper_w2.biases[0][:] = [-2.0]        # |.| -> 2
    mixer.hyper_v.biases[-1][:] = [0.7]
    q = np.array([1.0, 2.0])
    s = np.zeros(3)
    # hidden = elu(1*0.5 + 2*1.5 + 0.25) = 3.75; total = 3.75*2 + 0.7
    assert qmix_mix(q, s, mixer) == pytest.approx(8.2)


def test_mixer_monotone_partials():
    rng = np.random.default_rng(4)
    mixer = make_mixer(state_dim=5, n_agents=3, embed=8, layers=2, seed=3)
    h = 1e-6
    for _ in range(200):
        q = rng.normal(size=3)
        s = rng.normal(size=5)
        for i in range(3):
            up = q.copy()
            up[i] += h
            down = q.copy()
            down[i] -= h
            partial = (qmix_mix(up, s, mixer) - qmix_mix(down, s, mixer)) / (2 * h)
            assert partial >= -1e-9


def test_mixer_shape_mismatch():
    from skirmish.nn import ShapeMismatch

    mixer = make_mixer(state_dim=4, n_agents=2, seed=0)
    with pytest.raises(ShapeMismatch):
        qmix_mix(np.zeros(3), np.zeros(4), mixer)


# -- training steps ---------------------------------------------------------------


def chosen_q(learner, episode):
    """Manual per-step chosen-action Q for a single episode (no padding)."""
    T = episode.length
    spec = learner.team_spec
    out = np.empty((T, spec.n_agents))
    for t in range(T):
        last = episode.actions[t - 1] if t > 0 else None
        inputs = learner._inputs(episode.obs[t].astype(float), last)
        q = np.atleast_2d(nn.forward(learner.net, inputs))
        out[t] = q[np.arange(spec.n_agents), episode.actions[t]]
    return out


def test_iql_terminal_target_ignores_target_net():
    spec = toy_spec()
    cfg = LearnerConfig(hidden=(8,), lr=0.0)  # lr 0: inspect the loss only
    rng = np.random.default_rng(0)
    ep = toy_episode(spec, 1, rng, rewards=[1.0])
    a = ValueLearner("iql", spec, cfg, seed=2)
    b = ValueLearner("iql", spec, cfg, seed=2)
    for w in b.target_net.weights:
        w += 100.0  # garbage target network
    la = team_td_train_step(a, [ep])
    lb = team_td_train_step(b, [ep])
    assert la == lb  # terminal step bootstraps nothing
    q = chosen_q(a, ep)
    assert la == pytest.approx(((q - 1.0) ** 2).mean())


def test_iql_gamma_zero_targets_are_rewards():
    spec = toy_spec()
    cfg = LearnerConfig(hidden=(8,), lr=0.0)
    rng = np.random.default_rng(3)
    ep = toy_episode(spec, 5, rng)
    learner = ValueLearner("iql", spec, cfg, seed=7)
    loss = team_td_train_step(learner, [ep], gamma=0.0)
    q = chosen_q(learner, ep)
    expected = ((q - ep.rewards[:, None]) ** 2).mean()
    assert loss == pytest.approx(expected)


def test_team_td_gamma_zero_targets_are_rewards():
    spec = toy_spec()
    cfg = LearnerConfig(hidden=(8,), lr=0.0)
    rng = np.random.default_rng(3)
    ep = toy_episode(spec, 5, rng)
    learner = ValueLearner("vdn", spec, cfg, seed=7)
    loss = team_td_train_step(learner, [ep], gamma=0.0)
    q = chosen_q(learner, ep).sum(axis=1)
    expected = ((q - ep.rewards) ** 2).mean()
    assert loss == pytest.approx(expected)


def test_iql_overfits_one_batch():
    spec = toy_spec()
    cfg = LearnerConfig(hidden=(32, 32), lr=5e-3, batch_episodes=2, target_interval=100)
    rng = np.random.default_rng(0)
    eps = [toy_episode(spec, 6, rng), toy_episode(spec, 4, rng)]
    learner = ValueLearner("iql", spec, cfg, seed=1)
    losses = [team_td_train_step(learner, eps) for _ in range(50)]
    assert losses[-1] < losses[0] * 0.1
    assert np.median(losses[-10:]) < np.median(losses[:10])


@pytest.mark.parametrize("algo", ["vdn", "qmix"])
def test_team_td_overfits_four_transitions(algo):
    spec = toy_spec()
    cfg = LearnerConfig(hidden=(32, 32), lr=5e-3, batch_episodes=1, target_interval=100)
    ep = [toy_episode(spec, 4, np.random.default_rng(5))]
    learner = ValueLearner(algo, spec, cfg, seed=1)
    losses = [team_td_train_step(learner, ep) for _ in range(500)]
    assert losses[-1] < 0.01 * losses[0]


def test_empty_batch_rejected():
    for algo in ("iql", "vdn", "qmix"):
        learner = ValueLearner(algo, toy_spec(), LearnerConfig(hidden=(8,)), seed=0)
        with pytest.raises(ValueError):
            team_td_train_step(learner, [])


@pytest.mark.parametrize("algo", ["iql", "vdn", "qmix"])
def test_td_gradient_matches_finite_differences(algo, monkeypatch):
    """The gradient handed to Adam is the gradient of the returned loss."""
    spec = toy_spec(A=3)
    cfg = LearnerConfig(hidden=(8,), grad_clip=0.0, target_interval=10_000, mixer_embed=4)
    rng = np.random.default_rng(21)
    episodes = [toy_episode(spec, 5, rng), toy_episode(spec, 3, rng)]
    learner = ValueLearner(algo, spec, cfg, seed=5)
    for p in learner.target_net.params():  # targets that differ from the online values
        p += rng.normal(scale=0.1, size=p.shape)
    captured = []
    monkeypatch.setattr(nn, "adam_step", lambda params, grads, state: captured.append(grads))

    team_td_train_step(learner, episodes)  # no update: Adam only records the gradient
    analytic = captured[0]
    params = learner.parameter_arrays()
    assert [g.shape for g in analytic] == [p.shape for p in params]
    h = 1e-5
    numeric, expected = [], []
    for p, g in zip(params, analytic):
        flat, gflat = p.reshape(-1), g.reshape(-1)
        for k in rng.choice(flat.size, size=min(flat.size, 4), replace=False):
            keep = flat[k]
            flat[k] = keep + h
            hi = team_td_train_step(learner, episodes)
            flat[k] = keep - h
            lo = team_td_train_step(learner, episodes)
            flat[k] = keep
            numeric.append((hi - lo) / (2.0 * h))
            expected.append(gflat[k])
    assert learner.train_steps < cfg.target_interval
    assert np.abs(expected).max() > 1e-3
    np.testing.assert_allclose(numeric, expected, rtol=1e-5, atol=1e-8)


# -- reduction identities -----------------------------------------------------------


def test_vdn_single_agent_equals_iql_exactly():
    spec = toy_spec(A=1)
    cfg = LearnerConfig(hidden=(16, 16), lr=1e-3, target_interval=10)
    rng = np.random.default_rng(8)
    episodes = [toy_episode(spec, 5, rng), toy_episode(spec, 3, rng)]
    iql = ValueLearner("iql", spec, cfg, seed=4)
    vdn = ValueLearner("vdn", spec, cfg, seed=4)
    for _ in range(5):
        assert team_td_train_step(iql, episodes) == team_td_train_step(vdn, episodes)
    for a, b in zip(iql.parameter_arrays(), vdn.parameter_arrays()):
        assert np.array_equal(a, b)


def force_identity_mixer(learner):
    for mix in (learner.mixer, learner.target_mixer):
        mix.hyper_w1.weights[0][:] = 0.0
        mix.hyper_w1.biases[0][:] = 1.0
        mix.hyper_b1.weights[0][:] = 0.0
        mix.hyper_b1.biases[0][:] = 0.0


def test_qmix_identity_mixer_equals_vdn_loss():
    spec = toy_spec(A=3)
    cfg = LearnerConfig(hidden=(16, 16), lr=0.0, mixer_layers=1)
    rng = np.random.default_rng(2)
    episodes = [toy_episode(spec, 4, rng)]
    vdn = ValueLearner("vdn", spec, cfg, seed=6)
    qmix = ValueLearner("qmix", spec, cfg, seed=6)
    force_identity_mixer(qmix)
    assert team_td_train_step(vdn, episodes) == team_td_train_step(qmix, episodes)


# -- learner lifecycle ---------------------------------------------------------------


def test_value_learner_act_is_masked_and_stateful():
    spec = toy_spec()
    learner = ValueLearner("iql", spec, LearnerConfig(hidden=(8,)), seed=0)
    rng = np.random.default_rng(0)
    learner.begin_episode()
    mask = np.array([[True, True, False, False, False]] * 2)
    for _ in range(20):
        a = learner.act(rng.random((2, spec.obs_len)), mask, epsilon=0.7, rng=rng)
        assert mask[np.arange(2), a].all()


def test_frozen_learner_hash_stable_under_act():
    spec = toy_spec()
    learner = ValueLearner("vdn", spec, LearnerConfig(hidden=(8,)), seed=0)
    learner.freeze()
    before = learner.checkpoint_hash()
    rng = np.random.default_rng(1)
    learner.begin_episode()
    for _ in range(50):
        learner.act(rng.random((2, spec.obs_len)), np.ones((2, 5), bool), epsilon=0.5, rng=rng)
    learner.observe(toy_episode(spec, 3, rng))  # ignored when frozen
    assert learner.train_step() is None
    assert learner.checkpoint_hash() == before
    assert len(learner.buffer) == 0


def test_checkpoint_save_load_round_trip(tmp_path):
    spec = toy_spec()
    cfg = LearnerConfig(hidden=(8, 8), lr=2e-3)
    learner = ValueLearner("qmix", spec, cfg, seed=3)
    rng = np.random.default_rng(0)
    team_td_train_step(learner, [toy_episode(spec, 4, rng)])
    learner.env_steps = 1234
    path = tmp_path / "qmix.npz"
    save_learner(path, learner, {"mode": "test"})
    loaded = load_learner(path)
    assert loaded.algo == "qmix"
    assert loaded.team_spec == spec
    assert loaded.env_steps == 1234
    assert loaded.checkpoint_hash() == learner.checkpoint_hash()
    assert loaded.config == cfg
    assert loaded.opt.step == learner.opt.step
    assert (loaded.opt.lr, loaded.opt.beta1, loaded.opt.beta2, loaded.opt.eps) == (
        learner.opt.lr, learner.opt.beta1, learner.opt.beta2, learner.opt.eps
    )
    for a, b in zip(learner.opt.m + learner.opt.v, loaded.opt.m + loaded.opt.v):
        assert np.array_equal(a, b)


def test_bot_checkpoint_round_trip(tmp_path):
    scn = tiny_scenario()
    bot = ScriptedBot(scn, Team.BLUE)
    save_learner(tmp_path / "bot.npz", bot)
    loaded = load_learner(tmp_path / "bot.npz")
    assert isinstance(loaded, ScriptedBot)
    assert loaded.team_spec == bot.team_spec
    assert loaded.scenario == scn


def test_make_learner_factory():
    env = BattleEnv(tiny_scenario())
    ts = env.team_spec(Team.RED)
    assert make_learner("iql", ts).algo == "iql"
    assert isinstance(make_learner("random", ts), RandomPolicy)
    with pytest.raises(ValueError):
        make_learner("a3c", ts)
    with pytest.raises(ValueError):
        make_learner("bot", ts)  # bot needs the scenario
