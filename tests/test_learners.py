"""Policies, mixers and trainers: behaviour rules, gradients, reductions."""

import copy
import json
import math

import numpy as np
import pytest

from skirmish import nn
from skirmish.config import ConfigError, read_config
from skirmish.engine import CATALOG, Team
from skirmish.env import ACTION_MOVE_EAST, ACTION_NOOP, TARGET_OFFSET, BattleEnv, TeamSpec
from skirmish.learners import (
    CHECKPOINT_FORMAT,
    CheckpointError,
    LearnerConfig,
    LearnerError,
    NoAvailableAction,
    RandomPolicy,
    ScriptedBot,
    ValueLearner,
    _collate,
    _mixer_backward,
    _mixer_forward,
    epsilon_greedy,
    load_learner,
    make_learner,
    make_mixer,
    save_learner,
    team_td_train_step,
)

from conftest import compact_episode, dense_obs, tiny_scenario
from test_env import restore_world


def toy_spec(A=2, obs_len=6, nA=5, S=4):
    return TeamSpec(team=Team.RED, n_agents=A, n_enemies=2, obs_len=obs_len, state_len=S, n_actions=nA, scenario="toy")


def as_float64(learner):
    """``learner`` with its networks, target networks and Adam moments cast to float64, in place.

    For the checks that need float64 rounding: finite differences and the
    padded reference at rtol 1e-9.
    """
    for net in learner.nets + learner.targets:
        net.weights[:] = [w.astype(np.float64) for w in net.weights]
        net.biases[:] = [b.astype(np.float64) for b in net.biases]
    learner.opt.m = [m.astype(np.float64) for m in learner.opt.m]
    learner.opt.v = [v.astype(np.float64) for v in learner.opt.v]
    return learner


def toy_episode(spec, T, rng, rewards=None, masks=None, actions=None, deaths=None):
    """A random episode; an agent of ``deaths`` observes all zeros from its step of death on."""
    A, L, nA, S = spec.n_agents, spec.obs_len, spec.n_actions, spec.state_len
    obs = rng.random((T + 1, A, L)).astype(np.float32)
    for agent, step in (deaths or {}).items():
        obs[step:, agent] = 0.0
    return compact_episode(
        obs=obs,
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


def vdn_mix(per_agent_q):
    """Additive decomposition: the team value is the sum of agent values."""
    return np.asarray(per_agent_q).sum(axis=-1)


def qmix_mix(per_agent_q, state, mixer):
    """Monotonic team value of each row of per-agent chosen-action values."""
    return _mixer_forward(mixer, np.atleast_2d(per_agent_q), np.atleast_2d(state))[0]


def test_vdn_mix_sums():
    assert vdn_mix(np.array([1.0, 2.0, -0.5])) == 2.5
    assert vdn_mix(np.array([3.25])) == 3.25
    perm = np.array([-0.5, 1.0, 2.0])
    assert vdn_mix(perm) == vdn_mix(np.array([1.0, 2.0, -0.5]))
    batch = np.array([[1.0, 2.0], [3.0, -1.0]])
    assert np.array_equal(vdn_mix(batch), [3.0, 2.0])


def test_mixer_hand_computed_value():
    mixer = make_mixer(state_dim=3, n_agents=2, embed=1, seed=0)
    for net in mixer:
        for w in net.weights:
            w[:] = 0.0
        for b in net.biases:
            b[:] = 0.0
    hyper_w1, hyper_b1, hyper_w2, hyper_v = mixer
    hyper_w1.biases[0][:] = [0.5, -1.5]   # |.| -> [0.5, 1.5]
    hyper_b1.biases[0][:] = [0.25]
    hyper_w2.biases[0][:] = [-2.0]        # |.| -> 2
    hyper_v.biases[-1][:] = [0.7]
    q = np.array([1.0, 2.0])
    s = np.zeros(3)
    # hidden = elu(1*0.5 + 2*1.5 + 0.25) = 3.75; total = 3.75*2 + 0.7
    assert qmix_mix(q, s, mixer)[0] == pytest.approx(8.2)


def test_mixer_monotone_partials():
    rng = np.random.default_rng(4)
    mixer = make_mixer(state_dim=5, n_agents=3, embed=8, seed=3)
    h = 1e-6
    q = rng.normal(size=(200, 3))
    s = rng.normal(size=(200, 5))
    for i in range(3):
        step = np.zeros(3)
        step[i] = h
        partial = (qmix_mix(q + step, s, mixer) - qmix_mix(q - step, s, mixer)) / (2 * h)
        assert (partial >= -1e-9).all()


def test_mixer_shape_mismatch():
    mixer = make_mixer(state_dim=4, n_agents=2, embed=4, seed=0)
    assert qmix_mix(np.zeros(2), np.zeros(4), mixer).shape == (1,)
    with pytest.raises(nn.ShapeMismatch):
        _mixer_forward(mixer, np.zeros((1, 2)), np.zeros((1, 3)))


# -- training steps ---------------------------------------------------------------


def chosen_q(learner, episode):
    """Manual per-step chosen-action Q for a single episode (no padding)."""
    T = episode.length
    spec = learner.team_spec
    out = np.empty((T, spec.n_agents))
    obs = dense_obs(episode)
    for t in range(T):
        last = episode.actions[t - 1] if t > 0 else None
        inputs = learner._inputs(obs[t], last)
        q = np.atleast_2d(nn.forward(learner.nets[0], inputs))
        out[t] = q[np.arange(spec.n_agents), episode.actions[t]]
    return out


def test_iql_terminal_target_ignores_target_net():
    spec = toy_spec()
    cfg = LearnerConfig(hidden=(8,), lr=0.0)  # lr 0: inspect the loss only
    rng = np.random.default_rng(0)
    ep = toy_episode(spec, 1, rng, rewards=[1.0])
    a = ValueLearner("iql", spec, cfg, seed=2)
    b = ValueLearner("iql", spec, cfg, seed=2)
    for w in b.targets[0].weights:
        w += 100.0  # garbage target network
    la = team_td_train_step(a, [ep])
    lb = team_td_train_step(b, [ep])
    assert la == lb  # terminal step bootstraps nothing
    q = chosen_q(a, ep)
    assert la == pytest.approx(((q - 1.0) ** 2).mean())


def test_iql_gamma_zero_targets_are_rewards():
    spec = toy_spec()
    cfg = LearnerConfig(hidden=(8,), lr=0.0, gamma=0.0)
    rng = np.random.default_rng(3)
    ep = toy_episode(spec, 5, rng)
    learner = ValueLearner("iql", spec, cfg, seed=7)
    loss = team_td_train_step(learner, [ep])
    q = chosen_q(learner, ep)
    expected = ((q - ep.rewards[:, None]) ** 2).mean()
    assert loss == pytest.approx(expected)


def test_team_td_gamma_zero_targets_are_rewards():
    spec = toy_spec()
    cfg = LearnerConfig(hidden=(8,), lr=0.0, gamma=0.0)
    rng = np.random.default_rng(3)
    ep = toy_episode(spec, 5, rng)
    learner = ValueLearner("vdn", spec, cfg, seed=7)
    loss = team_td_train_step(learner, [ep])
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
    learner = as_float64(ValueLearner(algo, spec, cfg, seed=5))
    for p in learner.targets[0].params():  # targets that differ from the online values
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


def dying_episodes(spec, rng):
    """Episodes of three agents in which units die and stay dead, as the env records them.

    From its step of death on, an agent's observation is all zero, its only
    available action is ``ACTION_NOOP`` and it takes that action.  Agent 2
    of the first episode and agent 0 of the last are dead from step 0.
    """
    episodes = []
    for T, deaths in ((1, {2: 0}), (3, {0: 1}), (6, {1: 3, 2: 4, 0: 0})):
        masks = rng.random((T + 1, 3, spec.n_actions)) < 0.6
        masks[..., ACTION_NOOP] |= ~masks.any(axis=-1)
        for agent, step in deaths.items():
            masks[step:, agent] = False
            masks[step:, agent, ACTION_NOOP] = True
        actions = np.array([[rng.choice(np.flatnonzero(m)) for m in step] for step in masks[:-1]], dtype=np.int16)
        episodes.append(toy_episode(spec, T, rng, masks=masks, actions=actions, deaths=deaths))
    return episodes


def episode_inputs(learner, episode):
    """Every row's network input, ``(T+1, A, D)``: observation, agent one-hot and last-action one-hot.

    Built in the agent network's dtype, as ``_collate`` builds its inputs.
    """
    spec = learner.team_spec
    A, nA, L = spec.n_agents, spec.n_actions, spec.obs_len
    inputs = np.zeros((episode.length + 1, A, learner.input_dim), dtype=learner.nets[0].dtype)
    inputs[..., :L] = dense_obs(episode)
    inputs[..., L : L + A] = np.eye(A)
    inputs[1:, :, L + A :] = np.eye(nA)[episode.actions]
    return inputs


def padded_update(learner, episodes):
    """The update as it ran on a padded batch: every episode padded to the longest, padding masked out.

    Every row of every episode is built and evaluated, shared inputs included.
    Returns the loss and the clipped gradients handed to Adam.
    """
    spec, gamma = learner.team_spec, learner.config.gamma
    net, *mixer = learner.nets
    target_net, *target_mixer = learner.targets
    B, Tm = len(episodes), max(ep.length for ep in episodes)
    A, nA, S, D = spec.n_agents, spec.n_actions, spec.state_len, learner.input_dim
    inputs, states = np.zeros((B, Tm + 1, A, D)), np.zeros((B, Tm + 1, S))
    avail, actions = np.zeros((B, Tm + 1, A, nA), dtype=bool), np.zeros((B, Tm, A), dtype=np.int64)
    rewards, pad, boot = np.zeros((B, Tm)), np.zeros((B, Tm)), np.zeros((B, Tm))
    for b, ep in enumerate(episodes):
        T = ep.length
        inputs[b, : T + 1] = episode_inputs(learner, ep)
        states[b, : T + 1], avail[b, : T + 1], actions[b, :T], rewards[b, :T] = ep.state, ep.masks, ep.actions, ep.rewards
        pad[b, :T], boot[b, : T - 1] = 1.0, 1.0
    avail[..., ACTION_NOOP] |= ~avail.any(axis=-1)  # padding rows stay maskable
    q_now, trace = nn.forward_trace(net, inputs[:, :-1].reshape(-1, D))
    q_next = nn.forward(target_net, inputs[:, 1:].reshape(-1, D)).reshape(B, Tm, A, nA)
    if learner.config.double_q:
        online_next = nn.forward(net, inputs[:, 1:].reshape(-1, D)).reshape(B, Tm, A, nA)
        pick = np.where(avail[:, 1:], online_next, -np.inf).argmax(axis=-1)
        next_max = np.take_along_axis(q_next, pick[..., None], axis=-1)[..., 0]
    else:
        next_max = np.where(avail[:, 1:], q_next, -np.inf).max(axis=-1)
    chosen = np.take_along_axis(q_now.reshape(B, Tm, A, nA), actions[..., None], axis=-1)[..., 0]
    if learner.algo == "iql":
        q_tot, next_tot = chosen, next_max
    elif learner.algo == "vdn":
        q_tot, next_tot = chosen.sum(axis=-1, keepdims=True), next_max.sum(axis=-1, keepdims=True)
    else:
        q_tot, cache = _mixer_forward(mixer, chosen.reshape(-1, A), states[:, :-1].reshape(-1, S))
        q_tot = q_tot.reshape(B, Tm, 1)
        next_tot = _mixer_forward(target_mixer, next_max.reshape(-1, A), states[:, 1:].reshape(-1, S))[0]
        next_tot = next_tot.reshape(B, Tm, 1)
    diff = (q_tot - rewards[..., None] - gamma * boot[..., None] * next_tot) * pad[..., None]
    norm = pad.sum() * q_tot.shape[-1]
    d_tot, mixer_grads = 2.0 * diff / norm, []
    d_chosen = np.broadcast_to(d_tot, chosen.shape)
    if mixer:
        d_chosen, mixer_grads = _mixer_backward(mixer, cache, d_tot.reshape(-1))
    d_q = np.zeros(chosen.shape + (nA,))
    np.put_along_axis(d_q, actions[..., None], d_chosen.reshape(chosen.shape)[..., None], axis=-1)
    grads = nn.backward(net, trace, d_q.reshape(-1, nA)) + mixer_grads
    total = np.sqrt(sum(float((g * g).sum()) for g in grads))
    scale = min(1.0, learner.config.grad_clip / total)
    return float((diff * diff).sum() / norm), [g * scale for g in grads]


@pytest.mark.parametrize("double_q", [False, True], ids=["max", "double_q"])
@pytest.mark.parametrize("algo", ["iql", "vdn", "qmix"])
def test_live_row_update_matches_padded_reference(algo, double_q, monkeypatch):
    """The update over distinct rows agrees with the padded one to float64 rounding (rtol 1e-9, atol 1e-12)."""
    spec = toy_spec(A=3)
    cfg = LearnerConfig(hidden=(8, 8), gamma=0.9, double_q=double_q, mixer_embed=4, grad_clip=0.5)
    rng = np.random.default_rng(31)
    episodes = dying_episodes(spec, rng)
    learner = as_float64(ValueLearner(algo, spec, cfg, seed=3))
    for p in learner.targets[0].params():  # targets that differ from the online values
        p += rng.normal(scale=0.3, size=p.shape)
    captured = []
    monkeypatch.setattr(nn, "adam_step", lambda params, grads, state: captured.append(grads))
    batch = _collate(learner, episodes)
    assert len(batch.inputs) < batch.inverse.size  # dead agents' rows share inputs

    loss = team_td_train_step(learner, episodes)
    ref_loss, ref_grads = padded_update(learner, episodes)
    np.testing.assert_allclose(loss, ref_loss, rtol=1e-9, atol=1e-12)
    assert len(captured[0]) == len(ref_grads) == len(learner.parameter_arrays())
    for got, want in zip(captured[0], ref_grads):
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("double_q", [False, True], ids=["max", "double_q"])
@pytest.mark.parametrize("algo", ["iql", "vdn", "qmix"])
def test_float32_update_stays_near_float64(algo, double_q, monkeypatch):
    """On one batch, the float32 update's loss and gradients sit within float32 rounding of float64's.

    Both learners hold the same values; the float64 one is the float32 one
    cast.  float32 rounds at about 6e-8 relative and the update sums a few
    hundred terms per entry, so the loss must agree to rtol 1e-6 and every
    gradient entry to within 1e-5 of the update's largest gradient entry.
    """
    spec = toy_spec(A=3)
    cfg = LearnerConfig(hidden=(16, 16), gamma=0.9, double_q=double_q, mixer_embed=4, grad_clip=0.0)
    rng = np.random.default_rng(31)
    episodes = dying_episodes(spec, rng)
    learner = ValueLearner(algo, spec, cfg, seed=3)
    for p in learner.targets[0].params():  # targets that differ from the online values
        p += rng.normal(scale=0.3, size=p.shape).astype(p.dtype)
    reference = as_float64(copy.deepcopy(learner))
    captured = []
    monkeypatch.setattr(nn, "adam_step", lambda params, grads, state: captured.append(grads))

    loss, ref_loss = team_td_train_step(learner, episodes), team_td_train_step(reference, episodes)
    np.testing.assert_allclose(loss, ref_loss, rtol=1e-6)
    grads, ref_grads = captured
    scale = max(np.abs(g).max() for g in ref_grads)
    assert scale > 1e-2
    for got, want in zip(grads, ref_grads):
        assert (got.dtype, want.dtype) == (np.float32, np.float64)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-5 * scale)


@pytest.mark.parametrize("double_q", [False, True], ids=["max", "double_q"])
@pytest.mark.parametrize("algo", ["iql", "vdn", "qmix"])
def test_clipped_update_keeps_every_array_in_its_parameters_dtype(algo, double_q, monkeypatch):
    """No step of the update upcasts: a numpy float64 clip scale would turn float32 gradients into float64."""
    spec = toy_spec(A=3)
    clip = 1e-3  # far below the gradient norm, so every step clips
    cfg = LearnerConfig(hidden=(8,), double_q=double_q, mixer_embed=4, grad_clip=clip)
    episodes = dying_episodes(spec, np.random.default_rng(5))
    float32 = ValueLearner(algo, spec, cfg, seed=3)
    original = nn.adam_step
    for learner in (float32, as_float64(copy.deepcopy(float32))):
        dtype = learner.nets[0].dtype
        captured = []

        def recording(params, grads, state):
            captured.append(grads)
            return original(params, grads, state)

        monkeypatch.setattr(nn, "adam_step", recording)
        for _ in range(2):
            team_td_train_step(learner, episodes)
        params = learner.parameter_arrays()
        for grads in captured:
            assert [g.dtype for g in grads] == [p.dtype for p in params] == [dtype] * len(params)
            assert np.sqrt(sum(float((g * g).sum()) for g in grads)) == pytest.approx(clip, rel=1e-5)
        assert [a.dtype for a in learner.opt.m + learner.opt.v] == [dtype] * (2 * len(params))
        assert all(p.dtype == dtype for net in learner.targets for p in net.params())


def test_collate_builds_each_distinct_input_once():
    spec = toy_spec(A=3)
    learner = ValueLearner("iql", spec, LearnerConfig(hidden=(8,)), seed=0)
    episodes = dying_episodes(spec, np.random.default_rng(4))
    batch = _collate(learner, episodes)
    full = np.concatenate([episode_inputs(learner, ep) for ep in episodes])
    assert batch.inverse.shape == full.shape[:2]
    got = batch.inputs[batch.inverse]
    assert got.dtype == full.dtype and got.tobytes() == full.tobytes()
    live, blank = 0, set()
    for ep in episodes:
        obs = dense_obs(ep)
        for t in range(ep.length + 1):
            for agent in range(spec.n_agents):
                if obs[t, agent].any():
                    live += 1
                else:
                    blank.add((agent, int(ep.actions[t - 1, agent]) if t else None))
    assert live < full.shape[0] * spec.n_agents and len(blank) > 1
    assert len(batch.inputs) == live + len(blank)


@pytest.mark.parametrize("algo", ["iql", "qmix"])
def test_double_q_runs_each_network_forward_once(algo, monkeypatch):
    spec = toy_spec()
    learner = ValueLearner(algo, spec, LearnerConfig(hidden=(8,), double_q=True), seed=0)
    rng = np.random.default_rng(1)
    episodes = [toy_episode(spec, 4, rng), toy_episode(spec, 2, rng)]
    calls = []
    original = nn.forward_trace

    def counting(net, x):
        calls.append(net)
        return original(net, x)

    monkeypatch.setattr(nn, "forward_trace", counting)
    team_td_train_step(learner, episodes)
    assert sum(net is learner.nets[0] for net in calls) == 1
    assert sum(net is learner.targets[0] for net in calls) == 1


def test_target_sync_covers_every_network():
    spec = toy_spec()
    learner = ValueLearner("qmix", spec, LearnerConfig(hidden=(8,), target_interval=2, mixer_embed=4), seed=0)
    episodes = [toy_episode(spec, 3, np.random.default_rng(2))]

    def synced():
        return [nn.params_hash(t.params()) == nn.params_hash(n.params()) for t, n in zip(learner.targets, learner.nets)]

    assert len(learner.targets) == 5 and all(synced())  # the agent network and four hypernetworks
    team_td_train_step(learner, episodes)
    assert not any(synced())
    team_td_train_step(learner, episodes)
    assert all(synced())


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
    with np.load(path) as data:
        assert (data["format_version"][0], data["p0"].dtype) == (CHECKPOINT_FORMAT, np.float32)
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


def write_broken_checkpoint(path, learner, kind: str) -> str:
    """``learner``'s checkpoint at ``path``, broken as ``kind`` says; returns text the load error must hold."""
    save_learner(path, learner)
    with np.load(path) as data:
        arrays = dict(data)
    if kind == "not a checkpoint":
        arrays, expect = {"weights": arrays["p0"]}, "is not a checkpoint"
    elif kind == "wrong shape":
        arrays["p0"], expect = arrays["p0"][:, 1:], "p0 is float32"
    elif kind == "float64 arrays":
        arrays["p0"], expect = arrays["p0"].astype(np.float64), "p0 is float64"
    elif kind == "format 1":  # as it was written: float64 parameters and Adam moments
        arrays = {k: a.astype(np.float64) if a.dtype == np.float32 else a for k, a in arrays.items()}
        arrays["format_version"], expect = np.array([1], dtype=np.int64), "checkpoint format 1"
    elif kind == "meta is a list":
        meta, expect = [json.loads(bytes(arrays["meta"]).decode("utf-8"))], "unusable checkpoint meta: TypeError"
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    elif kind in ("no scenario config", "scenario config that does not parse", "random checkpoint"):
        # A bot's or the random policy's checkpoint as earlier versions wrote it: meta and no arrays.
        # Whatever its scenario config holds, a bot's is refused by name.
        algo = "random" if kind == "random checkpoint" else "bot"
        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
        for key in ("config", "train_steps", "seed"):
            del meta[key]
        meta["algo"], expect = algo, f"name it '{algo}'"
        if kind == "scenario config that does not parse":
            meta["scenario_config"] = "[red]\nmarines = x\n"
        arrays = {"format_version": arrays["format_version"],
                  "meta": np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)}
    else:  # a learner config that is missing or that no learner takes
        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
        config = json.loads(meta.pop("config"))
        if kind == "unknown config key":
            meta["config"], expect = json.dumps(dict(config, mixer_layers=2)), "mixer_layers"
        elif kind == "config out of range":
            meta["config"], expect = json.dumps(dict(config, batch_episodes=0)), "batch_episodes must be at least 1"
        else:
            expect = "unusable checkpoint meta: KeyError"
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez(path, **arrays)
    return expect


@pytest.mark.parametrize("kind", ["not a checkpoint", "wrong shape", "float64 arrays", "format 1", "meta is a list",
                                  "no config", "unknown config key", "config out of range", "no scenario config",
                                  "scenario config that does not parse", "random checkpoint"])
def test_load_refuses_what_the_learner_cannot_use(tmp_path, kind):
    learner = ValueLearner("qmix", toy_spec(), LearnerConfig(hidden=(8,), mixer_embed=4), seed=0)
    expect = write_broken_checkpoint(tmp_path / "broken.npz", learner, kind)
    with pytest.raises(CheckpointError, match=expect):
        load_learner(tmp_path / "broken.npz")


def test_load_refuses_a_file_that_is_no_archive(tmp_path):
    (tmp_path / "junk.npz").write_text("junk")
    with pytest.raises(CheckpointError, match="not an .npz archive"):
        load_learner(tmp_path / "junk.npz")
    np.save(tmp_path / "array.npy", np.zeros(3))
    with pytest.raises(CheckpointError, match="not an .npz archive"):
        load_learner(tmp_path / "array.npy")
    with pytest.raises(CheckpointError, match="is a directory, not a checkpoint: name the checkpoint files in it"):
        load_learner(tmp_path)


def test_config_with_an_unknown_key_is_rejected_by_name():
    data = json.loads(LearnerConfig().to_json())
    assert read_config(LearnerConfig, data, "learner config") == LearnerConfig()
    data["mixer_layers"] = 2  # written by versions that had a one-layer mixer
    with pytest.raises(ConfigError, match="mixer_layers"):
        read_config(LearnerConfig, data, "learner config")


@pytest.mark.parametrize(
    "field,value",
    [
        ("batch_episodes", 0), ("buffer_episodes", 31), ("target_interval", 0), ("hidden", (64, 0)),
        ("mixer_embed", 0), ("lr", -1e-4), ("lr", math.inf), ("grad_clip", math.nan), ("gamma", 1.01),
        ("epsilon_start", -0.1), ("epsilon_end", 1.5),
    ],
)
def test_learner_config_rejects_values_out_of_range(field, value):
    with pytest.raises(ConfigError, match=f"learner {field} must be"):
        LearnerConfig(**{field: value})


def test_learner_config_accepts_the_edges_of_its_ranges():
    LearnerConfig(batch_episodes=1, buffer_episodes=1, target_interval=1, hidden=(1,), mixer_embed=1,
                  lr=0.0, grad_clip=0.0, gamma=0.0, epsilon_start=1.0, epsilon_end=0.0)
    LearnerConfig(gamma=1.0, epsilon_start=0.0, epsilon_end=1.0)


@pytest.mark.parametrize("algo", ["bot", "random"])
def test_only_value_learners_have_checkpoints(tmp_path, algo):
    scn = tiny_scenario()
    policy = make_learner(algo, BattleEnv(scn).team_spec(Team.BLUE), scenario=scn)
    with pytest.raises(LearnerError, match=f"name it '{algo}'"):
        save_learner(tmp_path / "policy.npz", policy)
    assert not (tmp_path / "policy.npz").exists()


def test_make_learner_factory():
    env = BattleEnv(tiny_scenario())
    ts = env.team_spec(Team.RED)
    assert make_learner("iql", ts).algo == "iql"
    assert isinstance(make_learner("random", ts), RandomPolicy)
    with pytest.raises(ValueError):
        make_learner("a3c", ts)
    with pytest.raises(ValueError):
        make_learner("bot", ts)  # bot needs the scenario
