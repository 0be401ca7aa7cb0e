"""Policies and trainers behind one pluggable interface.

Three implementations of :class:`Learner`: a deterministic scripted bot
(the built-in-AI stand-in), a uniform-random policy, and an episodic
Q-learner with three mixing rules — independent per-agent TD (iql),
additive team mixing (vdn) and monotonic state-conditioned mixing (qmix).
The Q-learner shares one feed-forward network across a team's agents; each
agent's input is its observation plus an agent-id one-hot and a
last-action one-hot.  All three rules train through one update,
:func:`team_td_train_step`: the mixing rule only decides how chosen-action
values combine into the values that regress on the TD targets.  The update
evaluates each distinct input row of its batch once; the rows of agents
whose observation is all zero are keyed by agent and last action.  The
update computes in its networks' dtype, float32, as PyMARL's learners do.
Replay keeps each :class:`TeamEpisode` compact, its observation and state
rows as nonzero bitmaps plus the nonzero values (:func:`pack_rows`) and its
action masks as bits (:func:`pack_masks`), and the update's collate reads
them back (:func:`unpack_rows`, :func:`unpack_masks`), so it sees the same
bits as from dense rows.
:func:`save_learner` and :func:`load_learner` are the one checkpoint
format, and only the Q-learners (:data:`VALUE_ALGOS`) have checkpoints: the
bot and the random policy are named, not saved.
"""

from __future__ import annotations

import json
import math
import zipfile
from collections import deque
from dataclasses import asdict, dataclass

import numpy as np

from . import nn
from .config import ConfigError, read_config
from .engine import Team
from .env import ACTION_MOVE_EAST, ACTION_NOOP, ACTION_STOP, TARGET_OFFSET, TeamSpec, ally_slots, team_layout
from .scenario import ScenarioSpec
from .seeding import STREAM_INIT, derive_seed


class LearnerError(ValueError):
    pass


class NoAvailableAction(LearnerError):
    pass


class CheckpointError(LearnerError):
    """A file that :func:`load_learner` cannot turn into a learner."""


@dataclass(frozen=True)
class LearnerConfig:
    """Hyperparameters shared by the Q-learners; all overridable."""

    hidden: tuple[int, ...] = (64, 64)
    lr: float = 5e-4
    gamma: float = 0.99
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_anneal_steps: int = 50_000
    buffer_episodes: int = 5_000
    batch_episodes: int = 32
    target_interval: int = 200
    double_q: bool = False
    mixer_embed: int = 32
    grad_clip: float = 10.0

    def __post_init__(self) -> None:
        """The one range check, which defaults, ``--config`` and checkpoints all pass."""
        unit = "a number in [0, 1]"
        for name, ok, rule in [
            ("batch_episodes", self.batch_episodes >= 1, "at least 1"),
            ("buffer_episodes", self.buffer_episodes >= self.batch_episodes, "at least batch_episodes"),
            ("target_interval", self.target_interval >= 1, "at least 1"),
            ("hidden", all(width >= 1 for width in self.hidden), "layer widths of at least 1"),
            ("mixer_embed", self.mixer_embed >= 1, "at least 1"),
            ("lr", 0 <= self.lr < math.inf, "a finite number of at least 0"),
            ("grad_clip", 0 <= self.grad_clip < math.inf, "a finite number of at least 0"),
            ("gamma", 0 <= self.gamma <= 1, unit),
            ("epsilon_start", 0 <= self.epsilon_start <= 1, unit),
            ("epsilon_end", 0 <= self.epsilon_end <= 1, unit),
        ]:
            if not ok:
                raise ConfigError(f"learner {name} must be {rule}, not {getattr(self, name)!r}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    def epsilon_at(self, env_steps: int) -> float:
        if env_steps >= self.epsilon_anneal_steps:
            return self.epsilon_end
        frac = env_steps / self.epsilon_anneal_steps
        return self.epsilon_start + frac * (self.epsilon_end - self.epsilon_start)


def epsilon_greedy(q_values: np.ndarray, mask: np.ndarray, epsilon: float, rng) -> np.ndarray:
    """Per-row epsilon-greedy over available actions, ties to the lowest code."""
    q_values = np.atleast_2d(q_values)
    mask = np.atleast_2d(mask)
    counts = mask.cumsum(axis=1)
    if not counts[:, -1].all():
        raise NoAvailableAction("an agent has no available action")
    greedy = np.where(mask, q_values, -np.inf).argmax(axis=1)
    if epsilon <= 0.0:
        return greedy
    if rng is None:
        raise LearnerError("exploration requires an rng")
    picks = rng.integers(0, counts[:, -1])
    uniform = (counts > picks[:, None]).argmax(axis=1)
    explore = rng.random(len(greedy)) < epsilon
    return np.where(explore, uniform, greedy)


def pack_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stored form of float ``rows``: each row's bitmap of nonzero cells, and those cells' values in row order.

    A cell counts as nonzero by its bits, so ``-0.0`` is kept as a value and
    :func:`unpack_rows` gives back every bit.  Packed per row, the bitmaps
    of several row blocks concatenate.
    """
    nonzero = rows.view(f"u{rows.itemsize}") != 0
    return np.packbits(nonzero, axis=1), rows[nonzero]


def unpack_rows(bits: np.ndarray, values: np.ndarray, out: np.ndarray) -> None:
    """Write the rows :func:`pack_rows` stored as ``bits`` and ``values`` into the zeroed ``(rows, width)`` ``out``."""
    out[np.unpackbits(bits, axis=1, count=out.shape[1]).view(bool)] = values


def pack_masks(masks: np.ndarray) -> np.ndarray:
    """The stored form of ``(rows, A, n_actions)`` bool action masks: each row's entries as bits, row-major.

    Returns ``(rows, ceil(A * n_actions / 8))`` uint8, the last byte of a
    row padded with zero bits; a row is also protocol v4's mask bytes.
    """
    return np.packbits(masks.reshape(len(masks), -1), axis=1)


def unpack_masks(bits: np.ndarray, n_agents: int, n_actions: int) -> np.ndarray:
    """The ``(rows, n_agents, n_actions)`` bool masks that :func:`pack_masks` stored as ``bits``."""
    return np.unpackbits(bits, axis=1, count=n_agents * n_actions).view(bool).reshape(-1, n_agents, n_actions)


@dataclass
class TeamEpisode:
    """One team's record of one episode, ready for episodic replay.

    A dead unit's observation is all zero, and such rows are most of an
    episode's (about 55% on MMM2 and 65% on 25m at random play), so
    observations are kept as a ``blank`` flag per row and agent plus the
    observations of the other rows only.  Most cells of those rows are zero
    too (62% on MMM2 and 58% on 25m at random play: one-hots, shields and
    the blocks of units out of sight), so they and the state rows are
    stored by :func:`pack_rows`, as a nonzero bitmap per row plus the
    nonzero values; this halves an MMM2 or 25m episode's bytes.  The action
    masks are stored by :func:`pack_masks`, in an eighth of their bool
    bytes.
    """

    blank: np.ndarray         # (T+1, A) bool, True where the agent's observation is all zero
    obs_bits: np.ndarray      # (K, ceil(obs_len/8)) uint8, nonzero bitmaps of the other rows in (row, agent) order
    obs_values: np.ndarray    # float32, the nonzero cells of those rows in order
    state_bits: np.ndarray    # (T+1, ceil(state_len/8)) uint8, nonzero bitmap of each state row
    state_values: np.ndarray  # float32, the nonzero cells of the state rows in order
    masks: np.ndarray         # (T+1, ceil(A*n_actions/8)) uint8, each row's action mask packed to bits
    actions: np.ndarray       # (T, A) int16
    rewards: np.ndarray       # (T,) float64

    @property
    def length(self) -> int:
        return len(self.actions)


class Learner:
    """Behaviour contract shared by bots, random policies and trainers."""

    algo = "base"

    def __init__(self, team_spec: TeamSpec):
        self.team_spec = team_spec
        self.frozen = True
        self.env_steps = 0

    def freeze(self) -> None:
        self.frozen = True

    def begin_episode(self) -> None:
        pass

    def act(self, obs: np.ndarray, masks: np.ndarray, epsilon: float = 0.0, rng=None) -> np.ndarray:
        raise NotImplementedError

    def observe(self, episode: TeamEpisode) -> None:
        pass

    def train_step(self) -> float | None:
        return None

    def parameter_arrays(self) -> list[np.ndarray]:
        return []

    def checkpoint_hash(self) -> str:
        return nn.params_hash(self.parameter_arrays())


class RandomPolicy(Learner):
    """Uniform over available actions; the weakest useful baseline."""

    algo = "random"

    def act(self, obs, masks, epsilon: float = 0.0, rng=None) -> np.ndarray:
        if rng is None:
            raise LearnerError("random policy requires an rng")
        draws = rng.random(len(masks))
        counts = masks.cumsum(axis=1)
        totals = counts[:, -1]
        if not totals.all():
            raise NoAvailableAction("an agent has no available action")
        picks = np.minimum((draws * totals).astype(np.int64), totals - 1)
        return (counts > picks[:, None]).argmax(axis=1)


class ScriptedBot(Learner):
    """Deterministic heuristic opponent working from its own observations.

    Armed units focus-fire the reachable enemy with the lowest remaining
    health+shield; healers patch the most damaged patient in range; with
    nothing in sight everyone advances on the enemy side of the arena.

    The rule is a table over (agent, target slot), so one act is a few
    array operations for the whole team: a slot's score is two observation
    cells times their weights (an enemy's health and shield times its
    maximums, or a patient's health times its maximum), and the slot is a
    candidate while its action is available and its score is below its cap
    (a patient must be damaged; -inf where the slot holds no one the agent
    may target).
    """

    algo = "bot"

    def __init__(self, scenario: ScenarioSpec, team: Team):
        units = scenario.team_units(team)
        enemies = scenario.team_units(team.other)
        layout = team_layout(scenario, team)
        A, E, W = layout.n_agents, layout.n_enemies, layout.n_actions - TARGET_OFFSET
        self.team = team
        super().__init__(layout.team_spec(team, scenario.name))
        enemy = layout.enemy_off + np.arange(E) * layout.enemy_width
        ally = layout.ally_off + np.arange(A - 1) * layout.ally_width
        # Patient slots mirror the observation's ally rows (self excluded).
        patient_max_h = np.array([u.max_health for u in units])[ally_slots(A)]
        self._cells = np.zeros((2, A, W), dtype=np.int64)  # flat indices into the (A, obs_len) observation
        self._weights = np.zeros((2, A, W))
        self._cap = np.full((A, W), -np.inf)
        for a, unit in enumerate(units):
            row = a * layout.obs_len
            if unit.is_healer:  # the second cell's zero weight adds a signed zero, which changes no comparison
                self._cells[:, a, : A - 1] = row + ally + 3
                self._weights[0, a, : A - 1] = self._cap[a, : A - 1] = patient_max_h[a]
            else:
                self._cells[:, a, :E] = row + enemy + 4, row + enemy + 5
                self._weights[:, a, :E] = [s.max_health for s in enemies], [s.max_shield for s in enemies]
                self._cap[a, :E] = np.inf
        self._agents = np.arange(A)

    def act(self, obs, masks, epsilon: float = 0.0, rng=None) -> np.ndarray:
        masks = np.atleast_2d(masks)
        cells = np.asarray(obs).take(self._cells)
        score = cells[0] * self._weights[0] + cells[1] * self._weights[1]
        candidate = masks[:, TARGET_OFFSET:] & (score < self._cap)
        # Ties go to the lowest slot; candidates score below inf, so the slot found is a candidate if the agent has any.
        slot = np.where(candidate, score, np.inf).argmin(axis=1)
        actions = np.where(masks[:, ACTION_MOVE_EAST], ACTION_MOVE_EAST, ACTION_STOP)
        actions = np.where(candidate[self._agents, slot], TARGET_OFFSET + slot, actions)
        return np.where(masks[:, ACTION_NOOP], ACTION_NOOP, actions)


# -- value mixing -----------------------------------------------------------


def _elu(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0.0, x, np.expm1(np.minimum(x, 0.0)))


def _elu_grad(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0.0, 1.0, np.exp(np.minimum(x, 0.0)))


def make_mixer(state_dim: int, n_agents: int, embed: int, seed: int) -> tuple[nn.Mlp, ...]:
    """QMIX's hypernetworks ``(w1, b1, w2, v)``: each maps the global state to one part of the mix."""
    return (
        nn.init_params((state_dim, n_agents * embed), derive_seed(STREAM_INIT, seed, 1)),
        nn.init_params((state_dim, embed), derive_seed(STREAM_INIT, seed, 2)),
        nn.init_params((state_dim, embed), derive_seed(STREAM_INIT, seed, 3)),
        nn.init_params((state_dim, embed, 1), derive_seed(STREAM_INIT, seed, 4)),
    )


def _mixer_forward(mixer: tuple[nn.Mlp, ...], q: np.ndarray, state: np.ndarray) -> tuple[np.ndarray, dict]:
    """Monotonic two-layer mix of per-agent values, rows are samples; also returns the backward cache.

    The mixing weights are the absolute values of hypernetwork outputs, so
    every partial derivative of the team value with respect to an agent
    value stays non-negative.  The cache keeps the hypernetwork traces in
    ``mixer`` order, and of the first layer's weights only ``w1_pre``,
    from which backward takes both their absolute values and their signs.
    """
    hyper_w1, hyper_b1, hyper_w2, hyper_v = mixer
    w1_pre, w1_trace = nn.forward_trace(hyper_w1, state)
    b1, b1_trace = nn.forward_trace(hyper_b1, state)
    w1 = np.abs(w1_pre).reshape(len(q), q.shape[1], b1.shape[1])
    h_pre = np.einsum("na,nae->ne", q, w1) + b1
    h = _elu(h_pre)
    w2_pre, w2_trace = nn.forward_trace(hyper_w2, state)
    w2 = np.abs(w2_pre)
    v, v_trace = nn.forward_trace(hyper_v, state)
    qtot = (h * w2).sum(axis=-1) + v[:, 0]
    return qtot, {
        "q": q, "w1_pre": w1_pre, "h_pre": h_pre, "h": h, "w2_pre": w2_pre, "w2": w2,
        "traces": [w1_trace, b1_trace, w2_trace, v_trace],
    }


def _mixer_backward(mixer: tuple[nn.Mlp, ...], cache: dict, d_qtot: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Returns (d_q, the gradients of the hypernetworks' parameters in ``mixer`` order)."""
    q = cache["q"]
    g = d_qtot[:, None]
    d_h = g * cache["w2"]
    d_w2_pre = g * cache["h"] * np.sign(cache["w2_pre"])
    d_h_pre = d_h * _elu_grad(cache["h_pre"])
    w1_pre = cache["w1_pre"]
    d_q = np.einsum("ne,nae->na", d_h_pre, np.abs(w1_pre).reshape(*q.shape, -1))
    d_w1 = np.einsum("na,ne->nae", q, d_h_pre).reshape(len(q), -1)
    d_w1 *= np.sign(w1_pre)
    grads = []
    for net, trace, d_out in zip(mixer, cache["traces"], [d_w1, d_h_pre, d_w2_pre, g]):
        grads += nn.backward(net, trace, d_out)
    return d_q, grads


# -- the value learner ---------------------------------------------------------

VALUE_ALGOS = ("iql", "vdn", "qmix")


class ValueLearner(Learner):
    """Shared-parameter episodic Q-learner; ``algo`` picks the mixing rule.

    ``nets`` holds the online networks, the agent network first and then,
    for qmix, the hypernetworks; ``targets`` holds their target copies.
    Replay keeps the last ``buffer_episodes`` episodes.
    """

    def __init__(self, algo: str, team_spec: TeamSpec, config: LearnerConfig, seed: int):
        if algo not in VALUE_ALGOS:
            raise LearnerError(f"unknown value learner {algo!r}")
        super().__init__(team_spec)
        self.frozen = False
        self.algo = algo
        self.config = config
        self.seed = seed
        A, nA = team_spec.n_agents, team_spec.n_actions
        self.input_dim = team_spec.obs_len + A + nA
        widths = (self.input_dim, *config.hidden, nA)
        self.nets: tuple[nn.Mlp, ...] = (nn.init_params(widths, derive_seed(STREAM_INIT, seed, 0)),)
        if algo == "qmix":
            self.nets += make_mixer(team_spec.state_len, A, config.mixer_embed, seed)
        self.targets = tuple(net.clone() for net in self.nets)
        self.opt = nn.OptimState.for_params(self.parameter_arrays(), config.lr)
        self.buffer: deque[TeamEpisode] = deque(maxlen=config.buffer_episodes)
        self.train_steps = 0
        self._rng = np.random.default_rng(derive_seed(STREAM_INIT, seed, 97))
        self._agent_eye = np.eye(A, dtype=self.nets[0].dtype)
        self._action_eye = np.eye(nA, dtype=self.nets[0].dtype)
        self._last_actions: np.ndarray | None = None

    def parameter_arrays(self) -> list[np.ndarray]:
        return [p for net in self.nets for p in net.params()]

    def sync_targets(self) -> None:
        for target, net in zip(self.targets, self.nets):
            target.copy_from(net)

    def begin_episode(self) -> None:
        self._last_actions = None

    def _inputs(self, obs: np.ndarray, last_actions: np.ndarray | None) -> np.ndarray:
        """Each agent's network input, in the eyes' dtype (the agent network's)."""
        eye = self._action_eye
        last = eye[last_actions] if last_actions is not None else np.zeros((self.team_spec.n_agents, len(eye)), eye.dtype)
        return np.concatenate([obs, self._agent_eye, last], axis=1, dtype=eye.dtype)

    def act(self, obs, masks, epsilon: float = 0.0, rng=None) -> np.ndarray:
        q = nn.forward(self.nets[0], self._inputs(obs, self._last_actions))
        actions = epsilon_greedy(q, masks, epsilon, rng)
        self._last_actions = actions
        return actions

    def observe(self, episode: TeamEpisode) -> None:
        if not self.frozen:
            self.buffer.append(episode)

    def train_step(self) -> float | None:
        if self.frozen or len(self.buffer) < self.config.batch_episodes:
            return None
        picks = self._rng.choice(len(self.buffer), size=self.config.batch_episodes, replace=False)
        return team_td_train_step(self, [self.buffer[i] for i in picks])


@dataclass
class _Batch:
    """Every sampled episode's rows 0..T, back to back, with each distinct agent input once.

    ``R`` is the sum of T+1.  ``now`` holds the row of every live step
    t < T, so row ``now + 1`` is that step's next step; the per-step fields
    have one entry per ``now``.  An agent whose observation is all zero (a
    dead unit's) has an input fixed by its agent id and its last action, so
    such rows share one input per (agent, last action); every other row has
    its own.  ``inputs[inverse]`` is the full ``(R, A, D)`` input.  The
    float fields are in the agent network's dtype.
    """

    inputs: np.ndarray     # (U, D) observation, agent id and last action of each distinct input
    inverse: np.ndarray    # (R, A) index of each row's input in ``inputs``
    states: np.ndarray     # (R, S)
    avail: np.ndarray      # (R, A, nA) bool
    now: np.ndarray        # (N,) row of each live step
    actions: np.ndarray    # (N, A) taken at row now
    rewards: np.ndarray    # (N,)
    boot: np.ndarray       # (N,) True where row now + 1 is not its episode's last row


def _collate(learner: ValueLearner, episodes: list[TeamEpisode]) -> _Batch:
    spec = learner.team_spec
    L, A, nA = spec.obs_len, spec.n_agents, spec.n_actions
    dtype = learner.nets[0].dtype
    blank = np.concatenate([ep.blank for ep in episodes])
    last = np.zeros(len(blank), dtype=bool)
    last[np.cumsum([ep.length + 1 for ep in episodes]) - 1] = True
    now = np.flatnonzero(~last)
    actions = np.concatenate([ep.actions for ep in episodes]).astype(np.int64)
    prev = np.full(blank.shape, -1)  # last action, -1 at an episode's first row
    prev[now + 1] = actions
    # An all-zero observation leaves an input keyed by agent and last action; every other row is its own key.
    blank_key = np.arange(A) * (nA + 1) + prev + 1
    key = np.where(blank, blank_key, A * (nA + 1) + np.arange(prev.size).reshape(prev.shape))
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    rows, agents = np.divmod(first, A)
    prev_of = prev[rows, agents]
    acted = np.flatnonzero(prev_of >= 0)
    inputs = np.zeros((len(first), learner.input_dim), dtype=dtype)
    states = np.zeros((len(blank), spec.state_len), dtype=dtype)
    # Blank keys sort first, and the live keys follow in (row, agent) order, the order of the stored rows.
    live = inputs[len(first) - sum(len(ep.obs_bits) for ep in episodes) :, :L]
    k = row = 0
    for ep in episodes:  # one episode at a time, which spares a concatenated copy of the stored arrays
        unpack_rows(ep.obs_bits, ep.obs_values, live[k : k + len(ep.obs_bits)])
        unpack_rows(ep.state_bits, ep.state_values, states[row : row + ep.length + 1])
        k += len(ep.obs_bits)
        row += ep.length + 1
    inputs[np.arange(len(first)), L + agents] = 1.0
    inputs[acted, L + A + prev_of[acted]] = 1.0
    avail = unpack_masks(np.concatenate([ep.masks for ep in episodes]), A, nA)
    return _Batch(
        inputs, inverse.reshape(prev.shape), states, avail, now, actions,
        np.concatenate([ep.rewards for ep in episodes], dtype=dtype), ~last[now + 1],
    )


def _td_targets(learner: ValueLearner, batch: _Batch, online_next: np.ndarray | None) -> np.ndarray:
    """The TD targets of every live step: ``(N, A)`` for iql, ``(N, 1)`` for vdn and qmix.

    The target networks value each step's next row; ``online_next``, the
    online values of those rows, picks the action with ``double_q`` and is
    None without it.  The target pass's arrays are freed on return, before
    the online mixer builds its backward cache.
    """
    target_net, *target_mixer = learner.targets
    nxt = batch.now + 1
    q_next = nn.forward(target_net, batch.inputs)[batch.inverse[nxt]]
    avail_next = batch.avail[nxt]
    if online_next is not None:
        pick = np.where(avail_next, online_next, -np.inf).argmax(axis=-1)
        next_max = np.take_along_axis(q_next, pick[..., None], axis=-1)[..., 0]
    else:
        next_max = q_next.max(axis=-1, where=avail_next, initial=-np.inf)
    del q_next, avail_next  # freed before the target mixer runs
    if learner.algo == "iql":
        next_tot = next_max
    elif learner.algo == "vdn":
        next_tot = next_max.sum(axis=-1, keepdims=True)
    else:
        next_tot = _mixer_forward(target_mixer, next_max, batch.states[nxt])[0][:, None]
    return batch.rewards[:, None] + learner.config.gamma * (batch.boot[:, None] * next_tot)  # bool * q keeps q's dtype


def team_td_train_step(learner: ValueLearner, episodes: list[TeamEpisode]) -> float:
    """One TD update for every mixing rule; returns the batch loss.

    iql keeps each live step's per-agent chosen-action values, ``(N, A)``;
    vdn sums and qmix mixes them into one team value, ``(N, 1)``.  Terminal
    steps regress straight to the reward; the loss averages every entry.
    The online and the target pass each evaluate every distinct input row
    of the batch once; the online pass serves both the chosen values and,
    with ``double_q``, the next-step argmax.  Rows that share an input (dead
    agents with the same id and last action) read one row's values and add
    their gradients onto it.
    """
    if not episodes:
        raise LearnerError("empty batch")
    net, *mixer = learner.nets
    batch = _collate(learner, episodes)
    row_now = batch.inverse[batch.now]
    U, nA = len(batch.inputs), learner.team_spec.n_actions
    q, trace = nn.forward_trace(net, batch.inputs)
    y = _td_targets(learner, batch, q[batch.inverse[batch.now + 1]] if learner.config.double_q else None)
    chosen = q[row_now, batch.actions]
    if learner.algo == "iql":
        q_tot = chosen
    elif learner.algo == "vdn":
        q_tot = chosen.sum(axis=-1, keepdims=True)
    else:
        q_tot, mix_cache = _mixer_forward(mixer, chosen, batch.states[batch.now])
        q_tot = q_tot[:, None]

    diff = q_tot - y
    loss = float((diff * diff).sum() / diff.size)
    d_tot = 2.0 * diff / diff.size

    if mixer:
        d_chosen, mixer_grads = _mixer_backward(mixer, mix_cache, d_tot[:, 0])
        del mix_cache  # freed before the agent network's backward pass
    else:
        d_chosen, mixer_grads = np.broadcast_to(d_tot, chosen.shape), []

    slots = (row_now * nA + batch.actions).ravel()
    d_q = np.bincount(slots, weights=d_chosen.ravel(), minlength=U * nA).reshape(U, nA)
    grads = nn.backward(net, trace, d_q) + mixer_grads
    clip = learner.config.grad_clip
    if clip > 0:
        total = math.sqrt(sum(float((a * a).sum()) for a in grads))
        if total > clip:
            scale = clip / total  # a Python float: a numpy float64 would turn float32 gradients into float64
            grads = [a * scale for a in grads]
    nn.adam_step(learner.parameter_arrays(), grads, learner.opt)
    learner.train_steps += 1
    if learner.train_steps % learner.config.target_interval == 0:
        learner.sync_targets()
    return loss


# -- construction and checkpoints --------------------------------------------


def make_learner(
    algo: str,
    team_spec: TeamSpec,
    config: LearnerConfig | None = None,
    seed: int = 0,
    scenario: ScenarioSpec | None = None,
) -> Learner:
    config = config or LearnerConfig()
    if algo in VALUE_ALGOS:
        return ValueLearner(algo, team_spec, config, seed)
    if algo == "random":
        return RandomPolicy(team_spec)
    if algo == "bot":
        if scenario is None:
            raise LearnerError("the scripted bot needs the scenario")
        return ScriptedBot(scenario, team_spec.team)
    raise LearnerError(f"unknown algorithm {algo!r} (expected one of {(*VALUE_ALGOS, 'bot', 'random')})")


# Format 1 held float64 parameters; format 2 holds the float32 ones the learners train.
CHECKPOINT_FORMAT = 2


def save_learner(path, learner: Learner, notes: dict | None = None) -> None:
    """A value learner's one-file checkpoint, format :data:`CHECKPOINT_FORMAT`: an ``.npz`` archive.

    It holds ``format_version``, the parameter arrays ``p0, p1, ...`` in
    ``parameter_arrays()`` order and in the learner's dtype (float32), the
    Adam state (``opt_scalars`` and the moments ``opt_m<i>`` and
    ``opt_v<i>``, shaped and typed as their parameters), and ``meta``, the
    UTF-8 JSON manifest that rebuilds the learner and also carries
    ``notes``.
    """
    if not isinstance(learner, ValueLearner):
        raise LearnerError(f"the {learner.algo} policy has no checkpoint; name it {learner.algo!r}")
    spec = learner.team_spec
    meta = {
        "algo": learner.algo,
        "team": spec.team.name.lower(),
        "scenario": spec.scenario,
        "n_agents": spec.n_agents,
        "n_enemies": spec.n_enemies,
        "obs_len": spec.obs_len,
        "state_len": spec.state_len,
        "n_actions": spec.n_actions,
        "env_steps": learner.env_steps,
    }
    meta.update(notes or {})
    meta.update(config=learner.config.to_json(), train_steps=learner.train_steps, seed=learner.seed)
    arrays: dict[str, np.ndarray] = {"format_version": np.array([CHECKPOINT_FORMAT], dtype=np.int64)}
    for i, p in enumerate(learner.parameter_arrays()):
        arrays[f"p{i}"] = p
    arrays["opt_scalars"] = np.array(
        [learner.opt.lr, learner.opt.beta1, learner.opt.beta2, learner.opt.eps, float(learner.opt.step)]
    )
    for i, (m, v) in enumerate(zip(learner.opt.m, learner.opt.v)):
        arrays[f"opt_m{i}"] = m
        arrays[f"opt_v{i}"] = v
    blob = json.dumps(meta, sort_keys=True)
    arrays["meta"] = np.frombuffer(blob.encode("utf-8"), dtype=np.uint8)
    np.savez(path, **arrays)


def _stored(data, key: str, like: np.ndarray, path) -> np.ndarray:
    """Array ``key`` of a checkpoint, which must have the shape and dtype of ``like``."""
    if key not in data.files:
        raise CheckpointError(f"{path}: checkpoint has no array {key}")
    stored = data[key]
    if stored.shape != like.shape or stored.dtype != like.dtype:
        raise CheckpointError(f"{path}: {key} is {stored.dtype} {stored.shape}, the learner needs {like.dtype} {like.shape}")
    return stored


def load_learner(path) -> ValueLearner:
    """The learner :func:`save_learner` wrote to ``path``.

    Raises :class:`CheckpointError` for a directory or a file that is no
    checkpoint, one of another format (format 1 held float64 parameters and
    is not converted), one that holds no value learner and one whose arrays
    do not fit the learner its manifest describes.
    """
    try:
        data = np.load(path)
    except IsADirectoryError as exc:
        raise CheckpointError(f"{path} is a directory, not a checkpoint: name the checkpoint files in it, "
                              "such as checkpoint_seed0_iql_red.npz") from exc
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:  # ValueError: pickled or malformed data
        raise CheckpointError(f"{path} is not a checkpoint: not an .npz archive") from exc
    if not isinstance(data, np.lib.npyio.NpzFile):  # a plain .npy array
        raise CheckpointError(f"{path} is not a checkpoint: not an .npz archive")
    with data:
        if not {"meta", "format_version"} <= set(data.files):
            raise CheckpointError(f"{path} is not a checkpoint: it has no format_version and meta")
        version = int(data["format_version"][0])
        if version != CHECKPOINT_FORMAT:
            why = " (float64 parameters, written before the learners trained in float32)" if version == 1 else ""
            raise CheckpointError(
                f"{path} is checkpoint format {version}{why}; this version reads format {CHECKPOINT_FORMAT} only"
            )
        try:
            meta = json.loads(bytes(data["meta"]).decode("utf-8"))
            team_spec = TeamSpec(
                team=Team[meta["team"].upper()],
                n_agents=meta["n_agents"],
                n_enemies=meta["n_enemies"],
                obs_len=meta["obs_len"],
                state_len=meta["state_len"],
                n_actions=meta["n_actions"],
                scenario=meta["scenario"],
            )
            algo = meta["algo"]
            if algo in VALUE_ALGOS:
                config = read_config(LearnerConfig, json.loads(meta["config"]), "learner config")
        except (ValueError, KeyError, TypeError) as exc:  # ValueError includes the ConfigError
            raise CheckpointError(f"{path}: unusable checkpoint meta: {exc!r}") from exc
        if algo not in VALUE_ALGOS:  # earlier versions also saved the bot and the random policy
            hint = f": name it {algo!r}" if algo in ("bot", "random") else ""
            raise CheckpointError(f"{path} holds the {algo!r} policy, and only {', '.join(VALUE_ALGOS)} "
                                  f"have checkpoints{hint}")
        learner = ValueLearner(algo, team_spec, config, seed=meta.get("seed", 0))
        params = learner.parameter_arrays()
        for i, p in enumerate(params):
            np.copyto(p, _stored(data, f"p{i}", p, path))
        learner.sync_targets()
        lr, b1, b2, eps, step = _stored(data, "opt_scalars", np.zeros(5), path)
        learner.opt = nn.OptimState(
            lr=float(lr), beta1=float(b1), beta2=float(b2), eps=float(eps), step=int(step),
            m=[_stored(data, f"opt_m{i}", p, path) for i, p in enumerate(params)],
            v=[_stored(data, f"opt_v{i}", p, path) for i, p in enumerate(params)],
        )
        learner.train_steps = meta.get("train_steps", 0)
        learner.env_steps = meta.get("env_steps", 0)
    return learner
