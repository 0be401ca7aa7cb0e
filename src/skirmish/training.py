"""Training controllers and evaluation.

One loop, ``_train``, trains every mode.  It plays one episode with a red
learner against blue, which is a fixed learner or a draw from a frozen
:class:`OpponentPool`.  Each side that learns observes its half of the
episode and takes one update.  At scheduled env-step counts red plays a
greedy :func:`evaluate` set, and the caller records the result.

* :func:`train_paired`: red and blue learn from the same episodes, and one
  evaluation set is reported from both sides;
* :func:`train_mixed`: red learns against a per-episode pool draw, and
  evaluation draws from the pool too; against a pool that is just the
  scripted bot (:func:`train_vs_bot`) the run is labelled ``bot``.

A pool member is any frozen learner whose shapes fit blue, such as a red
checkpoint of an earlier run: a value learner reads nothing of its side, so
a checkpoint plays either side once its ``team_spec`` names the one it
plays.  On an asymmetric scenario, a blue-shaped member is trained as red on
a scenario document whose ``[red]`` and ``[blue]`` counts are swapped.

Every run is reproducible from its seed, because episode seeds,
exploration, opponent draws and evaluation each use their own derived
stream.
"""

from __future__ import annotations

import csv
import math
import mmap
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .engine import EngineConfig, Outcome, Team
from .env import BattleEnv, ReplayWriter, RewardConfig, replay_record
from .learners import Learner, LearnerConfig, ScriptedBot, TeamEpisode, pack_masks, pack_rows
from .seeding import STREAM_EVAL, STREAM_EXPLORE, STREAM_POOL, derive_seed, episode_seed


class TrainingError(ValueError):
    pass


class MisalignedRuns(TrainingError):
    pass


class MutablePoolMember(TrainingError):
    pass


class MetricsFileError(TrainingError):
    """A metrics CSV file that :func:`read_metrics_csv` cannot read."""


class AsymmetricScenarioWarning(UserWarning):
    """Paired mode on an asymmetric scenario: results will favour one side."""


@dataclass(frozen=True)
class TrainConfig:
    """One training run's budget, evaluation cadence and hyperparameters."""

    total_env_steps: int = 300_000
    test_interval: int = 10_000
    test_episodes: int = 32
    learner: LearnerConfig = field(default_factory=LearnerConfig)
    engine: EngineConfig | None = None
    reward: RewardConfig | None = None


@dataclass
class EvalPoint:
    env_step: int
    wins: int
    draws: int
    losses: int
    mean_return_red: float
    mean_return_blue: float

    @property
    def episodes(self) -> int:
        return self.wins + self.draws + self.losses

    @property
    def win_rate(self) -> float:
        return self.wins / self.episodes


@dataclass
class RunMetrics:
    """Evaluation trace of one seeded run, from the subject team's view.

    ``algo_red`` names the subject (the side whose wins are counted);
    ``algo_blue`` names the opponent.
    """

    scenario: str
    mode: str
    algo_red: str
    algo_blue: str
    seed: int
    points: list[EvalPoint] = field(default_factory=list)


@dataclass
class EpisodeResult:
    outcome: Outcome
    length: int
    return_red: float
    return_blue: float
    red_episode: TeamEpisode | None
    blue_episode: TeamEpisode | None


def _mapped_arrays(specs) -> list[np.ndarray]:
    """Zeroed arrays of ``(shape, dtype)`` carved from one private anonymous mapping.

    A :class:`_Recorder`'s arrays come from here, and so do the arrays of
    each episode it stores for replay, one mapping per episode.  The OS
    commits a page when it is first written and takes every page
    back when the last array is dropped, so unwritten rows cost nothing.
    From malloc, arrays this large move to the heap once one of them has
    been freed (glibc then raises its mmap threshold), and the heap keeps
    their pages: replaying 25m episodes grew the process by about 10 MB
    after the first 200-step episode.
    """
    offsets, size = [], 0
    for shape, dtype in specs:
        size = -(-size // 64) * 64
        offsets.append(size)
        size += math.prod(shape) * np.dtype(dtype).itemsize
    buf = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
    return [np.frombuffer(buf, dtype, math.prod(shape), offset).reshape(shape)
            for (shape, dtype), offset in zip(specs, offsets)]


class _Recorder:
    """One team's episode, written step by step into arrays with room for the longest episode.

    The arrays share one mapping (``_mapped_arrays``), so a recorder costs
    the rows it writes, whatever the step limit, and gives its pages back
    when dropped.  Only the observations that are not all zero are written,
    one after another.  ``episode`` stores the rows written in the
    compact :class:`~skirmish.learners.TeamEpisode` form, in one mapping of
    its own size: views of the recorder's arrays would also keep each one's
    partly written first and last pages, 7% of a dense MMM2 episode at
    random play.
    """

    def __init__(self, first, collect: bool, step_limit: int):
        self.collect = collect
        self.t = 0
        self.k = 0  # live observation rows written
        if collect:
            rows = step_limit + 1
            self.blank, self.live_obs, self.state, self.masks, self.actions, self.rewards = _mapped_arrays((
                ((rows, len(first.observations)), bool),
                ((rows * len(first.observations), first.observations.shape[1]), np.float32),
                ((rows, *first.state.shape), np.float32),
                ((rows, *first.masks.shape), bool),
                ((step_limit, len(first.masks)), np.int16),
                ((step_limit,), np.float64),
            ))
            self._write(first)

    def _write(self, result) -> None:
        live = result.observations.any(axis=1)
        self.blank[self.t] = ~live
        rows = result.observations[live]
        self.live_obs[self.k : self.k + len(rows)] = rows
        self.k += len(rows)
        self.state[self.t] = result.state
        self.masks[self.t] = result.masks

    def record(self, actions, result) -> None:
        if not self.collect:
            return
        self.actions[self.t] = actions
        self.rewards[self.t] = result.reward
        self.t += 1
        self._write(result)

    def episode(self) -> TeamEpisode | None:
        if not self.collect:
            return None
        t = self.t
        arrays = [self.blank[: t + 1], *pack_rows(self.live_obs[: self.k]), *pack_rows(self.state[: t + 1]),
                  pack_masks(self.masks[: t + 1]), self.actions[:t], self.rewards[:t]]
        stored = _mapped_arrays([(a.shape, a.dtype) for a in arrays])
        for dst, src in zip(stored, arrays):
            dst[...] = src
        return TeamEpisode(*stored)


def run_episode(
    env: BattleEnv,
    red: Learner,
    blue: Learner,
    *,
    seed: int,
    epsilon_red: float = 0.0,
    epsilon_blue: float = 0.0,
    rng_red=None,
    rng_blue=None,
    collect_red: bool = False,
    collect_blue: bool = False,
    replay: ReplayWriter | None = None,
    episode_id: int = 0,
) -> EpisodeResult:
    """Lockstep episode: both teams act on their own observations each step."""
    red.begin_episode()
    blue.begin_episode()
    r_res, b_res = env.reset(seed)
    limit = env.scenario.episode_step_limit
    rec_r = _Recorder(r_res, collect_red, limit)
    rec_b = _Recorder(b_res, collect_blue, limit)
    if replay is not None:
        replay.write(replay_record(env, episode_id, 0, None, {"red": 0.0, "blue": 0.0}, None))
    ret_r = 0.0
    ret_b = 0.0
    steps = 0
    while not env.terminated:
        a_r = red.act(r_res.observations, r_res.masks, epsilon_red, rng_red)
        a_b = blue.act(b_res.observations, b_res.masks, epsilon_blue, rng_blue)
        r_res, b_res = env.step(a_r, a_b)
        steps += 1
        ret_r += r_res.reward
        ret_b += b_res.reward
        rec_r.record(a_r, r_res)
        rec_b.record(a_b, b_res)
        if replay is not None:
            actions = {"red": [int(a) for a in a_r], "blue": [int(a) for a in a_b]}
            rewards = {"red": r_res.reward, "blue": b_res.reward}
            replay.write(replay_record(env, episode_id, steps, actions, rewards, r_res.outcome))
    return EpisodeResult(
        outcome=r_res.outcome,
        length=steps,
        return_red=ret_r,
        return_blue=ret_b,
        red_episode=rec_r.episode(),
        blue_episode=rec_b.episode(),
    )


def evaluate(
    red: Learner,
    blue: "Learner | OpponentPool",
    scenario,
    n_episodes: int = 32,
    seed: int = 0,
    engine_config: EngineConfig | None = None,
    reward_config: RewardConfig | None = None,
    replay: ReplayWriter | None = None,
) -> EvalPoint:
    """Greedy head-to-head: no exploration, per-episode seeds from (seed, i).

    Counts are from red's perspective, in a point with ``env_step`` 0.  When
    ``blue`` is a pool, blue is redrawn from it for every episode.  With
    ``replay``, every episode is also written to that replay log.
    """
    if n_episodes < 1:
        raise TrainingError("n_episodes must be >= 1")
    env = BattleEnv(scenario, engine_config, reward_config)
    rng_red = np.random.default_rng(derive_seed(STREAM_EVAL, seed, 0))
    rng_blue = np.random.default_rng(derive_seed(STREAM_EVAL, seed, 1))
    pool_rng = np.random.default_rng(derive_seed(STREAM_EVAL, seed, 2))
    wins = draws = losses = 0
    ret_r = 0.0
    ret_b = 0.0
    for i in range(n_episodes):
        opponent = blue.draw(pool_rng) if isinstance(blue, OpponentPool) else blue
        ep = run_episode(
            env, red, opponent, seed=episode_seed(seed, i), rng_red=rng_red, rng_blue=rng_blue,
            replay=replay, episode_id=i,
        )
        if ep.outcome is Outcome.RED_WIN:
            wins += 1
        elif ep.outcome is Outcome.BLUE_WIN:
            losses += 1
        else:
            draws += 1
        ret_r += ep.return_red
        ret_b += ep.return_blue
    return EvalPoint(0, wins, draws, losses, ret_r / n_episodes, ret_b / n_episodes)


def _eval_schedule(total: int, interval: int) -> list[int]:
    points = list(range(0, total + 1, interval))
    if points[-1] != total:
        points.append(total)
    return points


@dataclass
class OpponentPool:
    """Frozen opponents, one drawn per episode: a mixed-mode pool, or the scripted bot alone."""

    members: list[Learner]

    def __post_init__(self):
        if not self.members:
            raise TrainingError("opponent pool must not be empty")
        for k, member in enumerate(self.members):
            if not member.frozen:
                raise MutablePoolMember(f"pool member {k} ({member.algo}) is not frozen")

    def draw(self, rng) -> Learner:
        return self.members[int(rng.integers(0, len(self.members)))]

    def hashes(self) -> list[str]:
        return [m.checkpoint_hash() for m in self.members]


def _train(
    red: Learner,
    blue: Learner | OpponentPool,
    scenario,
    config: TrainConfig,
    seed: int,
    record: Callable[[EvalPoint], None],
) -> None:
    """The one training loop: collect an episode, let each learning side train, evaluate on schedule.

    ``blue`` is a fixed learner or a pool that is drawn from once per
    episode.  Each side that recorded its episode (an unfrozen learner)
    observes it, takes one ``train_step`` and has its ``env_steps`` set.
    At every scheduled point, red plays a greedy
    :func:`evaluate` set against blue (or the whole pool), and ``record``
    receives the result.
    """
    env = BattleEnv(scenario, config.engine, config.reward)
    rng_red = np.random.default_rng(derive_seed(STREAM_EXPLORE, seed, 0))
    rng_blue = np.random.default_rng(derive_seed(STREAM_EXPLORE, seed, 1))
    pool = blue if isinstance(blue, OpponentPool) else None
    pool_rng = np.random.default_rng(derive_seed(STREAM_POOL, seed))
    pending = _eval_schedule(config.total_env_steps, config.test_interval)
    steps = episodes = point_idx = 0
    while True:
        while pending and steps >= pending[0]:
            nominal = pending.pop(0)
            point = evaluate(
                red, blue, scenario,
                n_episodes=config.test_episodes,
                seed=derive_seed(STREAM_EVAL, seed, point_idx),
                engine_config=config.engine,
                reward_config=config.reward,
            )
            point.env_step = nominal
            record(point)
            point_idx += 1
        if not pending:  # the last scheduled point is the budget itself
            return
        opponent = pool.draw(pool_rng) if pool is not None else blue
        ep = run_episode(
            env, red, opponent,
            seed=episode_seed(seed, episodes),
            epsilon_red=0.0 if red.frozen else red.config.epsilon_at(steps),
            epsilon_blue=0.0 if opponent.frozen else opponent.config.epsilon_at(steps),
            rng_red=rng_red,
            rng_blue=rng_blue,
            collect_red=not red.frozen,
            collect_blue=not opponent.frozen,
        )
        episodes += 1
        steps += ep.length
        for learner, episode in ((red, ep.red_episode), (opponent, ep.blue_episode)):
            if episode is not None:
                learner.observe(episode)
                learner.train_step()
                learner.env_steps = steps


def train_paired(
    algo_a: Learner, algo_b: Learner, scenario, config: TrainConfig, seed: int = 0
) -> tuple[RunMetrics, RunMetrics]:
    """Both learners train simultaneously from the same episode stream.

    A plays red, B plays blue.  Each evaluation runs one greedy set and
    reports it from both perspectives, so A's wins equal B's losses exactly.
    """
    if not scenario.symmetric:
        warnings.warn(
            f"paired training on asymmetric scenario {scenario.name!r}", AsymmetricScenarioWarning
        )
    metrics_a = RunMetrics(scenario.name, "paired", algo_a.algo, algo_b.algo, seed)
    metrics_b = RunMetrics(scenario.name, "paired", algo_b.algo, algo_a.algo, seed)

    def both(p: EvalPoint) -> None:
        metrics_a.points.append(p)
        metrics_b.points.append(
            EvalPoint(p.env_step, p.losses, p.draws, p.wins, p.mean_return_blue, p.mean_return_red)
        )

    _train(algo_a, algo_b, scenario, config, seed, both)
    return metrics_a, metrics_b


def train_mixed(
    algo: Learner, pool: OpponentPool, scenario, config: TrainConfig, seed: int = 0
) -> RunMetrics:
    """Red trains against a per-episode draw from the frozen pool; a pool of just the bot labels the run ``bot``."""
    before = pool.hashes()
    mode, opponent = ("bot", "bot") if {m.algo for m in pool.members} == {"bot"} else ("mixed", "pool")
    metrics = RunMetrics(scenario.name, mode, algo.algo, opponent, seed)
    _train(algo, pool, scenario, config, seed, metrics.points.append)
    if pool.hashes() != before:
        raise MutablePoolMember("a pool member's parameters changed during the run")
    return metrics


def train_vs_bot(algo: Learner, scenario, config: TrainConfig, seed: int = 0) -> RunMetrics:
    """Red trains against the scripted bot on blue, a one-member pool."""
    return train_mixed(algo, OpponentPool([ScriptedBot(scenario, Team.BLUE)]), scenario, config, seed)


# -- aggregation and persistence ----------------------------------------------


@dataclass
class CurvePoint:
    env_step: int
    median: float
    mean: float
    q1: float
    q3: float


def median_win_rate(runs: list[RunMetrics]) -> list[CurvePoint]:
    """Per evaluation point: median/mean/quartiles of win rate across runs."""
    if not runs:
        raise MisalignedRuns("no runs to aggregate")
    grids = [[p.env_step for p in run.points] for run in runs]
    if any(g != grids[0] for g in grids):
        raise MisalignedRuns("runs do not share evaluation points")
    out = []
    for i, env_step in enumerate(grids[0]):
        rates = np.array([run.points[i].win_rate for run in runs])
        out.append(
            CurvePoint(
                env_step=env_step,
                median=float(np.median(rates)),
                mean=float(rates.mean()),
                q1=float(np.percentile(rates, 25)),
                q3=float(np.percentile(rates, 75)),
            )
        )
    return out


CSV_COLUMNS = [
    "env_step", "wins", "draws", "losses", "win_rate",
    "mean_return_red", "mean_return_blue", "seed", "mode", "scenario", "algo_red", "algo_blue",
]


def write_metrics_csv(metrics: RunMetrics, path) -> None:
    """One row per evaluation point; floats are written as plain Python floats."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for p in metrics.points:
            writer.writerow(
                [
                    p.env_step, p.wins, p.draws, p.losses, float(p.win_rate),
                    float(p.mean_return_red), float(p.mean_return_blue),
                    metrics.seed, metrics.mode, metrics.scenario, metrics.algo_red, metrics.algo_blue,
                ]
            )


def read_metrics_csv(path) -> RunMetrics:
    """The run :func:`write_metrics_csv` wrote; raises :class:`MetricsFileError` naming ``path`` for any other file."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        try:
            rows = list(reader)
        except UnicodeDecodeError as exc:
            raise MetricsFileError(f"{path} is not UTF-8 text: {exc}") from exc
    if not reader.fieldnames:
        raise MetricsFileError(f"empty metrics file {path}")
    missing = [name for name in CSV_COLUMNS if name not in reader.fieldnames]
    if missing:
        raise MetricsFileError(f"{path} is no metrics file: its header lacks {', '.join(missing)}")
    if not rows:
        raise MetricsFileError(f"metrics file {path} holds no evaluation point")
    first = rows[0]
    try:
        metrics = RunMetrics(
            scenario=first["scenario"], mode=first["mode"],
            algo_red=first["algo_red"], algo_blue=first["algo_blue"], seed=int(first["seed"]),
        )
        for row in rows:
            metrics.points.append(
                EvalPoint(
                    env_step=int(row["env_step"]),
                    wins=int(row["wins"]),
                    draws=int(row["draws"]),
                    losses=int(row["losses"]),
                    mean_return_red=float(row["mean_return_red"]),
                    mean_return_blue=float(row["mean_return_blue"]),
                )
            )
    except (TypeError, ValueError) as exc:  # TypeError: a row shorter than the header reads None
        raise MetricsFileError(f"{path}: unreadable metrics row: {exc}") from exc
    return metrics


def curve_to_json(points: list[CurvePoint]) -> list[dict]:
    return [
        {"env_step": p.env_step, "median": p.median, "mean": p.mean, "q1": p.q1, "q3": p.q3}
        for p in points
    ]
