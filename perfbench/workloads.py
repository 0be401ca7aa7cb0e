"""The benchmark's three workloads, their output checks and their metrics.

Each workload is a closed loop driven from one process through the
package's public API:

* ``rollout_25m``: random vs random on 25m, in process, over a list of
  episodes generated from the seed.  Engine and env encoders dominate.
* ``train_qmix_MMM2``: ``train_vs_bot`` with qmix and the default
  ``LearnerConfig`` on MMM2.  Learner updates dominate.
* ``serve_25m``: a ``BattleServer`` with the scripted bot on blue in the
  main thread, and one ``client_loop(bot_client)`` thread playing red over
  127.0.0.1 (two threads).  The JSON protocol dominates.

An untraced run (``trace=False``) measures for ``seconds`` and reports the
end-to-end metrics.  A traced run plays untraced for ``seconds / 5``, then
repeats exactly the iterations that window completed four times: untraced,
traced, traced and untraced.  The per-layer metrics come from the two
traced repeats, and ``trace_overhead`` is the median over iterations of an
iteration's traced wall time over its untraced wall time, each summed over
its two repeats.  The first window warms the process up (the first update
of a run is much slower than later ones) and the mirrored order cancels a
steady drift of the host's speed, so neither shows as tracing cost.

One iteration is one episode (rollout, serve) or one collected episode and
the update that follows it (train).  A shared host can switch between a
fast and a slow speed every few seconds, so a run's share of fast time
moves its figures.  The statistics below are the ones that stayed steadiest
across runs of different seeds on a shared 2-vCPU host: the fast side of
the step-time distribution and its 99th percentile (other tenants' bursts)
moved most.

* ``env_steps_per_s``: median over iterations of an iteration's env steps
  over its wall time (the plain ratio of all steps to all time is printed
  as a note; it follows how many long episodes a seed happens to draw);
* ``step_us_p50`` and ``step_us_p90``: 50th and 90th percentile of all step
  times in the run.

Set-up is the same work for every seed, so ``setup_s`` moves only with the
host and the program.
"""

from __future__ import annotations

import copy
import hashlib
import math
import resource
import struct
import threading
import time
from contextlib import ExitStack
from dataclasses import dataclass, field

import numpy as np

from skirmish import BattleEnv, LearnerConfig, TrainConfig, get_scenario, make_learner
from skirmish import env as env_mod
from skirmish import learners, nn, protocol, training
from skirmish.engine import Team
from skirmish.seeding import derive_seed, episode_seed

from spans import Tracer, replace

SETUP_REPEATS = 5

# Stream tags of the benchmark's own inputs, apart from the package's tags.
_TAG_EPISODE = 101
_TAG_POLICY = 102
_TAG_WARMUP = 103
_TAG_FILL = 104
_TAG_TRAIN = 105

# Digest of the first two episodes of ``rollout_plan(0)``: a change to the
# engine, the encoders, the reward or the random policy changes it.
ROLLOUT_GOLDEN_SEED = 0
ROLLOUT_GOLDEN_EPISODES = 2
ROLLOUT_GOLDEN_SHA256 = "71117c391254cbe6406a41416803876e5d1154d0465000d6440c63ab6162bb6d"
ROLLOUT_REPLAYED = 3  # window episodes replayed with hashing after the window

CLOCK = time.perf_counter_ns


class StopWindow(Exception):
    """Raised from a probe to end a time-boxed loop at a unit boundary."""


@dataclass
class Outcome:
    """What one run produced: metrics, checks and the work attempted."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    notes: dict[str, object] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    tracer: Tracer | None = None

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(ok for _, ok, _ in self.checks) and self.failed == 0

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))


@dataclass
class Window:
    """One stretch of measured work."""

    result: object  # what the work produced: equal whenever the same work is repeated
    iters: list[tuple[int, int]]  # env steps and wall ns of each iteration
    step_ns: list[list[int]]  # step times of each iteration
    wall_ns: int


def window_ns(seconds: float, trace: bool) -> int:
    """Length of the first window: all of the run, or a fifth of a traced run."""
    return int(seconds / (5 if trace else 1) * 1e9)


def pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def median_setup(build):
    """Run ``build`` ``SETUP_REPEATS`` times; return the median seconds and the last result."""
    times = []
    built = None
    for _ in range(SETUP_REPEATS):
        t0 = CLOCK()
        built = build()
        times.append((CLOCK() - t0) * 1e-9)
    return float(np.median(times)), built


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(out: Outcome, window: Window, setup_s: float) -> None:
    iters, step_groups = window.iters, window.step_ns
    rates = [steps / (ns * 1e-9) for steps, ns in iters]
    step_ns = [t for group in step_groups for t in group]
    out.metrics["env_steps_per_s"] = (pct(rates, 50), "1/s")
    out.metrics["step_us_p50"] = (pct(step_ns, 50) * 1e-3, "us")
    out.metrics["step_us_p90"] = (pct(step_ns, 90) * 1e-3, "us")
    out.metrics["setup_s"] = (setup_s, "s")
    out.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    out.samples.update(env_steps_per_s=len(rates), step_us_p50=len(step_ns), step_us_p90=len(step_ns))
    total_ns = sum(ns for _, ns in iters)
    out.notes["env_steps_per_s_all"] = sum(steps for steps, _ in iters) / (total_ns * 1e-9) if total_ns else 0.0


# -- rollout_25m ----------------------------------------------------------------


def rollout_plan(seed: int, index: int) -> tuple[int, int, int]:
    """Episode ``index`` of the rollout list: reset seed and both policies' rng seeds."""
    return (
        derive_seed(_TAG_EPISODE, seed, index),
        derive_seed(_TAG_POLICY, seed, index, 0),
        derive_seed(_TAG_POLICY, seed, index, 1),
    )


def feed_digest(digest, *results) -> None:
    for res in results:
        digest.update(np.ascontiguousarray(res.observations, dtype=np.float64).tobytes())
        digest.update(np.ascontiguousarray(res.masks, dtype=bool).tobytes())
        digest.update(struct.pack("<d", res.reward))
        digest.update((res.outcome.value if res.outcome is not None else "-").encode())


def play_random(env, red, blue, item, step_ns=None, digest=None) -> tuple:
    """One random-vs-random episode; returns (length, outcome, return_red, return_blue)."""
    reset_seed, seed_red, seed_blue = item
    rng_red = np.random.default_rng(seed_red)
    rng_blue = np.random.default_rng(seed_blue)
    r_res, b_res = env.reset(reset_seed)
    if digest is not None:
        feed_digest(digest, r_res, b_res)
    steps = 0
    ret_r = ret_b = 0.0
    while not env.terminated:
        t0 = CLOCK()
        a_r = red.act(r_res.observations, r_res.masks, 0.0, rng_red)
        a_b = blue.act(b_res.observations, b_res.masks, 0.0, rng_blue)
        r_res, b_res = env.step(a_r, a_b)
        if step_ns is not None:
            step_ns.append(CLOCK() - t0)
        steps += 1
        ret_r += r_res.reward
        ret_b += b_res.reward
        if digest is not None:
            feed_digest(digest, r_res, b_res)
    return (steps, r_res.outcome.value, ret_r, ret_b)


def rollout_digest(env, red, blue, seed: int, episodes: int) -> tuple[str, list[tuple]]:
    digest = hashlib.sha256()
    records = [play_random(env, red, blue, rollout_plan(seed, i), digest=digest) for i in range(episodes)]
    return digest.hexdigest(), records


def rollout_setup():
    env = BattleEnv(get_scenario("25m"))
    red = make_learner("random", env.team_spec(Team.RED))
    blue = make_learner("random", env.team_spec(Team.BLUE))
    play_random(env, red, blue, rollout_plan(derive_seed(_TAG_WARMUP, 0), 0))
    return env, red, blue


def rollout_window(env, red, blue, seed: int, deadline=None, episodes=None) -> Window:
    """Play the seeded list until ``deadline`` or for ``episodes`` episodes."""
    records, iters, step_ns = [], [], []
    t_start = CLOCK()
    i = 0
    while (episodes is None and CLOCK() < deadline) or (episodes is not None and i < episodes):
        t0 = CLOCK()
        step_ns.append([])
        rec = play_random(env, red, blue, rollout_plan(seed, i), step_ns[-1])
        iters.append((rec[0], CLOCK() - t0))
        records.append(rec)
        i += 1
    return Window(records, iters, step_ns, CLOCK() - t_start)


def check_rollout(out: Outcome, env, red, blue, seed: int, records) -> None:
    golden, _ = rollout_digest(env, red, blue, ROLLOUT_GOLDEN_SEED, ROLLOUT_GOLDEN_EPISODES)
    out.check("rollout golden digest", golden == ROLLOUT_GOLDEN_SHA256, golden)
    k = min(ROLLOUT_REPLAYED, len(records))
    digest, replayed = rollout_digest(env, red, blue, seed, k)
    out.check("rollout replay matches window", replayed == records[:k], digest)
    out.notes["rollout_replay_digest"] = digest


def run_rollout(seed: int, seconds: float, trace: bool, import_s: float) -> Outcome:
    out = Outcome()
    setup_s, (env, red, blue) = median_setup(rollout_setup)
    first = rollout_window(env, red, blue, seed, deadline=CLOCK() + window_ns(seconds, trace))
    out.attempted = len(first.iters)
    if trace:
        trace_abba(out, first, lambda n: rollout_window(env, red, blue, seed, episodes=n))
    else:
        end_to_end(out, first, import_s + setup_s)
    check_rollout(out, env, red, blue, seed, first.result)
    out.check("episodes completed", out.attempted > 0, str(out.attempted))
    return out


# -- train_qmix_MMM2 ------------------------------------------------------------


def train_setup(seed: int):
    """Learner and env construction plus the buffer fill to ``batch_episodes``.

    The fill is the same for every seed: at epsilon 1 it does not depend on
    the learner, and an update's cost follows the longest episode in its
    batch, so a seed-dependent fill would make update times differ by half
    between seeds before any episode of the run is played.
    """
    scenario = get_scenario("MMM2")
    env = BattleEnv(scenario)
    config = LearnerConfig()
    learner = make_learner("qmix", env.team_spec(Team.RED), config, seed=derive_seed(_TAG_TRAIN, seed, 0))
    bot = make_learner("bot", env.team_spec(Team.BLUE), scenario=scenario)
    rng = np.random.default_rng(derive_seed(_TAG_FILL, 1))
    for i in range(config.batch_episodes):
        ep = training.run_episode(
            env, learner, bot, seed=derive_seed(_TAG_FILL, 0, i),
            epsilon_red=config.epsilon_at(0), rng_red=rng, collect_red=True,
        )
        learner.observe(ep.red_episode)
    return scenario, learner


class TrainProbe:
    """Times collection steps and updates inside ``train_vs_bot``.

    Step time runs from the learner's act to the end of ``BattleEnv.step``,
    so it covers both policies' act.  Evaluation episodes are excluded.
    """

    def __init__(self, learner, deadline=None, max_updates=None):
        self.deadline = deadline
        self.max_updates = max_updates
        self.in_eval = False
        self.iter_start = 0
        self.iter_steps = 0
        self.step_start = None
        self.step_ns: list[list[int]] = []
        self.update_ns: list[int] = []
        self.losses: list[float] = []
        self.iters: list[tuple[int, int]] = []
        self.learner = learner

    def install(self, stack: ExitStack) -> None:
        probe = self

        def evaluate(fn):
            def timed(*args, **kwargs):
                probe.in_eval = True
                try:
                    return fn(*args, **kwargs)
                finally:
                    probe.in_eval = False
            return timed

        def begin_episode(fn):
            def timed():
                if not probe.in_eval:
                    probe.iter_start = CLOCK()
                    probe.step_ns.append([])
                return fn()
            return timed

        def act(fn):
            def timed(*args, **kwargs):
                if not probe.in_eval:
                    probe.step_start = CLOCK()
                return fn(*args, **kwargs)
            return timed

        def step(fn):
            def timed(*args, **kwargs):
                result = fn(*args, **kwargs)
                if probe.step_start is not None and not probe.in_eval:
                    probe.step_ns[-1].append(CLOCK() - probe.step_start)
                    probe.step_start = None
                return result
            return timed

        def observe(fn):
            def timed(episode):
                probe.iter_steps = episode.length
                return fn(episode)
            return timed

        def train_step(fn):
            def timed():
                t0 = CLOCK()
                loss = fn()
                t1 = CLOCK()
                probe.update_ns.append(t1 - t0)
                probe.losses.append(loss)
                probe.iters.append((probe.iter_steps, t1 - probe.iter_start))
                if (probe.deadline is not None and t1 >= probe.deadline) or (
                    probe.max_updates is not None and len(probe.losses) >= probe.max_updates
                ):
                    raise StopWindow
                return loss
            return timed

        replace(stack, training, "evaluate", evaluate)
        replace(stack, BattleEnv, "step", step)
        for attr, make in (("begin_episode", begin_episode), ("act", act), ("observe", observe),
                           ("train_step", train_step)):
            replace(stack, self.learner, attr, make)


def train_window(scenario, learner, seed: int, deadline=None, max_updates=None) -> tuple[Window, list[int]]:
    """Train until ``deadline`` or for ``max_updates`` updates; also returns each update's ns."""
    probe = TrainProbe(learner, deadline, max_updates)
    config = TrainConfig(total_env_steps=10**7, learner=learner.config)
    with ExitStack() as stack:
        probe.install(stack)
        t0 = CLOCK()
        try:
            training.train_vs_bot(learner, scenario, config, seed=derive_seed(_TAG_TRAIN, seed, 1))
        except StopWindow:
            pass
        wall = CLOCK() - t0
    return Window((probe.losses, learner.checkpoint_hash()), probe.iters, probe.step_ns, wall), probe.update_ns


def run_train(seed: int, seconds: float, trace: bool, import_s: float) -> Outcome:
    out = Outcome()
    setup_s, (scenario, learner) = median_setup(lambda: train_setup(seed))
    copies = [copy.deepcopy(learner) for _ in range(4)] if trace else []
    first, update_ns = train_window(scenario, learner, seed, deadline=CLOCK() + window_ns(seconds, trace))
    losses, checkpoint = first.result
    finite = [loss is not None and math.isfinite(loss) for loss in losses]
    out.attempted = len(finite)
    out.failed = finite.count(False)
    out.check("every loss finite", all(finite) and finite, f"{len(finite)} updates")
    out.notes["checkpoint_hash"] = checkpoint
    out.notes["update_ms_p50"] = pct(update_ns, 50) * 1e-6
    if trace:
        trace_abba(out, first, lambda n: train_window(scenario, copies.pop(), seed, max_updates=n)[0])
    else:
        end_to_end(out, first, import_s + setup_s)
    return out


# -- serve_25m ------------------------------------------------------------------


class ClientProbe:
    """Red's client thread: a scripted bot behind ``client_loop``, timed at the client.

    Step time runs from one act to the next within an episode: the client's
    own act, sending it, the server's turn and parsing the next observation.
    Past ``deadline`` the client hangs up at the next episode start.
    """

    def __init__(self, deadline=None):
        self.deadline = deadline
        self.step_ns: list[list[int]] = []
        self.iters: list[tuple[int, int]] = []
        self.first = None
        self.ep_acts = 0
        self.ep_start = 0
        self.last_act = None
        self.stopped = False
        self.error: BaseException | None = None

    def policy(self, assign):
        bot = protocol.bot_client(assign)
        begin, act = bot.begin_episode, bot.act
        probe = self

        def begin_episode():
            now = CLOCK()
            if probe.ep_acts:
                probe.iters.append((probe.ep_acts, now - probe.ep_start))
                if probe.deadline is not None and now >= probe.deadline:
                    probe.stopped = True
                    raise StopWindow
            probe.ep_start = now
            probe.step_ns.append([])
            probe.ep_acts = 0
            probe.last_act = None
            begin()

        def timed_act(*args, **kwargs):
            now = CLOCK()
            if probe.first is None:
                probe.first = now
            if probe.last_act is not None:
                probe.step_ns[-1].append(now - probe.last_act)
            probe.last_act = now
            probe.ep_acts += 1
            return act(*args, **kwargs)

        bot.begin_episode = begin_episode
        bot.act = timed_act
        return bot

    def run(self, address) -> None:
        try:
            protocol.client_loop(self.policy, address, team="red", name="perfbench")
        except StopWindow:
            pass
        except BaseException as exc:  # reported by the main thread
            self.error = exc


def serve_session(seed: int, episodes: int, deadline=None):
    """One server session on 25m; returns the served episodes, the probe and the end time."""
    server = protocol.BattleServer(get_scenario("25m"), seed=seed, episodes=episodes, bot_team=Team.BLUE)
    probe = ClientProbe(deadline)
    thread = threading.Thread(target=probe.run, args=(server.address,), name="perfbench-client", daemon=True)
    thread.start()
    try:
        server.run()
    except protocol.ConnectionLost:
        if not probe.stopped:
            raise
    finally:
        end = CLOCK()
        thread.join(timeout=60)
    if thread.is_alive():
        raise RuntimeError("client thread did not finish")
    if probe.error is not None:
        raise probe.error
    return server.served, probe, end


def serve_window(seed: int, episodes: int, deadline=None) -> Window:
    served, probe, end = serve_session(seed, episodes, deadline)
    return Window(served, probe.iters, probe.step_ns, end - probe.first)


def served_mismatches(served, seed: int) -> list[int]:
    """Indices of served episodes that differ from in-process bot vs bot play."""
    scenario = get_scenario("25m")
    env = BattleEnv(scenario)
    red = make_learner("bot", env.team_spec(Team.RED), scenario=scenario)
    blue = make_learner("bot", env.team_spec(Team.BLUE), scenario=scenario)
    bad = []
    for i, rec in enumerate(served):
        ep = training.run_episode(env, red, blue, seed=episode_seed(seed, i), collect_red=True, collect_blue=True)
        same = (
            rec.length == ep.length
            and rec.outcome == ep.outcome.value
            and rec.rewards.get("red") == [float(r) for r in ep.red_episode.rewards]
            and rec.rewards.get("blue") == [float(r) for r in ep.blue_episode.rewards]
        )
        if not same:
            bad.append(i)
    return bad


def run_serve(seed: int, seconds: float, trace: bool, import_s: float) -> Outcome:
    out = Outcome()
    server_seed = derive_seed(_TAG_EPISODE, seed, 0)
    setup_s, _ = median_setup(lambda: serve_session(derive_seed(_TAG_WARMUP, 0), 1))
    first = serve_window(server_seed, 10**6, deadline=CLOCK() + window_ns(seconds, trace))
    served = first.result
    out.attempted = sum(rec.length for rec in served)
    bad = served_mismatches(served, server_seed)
    out.failed = sum(served[i].length for i in bad)
    out.check("served episodes match in-process play", not bad, f"{len(bad)} of {len(served)} differ")
    out.check("client saw every served episode", len(first.iters) == len(served) > 0,
              f"{len(first.iters)} vs {len(served)}")
    if trace:
        trace_abba(out, first, lambda n: serve_window(server_seed, n))
    else:
        end_to_end(out, first, import_s + setup_s)
    return out


RUNNERS = {"rollout_25m": run_rollout, "train_qmix_MMM2": run_train, "serve_25m": run_serve}


# -- tracing --------------------------------------------------------------------


def trace_abba(out: Outcome, first: Window, repeat) -> None:
    """Repeat ``first``'s work untraced, traced, traced, untraced; report the layers.

    ``repeat(n)`` does the first ``n`` iterations of ``first``'s work again.
    """
    n = len(first.iters)
    tracer = Tracer()
    windows = []
    for traced in (False, True, True, False):
        with ExitStack() as stack:
            if traced:
                install_tracing(tracer, stack)
            windows.append(repeat(n))
    out.check("repeated work matches the first window", all(w.result == first.result for w in windows))
    ratios = [(t1[1] + t2[1]) / (u1[1] + u2[1]) for u1, t1, t2, u2 in zip(*(w.iters for w in windows))]
    layer_metrics(out, tracer, windows[1].wall_ns + windows[2].wall_ns, pct(ratios, 50))


class _CountingWriter:
    """File proxy counting what ``protocol._send`` writes (JSON is ASCII: chars are bytes)."""

    def __init__(self, fh):
        self.fh = fh
        self.n = 0

    def write(self, text: str):
        self.n += len(text)
        return self.fh.write(text)

    def flush(self) -> None:
        self.fh.flush()


def _rows(args, kwargs):
    return {"rows": int(np.shape(args[1])[0]) if np.ndim(args[1]) == 2 else 1}


def _batch(args, kwargs):
    lengths = [ep.length for ep in args[1]]
    return {"live": sum(lengths), "padded": len(lengths) * max(lengths)}


def _obs_step(args, kwargs):
    return {"step": args[4]}


def install_tracing(tracer: Tracer, stack: ExitStack) -> None:
    """Wrap each layer's public entry points as the package's callers reach them."""

    def counting_send(fn):
        def send(fh, message):
            proxy = _CountingWriter(fh)
            fn(proxy, message)
            span = tracer.current()
            span.attrs = {"type": message.get("type"), "step": message.get("step"), "bytes": proxy.n}
        return send

    replace(stack, protocol, "_send", counting_send)
    for owner, attr, name, attrs in (
        (env_mod, "step_world_arrays", "engine.step_world_arrays", None),
        (BattleEnv, "step", "env.step", None),
        (BattleEnv, "reset", "env.reset", None),
        (BattleEnv, "encode_state", "env.encode_state", None),
        (BattleEnv, "available_actions", "env.available_actions", None),
        (learners.RandomPolicy, "act", "learners.random_act", None),
        (learners.ScriptedBot, "act", "learners.bot_act", None),
        (learners.ValueLearner, "act", "learners.value_act", None),
        (learners.ValueLearner, "train_step", "learners.train_step", None),
        (learners, "team_td_train_step", "learners.team_td_train_step", _batch),
        (nn, "forward_trace", "nn.forward_trace", _rows),
        (nn, "backward", "nn.backward", None),
        (nn, "adam_step", "nn.adam_step", None),
        (training, "run_episode", "training.run_episode", None),
        (training, "evaluate", "training.evaluate", None),
        (protocol.BattleServer, "_read_act", "protocol.read_act", None),
        (protocol.BattleServer, "_send_obs", "protocol.send_obs", _obs_step),
        (protocol, "_send", "protocol.send", None),
        # Blocking socket read plus parsing one message: waiting, not protocol work.
        (protocol, "_recv", "wire.recv", None),
    ):
        tracer.patch(stack, owner, attr, name, attrs)


def layer_metrics(out: Outcome, tr: Tracer, wall_ns: int, trace_overhead: float) -> None:
    """Every per-layer metric; a layer that does not run on this workload reports 0."""
    spans = tr.spans
    us, ms = 1e-3, 1e-6

    def durations(name):
        return [spans[i].duration for i in tr.named(name)]

    def put(name, value, unit, n=None):
        out.metrics[name] = (float(value), unit)
        if n is not None:
            out.samples[name] = n

    def ratio(num, den):
        return num / den if den else 0.0

    eng = durations("engine.step_world_arrays")
    put("engine.step_us_p50", pct(eng, 50) * us, "us", len(eng))
    put("engine.step_us_p99", pct(eng, 99) * us, "us", len(eng))
    put("engine.share", ratio(sum(eng), wall_ns), "ratio")

    step_self = [tr.self_time(i) for i in tr.named("env.step")]
    put("env.step_self_us_p50", pct(step_self, 50) * us, "us", len(step_self))
    put("env.step_self_us_p99", pct(step_self, 99) * us, "us", len(step_self))
    resets = durations("env.reset")
    put("env.reset_us_p50", pct(resets, 50) * us, "us", len(resets))
    enc = durations("env.encode_state")
    put("env.encode_state_us_p50", pct(enc, 50) * us, "us", len(enc))

    def collecting(i):
        """Nearest run_episode ancestor, if that episode is not an evaluation."""
        for a in tr.ancestors(i):
            if spans[a].name == "training.run_episode":
                return not tr.has_ancestor(a, "training.evaluate")
        return False

    enc_calls = sum(1 for i in tr.named("env.encode_state") if collecting(i))
    enc_steps = sum(1 for i in tr.named("env.step") if collecting(i))
    put("env.encode_state_calls_per_step", ratio(enc_calls, enc_steps), "count")
    avail = durations("env.available_actions")
    put("env.available_actions_us_p50", pct(avail, 50) * us, "us", len(avail))

    for kind in ("random", "bot", "value"):
        acts = durations(f"learners.{kind}_act")
        put(f"learners.{kind}_act_us_p50", pct(acts, 50) * us, "us", len(acts))
    updates = tr.named("learners.train_step")
    n_upd = len(updates)
    put("learners.train_step_self_ms_p50", pct([tr.layer_self_time(i) for i in updates], 50) * ms, "ms", n_upd)
    batches = [spans[i].attrs for i in tr.named("learners.team_td_train_step")]
    put("learners.live_row_share",
        ratio(sum(b["live"] for b in batches), sum(b["padded"] for b in batches)), "ratio")

    def in_update(name):
        return [i for i in tr.named(name) if tr.has_ancestor(i, "learners.train_step")]

    fwd = in_update("nn.forward_trace")
    bwd = in_update("nn.backward")
    put("nn.forward_trace_ms_per_update", ratio(sum(spans[i].duration for i in fwd), n_upd) * ms, "ms")
    # Self time: the forward pass backward repeats is already in forward_trace.
    put("nn.backward_ms_per_update", ratio(sum(tr.self_time(i) for i in bwd), n_upd) * ms, "ms")
    adam = in_update("nn.adam_step")
    put("nn.adam_step_ms_per_update", ratio(sum(spans[i].duration for i in adam), n_upd) * ms, "ms")
    put("nn.forward_rows_per_update", ratio(sum(spans[i].attrs["rows"] for i in fwd), n_upd), "count")
    put("nn.backward_calls_per_update", ratio(len(bwd), n_upd), "count")

    rollout = [spans[i].duration for i in tr.named("training.run_episode")
               if not tr.has_ancestor(i, "training.evaluate")]
    put("training.rollout_share", ratio(sum(rollout), wall_ns), "ratio")
    put("training.update_share", ratio(sum(spans[i].duration for i in updates), wall_ns), "ratio")
    put("training.eval_share", ratio(sum(durations("training.evaluate")), wall_ns), "ratio")

    # Server work per step: reading and checking the act, then encoding and
    # sending the observation that step produced.
    reads = [tr.layer_self_time(i) for i in tr.named("protocol.read_act")]
    sends = [tr.layer_self_time(i) for i in tr.named("protocol.send_obs") if spans[i].attrs["step"] >= 1]
    server = [r + s for r, s in zip(reads, sends)]
    put("protocol.server_self_us_p50", pct(server, 50) * us, "us", len(server))
    put("protocol.server_self_us_p99", pct(server, 99) * us, "us", len(server))
    sent = [spans[i].attrs for i in tr.named("protocol.send")]
    down = [a["bytes"] for a in sent if a["type"] == "obs" and a["step"] >= 1]
    up = [a["bytes"] for a in sent if a["type"] == "act"]
    put("protocol.bytes_per_step_down", ratio(sum(down), len(down)), "bytes")
    put("protocol.bytes_per_step_up", ratio(sum(up), len(up)), "bytes")

    # Measured in the first, untraced window: the update latency a training run sees.
    put("update_ms_p50", out.notes.get("update_ms_p50", 0.0), "ms")
    put("trace_overhead", trace_overhead, "ratio")
    out.tracer = tr
