"""Command-line entry points.

Subcommands: train, eval (``--replay-out`` also records the episodes),
pool, serve, analyze, scenarios, replay, bench.  A scenario is a built-in
name or a scenario document file (``--scenario FILE``); the ``--config``
JSON file overrides the ``engine``, ``reward`` and ``learner`` defaults,
and command-line flags set the rest.  ``eval --red/--blue`` and each
``train --mode mixed --pool`` entry name a policy the one way: ``bot``,
``random`` or a value learner's checkpoint, such as a ``pool`` member file.
Every run directory gets a manifest with the fully resolved configuration
so it can be reproduced bit-for-bit.

Exit codes: 0 success; 2 usage or configuration error, found before the
run starts (bad flags, a missing input file, a :class:`CliError` such as
an unknown ``--config`` section, a
:class:`~skirmish.config.ConfigError` for a ``--config`` key, type or
range, a :class:`~skirmish.scenario.ScenarioError`, or a
:class:`~skirmish.learners.CheckpointError` for a directory or a file that
is no checkpoint, one of another format, one that holds no value learner
or one whose learner config no learner takes); 1 any other failure while
running, domain ``ValueError``
subclasses included.  Commands create the directories they write to, so a
missing file is always an input, and only once their inputs have loaded,
so a failed command leaves no output directory behind.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__, nn
from .engine import EngineConfig, Team
from .env import BattleEnv, ReplayWriter, RewardConfig
from .config import ConfigError, read_config
from .learners import (CHECKPOINT_FORMAT, VALUE_ALGOS, CheckpointError, Learner, LearnerConfig, load_learner,
                       make_learner, save_learner)
from .scenario import ScenarioError, ScenarioSpec, builtin_scenarios, get_scenario, parse_scenario_config
from .seeding import STREAM_BENCH, STREAM_INIT, derive_seed
from .training import (
    OpponentPool,
    RunMetrics,
    TrainConfig,
    build_opponent_pool,
    curve_to_json,
    evaluate,
    median_win_rate,
    train_mixed,
    train_paired,
    train_vs_bot,
    write_metrics_csv,
)


class CliError(ValueError):
    pass


class CheckpointScenarioMismatch(CliError):
    pass


def count(text: str) -> int:
    """argparse type of the counts and budgets: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def algo_list(text: str) -> list[str]:
    """argparse type of a comma-separated list of at least one value-learner algorithm."""
    algos = [a for a in text.split(",") if a]
    if not algos:
        raise argparse.ArgumentTypeError("names no algorithm (the bot joins a mixed-mode --pool as 'bot')")
    unknown = sorted(set(algos) - set(VALUE_ALGOS))
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown algorithm(s) {', '.join(unknown)} (expected {', '.join(VALUE_ALGOS)})")
    return algos


def seconds(text: str) -> float:
    """argparse type of a deadline: a finite number of seconds above 0 (sockets refuse inf)."""
    value = float(text)
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be a finite number above 0, got {value}")
    return value


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", default="3m", help="built-in scenario name, or a scenario document file "
                   "([scenario] base = 3m, spawn_spread = 1.0, ...), the one way to change a scenario")
    p.add_argument("--config", default=None, help="JSON file overriding engine/reward/learner defaults")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skirmish",
        description="Deterministic dual-team micro-combat arena and self-play benchmark.",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"skirmish {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser("train", help="train one side in bot, paired or mixed mode", formatter_class=fmt)
    _add_common(p)
    p.add_argument("--mode", choices=("bot", "paired", "mixed"), default="bot", help="training controller")
    p.add_argument("--algo", default="iql", choices=VALUE_ALGOS, help="learning algorithm")
    p.add_argument("--algo-b", default=None, choices=VALUE_ALGOS, help="second learner (paired mode)")
    p.add_argument("--pool", nargs="+", default=None, metavar="POLICY",
                   help="opponents drawn one per episode (mixed mode): checkpoint paths, 'bot' or 'random'")
    p.add_argument("--steps", type=count, default=300_000, help="training env steps per seed")
    p.add_argument("--seeds", type=count, default=5, help="number of seeded runs")
    p.add_argument("--seed-base", type=int, default=0, help="first seed value")
    p.add_argument("--test-interval", type=count, default=10_000, help="env steps between evaluations")
    p.add_argument("--test-episodes", type=count, default=32, help="greedy episodes per evaluation point")
    p.add_argument("--jobs", type=count, default=1, help="seeds trained in parallel processes")
    p.add_argument("--out", default="runs/train", help="output directory")

    p = sub.add_parser("eval", help="evaluate two policies head to head", formatter_class=fmt)
    _add_common(p)
    p.add_argument("--red", default="bot", help="checkpoint path, 'bot' or 'random'")
    p.add_argument("--blue", default="random", help="checkpoint path, 'bot' or 'random'")
    p.add_argument("--episodes", type=count, default=32, help="evaluation episodes")
    p.add_argument("--seed", type=int, default=0, help="evaluation seed")
    p.add_argument("--out", default=None, help="write the result as JSON here")
    p.add_argument("--replay-out", default=None, help="write replay JSONL here")

    p = sub.add_parser("pool", help="build a frozen opponent pool", formatter_class=fmt)
    _add_common(p)
    p.add_argument("--algos", type=algo_list, default="iql,vdn,qmix", help="comma-separated member algorithms")
    p.add_argument("--steps-per-member", type=count, default=150_000, help="training env steps per member")
    p.add_argument("--seed", type=int, default=0, help="pool build seed")
    p.add_argument("--out", default="runs/pool", help="output directory")

    p = sub.add_parser("serve", help="serve lockstep protocol sessions", formatter_class=fmt)
    _add_common(p)
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument("--port", type=int, default=7777, help="bind port (0 picks a free one)")
    p.add_argument("--episodes", type=count, default=100, help="episodes per session")
    p.add_argument("--seed", type=int, default=0, help="episode seed base")
    p.add_argument("--bot-team", choices=("red", "blue"), default=None, help="play this side in-process")
    p.add_argument("--timeout", type=seconds, default=None, help="act deadline in seconds (forfeit on miss)")

    p = sub.add_parser("analyze", help="aggregate metrics and analyze replays", formatter_class=fmt)
    p.add_argument("--metrics-dir", default=None, help="directory of metrics CSV files")
    p.add_argument("--replays", nargs="*", default=[], help="replay JSONL files for diversity analysis")
    p.add_argument("--diversity-bandwidth", type=float, default=None, help="mean-shift bandwidth (default adaptive)")
    p.add_argument("--out", default="runs/analysis", help="output directory")

    p = sub.add_parser("scenarios", help="list the built-in scenarios", formatter_class=fmt)

    p = sub.add_parser("replay", help="summarize a replay file", formatter_class=fmt)
    p.add_argument("--file", required=True, help="replay JSONL file")

    p = sub.add_parser("bench", help="measure env steps per second with random policies", formatter_class=fmt)
    _add_common(p)
    p.add_argument("--steps", type=count, default=30_000, help="env steps to run")
    p.add_argument("--seed", type=int, default=0, help="benchmark seed")
    p.add_argument("--json", action="store_true", help="print one JSON line instead of the text summary")
    return parser


_SECTIONS = {"engine": EngineConfig, "reward": RewardConfig, "learner": LearnerConfig}


def _resolve_run(args) -> tuple[ScenarioSpec, dict]:
    """The scenario a command runs and every ``--config`` section built.

    Each section is built and checked whether or not the command uses it.
    """
    overrides = {}
    if args.config is not None:
        with open(args.config, encoding="utf-8") as fh:
            try:
                overrides = json.load(fh)
            except json.JSONDecodeError as exc:
                raise CliError(f"--config {args.config}: {exc}") from exc
        if not isinstance(overrides, dict):
            raise CliError(f"--config {args.config}: expected a JSON object of sections")
        unknown = set(overrides) - set(_SECTIONS)
        if unknown:
            hint = "; a scenario is changed with --scenario FILE" if "scenario" in unknown else ""
            raise CliError(f"--config {args.config}: unknown section(s) {', '.join(sorted(unknown))}{hint}")
    sections = {key: read_config(cls, overrides.get(key, {}), f"--config {key}") for key, cls in _SECTIONS.items()}
    path = Path(args.scenario)
    scenario = parse_scenario_config(path.read_text(encoding="utf-8")) if path.is_file() else get_scenario(args.scenario)
    return scenario, sections


def _check_fits(learner: Learner, label: str, env: BattleEnv, team: Team) -> Learner:
    """``learner``, if it was saved for the side, scenario and shapes of ``team`` in ``env``."""
    have, want = learner.team_spec, env.team_spec(team)
    if have != want:
        def describe(s):
            return (f"{s.team.name.lower()} on {s.scenario!r} ({s.n_agents} agents, {s.n_enemies} enemies, "
                    f"{s.n_actions} actions, {s.obs_len} observation and {s.state_len} state features)")
        raise CheckpointScenarioMismatch(f"{label} was saved for {describe(have)}, not {describe(want)}")
    return learner


def _policy(label: str, env: BattleEnv, team: Team) -> Learner:
    """The frozen policy ``label`` names for ``team`` in ``env``: 'bot', 'random' or a checkpoint path."""
    if label in ("bot", "random"):
        return make_learner(label, env.team_spec(team), scenario=env.scenario)
    learner = _check_fits(load_learner(label), f"checkpoint {label}", env, team)
    learner.freeze()
    return learner


def _manifest(path: Path, args, extra: dict) -> None:
    payload = {
        "version": __version__,
        "argv": sys.argv[1:],
        "resolved": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
        "numpy": np.__version__,
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"],
        "numba": importlib.util.find_spec("numba") is not None,
        "checkpoint_format": CHECKPOINT_FORMAT,
        "learner_dtype": np.dtype(nn.DTYPE).name,
        # Seeded learner outputs depend on the BLAS thread count.
        "thread_env": {name: os.environ.get(name) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                               "MKL_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
    }
    payload.update(extra)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=str), encoding="utf-8")


# -- subcommand bodies ---------------------------------------------------------


def _train_one_seed(payload: tuple) -> list[RunMetrics]:
    """Run one seed and write its metrics and checkpoints; returns the metrics, red first.

    Picklable both ways, so seeds can run in worker processes.
    """
    args, scenario, config, pool, seed, out = payload
    env = BattleEnv(scenario, config.engine, config.reward)
    sides = [(Team.RED, args.algo), (Team.BLUE, args.algo_b)] if args.mode == "paired" else [(Team.RED, args.algo)]
    learners = [
        # Paired sides' seeds carry a side index; a lone learner's seed does not.
        make_learner(algo, env.team_spec(team), config.learner,
                     seed=derive_seed(STREAM_INIT, seed, *([i] if len(sides) > 1 else [])))
        for i, (team, algo) in enumerate(sides)
    ]
    if args.mode == "bot":
        runs = [train_vs_bot(learners[0], scenario, config, seed=seed)]
    elif args.mode == "paired":
        runs = list(train_paired(*learners, scenario, config, seed=seed))
    else:
        runs = [train_mixed(learners[0], pool, scenario, config, seed=seed)]

    out = Path(out)
    for metrics, learner, (team, algo) in zip(runs, learners, sides):
        side = team.name.lower()
        write_metrics_csv(metrics, out / f"metrics_seed{seed}{'' if len(sides) == 1 else '_' + side}.csv")
        save_learner(out / f"checkpoint_seed{seed}_{algo}_{side}.npz", learner, {"train_seed": seed, "mode": args.mode})
    return runs


def cmd_train(args) -> int:
    if args.mode == "paired" and args.algo_b is None:
        print("train: --mode paired requires --algo-b", file=sys.stderr)
        return 2
    if args.mode == "mixed" and args.pool is None:
        print("train: --mode mixed requires --pool", file=sys.stderr)
        return 2
    scenario, sections = _resolve_run(args)
    config = TrainConfig(total_env_steps=args.steps, test_interval=args.test_interval,
                         test_episodes=args.test_episodes, **sections)
    pool = None
    if args.mode == "mixed":
        env = BattleEnv(scenario, config.engine, config.reward)
        pool = OpponentPool([_policy(label, env, Team.BLUE) for label in args.pool])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    seeds = [args.seed_base + k for k in range(args.seeds)]
    payloads = [(args, scenario, config, pool, seed, str(out)) for seed in seeds]
    if args.jobs > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            primary = [runs[0] for runs in pool.map(_train_one_seed, payloads)]
    else:
        primary = [_train_one_seed(payload)[0] for payload in payloads]

    aggregate = {
        "scenario": primary[0].scenario,
        "mode": primary[0].mode,
        "algo_red": primary[0].algo_red,
        "algo_blue": primary[0].algo_blue,
        "seeds": seeds,
        "median_win_rate": curve_to_json(median_win_rate(primary)),
    }
    (out / "aggregate.json").write_text(json.dumps(aggregate, indent=2, sort_keys=True), encoding="utf-8")
    _manifest(out / "manifest.json", args, {"seeds": seeds, "config": {key: asdict(c) for key, c in sections.items()}})
    print(f"wrote {len(seeds)} run(s) to {out}")
    return 0


def cmd_eval(args) -> int:
    scenario, sections = _resolve_run(args)
    env = BattleEnv(scenario, sections["engine"], sections["reward"])
    red = _policy(args.red, env, Team.RED)
    blue = _policy(args.blue, env, Team.BLUE)
    if args.replay_out:
        Path(args.replay_out).parent.mkdir(parents=True, exist_ok=True)
    with ReplayWriter(args.replay_out) if args.replay_out else contextlib.nullcontext() as writer:
        point = evaluate(red, blue, scenario, n_episodes=args.episodes, seed=args.seed,
                         engine_config=env.engine_config, reward_config=env.reward_config, replay=writer)
    payload = {
        "scenario": scenario.name, "red": args.red, "blue": args.blue,
        "episodes": args.episodes, "seed": args.seed,
        "wins": point.wins, "draws": point.draws, "losses": point.losses, "win_rate": point.win_rate,
        "mean_return_red": point.mean_return_red, "mean_return_blue": point.mean_return_blue,
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text, encoding="utf-8")
    print(text)
    return 0


def cmd_pool(args) -> int:
    scenario, sections = _resolve_run(args)
    config = TrainConfig(total_env_steps=args.steps_per_member, **sections)
    members = build_opponent_pool(scenario, args.algos, config, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for k, member in enumerate(members):
        filename = f"member_{k}_{member.algo}.npz"
        save_learner(out / filename, member, {"pool_seed": args.seed})
        entries.append({"algo": member.algo, "file": filename, "steps": member.env_steps,
                        "hash": member.checkpoint_hash()})
    _manifest(out / "manifest.json", args, {"members": entries})
    print(f"built pool of {len(entries)} members in {out}:", *(out / e["file"] for e in entries))
    return 0


def cmd_serve(args) -> int:
    from .protocol import BattleServer

    scenario, sections = _resolve_run(args)
    server = BattleServer(
        scenario, host=args.host, port=args.port, seed=args.seed, episodes=args.episodes,
        engine_config=sections["engine"], reward_config=sections["reward"],
        bot_team=Team[args.bot_team.upper()] if args.bot_team else None, act_timeout=args.timeout,
    )
    host, port = server.address[:2]
    print(f"listening on {host}:{port}", flush=True)
    served = server.run()
    outcomes = [ep.outcome for ep in served]
    print(f"served {len(served)} episodes: "
          f"{outcomes.count('red_win')} red wins, {outcomes.count('blue_win')} blue wins, "
          f"{outcomes.count('draw')} draws")
    return 0


def cmd_analyze(args) -> int:
    from .analysis import action_diversity, aggregate_runs, log_from_replay, write_summary
    from .env import read_replay

    if not args.metrics_dir and not args.replays:
        raise CliError("nothing to analyze: pass --metrics-dir and/or --replays")
    summary = None
    if args.metrics_dir:
        files = sorted(Path(args.metrics_dir).glob("*.csv"))
        if not files:
            raise CliError(f"no metrics CSV files in {args.metrics_dir}")
        summary = aggregate_runs(files)
    reports = [(path, action_diversity(log_from_replay(read_replay(path)), args.diversity_bandwidth))
               for path in args.replays]

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if summary is not None:
        write_summary(summary, out)
        print(f"aggregated {len(files)} metrics files into {out}")
    for replay_path, report in reports:
        dest = out / (Path(replay_path).stem + "_diversity.json")
        dest.write_text(json.dumps(report.to_json(), indent=2), encoding="utf-8")
        print(f"{replay_path}: {report.n_clusters} joint-action clusters "
              f"(explained variance {report.explained_variance[0]:.3f}/{report.explained_variance[1]:.3f})")
    return 0


def cmd_scenarios(args) -> int:
    def describe(comp) -> str:
        return ", ".join(f"{c} {s.name}" for s, c in comp)

    print(f"{'name':<12} {'limit':>5}  {'sym':<4} red / blue")
    for name, spec in builtin_scenarios().items():
        sym = "yes" if spec.symmetric else "no"
        print(f"{name:<12} {spec.episode_step_limit:>5}  {sym:<4} {describe(spec.red_composition)} / {describe(spec.blue_composition)}")
    return 0


def cmd_replay(args) -> int:
    from .env import read_replay

    records = read_replay(args.file)
    if not records:
        raise CliError(f"{args.file} holds no replay records")
    episodes: dict[int, dict] = {}
    for rec in records:
        ep = episodes.setdefault(rec["episode"], {"steps": 0, "outcome": None})
        ep["steps"] = max(ep["steps"], rec["step"])
        if rec.get("outcome"):
            ep["outcome"] = rec["outcome"]
    print(f"{args.file}: {len(records)} records, {len(episodes)} episodes (schema v{records[0]['v']})")
    for idx in sorted(episodes):
        ep = episodes[idx]
        print(f"  episode {idx}: {ep['steps']} steps, outcome {ep['outcome']}")
    return 0


def cmd_bench(args) -> int:
    scenario, sections = _resolve_run(args)
    env = BattleEnv(scenario, sections["engine"], sections["reward"])
    red = make_learner("random", env.team_spec(Team.RED))
    blue = make_learner("random", env.team_spec(Team.BLUE))
    rng_r = np.random.default_rng(derive_seed(STREAM_BENCH, args.seed, 0))
    rng_b = np.random.default_rng(derive_seed(STREAM_BENCH, args.seed, 1))
    # Warm-up episode so first-use allocations stay out of the measurement.
    r_res, b_res = env.reset(0)
    while not env.terminated:
        r_res, b_res = env.step(red.act(r_res.observations, r_res.masks, 0.0, rng_r),
                                blue.act(b_res.observations, b_res.masks, 0.0, rng_b))
    steps = 0
    episode = 0
    start = time.perf_counter()
    while steps < args.steps:
        r_res, b_res = env.reset(episode)
        episode += 1
        while not env.terminated and steps < args.steps:
            r_res, b_res = env.step(red.act(r_res.observations, r_res.masks, 0.0, rng_r),
                                    blue.act(b_res.observations, b_res.masks, 0.0, rng_b))
            steps += 1
    elapsed = time.perf_counter() - start
    rate = steps / elapsed
    if args.json:
        print(json.dumps({"scenario": scenario.name, "steps": steps, "elapsed_s": elapsed, "steps_per_s": rate}))
    else:
        print(f"scenario {scenario.name}: {steps} env steps in {elapsed:.3f}s -> {rate:,.0f} steps/s")
    return 0


_COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "pool": cmd_pool,
    "serve": cmd_serve,
    "analyze": cmd_analyze,
    "scenarios": cmd_scenarios,
    "replay": cmd_replay,
    "bench": cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (CliError, ConfigError, ScenarioError, CheckpointError) as exc:
        print(f"skirmish {args.command}: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"skirmish {args.command}: no such file: {exc.filename}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures
        print(f"skirmish {args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
