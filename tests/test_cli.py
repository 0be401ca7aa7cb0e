"""Command-line paths end to end on tiny budgets, and the exit-code contract."""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import skirmish
from skirmish import cli
from skirmish.engine import Team
from skirmish.env import BattleEnv, UnavailableAction
from skirmish.learners import LearnerConfig, load_learner, make_learner
from skirmish.protocol import bot_client, client_loop
from skirmish.scenario import get_scenario
from skirmish.training import read_metrics_csv

from test_learners import write_broken_checkpoint


def test_train_then_analyze(tmp_path):
    runs = tmp_path / "runs"
    code = cli.main([
        "train", "--scenario", "3m", "--steps", "600", "--seeds", "1",
        "--test-interval", "300", "--test-episodes", "2", "--out", str(runs),
    ])
    assert code == 0
    aggregate = json.loads((runs / "aggregate.json").read_text())
    assert [p["env_step"] for p in aggregate["median_win_rate"]] == [0, 300, 600]
    assert "np.float64" not in (runs / "metrics_seed0.csv").read_text()
    manifest = json.loads((runs / "manifest.json").read_text())
    assert (manifest["checkpoint_format"], manifest["learner_dtype"], manifest["numpy"]) == (2, "float32", np.__version__)
    assert "name" in manifest["blas"] and isinstance(manifest["numba"], bool)
    params = load_learner(runs / "checkpoint_seed0_iql_red.npz").parameter_arrays()
    assert {p.dtype for p in params} == {np.dtype(np.float32)}
    assert cli.main(["analyze", "--metrics-dir", str(runs), "--out", str(tmp_path / "analysis")]) == 0
    assert (tmp_path / "analysis" / "summary.json").is_file()


def test_eval_reports_the_same_with_and_without_a_replay(tmp_path, capsys):
    common = ["--scenario", "3m", "--red", "random", "--blue", "random", "--seed", "0", "--episodes", "8"]
    assert cli.main(["eval", *common]) == 0
    plain = capsys.readouterr().out
    replay = tmp_path / "replay.jsonl"
    assert cli.main(["eval", *common, "--replay-out", str(replay)]) == 0
    assert capsys.readouterr().out == plain
    episodes = {json.loads(line)["episode"] for line in replay.read_text().splitlines()}
    assert episodes == set(range(8))


def test_the_manifest_records_the_thread_settings(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    assert cli.main(["pool", "--scenario", "3m", "--algos", "iql", "--steps-per-member", "30",
                     "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["thread_env"]["OPENBLAS_NUM_THREADS"] == "3"
    assert manifest["thread_env"]["MKL_NUM_THREADS"] is None
    assert manifest["cpu_count"] == os.cpu_count()


def test_runtime_value_error_exits_1(monkeypatch, capsys):
    def broken(args):
        raise UnavailableAction(Team.RED, 0, 9)

    monkeypatch.setitem(cli._COMMANDS, "scenarios", broken)
    assert cli.main(["scenarios"]) == 1
    assert "UnavailableAction" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config",
    [
        {"engine": {"arena_width": 40.0}},   # no such engine knob
        {"engin": {"step_dt": 0.25}},        # no such section
        {"scenario": {"spawn_spread": 0.25}},  # scenarios change through --scenario FILE only
        {"learner": {"mixer_layers": 2}},    # removed with the one-layer mixer
        {"engine": 5},                       # a section that is not an object
        5,                                   # a file that is not an object
        {"learner": {"hidden": 8}},
        {"engine": {"step_dt": "x"}},        # values of the wrong type
        {"learner": {"batch_episodes": 0}},  # values out of range: an empty batch failed mid-run
        {"reward": {"win_bonus": [1]}},
        {"learner": {"double_q": "no"}},
        {"learner": {"double_q": 1}},        # a bool field takes only a JSON boolean
        {"learner": {"batch_episodes": True}},  # an int field takes no boolean
        {"learner": {"batch_episodes": 2.5}},
        {"reward": {"win_bonus": False}},    # nor does a float field
        {"learner": {"target_interval": 0, "batch_episodes": 1}},  # divided by zero mid-run
        {"learner": {"buffer_episodes": 0, "batch_episodes": 1}},  # never trained
        {"learner": {"hidden": [-1]}},
        {"learner": {"mixer_embed": 0}},
        {"learner": {"lr": -0.1}},
        {"learner": {"grad_clip": float("nan")}},  # Python's json reads NaN and Infinity
        {"learner": {"gamma": 1.5}},
        {"engine": {"step_dt": 0}},          # a battle in which nothing moves
        {"engine": {"step_dt": float("inf")}},
        {"learner": {"epsilon_start": -0.5}},
        {"learner": {"epsilon_end": 2}},
        {"learner": {"hidden": [0]}},
        {"reward": {"win_bonus": -165}},     # cancelled the 3m health pool: ZeroDivisionError mid-run
        {"reward": {"scale_target": -20}},   # flipped the sign of every reward
    ],
)
def test_config_errors_exit_2(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli.main(["bench", "--scenario", "3m", "--steps", "10", "--config", str(path)]) == 2


def test_a_config_scenario_section_names_scenario_files(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"scenario": {"spawn_spread": 0.25}}))
    assert cli.main(["bench", "--scenario", "3m", "--steps", "10", "--config", str(path)]) == 2
    assert "unknown section(s) scenario; a scenario is changed with --scenario FILE" in capsys.readouterr().err


@pytest.mark.parametrize(
    "lines",
    [
        "[scenario]\nbase = 3m\nepisode_step_limit = 0\n",
        "[scenario]\nbase = 3m\nepisode_step_limit = -3\n",
        "[scenario]\nbase = 3m\narena_width = 0\n",
        "[scenario]\nbase = 3m\narena_height = -32\n",
        "[scenario]\nbase = 3m\narena_width = nan\n",
        "[scenario]\nbase = 3m\narena_height = inf\n",
        "[scenario]\nbase = 3m\nspawn_spread = -4\n",
        "[scenario]\nbase = 3m\n\n[red]\nmarines = 0\n",
        "[red]\nmarines = 3\n\n[blue]\nmarines = -1\n",
        "[red]\nmarines = x\n\n[blue]\nmarines = 3\n",  # numbers that do not parse
        "[scenario]\nbase = 3m\narena_width = wide\n",
        "[scenario]\nbase = 3m\nspawn_spread = 10.2\n",  # jitter past the wall: reset seed 25 failed mid-run
        "[scenario]\nbase = 3m\n\n[red]\nmarines = 1000000000\n",  # refused by arithmetic, before any slot is laid out
    ],
)
def test_out_of_range_scenario_files_exit_2(tmp_path, lines, capsys):
    path = tmp_path / "scenario.ini"
    path.write_text(lines)
    assert cli.main(["bench", "--scenario", str(path), "--steps", "10"]) == 2
    assert "must be" in capsys.readouterr().err


def test_train_config_with_a_double_q_string_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps({"learner": {"double_q": "no"}}))
    assert cli.main(["train", "--scenario", "3m", "--steps", "30", "--seeds", "1", "--config", "config.json",
                     "--out", "out"]) == 2
    assert "--config learner double_q must be true or false" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_values_of_the_annotated_type_run(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"engine": {"step_dt": 1}, "reward": {"win_bonus": 2.5},  # an integer fits a float
                                "learner": {"double_q": True, "batch_episodes": 4}}))
    assert cli.main(["bench", "--scenario", "3m", "--steps", "10", "--config", str(path)]) == 0


def test_bench_json_prints_one_line(capsys):
    assert cli.main(["bench", "--scenario", "3m", "--steps", "50", "--json"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    result = json.loads(lines[0])
    assert (result["scenario"], result["steps"]) == ("3m", 50)
    assert result["elapsed_s"] > 0
    assert result["steps_per_s"] == pytest.approx(50 / result["elapsed_s"])


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--steps", "-5"], ["train", "--seeds", "0"], ["train", "--test-interval", "0"],
        ["train", "--test-episodes", "0"], ["train", "--jobs", "0"], ["eval", "--episodes", "0"],
        ["pool", "--steps-per-member", "0"], ["serve", "--episodes", "0"],
        ["serve", "--timeout", "0"], ["serve", "--timeout", "-1.5"], ["serve", "--timeout", "inf"],
        ["bench", "--steps", "0"],
    ],
    ids=" ".join,
)
def test_out_of_range_numbers_are_usage_errors(argv, capsys):
    parser = cli.build_parser()
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    assert exc.value.code == 2
    assert f"argument {argv[1]}" in capsys.readouterr().err
    parser.parse_args([argv[0], argv[1], "1"])  # the smallest valid value parses


@pytest.mark.parametrize(
    "argv",
    [
        ["replay", "--file", "MISSING.jsonl"],
        ["eval", "--red", "MISSING.npz"],
        ["train", "--mode", "mixed", "--pool", "bot", "MISSING.npz"],
        ["bench", "--config", "MISSING.json"],
        ["analyze", "--replays", "MISSING.jsonl"],
    ],
    ids=" ".join,
)
def test_missing_input_file_is_a_usage_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # analyze's default --out is relative
    assert cli.main(argv) == 2
    assert f"no such file: {argv[-1]}" in capsys.readouterr().err


def _exit_code(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects a bad flag value before any command runs
        return exc.code


@pytest.mark.parametrize(
    "argv",
    [
        ["pool", "--algos", "bogus"],
        ["pool", "--algos="],  # no algorithm: the bot joins a mixed-mode --pool by name
        ["analyze"],
        ["analyze", "--metrics-dir", "."],  # a directory with no metrics CSV in it
    ],
    ids=" ".join,
)
def test_bad_pool_and_analyze_inputs_are_usage_errors(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _exit_code(argv) == 2


# Inputs the cases below may name, each wrong in one way.
_BAD_INPUTS = {
    "pool/manifest.json": "{}",  # a pool directory, named where its member files belong
    "wide.ini": "[scenario]\nbase = 3m\nspawn_spread = 10.2\n",
    "count.ini": "[scenario]\nbase = 3m\n\n[red]\nmarines = x\n",
    "batch.json": json.dumps({"learner": {"batch_episodes": 0}}),
    "interval.json": json.dumps({"learner": {"target_interval": 0, "batch_episodes": 1}}),
    "step.json": json.dumps({"engine": {"step_dt": 0}}),
}


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--replays", "MISSING.jsonl", "--out", "out"],
        ["analyze", "--out", "out"],
        ["train", "--mode", "mixed", "--pool", "NOPOOL", "--out", "out"],  # a member file that does not exist
        ["train", "--mode", "mixed", "--pool", "pool", "--out", "out"],
        ["eval", "--red", "pool", "--out", "out/eval.json"],
        ["train", "--scenario", "wide.ini", "--out", "out"],
        ["train", "--scenario", "count.ini", "--out", "out"],
        ["train", "--config", "batch.json", "--out", "out"],
        ["train", "--config", "interval.json", "--out", "out"],
        ["train", "--config", "step.json", "--out", "out"],
    ],
    ids=" ".join,
)
def test_failed_commands_leave_no_output_directory(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, text in _BAD_INPUTS.items():
        Path(name).parent.mkdir(exist_ok=True)
        Path(name).write_text(text)
    assert cli.main([*argv, "--steps", "30", "--seeds", "1"] if argv[0] == "train" else argv) == 2
    assert not (tmp_path / "out").exists()


def _custom_marines(path, n):
    """A scenario file named ``custom``: n marines a side."""
    path.write_text(f"[red]\nmarines = {n}\n\n[blue]\nmarines = {n}\n")
    return str(path)


def test_eval_with_a_checkpoint_of_another_scenario_is_a_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    a, b = _custom_marines(tmp_path / "a.cfg", 3), _custom_marines(tmp_path / "b.cfg", 5)
    assert cli.main(["train", "--scenario", a, "--steps", "30", "--seeds", "1", "--test-interval", "30",
                     "--test-episodes", "1", "--out", "run"]) == 0
    assert cli.main(["eval", "--scenario", b, "--red", "run/checkpoint_seed0_iql_red.npz",
                     "--out", "out/eval.json"]) == 2
    err = capsys.readouterr().err
    assert "saved for red on 'custom' (3 agents" in err and "not red on 'custom' (5 agents" in err
    assert not (tmp_path / "out").exists()


def test_mixed_training_against_a_pool_of_another_scenario_is_a_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["pool", "--scenario", "3m", "--algos", "iql", "--steps-per-member", "30", "--out", "pool"]) == 0
    assert cli.main(["train", "--mode", "mixed", "--pool", "pool/member_0_iql.npz", "--scenario", "8m",
                     "--steps", "30", "--seeds", "1", "--out", "out"]) == 2
    assert "checkpoint pool/member_0_iql.npz was saved for blue on '3m'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "kind", ["not a checkpoint", "wrong shape", "format 1", "meta is a list", "no config", "unknown config key",
             "config out of range", "no scenario config", "scenario config that does not parse", "random checkpoint"]
)
@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--red", "pool/member.npz", "--out", "out/eval.json", "--replay-out", "out/replay.jsonl"],
        ["train", "--mode", "mixed", "--pool", "pool/member.npz", "--steps", "30", "--seeds", "1", "--out", "out"],
    ],
    ids=lambda argv: argv[0],
)
def test_checkpoints_that_cannot_load_are_usage_errors(tmp_path, monkeypatch, capsys, argv, kind):
    monkeypatch.chdir(tmp_path)
    team = Team.BLUE if argv[0] == "train" else Team.RED  # pool members play blue
    learner = make_learner("iql", BattleEnv(get_scenario("3m")).team_spec(team), LearnerConfig(hidden=(8,)))
    Path("pool").mkdir()
    expect = write_broken_checkpoint(Path("pool/member.npz"), learner, kind)
    assert cli.main([*argv, "--scenario", "3m"]) == 2
    assert expect in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_eval_creates_the_replay_directory(tmp_path):
    replay = tmp_path / "nodir" / "x.jsonl"
    assert cli.main(["eval", "--scenario", "3m", "--episodes", "1", "--replay-out", str(replay)]) == 0
    assert replay.read_text().count("\n") >= 1


def test_scenario_errors_exit_2(tmp_path):
    assert cli.main(["bench", "--scenario", "99m", "--steps", "10"]) == 2
    scenario = tmp_path / "slow.ini"
    scenario.write_text("[scenario]\nbase = 3m\n\n[engine]\nstep_dt = 5.0\n")
    assert cli.main(["bench", "--scenario", str(scenario), "--steps", "10"]) == 2


def test_pool_resolves_the_whole_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"engine": {"bogus": 1}}))
    assert cli.main(["pool", "--algos", "iql", "--config", str(bad), "--out", str(tmp_path / "bad")]) == 2
    assert not (tmp_path / "bad").exists()

    # A [reward] override reaches the members: the same seed trains a different network.
    learner = {"hidden": [8], "batch_episodes": 1}
    hashes = []
    for name, config in (("plain", {"learner": learner}),
                         ("scaled", {"learner": learner, "reward": {"scale_target": 1.0}})):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config))
        out = tmp_path / name
        assert cli.main(["pool", "--algos", "iql", "--steps-per-member", "60",
                         "--config", str(path), "--out", str(out)]) == 0
        hashes.append(json.loads((out / "manifest.json").read_text())["members"][0]["hash"])
    assert hashes[0] != hashes[1]


def _pipeline(root, config):
    """train (2 seeds) -> analyze --metrics-dir -> eval --replay-out -> analyze --replays."""
    train = root / "train"
    assert cli.main(["train", "--scenario", "3m", "--steps", "300", "--seeds", "2", "--test-interval", "150",
                     "--test-episodes", "2", "--config", str(config), "--out", str(train)]) == 0
    assert cli.main(["analyze", "--metrics-dir", str(train), "--out", str(root / "curves")]) == 0
    replay = root / "replay.jsonl"
    assert cli.main(["eval", "--scenario", "3m", "--red", str(train / "checkpoint_seed1_iql_red.npz"),
                     "--blue", "bot", "--episodes", "3", "--seed", "4", "--replay-out", str(replay)]) == 0
    assert cli.main(["analyze", "--replays", str(replay), "--out", str(root / "diversity")]) == 0
    outputs = {path.relative_to(root).as_posix(): path.read_bytes()
               for path in sorted(root.rglob("*")) if path.is_file() and path.suffix != ".npz"
               and path.name != "manifest.json"}  # manifests record the output paths
    hashes = {path.name: load_learner(path).checkpoint_hash() for path in sorted(train.glob("*.npz"))}
    return outputs, hashes


@pytest.mark.slow
def test_pipeline_outputs_are_byte_identical_across_runs(tmp_path):
    config = tmp_path / "learner.json"
    config.write_text(json.dumps({"learner": {"hidden": [16], "batch_episodes": 2, "epsilon_anneal_steps": 300}}))
    first = _pipeline(tmp_path / "a", config)
    assert sorted(first[0]) == [
        "curves/curves.csv", "curves/summary.json", "diversity/replay_diversity.json", "replay.jsonl",
        "train/aggregate.json", "train/metrics_seed0.csv", "train/metrics_seed1.csv",
    ]
    assert sorted(first[1]) == ["checkpoint_seed0_iql_red.npz", "checkpoint_seed1_iql_red.npz"]
    assert len(set(first[1].values())) == 2  # the seeds train different networks
    assert _pipeline(tmp_path / "b", config) == first


def test_paired_training_writes_both_sides_of_every_seed(tmp_path):
    out = tmp_path / "paired"
    assert cli.main(["train", "--mode", "paired", "--algo", "iql", "--algo-b", "qmix", "--scenario", "3m",
                     "--steps", "60", "--seeds", "2", "--seed-base", "3", "--test-interval", "30",
                     "--test-episodes", "2", "--out", str(out)]) == 0
    assert sorted(path.name for path in out.glob("*.csv")) == [
        "metrics_seed3_blue.csv", "metrics_seed3_red.csv", "metrics_seed4_blue.csv", "metrics_seed4_red.csv",
    ]
    assert sorted(path.name for path in out.glob("*.npz")) == [
        "checkpoint_seed3_iql_red.npz", "checkpoint_seed3_qmix_blue.npz",
        "checkpoint_seed4_iql_red.npz", "checkpoint_seed4_qmix_blue.npz",
    ]
    for seed in (3, 4):
        red = read_metrics_csv(out / f"metrics_seed{seed}_red.csv")
        blue = read_metrics_csv(out / f"metrics_seed{seed}_blue.csv")
        assert (red.algo_red, red.algo_blue, blue.algo_red, blue.algo_blue) == ("iql", "qmix", "qmix", "iql")
        assert [p.env_step for p in red.points] == [p.env_step for p in blue.points] == [0, 30, 60]
        for r, b in zip(red.points, blue.points):
            assert (r.wins, r.draws, r.losses) == (b.losses, b.draws, b.wins)
            assert (r.mean_return_red, r.mean_return_blue) == (b.mean_return_blue, b.mean_return_red)


def _pool_then_mixed(root, config):
    """pool (iql, vdn) -> train --mode mixed against both members and the bot (2 seeds)."""
    pool = root / "pool"
    assert cli.main(["pool", "--scenario", "3m", "--algos", "iql,vdn", "--steps-per-member", "60", "--seed", "3",
                     "--config", str(config), "--out", str(pool)]) == 0
    members = json.loads((pool / "manifest.json").read_text())["members"]
    assert [(m["algo"], m["file"]) for m in members] == [("iql", "member_0_iql.npz"), ("vdn", "member_1_vdn.npz")]
    assert cli.main(["train", "--mode", "mixed", "--pool", *(str(pool / m["file"]) for m in members), "bot",
                     "--algo", "qmix", "--scenario", "3m", "--steps", "120", "--seeds", "2", "--test-interval", "60",
                     "--test-episodes", "2", "--config", str(config), "--out", str(root / "mixed")]) == 0
    assert read_metrics_csv(root / "mixed" / "metrics_seed1.csv").algo_blue == "pool"
    outputs = {path.relative_to(root).as_posix(): path.read_bytes()
               for path in sorted(root.rglob("*")) if path.is_file() and path.name != "manifest.json"}
    return outputs, members  # manifests record the output paths; compare the members they list


@pytest.mark.slow
def test_pool_then_mixed_outputs_are_byte_identical_across_runs(tmp_path):
    config = tmp_path / "learner.json"
    config.write_text(json.dumps({"learner": {"hidden": [16], "batch_episodes": 2, "epsilon_anneal_steps": 100}}))
    first = _pool_then_mixed(tmp_path / "a", config)
    assert sorted(first[0]) == [
        "mixed/aggregate.json", "mixed/checkpoint_seed0_qmix_red.npz", "mixed/checkpoint_seed1_qmix_red.npz",
        "mixed/metrics_seed0.csv", "mixed/metrics_seed1.csv", "pool/member_0_iql.npz", "pool/member_1_vdn.npz",
    ]
    assert _pool_then_mixed(tmp_path / "b", config) == first


def test_replay_prints_one_line_per_episode(tmp_path, capsys):
    replay = tmp_path / "replay.jsonl"
    assert cli.main(["eval", "--scenario", "3m", "--red", "bot", "--blue", "random", "--episodes", "3",
                     "--replay-out", str(replay)]) == 0
    wins = json.loads(capsys.readouterr().out)["wins"]
    assert cli.main(["replay", "--file", str(replay)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[1:]] == [f"  episode {k}" for k in range(3)]
    assert sum(line.endswith("outcome red_win") for line in lines) == wins

    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert cli.main(["replay", "--file", str(empty)]) == 2
    assert str(empty) in capsys.readouterr().err


def test_serve_on_port_0_prints_its_address_and_serves(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(skirmish.__file__).parents[1]))
    server = subprocess.Popen(
        [sys.executable, "-m", "skirmish.cli", "serve", "--scenario", "3m", "--port", "0",
         "--bot-team", "blue", "--episodes", "2"],
        stdout=subprocess.PIPE, text=True, env=env, cwd=tmp_path,
    )
    watchdog = threading.Timer(60, server.kill)  # a server that never listens closes stdout this way
    watchdog.start()
    try:
        first = server.stdout.readline()
        assert first.startswith("listening on "), first
        host, port = first.split()[-1].rsplit(":", 1)
        episodes = client_loop(bot_client, (host, int(port)), team="red")
        rest = server.stdout.read()
        assert server.wait() == 0
    finally:
        watchdog.cancel()
        server.kill()
        server.stdout.close()
    assert len(episodes) == 2
    assert rest.startswith("served 2 episodes")


def _train_outputs(out, jobs):
    assert cli.main(["train", "--scenario", "3m", "--steps", "300", "--seeds", "2", "--test-interval", "150",
                     "--test-episodes", "2", "--jobs", str(jobs), "--out", str(out)]) == 0
    files = {path.name: path.read_bytes() for path in sorted(out.glob("*")) if path.suffix in (".csv", ".json")
             and path.name != "manifest.json"}  # the manifest records --jobs and --out
    hashes = {path.name: load_learner(path).checkpoint_hash() for path in sorted(out.glob("*.npz"))}
    return files, hashes


def test_train_jobs_2_matches_jobs_1(tmp_path):
    serial = _train_outputs(tmp_path / "serial", 1)
    assert sorted(serial[0]) == ["aggregate.json", "metrics_seed0.csv", "metrics_seed1.csv"]
    assert len(serial[1]) == 2
    assert _train_outputs(tmp_path / "parallel", 2) == serial
