"""Command-line paths end to end on tiny budgets, and the exit-code contract."""

import json

import pytest

from skirmish import cli
from skirmish.engine import Team
from skirmish.env import UnavailableAction


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
    assert cli.main(["analyze", "--metrics-dir", str(runs), "--out", str(tmp_path / "analysis")]) == 0
    assert (tmp_path / "analysis" / "summary.json").is_file()


def _pit_counts(text):
    line = next(ln for ln in text.splitlines() if "red wins" in ln).split()
    return int(line[2]), int(line[4]), int(line[7])


def test_eval_and_pit_agree(tmp_path, capsys):
    common = ["--scenario", "3m", "--red", "random", "--blue", "random", "--seed", "0", "--episodes", "8"]
    assert cli.main(["eval", *common]) == 0
    evaluated = json.loads(capsys.readouterr().out)
    replay = tmp_path / "pit.jsonl"
    assert cli.main(["pit", *common, "--replay-out", str(replay)]) == 0
    pitted = _pit_counts(capsys.readouterr().out)
    assert pitted == (evaluated["wins"], evaluated["draws"], evaluated["losses"])
    episodes = {json.loads(line)["episode"] for line in replay.read_text().splitlines()}
    assert episodes == set(range(8))


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
        {"scenario": {"fog": 1}},
    ],
)
def test_config_errors_exit_2(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli.main(["bench", "--scenario", "3m", "--steps", "10", "--config", str(path)]) == 2


def test_scenario_errors_exit_2(tmp_path):
    assert cli.main(["bench", "--scenario", "99m", "--steps", "10"]) == 2
    scenario = tmp_path / "slow.ini"
    scenario.write_text("[scenario]\nbase = 3m\n\n[engine]\nstep_dt = 5.0\n")
    assert cli.main(["bench", "--scenario", str(scenario), "--steps", "10"]) == 2
