"""Run aggregation on hand-written metrics files; diversity analysis: PCA against
scipy's eigensolver, mean-shift clustering, and joint-action logs from replays."""

import numpy as np
import pytest
import scipy.linalg

from skirmish.analysis import (
    ADVANTAGE_MARGIN,
    AnalysisError,
    JointActionLog,
    action_diversity,
    aggregate_runs,
    log_from_replay,
    mean_shift,
    pca_2d,
)
from skirmish.env import BattleEnv, replay_record
from skirmish.scenario import get_scenario


def blobs(centres, n=30, spread=0.3, seed=0):
    rng = np.random.default_rng(seed)
    points = np.concatenate([c + spread * rng.standard_normal((n, 2)) for c in np.asarray(centres, float)])
    return points, np.repeat(np.arange(len(centres)), n)


def same_partition(a, b) -> bool:
    pairs = set(zip(a.tolist(), b.tolist()))
    return len(pairs) == len(set(a.tolist())) == len(set(b.tolist()))


def test_pca_2d_matches_the_covariance_eigendecomposition():
    rng = np.random.default_rng(0)
    rotation = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    rows = rng.standard_normal((200, 6)) @ np.diag([6.0, 3.0, 1.5, 0.7, 0.3, 0.1]) @ rotation
    projection, ratios = pca_2d(rows)

    centered = rows - rows.mean(axis=0)
    values, vectors = scipy.linalg.eigh(centered.T @ centered / (len(rows) - 1))
    top = np.argsort(values)[::-1][:2]
    np.testing.assert_allclose(ratios, values[top] / values.sum(), rtol=0, atol=1e-9)
    reference = centered @ vectors[:, top]
    sign = np.sign((projection * reference).sum(axis=0))
    np.testing.assert_allclose(projection, reference * sign, rtol=0, atol=1e-6 * np.abs(reference).max())


def test_mean_shift_finds_two_separated_blobs():
    points, truth = blobs([(0.0, 0.0), (10.0, 10.0)])
    labels = mean_shift(points, bandwidth=2.0)
    assert labels.max() + 1 == 2
    assert same_partition(labels, truth)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_mean_shift_shuffle_permutes_labels_but_keeps_the_partition(seed):
    points, truth = blobs([(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)], n=20, seed=seed)
    labels = mean_shift(points, bandwidth=2.0)
    order = np.random.default_rng(seed).permutation(len(points))
    shuffled = mean_shift(points[order], bandwidth=2.0)
    assert same_partition(labels, truth)
    assert same_partition(shuffled, labels[order])
    assert shuffled[0] == 0  # labels follow first appearance in the caller's order


def test_one_repeated_joint_action_is_one_cluster():
    report = action_diversity(JointActionLog(np.tile([1, 4, 2], (20, 1)), 5))  # zero variance: no PCA
    assert (report.n_clusters, report.bandwidth) == (1, 0.0)
    assert not report.labels.any() and not report.projection.any()


def test_bandwidth_0_gives_one_cluster():
    actions = np.random.default_rng(0).integers(0, 5, (40, 3))
    report = action_diversity(JointActionLog(actions, 5), bandwidth=0.0)
    assert report.n_clusters == 1 and not report.labels.any()
    assert report.explained_variance.sum() > 0  # the rows did vary


def test_two_separated_joint_action_patterns_give_two_clusters():
    patterns = np.array([[0, 0, 1], [4, 3, 4]])
    truth = np.arange(30) % 2
    report = action_diversity(JointActionLog(patterns[truth], 5))  # the adaptive bandwidth
    assert report.n_clusters == 2
    assert same_partition(report.labels, truth)


def test_a_replay_with_no_recorded_actions_is_refused():
    env = BattleEnv(get_scenario("3m"))
    env.reset(0)
    first = replay_record(env, 0, 0, None, {"red": 0.0, "blue": 0.0}, None)  # a reset line carries no actions
    with pytest.raises(AnalysisError, match="no recorded actions"):
        log_from_replay([first, first])


def metrics_csv(directory, scenario, algo, opponent, seed, wins, episodes=32):
    """A run with two evaluation points: no wins at step 0, ``wins`` of ``episodes`` at step 100."""
    path = directory / f"{scenario}_{algo}_{opponent}_{seed}.csv"
    header = "env_step,wins,draws,losses,win_rate,mean_return_red,mean_return_blue,seed,mode,scenario,algo_red,algo_blue"
    rows = [(0, 0, episodes), (100, wins, episodes - wins)]
    path.write_text(header + "\n" + "".join(
        f"{step},{won},0,{lost},{won / episodes},0.0,0.0,{seed},bot,{scenario},{algo},{opponent}\n"
        for step, won, lost in rows
    ))
    return path


def test_aggregate_scores_average_every_opponent_self_pairings_included(tmp_path):
    paths = [metrics_csv(tmp_path, "3m", "qmix", "bot", seed, wins) for seed, wins in enumerate((16, 32, 24))]
    paths.append(metrics_csv(tmp_path, "3m", "qmix", "qmix", 0, 16))  # self-pairing
    paths.append(metrics_csv(tmp_path, "3m", "vdn", "bot", 0, 8))
    summary = aggregate_runs(paths)
    assert sorted(summary.pairings) == [("3m", "qmix", "bot"), ("3m", "qmix", "qmix"), ("3m", "vdn", "bot")]
    assert [p.median for p in summary.pairings["3m", "qmix", "bot"]] == [0.0, 0.75]  # median over seeds
    assert summary.scenario_scores == {"3m": {"qmix": (0.75 + 0.5) / 2, "vdn": 0.25}}
    assert summary.average_median_win_rate == {"qmix": 0.625, "vdn": 0.25}
    assert summary.advantage_counts == {"qmix": 1, "vdn": 0}


@pytest.mark.parametrize(
    "wins,episodes,counted",
    [((17, 16), 32, 1), ((17, 16), 33, 0), ((16, 16), 32, 0)],
    ids=["lead of exactly 1/32", "lead just below 1/32", "tie"],
)
def test_advantage_needs_a_lead_of_at_least_1_32(tmp_path, wins, episodes, counted):
    paths = [metrics_csv(tmp_path, "MMM2", algo, "bot", 0, won, episodes) for algo, won in zip(("iql", "vdn"), wins)]
    summary = aggregate_runs(paths)
    iql, vdn = (summary.scenario_scores["MMM2"][algo] for algo in ("iql", "vdn"))
    assert (iql - vdn >= ADVANTAGE_MARGIN) == bool(counted)
    assert summary.advantage_counts == {"iql": counted, "vdn": 0}


def test_a_single_algorithm_scenario_counts_no_advantage(tmp_path):
    paths = [
        metrics_csv(tmp_path, "3m", "iql", "bot", 0, 32),   # iql alone on 3m
        metrics_csv(tmp_path, "MMM2", "iql", "bot", 0, 16),
        metrics_csv(tmp_path, "MMM2", "vdn", "bot", 0, 8),
    ]
    summary = aggregate_runs(paths)
    assert summary.advantage_counts == {"iql": 1, "vdn": 0}  # MMM2 only
    assert summary.average_median_win_rate == {"iql": 0.75, "vdn": 0.25}
    assert aggregate_runs(paths[:1]).advantage_counts == {"iql": 0}
