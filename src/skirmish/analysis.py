"""Post-hoc analysis: run aggregation and joint-action diversity.

Diversity of a policy is proxied by clustering the one-hot-expanded joint
actions of recorded episodes: project to 2D with PCA, cluster with a
flat-kernel mean shift, and report the cluster count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .training import CurvePoint, MisalignedRuns, RunMetrics, curve_to_json, median_win_rate, read_metrics_csv


class AnalysisError(ValueError):
    pass


class DegenerateData(AnalysisError):
    pass


class NoInputFiles(AnalysisError):
    pass


def pca_2d(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Top-2 principal projection from the eigendecomposition of the covariance.

    Deterministic sign convention: each component's largest-magnitude
    loading is positive.  A component whose eigenvalue is at most 1e-14 of
    the total variance (the rank has run out) projects to zeros.  Returns
    (projection (N,2), explained variance ratio (2,)).
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[0] < 2 or rows.shape[1] < 2:
        raise AnalysisError("need at least a 2x2 matrix")
    centered = rows - rows.mean(axis=0)
    cov = centered.T @ centered / (len(rows) - 1)
    total = float(np.trace(cov))
    if total <= 1e-15:
        raise DegenerateData("rows have zero variance")
    values, vectors = np.linalg.eigh(cov)  # ascending
    values, basis = values[:-3:-1], vectors[:, :-3:-1].T
    kept = values > 1e-14 * total
    values, basis = np.where(kept, values, 0.0), np.where(kept[:, None], basis, 0.0)
    lead = basis[np.arange(2), np.abs(basis).argmax(axis=1)]
    basis = np.where(lead[:, None] < 0, -basis, basis)
    return centered @ basis.T, values / total


def mean_shift(points: np.ndarray, bandwidth: float) -> np.ndarray:
    """Flat-kernel mean-shift labels.

    Each point iterates to the mean of the original points inside its
    bandwidth window until it moves less than 1e-4*bandwidth; converged
    modes closer than bandwidth/2 merge.  Labels are ordered by first
    appearance, so shuffling the input permutes labels but not the
    partition.
    """
    if bandwidth <= 0:
        raise AnalysisError("bandwidth must be positive")
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise AnalysisError("points must be a 2-D array")
    uniq, inverse = np.unique(points, axis=0, return_inverse=True)
    shifted = uniq.copy()
    tol = 1e-4 * bandwidth
    for _ in range(300):
        moved = False
        for i in range(len(shifted)):
            d = np.linalg.norm(points - shifted[i], axis=1)
            window = points[d <= bandwidth]
            target = window.mean(axis=0)
            if np.linalg.norm(target - shifted[i]) > tol:
                moved = True
            shifted[i] = target
        if not moved:
            break

    modes: list[np.ndarray] = []
    uniq_label = np.empty(len(shifted), dtype=np.int64)
    for i in range(len(shifted)):
        for m, mode in enumerate(modes):
            if np.linalg.norm(shifted[i] - mode) <= bandwidth / 2.0:
                uniq_label[i] = m
                break
        else:
            uniq_label[i] = len(modes)
            modes.append(shifted[i])

    # Relabel by first appearance in the caller's order.
    raw = uniq_label[inverse]
    remap: dict[int, int] = {}
    labels = np.empty(len(raw), dtype=np.int64)
    for i, r in enumerate(raw):
        if r not in remap:
            remap[r] = len(remap)
        labels[i] = remap[r]
    return labels


@dataclass
class JointActionLog:
    """Per-step joint actions of recorded episodes, one row per step."""

    actions: np.ndarray  # (N, n_agents) int, each code below n_actions
    n_actions: int

    def one_hot(self) -> np.ndarray:
        n, agents = self.actions.shape
        out = np.zeros((n, agents * self.n_actions))
        for a in range(agents):
            out[np.arange(n), a * self.n_actions + self.actions[:, a]] = 1.0
        return out


@dataclass
class DiversityReport:
    projection: np.ndarray
    labels: np.ndarray
    n_clusters: int
    explained_variance: np.ndarray
    bandwidth: float

    def to_json(self) -> dict:
        return {
            "n_clusters": self.n_clusters,
            "explained_variance": [float(v) for v in self.explained_variance],
            "bandwidth": self.bandwidth,
            "labels": [int(x) for x in self.labels],
            "projection": [[float(a), float(b)] for a, b in self.projection],
        }


BANDWIDTH_SAMPLE = 2048  # points of the projection the default bandwidth looks at


def default_bandwidth(projection: np.ndarray) -> float:
    """Half the median pairwise distance of the first ``BANDWIDTH_SAMPLE`` points."""
    pts = projection[:BANDWIDTH_SAMPLE]
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    upper = d[np.triu_indices(len(pts), k=1)]
    if len(upper) == 0:
        return 0.0
    return 0.5 * float(np.median(upper))


def action_diversity(log: JointActionLog, bandwidth: float | None = None) -> DiversityReport:
    """One-hot expand, project with PCA, cluster with mean shift."""
    if len(log.actions) == 0:
        raise AnalysisError("empty joint-action log")
    expanded = log.one_hot()
    try:
        projection, ratios = pca_2d(expanded)
    except DegenerateData:
        # Every step is the same joint action: one cluster by definition.
        n = len(expanded)
        return DiversityReport(np.zeros((n, 2)), np.zeros(n, dtype=np.int64), 1, np.zeros(2), 0.0)
    if bandwidth is None:
        bandwidth = default_bandwidth(projection)
    if bandwidth <= 0:
        return DiversityReport(projection, np.zeros(len(projection), dtype=np.int64), 1, ratios, 0.0)
    labels = mean_shift(projection, bandwidth)
    return DiversityReport(projection, labels, int(labels.max()) + 1, ratios, bandwidth)


def log_from_replay(records: list[dict]) -> JointActionLog:
    """Collect red's joint actions from replay records, over the action codes it used."""
    rows = []
    top = 0
    for rec in records:
        actions = rec.get("actions")
        if actions and actions.get("red") is not None:
            row = actions["red"]
            rows.append(row)
            top = max(top, max(row) + 1)
    if not rows:
        raise AnalysisError("replay has no recorded actions")
    return JointActionLog(np.array(rows, dtype=np.int64), top)


# -- cross-run aggregation ---------------------------------------------------

ADVANTAGE_MARGIN = 1.0 / 32.0


@dataclass
class RunSummary:
    """Aggregated view over a directory of metrics files."""

    pairings: dict[tuple[str, str, str], list[CurvePoint]] = field(default_factory=dict)
    scenario_scores: dict[str, dict[str, float]] = field(default_factory=dict)
    average_median_win_rate: dict[str, float] = field(default_factory=dict)
    advantage_counts: dict[str, int] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "pairings": [
                {"scenario": s, "algo": a, "opponent": o, "curve": curve_to_json(curve)}
                for (s, a, o), curve in sorted(self.pairings.items())
            ],
            "scenario_scores": self.scenario_scores,
            "average_median_win_rate": self.average_median_win_rate,
            "advantage_counts": self.advantage_counts,
            "advantage_margin": ADVANTAGE_MARGIN,
        }


def aggregate_runs(paths: list[str | Path]) -> RunSummary:
    """Merge metrics files into median curves, per-algo scores and advantage counts.

    Final-point scores per scenario average each algorithm's median win rate
    over every recorded opponent, self-pairings included.  An algorithm
    counts a scenario as an advantage only when it leads the runner-up by at
    least 1/32.
    """
    if not paths:
        raise NoInputFiles("no metrics files given")
    runs: dict[tuple[str, str, str], list[RunMetrics]] = {}
    for path in paths:
        m = read_metrics_csv(path)
        runs.setdefault((m.scenario, m.algo_red, m.algo_blue), []).append(m)

    summary = RunSummary()
    finals: dict[str, dict[str, list[float]]] = {}
    for key, group in sorted(runs.items()):
        curve = median_win_rate(group)
        summary.pairings[key] = curve
        scenario, algo, _ = key
        finals.setdefault(scenario, {}).setdefault(algo, []).append(curve[-1].median)

    for scenario, by_algo in finals.items():
        summary.scenario_scores[scenario] = {
            algo: float(np.mean(vals)) for algo, vals in by_algo.items()
        }

    algos = sorted({a for by_algo in finals.values() for a in by_algo})
    for algo in algos:
        rates = [summary.scenario_scores[s][algo] for s in summary.scenario_scores if algo in summary.scenario_scores[s]]
        summary.average_median_win_rate[algo] = float(np.mean(rates))
        summary.advantage_counts[algo] = 0

    for scenario, scores in summary.scenario_scores.items():
        if len(scores) < 2:
            continue
        ranked = sorted(scores.items(), key=lambda kv: kv[1], reverse=True)
        leader, best = ranked[0]
        runner_up = ranked[1][1]
        if best - runner_up >= ADVANTAGE_MARGIN:
            summary.advantage_counts[leader] += 1
    return summary


def write_summary(summary: RunSummary, directory: str | Path) -> None:
    """Emit the JSON summary plus a plot-ready CSV (x/y/series columns)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary.to_json(), fh, indent=2, sort_keys=True)
    with open(directory / "curves.csv", "w", encoding="utf-8") as fh:
        fh.write("series,env_step,median,mean,q1,q3\n")
        for (scenario, algo, opponent), curve in sorted(summary.pairings.items()):
            series = f"{scenario}:{algo}-vs-{opponent}"
            for p in curve:
                fh.write(f"{series},{p.env_step},{p.median!r},{p.mean!r},{p.q1!r},{p.q3!r}\n")
