"""Diversity analysis: PCA against scipy's eigensolver, and mean-shift clustering."""

import numpy as np
import pytest
import scipy.linalg

from skirmish.analysis import mean_shift, pca_2d


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
