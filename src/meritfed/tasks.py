"""Task definitions: objectives, client data generation, validation oracles.

Two desk-scale tasks are implemented. The mean-estimation task minimizes
E||x - xi||^2 over Gaussian samples with identity covariance, so every
closed-form constant is available (optimum at the distribution center,
optimal value d, smoothness 2, PL constant 2, gradient-noise variance 4d/b
at batch size b). The softmax task is a linear classifier on well-separated
Gaussian class clusters with three client groups: target classes only, an
alpha-mixture of target and mixed-in classes, and disjoint classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, MeritFedError, ShapeError
from . import streams

MODE_EXTRA = "extra-validation"
MODE_REUSE_TRAIN = "reuse-train"
MODE_POPULATION = "population"

# Softmax class layout: clients see target classes, an alpha-mixture of target
# and mixed-in classes, or disjoint classes only.
TARGET_CLASSES = (0, 1, 2)
MIXED_CLASSES = (3, 4, 5)
CLASS_CENTER_DISTANCE = 4.0

MEAN_SMOOTHNESS = 2.0
MEAN_PL_CONSTANT = 2.0


@dataclass
class DatasetShard:
    """One client's local dataset."""

    samples: np.ndarray  # (count, d) features; mean task uses these directly
    labels: Optional[np.ndarray] = None  # softmax task only


def generate_mean_shards(
    master_seed: int, centers: np.ndarray, shard_size: int
) -> list[DatasetShard]:
    """Per-client Gaussian shards with identity covariance around each center.

    Client i's shard comes from its own named stream, so shard contents are
    independent of client count and of generation order. The shards are
    written into one (n, shard_size, d) block; each shard's samples is a view
    of it, and the block is their common `base`.
    """
    centers = np.asarray(centers, dtype=float)
    n, d = centers.shape
    block = np.empty((n, shard_size, d))
    keys = [(streams.SHARDS, i) for i in range(n)]
    for i, rng in enumerate(streams.substreams(master_seed, keys)):
        rng.standard_normal(out=block[i])
        block[i] += centers[i]
    return [DatasetShard(samples=samples) for samples in block]


def softmax_class_centers(n_classes: int, feature_dim: int) -> np.ndarray:
    """Fixed class centers at pairwise distance CLASS_CENTER_DISTANCE.

    Center k sits on coordinate axis k scaled so distinct centers are exactly
    that far apart, keeping the Bayes classifier near-perfect.
    """
    if n_classes > feature_dim:
        raise ConfigError(
            f"need feature_dim >= n_classes for axis-aligned centers, "
            f"got {feature_dim} < {n_classes}"
        )
    scale = CLASS_CENTER_DISTANCE / np.sqrt(2.0)
    centers = np.zeros((n_classes, feature_dim))
    centers[np.arange(n_classes), np.arange(n_classes)] = scale
    return centers


def _softmax_labels_for_group(
    rng: np.random.Generator, count: int, group_id: int, alpha: float, n_classes: int
) -> np.ndarray:
    target = np.asarray(TARGET_CLASSES)
    mixed = np.asarray(MIXED_CLASSES)
    disjoint = np.arange(max(MIXED_CLASSES) + 1, n_classes)
    if group_id == 1:
        return rng.choice(target, size=count)
    if group_id == 2:
        take_target = rng.random(count) < alpha
        return np.where(take_target, rng.choice(target, size=count), rng.choice(mixed, size=count))
    if disjoint.size == 0:
        raise ConfigError("softmax task needs classes beyond the mixed-in set for group 3")
    return rng.choice(disjoint, size=count)


def softmax_task_generate(
    group_counts: tuple[int, int, int],
    alpha: float,
    feature_dim: int,
    n_classes: int,
    shard_size: int,
    master_seed: int,
    validation_size: int,
    test_size: int,
) -> tuple[list[DatasetShard], DatasetShard, DatasetShard]:
    """Client shards plus held-out target-distribution validation and test shards."""
    if not 0.0 < alpha <= 1.0:
        raise ConfigError(f"mixing fraction must lie in (0, 1], got {alpha}")
    centers = softmax_class_centers(n_classes, feature_dim)
    group_of = [1] * group_counts[0] + [2] * group_counts[1] + [3] * group_counts[2]
    shards = []
    keys = [(streams.SHARDS, i) for i in range(len(group_of))]
    for i, rng in enumerate(streams.substreams(master_seed, keys)):
        labels = _softmax_labels_for_group(rng, shard_size, group_of[i], alpha, n_classes)
        features = centers[labels] + rng.standard_normal((shard_size, feature_dim))
        shards.append(DatasetShard(samples=features, labels=labels))

    def held_out(tag: int, count: int) -> DatasetShard:
        rng = streams.substream(master_seed, tag)
        labels = rng.choice(np.asarray(TARGET_CLASSES), size=count)
        features = centers[labels] + rng.standard_normal((count, feature_dim))
        return DatasetShard(samples=features, labels=labels)

    validation = held_out(streams.VALIDATION, validation_size)
    test = held_out(streams.TEST_SET, test_size)
    return shards, validation, test


def softmax_loss_grad(
    theta: np.ndarray, features: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of a linear softmax classifier and its exact gradient.

    theta has shape (n_classes, feature_dim); the gradient has the same shape.
    """
    theta = np.asarray(theta, dtype=float)
    features = np.atleast_2d(np.asarray(features, dtype=float))
    labels = np.asarray(labels)
    if features.shape[0] == 0:
        raise MeritFedError("softmax loss requested on an empty batch")
    if theta.ndim != 2 or features.shape[1] != theta.shape[1]:
        raise ShapeError(f"theta shape {theta.shape} does not match features {features.shape}")
    n_classes = theta.shape[0]
    if labels.min() < 0 or labels.max() >= n_classes:
        raise MeritFedError(f"label outside class range [0, {n_classes})")
    logits = features @ theta.T
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    m = features.shape[0]
    loss = float(np.mean(log_norm - shifted[np.arange(m), labels]))
    probs = np.exp(shifted - log_norm[:, None])
    probs[np.arange(m), labels] -= 1.0
    grad = probs.T @ features / m
    return loss, grad


def softmax_accuracy(theta: np.ndarray, features: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of samples whose argmax logit matches the label."""
    logits = np.atleast_2d(features) @ np.asarray(theta, dtype=float).T
    return float(np.mean(np.argmax(logits, axis=1) == np.asarray(labels)))


class SampleOracle:
    """Validation objective over a held-out sample set of `size` rows.

    evaluate(x) uses the full set; evaluate(x, minibatch=m, rng=rng) uses m
    rows drawn without replacement from rng. Subclasses provide the full-set
    evaluation and the evaluation on given rows.
    """

    def __init__(self, size: int) -> None:
        if size == 0:
            raise ConfigError("validation set is empty")
        self.size = size

    def sample_rows(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return rng.choice(self.size, size=count, replace=False)

    def evaluate(
        self, x: np.ndarray, minibatch: int = 0, rng: Optional[np.random.Generator] = None
    ) -> tuple[float, np.ndarray]:
        x = np.asarray(x, dtype=float)
        if minibatch < 0 or minibatch > self.size:
            raise ConfigError(f"minibatch {minibatch} out of range for validation size {self.size}")
        if minibatch in (0, self.size):
            return self._evaluate_all(x)
        if rng is None:
            raise ConfigError("minibatch evaluation needs an rng")
        return self.evaluate_rows(x, self.sample_rows(minibatch, rng))


class MeanValidationOracle(SampleOracle):
    """Empirical mean-estimation objective over a held-out sample set.

    f_hat(x) = mean_i ||x - xi_i||^2 evaluated in O(d) through the precomputed
    sample mean and mean squared norm.
    """

    def __init__(self, samples: np.ndarray) -> None:
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        super().__init__(samples.shape[0])
        self.samples = samples
        self.mean = samples.mean(axis=0)
        self.mean_sq_norm = float(np.mean((samples * samples).sum(axis=1)))

    def evaluate_rows(self, x: np.ndarray, rows: np.ndarray) -> tuple[float, np.ndarray]:
        subset = self.samples[rows]
        sub_mean = subset.mean(axis=0)
        value = float(x @ x - 2.0 * (x @ sub_mean) + np.mean((subset * subset).sum(axis=1)))
        return value, 2.0 * (x - sub_mean)

    def _evaluate_all(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        value = float(x @ x - 2.0 * (x @ self.mean) + self.mean_sq_norm)
        return value, 2.0 * (x - self.mean)


class SoftmaxValidationOracle(SampleOracle):
    """Empirical cross-entropy objective over a held-out labeled sample set."""

    def __init__(self, shard: DatasetShard, n_classes: int) -> None:
        super().__init__(shard.samples.shape[0])
        self.shard = shard
        self.n_classes = n_classes

    def evaluate_rows(self, x: np.ndarray, rows: np.ndarray) -> tuple[float, np.ndarray]:
        theta = np.asarray(x, dtype=float).reshape(self.n_classes, -1)
        loss, grad = softmax_loss_grad(theta, self.shard.samples[rows], self.shard.labels[rows])
        return loss, grad.ravel()

    def _evaluate_all(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        theta = x.reshape(self.n_classes, -1)
        loss, grad = softmax_loss_grad(theta, self.shard.samples, self.shard.labels)
        return loss, grad.ravel()


class PopulationMeanOracle:
    """Noise-free mean-estimation objective from the known distribution center.

    Evaluates the true expected loss ||x - center||^2 + d; used by
    verification runs that need an exact validation gradient. It holds no
    rows, so no minibatch can be drawn from it.
    """

    size = 0

    def __init__(self, center: np.ndarray) -> None:
        self.center = np.asarray(center, dtype=float)

    def evaluate(
        self, x: np.ndarray, minibatch: int = 0, rng: Optional[np.random.Generator] = None
    ) -> tuple[float, np.ndarray]:
        x = np.asarray(x, dtype=float)
        r = x - self.center
        return float(r @ r) + float(self.center.size), 2.0 * r
