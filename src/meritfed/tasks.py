"""Task definitions: objectives, client data generation, validation oracles.

Two desk-scale tasks are implemented, each one class (`MeanTask`,
`SoftmaxTask`) that owns its checks, data, honest gradients and metrics.
The mean-estimation task minimizes E||x - xi||^2 over Gaussian samples with
identity covariance, so every closed-form constant is available (optimum at
the distribution center, optimal value d, smoothness 2, PL constant 2,
gradient-noise variance 4d/b at batch size b). The softmax task is a linear
classifier on well-separated Gaussian class clusters with three client
groups: target classes only, an alpha-mixture of target and mixed-in
classes, and disjoint classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Annotated, ClassVar, Literal, Optional

import numpy as np

from .errors import ConfigError, MeritFedError, PositiveInt, check_fields
from . import streams

MODE_EXTRA = "extra-validation"
MODE_REUSE_TRAIN = "reuse-train"
MODE_POPULATION = "population"
ValidationMode = Literal[MODE_EXTRA, MODE_REUSE_TRAIN, MODE_POPULATION]

# Softmax class layout: clients see target classes, an alpha-mixture of target
# and mixed-in classes, or disjoint classes only.
TARGET_CLASSES = (0, 1, 2)
MIXED_CLASSES = (3, 4, 5)
CLASS_CENTER_DISTANCE = 4.0

MEAN_SMOOTHNESS = 2.0
MEAN_PL_CONSTANT = 2.0

# Rows per step when the mean oracle computes its rows' squared norms.
NORM_CHUNK_ROWS = 4096


def generate_mean_shards(master_seed: int, centers: np.ndarray, shard_size: int) -> np.ndarray:
    """The (n, shard_size, d) block of per-client Gaussian samples around each center.

    Client i's rows come from its own named stream, with identity
    covariance, so they are independent of client count and of generation
    order.
    """
    centers = np.asarray(centers, dtype=float)
    n, d = centers.shape
    block = np.empty((n, shard_size, d))
    keys = [(streams.SHARDS, i) for i in range(n)]
    for i, rng in enumerate(streams.substreams(master_seed, keys)):
        rng.standard_normal(out=block[i])
        block[i] += centers[i]
    return block


def softmax_class_centers(n_classes: int, feature_dim: int) -> np.ndarray:
    """Fixed class centers at pairwise distance CLASS_CENTER_DISTANCE.

    Center k sits on coordinate axis k scaled so distinct centers are exactly
    that far apart, keeping the Bayes classifier near-perfect.
    """
    scale = CLASS_CENTER_DISTANCE / np.sqrt(2.0)
    centers = np.zeros((n_classes, feature_dim))
    centers[np.arange(n_classes), np.arange(n_classes)] = scale
    return centers


def _softmax_labels_for_group(
    rng: np.random.Generator, count: int, group_id: int, alpha: float, n_classes: int
) -> np.ndarray:
    target = np.asarray(TARGET_CLASSES)
    mixed = np.asarray(MIXED_CLASSES)
    if group_id == 1:
        return rng.choice(target, size=count)
    if group_id == 2:
        take_target = rng.random(count) < alpha
        return np.where(take_target, rng.choice(target, size=count), rng.choice(mixed, size=count))
    return rng.choice(np.arange(max(MIXED_CLASSES) + 1, n_classes), size=count)


def softmax_task_generate(spec, task: SoftmaxTask):
    """A softmax run's client feature and label blocks, then its validation and test sets.

    The run's group counts, dim, shard size, master seed and validation mode
    and size come from spec; the mixing alpha, class count and test size
    from task. The blocks are (n, shard_size, dim) and (n, shard_size), client
    i's from its own SHARDS stream. Each held-out set is a (features, labels)
    pair: the validation set is drawn from the VALIDATION stream under
    extra-validation and is client 0's shard otherwise, and the test set is
    drawn from the TEST_SET stream.
    """
    seed, d, shard_size = spec.master_seed, spec.dim, spec.shard_size
    centers = softmax_class_centers(task.n_classes, d)
    group_of = np.repeat([1, 2, 3], spec.group_counts)
    features = np.empty((len(group_of), shard_size, d))
    labels = np.empty((len(group_of), shard_size), dtype=np.int64)
    keys = [(streams.SHARDS, i) for i in range(len(group_of))]
    for i, rng in enumerate(streams.substreams(seed, keys)):
        labels[i] = _softmax_labels_for_group(rng, shard_size, group_of[i], task.mixing_alpha, task.n_classes)
        np.add(centers[labels[i]], rng.standard_normal((shard_size, d)), out=features[i])

    def held_out(tag: int, count: int) -> tuple[np.ndarray, np.ndarray]:
        rng = streams.substream(seed, tag)
        labels = rng.choice(np.asarray(TARGET_CLASSES), size=count)
        return centers[labels] + rng.standard_normal((count, d)), labels

    if spec.validation_mode == MODE_EXTRA:
        validation = held_out(streams.VALIDATION, spec.validation_size)
    else:
        validation = features[0], labels[0]
    return features, labels, validation, held_out(streams.TEST_SET, task.test_size)


def pairwise_row_sums(terms: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Column sums of a (k, m) array, each rounded as numpy rounds a row sum.

    `ndarray.sum(axis=1)` of a C-ordered (m, k) array adds each length-k row
    in numpy's pairwise order: below 8 terms one by one from 0.0; up to 128
    terms into 8 accumulators r0..r7 over strides of 8, combined as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the tail terms in order; past
    128 terms the two halves, split at a multiple of 8, each the same way;
    and the reduction adds the result to 0.0. Here the same additions run on
    the transposed (k, m) layout, one contiguous length-m operation each.
    terms is used as the accumulators, so it is overwritten.
    """
    k = terms.shape[0]
    if k < 8:
        out.fill(0.0)
        for row in terms:
            out += row
        return out
    if k > 128:
        half = k // 2 - k // 2 % 8
        pairwise_row_sums(terms[:half], out)
        out += pairwise_row_sums(terms[half:], np.empty_like(out))
        return out
    acc = terms[:8]
    blocks = k - k % 8
    for start in range(8, blocks, 8):
        acc += terms[start : start + 8]
    np.add(acc[0::2], acc[1::2], out=acc[0::2])
    np.add(acc[0::4], acc[2::4], out=acc[0::4])
    np.add(acc[0], acc[4], out=out)
    for row in terms[blocks:]:
        out += row
    out += 0.0  # the reduction's initial 0.0, which turns a -0.0 sum into 0.0
    return out


class SoftmaxRows:
    """Mean cross-entropy of a linear softmax classifier on a stack of fixed row sets, and its gradient.

    The kernel takes a stack of s row sets of m rows each, features (s, m, d)
    and labels (s, m), and each call gives s losses and an (s, n_classes, d)
    gradient; one row set is a stack of one. Built once per stack, it checks
    the shapes, the rows and the label range, keeps each row's label
    position in a (n_classes, s * m) layout, and owns the scratch its calls
    write into, so a call makes no (rows, n_classes) temporary. Each step is
    bit-identical to the row-wise computation on each member in
    (m, n_classes) layout: logits, row max, exp, row sum, log, exp. The logits
    and the gradient are one matmul per member, because BLAS picks its kernel
    by shape and rounds a flat (s * m, d) product or the transposed product
    differently. The reductions run over the classes of the transposed
    layout (the sums in numpy's pairwise order, `pairwise_row_sums`), and the
    gradient matmul gets the probabilities back in (m, n_classes) layout.
    """

    def __init__(self, features: np.ndarray, labels: np.ndarray, n_classes: int) -> None:
        features = np.asarray(features, dtype=float)
        labels = np.asarray(labels)
        if features.ndim != 3 or labels.shape != features.shape[:2]:
            shapes = f"got features {features.shape} and labels {labels.shape}"
            raise MeritFedError(f"softmax rows take (s, m, d) features and (s, m) labels, {shapes}")
        s, m = labels.shape
        if labels.size == 0:
            raise MeritFedError("softmax loss requested on an empty batch")
        if labels.min() < 0 or labels.max() >= n_classes:
            raise MeritFedError(f"label outside class range [0, {n_classes})")
        self.features = features
        self.n_classes = n_classes
        self.label_index = labels.astype(np.intp).reshape(-1) * (s * m) + np.arange(s * m)
        self._rows = np.empty((s, m, n_classes))  # logits, then exps as (n_classes, s * m), then probs
        self._classes = np.empty((n_classes, s * m))
        self._row_values = np.empty((2, s * m))

    def loss(self, theta: np.ndarray) -> np.ndarray:
        """(s,) losses at theta; leaves the shifted logits and the log-normalizers in scratch."""
        theta = np.asarray(theta, dtype=float)
        features, rows, shifted = self.features, self._rows, self._classes
        s, m, k = rows.shape
        if theta.shape != (k, features.shape[2]):
            shapes = f"theta shape {theta.shape} does not match features {features.shape}"
            raise MeritFedError(shapes)
        norm, picked = self._row_values
        np.matmul(features, theta.T, out=rows)
        np.copyto(shifted.reshape(k, s, m), rows.transpose(2, 0, 1))
        np.maximum.reduce(shifted, axis=0, out=norm)
        np.subtract(shifted, norm, out=shifted)
        pairwise_row_sums(np.exp(shifted, out=rows.reshape(k, s * m)), norm)
        np.log(norm, out=norm)
        np.take(shifted.reshape(-1), self.label_index, out=picked)
        return np.mean(np.subtract(norm, picked, out=picked).reshape(s, m), axis=1)

    def loss_grad(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(s,) losses and the (s, n_classes, feature_dim) gradient at theta of shape (n_classes, feature_dim)."""
        losses = self.loss(theta)
        rows, shifted = self._rows, self._classes
        s, m, k = rows.shape
        norm = self._row_values[0]
        np.subtract(shifted, norm, out=shifted)
        np.exp(shifted, out=shifted)
        shifted.reshape(-1)[self.label_index] -= 1.0
        np.copyto(rows, shifted.reshape(k, s, m).transpose(1, 2, 0))
        return losses, rows.transpose(0, 2, 1) @ self.features / m


def softmax_accuracy(theta: np.ndarray, features: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of samples whose argmax logit matches the label."""
    logits = np.atleast_2d(features) @ np.asarray(theta, dtype=float).T
    return float(np.mean(np.argmax(logits, axis=1) == np.asarray(labels)))


class SampleOracle:
    """Validation objective over a held-out sample set of `size` rows.

    evaluate(x) gives the loss and gradient on the full set, value(x) the
    full-set loss alone, equal to evaluate(x)[0], and gradient_rows(x, rows)
    the gradient on the given rows alone (it raises if the oracle kept no
    rows). Subclasses provide all three; the rows are drawn by the caller.
    """

    def __init__(self, size: int) -> None:
        if size == 0:
            raise ConfigError("validation set is empty")
        self.size = size


class MeanValidationOracle(SampleOracle):
    """Empirical mean-estimation objective over a held-out sample set.

    f_hat(x) = mean_i ||x - xi_i||^2 evaluated in O(d) through the precomputed
    sample mean and mean squared norm. The rows' squared norms are computed a
    fixed number of rows at a time, so building the oracle makes no
    temporary the size of the samples.
    """

    def __init__(self, samples: np.ndarray) -> None:
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        self._set_sq_norm(len(samples), lambda start: samples[start : start + NORM_CHUNK_ROWS])
        self.samples, self.mean = samples, samples.mean(axis=0)

    @classmethod
    def streamed(cls, rng: np.random.Generator, size: int, dim: int, keep_rows: bool) -> MeanValidationOracle:
        """The oracle over rng.standard_normal((size, dim)), bit for bit; it keeps the rows if keep_rows."""
        if keep_rows or dim == 1:  # at dim 1 numpy sums the column pairwise, not as one fold
            return cls(rng.standard_normal((size, dim)))
        oracle, buffer = cls.__new__(cls), np.empty((min(size, NORM_CHUNK_ROWS) + 1, dim))
        def chunk(start: int) -> np.ndarray:  # .mean(axis=0) at dim >= 2 is a left fold over the rows
            block = buffer[: 1 + min(NORM_CHUNK_ROWS, size - start)]  # row 0 holds the sum so far
            rng.standard_normal(out=block[1:])
            block[0] = np.add.reduce(block if start else block[1:], axis=0)
            return block[1:]
        oracle._set_sq_norm(size, chunk)
        oracle.samples, oracle.mean = None, buffer[0] / size
        return oracle

    def _set_sq_norm(self, size: int, chunk) -> None:  # chunk(start): the rows from start on
        super().__init__(size)
        row_sq_norms = np.empty(size)
        for start in range(0, size, NORM_CHUNK_ROWS):
            np.sum(np.square(chunk(start)), axis=1, out=row_sq_norms[start : start + NORM_CHUNK_ROWS])
        self.mean_sq_norm = float(np.mean(row_sq_norms))

    def value(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        return float(x.dot(x) - 2.0 * x.dot(self.mean) + self.mean_sq_norm)

    def evaluate(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        x = np.asarray(x, dtype=float)
        return self.value(x), 2.0 * (x - self.mean)

    def gradient_rows(self, x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        if self.samples is None:
            raise MeritFedError("this mean validation oracle kept no rows to draw a minibatch from")
        batch_sum = np.add.reduce(self.samples.take(rows, axis=0), axis=0)
        return 2.0 * (np.asarray(x, dtype=float) - batch_sum / len(rows))


class SoftmaxValidationOracle(SampleOracle):
    """Empirical cross-entropy objective over a held-out labeled sample set.

    The full set is one SoftmaxRows kernel over a stack of one, built here
    and reused by every call. The labels are a read-only copy, so the
    kernel's label positions cannot go stale and row subsets read the same
    labels.
    """

    def __init__(self, samples: np.ndarray, labels: np.ndarray, n_classes: int) -> None:
        super().__init__(samples.shape[0])
        self.samples = samples
        self.labels = np.array(labels)
        self.labels.flags.writeable = False
        self.n_classes = n_classes
        self.full_set = SoftmaxRows(self.samples[None], self.labels[None], n_classes)

    def value(self, x: np.ndarray) -> float:
        return float(self.full_set.loss(self._theta(x))[0])

    def evaluate(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        losses, grads = self.full_set.loss_grad(self._theta(x))
        return float(losses[0]), grads[0].ravel()

    def gradient_rows(self, x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        kernel = SoftmaxRows(self.samples[None, rows], self.labels[None, rows], self.n_classes)
        return kernel.loss_grad(self._theta(x))[1][0].ravel()

    def _theta(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float).reshape(self.n_classes, -1)


class PopulationMeanOracle:
    """Noise-free mean-estimation objective from the known distribution center.

    Evaluates the true expected loss ||x - center||^2 + d; used by
    verification runs that need an exact validation gradient. It holds no
    rows, so it has no gradient_rows and no minibatch can be drawn from it.
    """

    size = 0

    def __init__(self, center: np.ndarray) -> None:
        self.center = np.asarray(center, dtype=float)

    def value(self, x: np.ndarray) -> float:
        r = np.asarray(x, dtype=float) - self.center
        return float(r @ r) + float(self.center.size)

    def evaluate(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        x = np.asarray(x, dtype=float)
        r = x - self.center
        return float(r @ r) + float(self.center.size), 2.0 * r


def check_convergence_bounds(
    initial_gap: float,
    avg_grad_norm_sq: float,
    final_gap: float,
    rounds: int,
    model_step: float,
    group_size: int,
    sigma_sq: float,
    delta_bar: float,
) -> dict:
    """Evaluate the two rate bounds of the mean task against measured run quantities.

    With smoothness L = MEAN_SMOOTHNESS and PL constant mu = MEAN_PL_CONSTANT,
    the averaged-gradient bound is
    2*(f(x0)-f*)/(T*step) + 2*sigma^2*step*L/G + 2*delta_bar/step,
    compared with the measured (1/T) sum of squared true-gradient norms. The
    last-iterate bound under the quadratic growth (PL) condition is
    (1-step*mu)^T*(f(x0)-f*) + sigma^2*step*L/(mu*G) + delta_bar*T/(step*mu),
    compared with the measured last-iterate gap. A bound holds only when its
    measured side is finite: a diverged run holds no bound, not even an
    infinite one.
    """
    noncvx_rhs = (
        2.0 * initial_gap / (rounds * model_step)
        + 2.0 * sigma_sq * model_step * MEAN_SMOOTHNESS / group_size
        + 2.0 * delta_bar / model_step
    )
    pl_rhs = (  # numpy's power is inf past the largest double, where Python's float power raises
        float(np.float64(1.0 - model_step * MEAN_PL_CONSTANT) ** rounds) * initial_gap
        + sigma_sq * model_step * MEAN_SMOOTHNESS / (MEAN_PL_CONSTANT * group_size)
        + delta_bar * rounds / (model_step * MEAN_PL_CONSTANT)
    )
    tol = 1e-12

    def holds(measured: float, rhs: float) -> bool:
        return bool(math.isfinite(measured) and measured <= rhs * (1.0 + tol) + tol)

    return {
        "noncvx_rhs": noncvx_rhs,
        "noncvx_holds": holds(avg_grad_norm_sq, noncvx_rhs),
        "pl_rhs": pl_rhs,
        "pl_holds": holds(final_gap, pl_rhs),
        "step_size_ok": bool(model_step <= 1.0 / (2.0 * MEAN_SMOOTHNESS)),
    }


def check_indexable(shape: tuple[int, ...]) -> None:
    """Reject an array shape with more elements than numpy can index."""
    if math.prod(shape) > np.iinfo(np.intp).max:
        raise ConfigError(f"an array of shape {shape} is too large for numpy to index")


@dataclass
class Task:
    """One objective and its client data; methods that need the run take its spec.

    A run calls `build(spec)` on its own copy of the spec's task, which then
    holds the clients' (n, shard_size, d) samples (None under exact
    gradients), the validation oracle and the start point. Each round it
    takes `round_basis(rows)` once (rows None under exact gradients),
    then per method `honest_gradients(x, basis)`, the (n, model_dim) array
    at the method's point, and `metric_fields(x)` for the metrics row. A
    task with rate_bounds also gives gradient_variance and the loss_gap and
    grad_norm_sq metric fields.
    """

    samples: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)
    oracle: object = field(default=None, init=False, repr=False, compare=False)
    start: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)
    mixture_direction: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)
    rate_bounds: ClassVar[bool] = False  # the closed-form rate bounds and the grid gap apply

    __post_init__ = check_fields  # every task checks its settings when it is built

    def check(self, spec) -> None:
        """Reject, before round 0, a run spec this task cannot serve."""

    def model_dim(self, dim: int) -> int:
        """Length of a model point and of a client gradient at feature dimension dim."""
        return dim

    def flat_rows(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The samples as (n * shard_size, d) rows, and each client's batch rows as indices into them."""
        _, shard_size, d = self.samples.shape
        return self.samples.reshape(-1, d), rows + np.arange(len(rows))[:, None] * shard_size


@dataclass
class MeanTask(Task):
    """Mean estimation over identity-covariance Gaussian client samples.

    Group 1 and the Byzantine block hold target-distribution data centered
    at zero (the target optimum), group 2 data centered at group2_shift on
    every coordinate, and group 3 data centered at the seed's random unit
    mixture direction.
    """

    group2_shift: float = 0.1
    centers: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)
    rate_bounds: ClassVar[bool] = True

    def build(self, spec) -> None:
        n, d, seed = spec.n_clients, spec.dim, spec.master_seed
        self.mixture_direction = streams.unit_sphere_vector(
            streams.substream(seed, streams.MIXTURE_DIRECTION), d
        )
        g1, g2, g3 = spec.group_counts
        self.centers = np.zeros((n, d))
        self.centers[g1 : g1 + g2] = self.group2_shift
        self.centers[g1 + g2 : g1 + g2 + g3] = self.mixture_direction
        if not spec.exact_gradients:
            self.samples = generate_mean_shards(seed, self.centers, spec.shard_size)
        if spec.validation_mode == MODE_POPULATION:
            self.oracle = PopulationMeanOracle(np.zeros(d))
        elif spec.validation_mode == MODE_REUSE_TRAIN:
            self.oracle = MeanValidationOracle(self.samples[0])
        else:
            rng = streams.substream(seed, streams.VALIDATION)
            keep_rows = any(rule.reads_validation_rows(spec.validation_size) for rule in spec.methods)
            self.oracle = MeanValidationOracle.streamed(rng, spec.validation_size, d, keep_rows)
        self.start = np.ones(d)

    def round_basis(self, rows: Optional[np.ndarray]) -> np.ndarray:
        """Batch means of the clients rows covers, then client 0's for an unread Byzantine block.

        Under exact gradients (rows None) the basis is the centers.
        """
        if rows is None:
            return self.centers
        flat, index = self.flat_rows(rows)
        if flat.shape[1] == 1:  # numpy sums each contiguous batch pairwise
            means = np.take(flat, index, axis=0).mean(axis=1)
        else:  # a (batch, n, d) gather summed over axis 0 adds as .mean(axis=1), n * d values a step
            means = np.add.reduce(np.take(flat, index.T, axis=0), axis=0) / rows.shape[1]
        fill = len(self.centers) - len(rows)
        return np.concatenate([means, means[[0] * fill]]) if fill else means

    def honest_gradients(self, x: np.ndarray, basis: np.ndarray) -> np.ndarray:
        return 2.0 * (x - basis)

    def metric_fields(self, x: np.ndarray) -> dict:
        gap = float(x @ x)  # squared distance to the target optimum, zero
        return {"dist_sq": gap, "loss_gap": gap, "grad_norm_sq": 4.0 * gap}

    def gradient_variance(self, spec) -> float:
        """E||g - grad f||^2 of one client's gradient: 4d/b, zero under exact gradients."""
        return 0.0 if spec.exact_gradients else 4.0 * spec.dim / spec.batch_size


@dataclass
class SoftmaxTask(Task):
    """Linear softmax classification over Gaussian class clusters.

    Group 1 draws target classes, group 2 a target class with probability
    mixing_alpha and a mixed-in class otherwise, group 3 the classes beyond
    both; accuracy is measured on a held-out target-distribution test set.
    """

    mixing_alpha: Annotated[float, "in (0, 1]"] = 0.5
    n_classes: PositiveInt = 10
    test_size: PositiveInt = 4000
    labels: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)
    test_set: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def check(self, spec) -> None:
        if spec.exact_gradients:
            raise ConfigError("exact gradients are only defined for the mean task")
        if spec.validation_mode == MODE_POPULATION:
            raise ConfigError("population validation is only defined for the mean task")
        if spec.byzantine_count > 0:
            raise ConfigError("byzantine clients are supported on the mean task only")
        # Group 2 mixes in classes up to max(MIXED_CLASSES); group 3 draws the
        # classes beyond them; class centers sit on distinct feature axes.
        if spec.group_counts[2] > 0:
            needed = max(MIXED_CLASSES) + 2
        elif spec.group_counts[1] > 0:
            needed = max(MIXED_CLASSES) + 1
        else:
            needed = max(TARGET_CLASSES) + 1
        if not needed <= self.n_classes <= spec.dim:
            raise ConfigError(
                f"softmax groups {spec.group_counts} need {needed} <= n_classes <= "
                f"dim={spec.dim}, got n_classes={self.n_classes}"
            )
        check_indexable((self.test_size, spec.dim))

    def model_dim(self, dim: int) -> int:
        return self.n_classes * dim

    def build(self, spec) -> None:
        self.samples, self.labels, validation, self.test_set = softmax_task_generate(spec, self)
        self.oracle = SoftmaxValidationOracle(*validation, self.n_classes)
        self.start = np.zeros(self.model_dim(spec.dim))

    def round_basis(self, rows: np.ndarray) -> SoftmaxRows:
        """One kernel over the stack of the clients' batches of the round."""
        flat, index = self.flat_rows(rows)
        return SoftmaxRows(np.take(flat, index, axis=0), np.take(self.labels, index), self.n_classes)

    def honest_gradients(self, x: np.ndarray, basis: SoftmaxRows) -> np.ndarray:
        _, grads = basis.loss_grad(x.reshape(self.n_classes, -1))
        return grads.reshape(len(grads), -1)

    def metric_fields(self, x: np.ndarray) -> dict:
        theta = x.reshape(self.n_classes, -1)
        return {"accuracy": softmax_accuracy(theta, *self.test_set)}
