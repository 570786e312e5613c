"""Float-domain MLP training by mini-batch gradient descent.

Networks are tanh-activated and bias-free so the trained weights drop
straight into the scaled stream-domain form.  Targets are one-hot vectors
at +-0.9, which keeps the tanh outputs off their saturated tails.  The
learning rate halves whenever an epoch fails to reduce the full training
loss (the trial epoch is dropped), so the recorded loss history never
increases.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .datasets import Dataset
from .network import LayerSpec, NetworkSpec
from .sng import _is_count, _is_seed

TARGET_HIGH = 0.9
TARGET_LOW = -0.9

# A trial epoch that drives a weight past this has diverged, even though the
# saturated tanh outputs keep its loss finite: targets of +-0.9 need
# pre-activations near 1.5, and tanh is exactly +-1 in float64 beyond ~19.
DIVERGENCE_WEIGHT_BOUND = 1e3


@dataclass(frozen=True)
class TrainConfig:
    eta: float = 0.1
    epochs: int = 40
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        eta = self.eta
        if (isinstance(eta, bool) or not isinstance(eta, numbers.Real)
                or not (math.isfinite(eta) and eta > 0)):
            raise ValueError(
                f"learning rate must be finite and positive, got {eta!r}")
        object.__setattr__(self, "eta", float(eta))
        for name in ("epochs", "batch_size"):
            value = getattr(self, name)
            if not _is_count(value):
                raise ValueError(
                    f"{name} must be an integer >= 1, got {value!r}")
        if not _is_seed(self.seed):
            raise ValueError(
                f"seed must be a non-negative integer, got {self.seed!r}")


@dataclass(frozen=True)
class RawNetwork:
    """Unscaled trained weights plus the per-epoch training record."""

    weights: tuple[np.ndarray, ...]
    history: tuple[dict, ...] = ()


def one_hot_targets(labels: np.ndarray, n_classes: int) -> np.ndarray:
    y = np.full((labels.size, n_classes), TARGET_LOW)
    y[np.arange(labels.size), labels] = TARGET_HIGH
    return y


def forward_raw(weights, x: np.ndarray) -> list[np.ndarray]:
    """Per-layer tanh activations for a batch of bipolar inputs.

    Each layer's weighted sum runs over the unipolar view (v + 1) / 2 of the
    incoming bipolar signal, which is exactly the function the scaled
    (M/2)-form network computes, so trained weights transfer unchanged.
    """
    outs = []
    h = np.asarray(x, dtype=float)
    for w in weights:
        h = np.tanh(((h + 1.0) * 0.5) @ w)
        outs.append(h)
    return outs


def _loss(outputs: np.ndarray, y: np.ndarray) -> float:
    return 0.5 * float(np.sum((outputs - y) ** 2)) / outputs.shape[0]


def loss_and_gradients(weights, x: np.ndarray, y: np.ndarray):
    """Mean squared error (0.5 * sum over outputs) and its weight gradients."""
    acts = forward_raw(weights, x)
    batch = x.shape[0]
    loss = _loss(acts[-1], y)
    grads = []
    delta = (acts[-1] - y) * (1.0 - acts[-1] ** 2)
    for k in range(len(weights) - 1, -1, -1):
        below = acts[k - 1] if k > 0 else np.asarray(x, dtype=float)
        grads.append(((below + 1.0) * 0.5).T @ delta / batch)
        if k > 0:
            delta = 0.5 * (delta @ weights[k].T) * (1.0 - acts[k - 1] ** 2)
    grads.reverse()
    return loss, grads


def _init_weights(dims, rng) -> list[np.ndarray]:
    return [rng.uniform(-1.0 / np.sqrt(a), 1.0 / np.sqrt(a), size=(a, b))
            for a, b in zip(dims[:-1], dims[1:])]


def _score(weights, x, y, labels) -> tuple[float, float]:
    """Loss and argmax accuracy of `weights`, from one forward pass."""
    out = forward_raw(weights, x)[-1]
    return _loss(out, y), float(np.mean(np.argmax(out, axis=1) == labels))


def train_backprop(dims, dataset: Dataset, config: TrainConfig) -> RawNetwork:
    """Gradient-descent training of a tanh MLP on [-1, 1] features.

    dims is (I, J) or (I, L, J) and must match the dataset.  A trial epoch
    whose full training loss rose is dropped and eta halves, until eta
    falls below 1e-12.  A divergent run (non-finite trial loss, or a weight
    past DIVERGENCE_WEIGHT_BOUND) aborts with a diagnostic.
    """
    dims = tuple(dims)
    if len(dims) < 2:
        raise ValueError(f"dims must hold at least two layer widths, got {dims!r}")
    for k, width in enumerate(dims):
        if not _is_count(width):
            raise ValueError(f"dims entries must be integers >= 1; entry {k} "
                             f"is {width!r}")
    x = dataset.features
    if len(dataset) == 0:
        raise ValueError("the training set is empty")
    if dims[0] != x.shape[1]:
        raise ValueError(f"dims {dims} do not match {x.shape[1]} features")
    if dims[-1] < dataset.n_classes:
        raise ValueError("output layer smaller than the number of classes")
    y = one_hot_targets(dataset.labels, dims[-1])
    rng = np.random.default_rng(config.seed)
    weights = _init_weights(dims, rng)
    eta = config.eta
    loss, acc = _score(weights, x, y, dataset.labels)
    history = []
    for epoch in range(config.epochs):
        trial = weights
        order = rng.permutation(x.shape[0])
        for start in range(0, x.shape[0], config.batch_size):
            idx = order[start:start + config.batch_size]
            _, grads = loss_and_gradients(trial, x[idx], y[idx])
            trial = [w - eta * g for w, g in zip(trial, grads)]
        trial_loss, trial_acc = _score(trial, x, y, dataset.labels)
        peak = np.max([np.max(np.abs(w)) for w in trial])
        if not (np.isfinite(trial_loss) and peak <= DIVERGENCE_WEIGHT_BOUND):
            raise RuntimeError(
                f"training diverged at epoch {epoch} (loss = {trial_loss}, "
                f"max |w| = {peak:.3g}); lower eta (currently {eta})")
        if trial_loss > loss:
            eta *= 0.5
            if eta < 1e-12:
                break
        else:
            weights, loss, acc = trial, trial_loss, trial_acc
        history.append({"epoch": epoch, "loss": loss, "eta": eta,
                        "train_accuracy": acc})
    return RawNetwork(tuple(weights), tuple(history))


def scale_weights(raw: RawNetwork) -> NetworkSpec:
    """Map each layer into [-1, 1] with M = max(1, max|w|) pulled out."""
    layers = []
    for w in raw.weights:
        m = max(1.0, float(np.max(np.abs(w))))
        layers.append(LayerSpec(w / m, m))
    return NetworkSpec(tuple(layers))
