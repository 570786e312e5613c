"""Feedforward network execution: exact float path and the stream path.

Weights live in [-1, 1] with a per-layer scaling factor M >= 1, so a
neuron's weighted sum over bipolar-scaled inputs is
a = (M/2) * (sum_i w_i x_i + sum_i w_i) and its activation is tanh(a).
The stream path evaluates the same expression with XNOR multipliers, an
integer adder tree and a saturating-counter tanh whose state count folds in
the M/2 gain.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .sng import SngKind, sng_bits
from .streams import (
    Format,
    IntegralStream,
    StochasticStream,
    default_tanh_states,
    fsm_tanh,
    value_of,
)

ALLOWED_STREAM_LENGTHS = frozenset(128 << k for k in range(8))

# State count per unit of M * fan-in for the neuron FSM.  The summed XNOR
# and weight bits carry a per-cycle variance near 1.56 per input for uniform
# weights, and the counter's small-signal slope goes as states/(2*variance);
# 1.4 centers the transfer curve on tanh across random neurons.
NEURON_FSM_GAIN = 1.4


def child_seed(master, *key) -> np.random.Generator:
    """Deterministic, component-independent generator fan-out."""
    return np.random.default_rng(np.random.SeedSequence(master, spawn_key=key))


@dataclass(frozen=True)
class LayerSpec:
    weights: np.ndarray   # shape (fan_in, fan_out), entries in [-1, 1]
    m_scale: float        # scaling factor M >= 1

    def __post_init__(self):
        w = np.ascontiguousarray(self.weights, dtype=float)
        if w.ndim != 2:
            raise ValueError("layer weights must be a 2-D matrix")
        if not np.all(np.isfinite(w)):
            raise ValueError("layer weights must be finite")
        if np.max(np.abs(w), initial=0.0) > 1.0 + 1e-9:
            raise ValueError("scaled weights must lie in [-1, 1]")
        if self.m_scale < 1.0:
            raise ValueError("scaling factor M must be >= 1")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class NetworkSpec:
    layers: tuple[LayerSpec, ...]
    feature_scaling: tuple[np.ndarray, np.ndarray] | None = None  # (lo, hi)

    def __post_init__(self):
        if not self.layers:
            raise ValueError("a network needs at least one layer")
        for a, b in zip(self.layers[:-1], self.layers[1:]):
            if a.weights.shape[1] != b.weights.shape[0]:
                raise ValueError("layer dimensions do not chain")

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.layers[0].weights.shape[0],
                *(layer.weights.shape[1] for layer in self.layers))


@dataclass(frozen=True)
class EvalConfig:
    """How to evaluate a network: float path when stream_length is None."""

    stream_length: int | None = None
    seed: int = 0
    sng_kind: SngKind = SngKind.BMS

    def __post_init__(self):
        if self.stream_length is not None and \
                self.stream_length not in ALLOWED_STREAM_LENGTHS:
            raise ValueError(
                f"stream_length must be one of {sorted(ALLOWED_STREAM_LENGTHS)}")


def neuron_forward_float(w: np.ndarray, x: np.ndarray, m_scale: float):
    """Weighted sum a = (M/2)(w.x + w.1) and activation t = tanh(a)."""
    w = np.asarray(w, dtype=float)
    x = np.asarray(x, dtype=float)
    a = 0.5 * m_scale * (w @ x + w.sum())
    return a, np.tanh(a)


def layer_forward_float(layer: LayerSpec, x: np.ndarray):
    a = 0.5 * layer.m_scale * (layer.weights.T @ x + layer.weights.sum(axis=0))
    return a, np.tanh(a)


def network_forward_float(net: NetworkSpec, x: np.ndarray) -> np.ndarray:
    out = np.asarray(x, dtype=float)
    for layer in net.layers:
        _, out = layer_forward_float(layer, out)
    return out


def neuron_forward_isc(w: np.ndarray, x_streams: list[StochasticStream],
                       m_scale: float, config: EvalConfig,
                       rng: np.random.Generator) -> StochasticStream:
    """Stream-domain neuron: XNOR products, adder tree, FSM squashing.

    Fresh weight streams are drawn per call by `sng.sng_bits`, without
    energy bookkeeping; the adder tree also sums the raw weight streams,
    which carries the +sum(w) half of the weighted sum.  XNOR and the adder
    tree are inlined here, not built from `streams` primitives, for speed.
    """
    w = np.asarray(w, dtype=float)
    n_inputs = w.size
    if len(x_streams) != n_inputs:
        raise ValueError("input stream count does not match the weight row")
    n = len(x_streams[0])
    if any(len(s) != n for s in x_streams):
        raise ValueError("input streams must share one length")
    levels = np.zeros(n, dtype=np.int32)
    for wi, xs in zip(w, x_streams):
        wb = sng_bits((wi + 1.0) / 2.0, n, config.sng_kind, rng)[0]
        # XNOR product bit plus the weight bit itself, both as 0/1 counts
        levels += (np.uint8(1) - (wb ^ xs.bits)) + wb
    # a pair of independent fair bits (bipolar value 0) keeps the counter
    # moving when every input stream happens to be deterministic
    levels += (rng.random(n) < 0.5).astype(np.int32)
    levels += (rng.random(n) < 0.5).astype(np.int32)
    summed = IntegralStream(levels, 2 * n_inputs + 2, Format.BIPOLAR)
    return fsm_tanh(summed,
                    default_tanh_states(n_inputs, NEURON_FSM_GAIN * m_scale))


def network_forward(net: NetworkSpec, x: np.ndarray, config: EvalConfig,
                    sample_key: tuple = ()) -> np.ndarray:
    """Forward pass; float path composes exact layers, stream path streams.

    `sample_key` disambiguates the stream randomness between samples
    evaluated under one config.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (net.dims[0],):
        raise ValueError(f"input shape {x.shape} does not match dims {net.dims}")
    if config.stream_length is None:
        return network_forward_float(net, x)
    n = config.stream_length
    rng = child_seed(config.seed, 7, *sample_key)
    streams = [StochasticStream(
        sng_bits((xi + 1.0) / 2.0, n, config.sng_kind, rng)[0], Format.BIPOLAR)
        for xi in np.clip(x, -1.0, 1.0)]
    for layer in net.layers:
        streams = [neuron_forward_isc(layer.weights[:, j], streams,
                                      layer.m_scale, config, rng)
                   for j in range(layer.weights.shape[1])]
    return np.array([value_of(s) for s in streams])


def classify(outputs: np.ndarray) -> int:
    """Argmax label; ties resolve to the lowest index."""
    outputs = np.asarray(outputs)
    if outputs.size < 1:
        raise ValueError("need at least one output")
    return int(np.argmax(outputs))


def accuracy(net: NetworkSpec, features: np.ndarray, labels: np.ndarray,
             config: EvalConfig) -> float:
    """Fraction of samples whose argmax output matches the label."""
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels)
    if features.shape[0] == 0:
        raise ValueError("empty dataset")
    hits = 0
    for idx in range(features.shape[0]):
        outputs = network_forward(net, features[idx], config, sample_key=(idx,))
        hits += classify(outputs) == int(labels[idx])
    return hits / features.shape[0]


def network_to_dict(net: NetworkSpec) -> dict:
    doc = {
        "dims": list(net.dims),
        "layers": [{"M": layer.m_scale,
                    "weights": layer.weights.flatten().tolist()}
                   for layer in net.layers],
    }
    if net.feature_scaling is not None:
        lo, hi = net.feature_scaling
        doc["feature_scaling"] = {"lo": lo.tolist(), "hi": hi.tolist()}
    return doc


def network_from_dict(doc: dict) -> NetworkSpec:
    dims = doc["dims"]
    layers = []
    for k, spec in enumerate(doc["layers"]):
        shape = (dims[k], dims[k + 1])
        weights = np.array(spec["weights"], dtype=float).reshape(shape)
        layers.append(LayerSpec(weights, float(spec["M"])))
    scaling = None
    if "feature_scaling" in doc:
        scaling = (np.array(doc["feature_scaling"]["lo"], dtype=float),
                   np.array(doc["feature_scaling"]["hi"], dtype=float))
    return NetworkSpec(tuple(layers), scaling)


def save_network(net: NetworkSpec, path) -> None:
    with open(path, "w") as fh:
        json.dump(network_to_dict(net), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_network(path) -> NetworkSpec:
    with open(path) as fh:
        return network_from_dict(json.load(fh))
