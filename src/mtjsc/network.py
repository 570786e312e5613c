"""Feedforward network execution: exact float path and the stream path.

Weights live in [-1, 1] with a per-layer scaling factor M >= 1, so a
neuron's weighted sum over bipolar-scaled inputs is
a = (M/2) * (sum_i w_i x_i + sum_i w_i) and its activation is tanh(a).
The stream path evaluates the same expression with XNOR multipliers and an
integer adder tree that sums the products w_i x_i; the +sum(w) half is a
constant known at design time, so it enters the tree as a deterministic
per-cycle offset.  A saturating-counter tanh squashes the sum, with a state
count derived from the adder's per-cycle variance and the M/2 gain.

Draw order.  The stream path draws every random number of a sample from
one generator, `child_seed(config.seed, 7, *sample_key)`, in this order:
the input streams, input by input; then, layer by layer and neuron by
neuron, the neuron's weight streams, input by input, followed by its two
fair-bit rows.  Each row of n cycles consumes ceil(n/4) raw 64-bit words
of `rng.bit_generator.random_raw`, read as little-endian uint16 with the
first n kept (`sng.uniform16`).  A weight or input bit compares its
uniform with a threshold that quantizes the write probability to 2**-16
(`sng.write_thresholds`), and a fair bit is u < 2**15.  The layer kernel
draws whole rows in blocks, which consumes the generator exactly as one
draw per row would, so outputs depend on this order and not on how the
draws are batched.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .sng import FAIR_THRESHOLD, SngKind, uniform16, write_thresholds
from .streams import (
    Format,
    StochasticStream,
    default_tanh_states,
    fsm_tanh_rows,
)

ALLOWED_STREAM_LENGTHS = frozenset(128 << k for k in range(8))

# Most 64-bit generator words drawn by one call on the stream path (512 KB),
# to bound the memory of a draw.  Larger blocks are split by rows, in order,
# which leaves the bits unchanged.
DRAW_BLOCK = 1 << 16

# E[x^2] of an input uniform on [-1, 1], used to size the neuron FSM.  The
# saturating counter behaves as tanh(K * drift / (2 * variance)), and the
# adder's drift per cycle is sum_i w_i x_i + sum(w) = 2a/M, so matching
# tanh(a) takes K = M * variance.  Each XNOR product is a +-1 step of mean
# w_i x_i, with variance 1 - w_i^2 x_i^2, or 1 - w_i^2 E[x^2] on average.
# K counts only these products: the two fair bits and the offset's dither
# between adjacent levels are left out.
INPUT_SECOND_MOMENT = 1.0 / 3.0


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
        if not (np.isfinite(self.m_scale) and self.m_scale >= 1.0):
            raise ValueError(
                f"scaling factor M must be finite and >= 1, got {self.m_scale!r}")
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
        if not isinstance(self.sng_kind, SngKind):
            raise TypeError(
                f"sng_kind must be a SngKind, got {self.sng_kind!r}")
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


def weight_sum_offset(w_sum, n_inputs: int, n: int) -> np.ndarray:
    """Deterministic adder-tree levels that carry the +sum(w) half of a.

    Cycle t adds l_t = floor((t+1)S + 1/2) - floor(tS + 1/2) with S = w_sum/2,
    so the running sum of l_t stays within half a level of t*S at every
    cycle.  Each level is shifted up by ceil(N/2) for N = n_inputs, which
    keeps it in [0, 2*ceil(N/2)] whenever |w_sum| <= N.  w_sum is a float
    or an array of sums; the result has shape w_sum.shape + (n,).
    """
    s = 0.5 * np.asarray(w_sum, dtype=float)
    edges = np.floor(np.arange(n + 1) * s[..., None] + 0.5)
    return np.diff(edges).astype(np.int32) + (n_inputs + 1) // 2


def _uniform_rows(rng: np.random.Generator, rows: int, n: int) -> np.ndarray:
    """`sng.uniform16` for `rows` rows of n cycles, shape (rows, n).

    Rows are drawn in order, in blocks of at most DRAW_BLOCK words, so the
    result equals one draw per row.
    """
    per_block = max(1, DRAW_BLOCK // -(-n // 4))
    if rows <= per_block:
        return uniform16(rng, (rows,), n)
    return np.concatenate([uniform16(rng, (min(per_block, rows - i),), n)
                           for i in range(0, rows, per_block)])


def layer_forward_isc(layer: LayerSpec, x_bits: np.ndarray, kind: SngKind,
                      rng: np.random.Generator) -> np.ndarray:
    """Stream-domain layer: XNOR products, adder tree, FSM squashing.

    x_bits holds one bipolar input stream per row, shape (fan_in, n); the
    result holds one output stream per neuron, shape (fan_out, n).  Fresh
    weight streams are drawn neuron by neuron, without energy bookkeeping:
    one word draw per neuron covers its weight rows and its two fair rows.
    A weight bit is (u < threshold) ^ flip (`sng.write_thresholds`), so its
    XNOR with the input bit mismatches where (u < threshold) differs from
    flip ^ x; the adder counts fan_in minus the mismatches, plus the fair
    bits.  The adder tree carries w.x; the +sum(w) half is a design-time
    constant and enters the tree as the deterministic `weight_sum_offset`.
    Its FSM's state count is M * sum_i(1 - w_i^2 E[x^2]), the adder's
    per-cycle variance times the layer gain.
    """
    n_inputs, n = x_bits.shape
    if n_inputs != layer.weights.shape[0]:
        raise ValueError(f"{n_inputs} input streams for a layer of fan-in "
                         f"{layer.weights.shape[0]}")
    # Sums over rows of w.T, not w.sum(axis=0): a column sum can differ in
    # the last ulp, and that can move a weight_sum_offset level.
    w_rows = np.ascontiguousarray(layer.weights.T)
    thresholds, _, flips = write_thresholds((w_rows + 1.0) / 2.0, kind)
    thresholds = thresholds[..., None]
    flips = flips[..., None]
    x_bits = x_bits.astype(bool)
    fan_out = w_rows.shape[0]
    below = np.empty((n_inputs, n), dtype=bool)
    key = np.empty_like(below)
    mismatches = np.empty((fan_out, n),
                          dtype=np.uint16 if n_inputs < 1 << 16 else np.int64)
    fair_u = np.empty((fan_out, 2, n), dtype=np.uint16)
    for j in range(fan_out):
        u = _uniform_rows(rng, n_inputs + 2, n)
        np.less(u[:n_inputs], thresholds[j], out=below)
        np.bitwise_xor(flips[j], x_bits, out=key)
        np.bitwise_xor(below, key, out=below)
        below.view(np.uint8).sum(axis=0, out=mismatches[j])
        fair_u[j] = u[n_inputs:]
    # a pair of independent fair bits (bipolar value 0) keeps the counter
    # moving when every input stream happens to be deterministic
    fair = (fair_u < FAIR_THRESHOLD).sum(axis=1, dtype=np.int32)
    levels = (weight_sum_offset(w_rows.sum(axis=1), n_inputs, n) + n_inputs
              + fair - mismatches)
    m = n_inputs + 2 * ((n_inputs + 1) // 2) + 2
    variance_per_input = (1.0 - np.mean(w_rows * w_rows, axis=1)
                          * INPUT_SECOND_MOMENT)
    n_states = [default_tanh_states(n_inputs, layer.m_scale * v)
                for v in variance_per_input]
    return fsm_tanh_rows(2 * levels - m, n_states)


def neuron_forward_isc(w: np.ndarray, x_streams: list[StochasticStream],
                       m_scale: float, config: EvalConfig,
                       rng: np.random.Generator) -> StochasticStream:
    """One neuron of `layer_forward_isc`, on a list of input streams."""
    w = np.asarray(w, dtype=float)
    if len(x_streams) != w.size:
        raise ValueError("input stream count does not match the weight row")
    n = len(x_streams[0])
    if any(len(s) != n for s in x_streams):
        raise ValueError("input streams must share one length")
    x_bits = np.stack([s.bits for s in x_streams])
    out = layer_forward_isc(LayerSpec(w.reshape(-1, 1), m_scale), x_bits,
                            config.sng_kind, rng)
    return StochasticStream(out[0], Format.BIPOLAR)


def network_forward(net: NetworkSpec, x: np.ndarray, config: EvalConfig,
                    sample_key: tuple = ()) -> np.ndarray:
    """Forward pass; float path composes exact layers, stream path streams.

    `sample_key` disambiguates the stream randomness between samples
    evaluated under one config.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (net.dims[0],):
        raise ValueError(f"input shape {x.shape} does not match dims {net.dims}")
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise ValueError(f"input {bad[0]} is {float(x[bad[0]])}; inputs must "
                         "be finite")
    if config.stream_length is None:
        return network_forward_float(net, x)
    n = config.stream_length
    rng = child_seed(config.seed, 7, *sample_key)
    thresholds, _, flips = write_thresholds((np.clip(x, -1.0, 1.0) + 1.0) / 2.0,
                                            config.sng_kind)
    bits = ((_uniform_rows(rng, x.size, n) < thresholds[:, None])
            ^ flips[:, None]).view(np.uint8)
    for layer in net.layers:
        bits = layer_forward_isc(layer, bits, config.sng_kind, rng)
    return (2 * bits.sum(axis=1, dtype=np.int64) - n) / n


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
    if labels.shape != (features.shape[0],):
        raise ValueError(f"{labels.size} labels for {features.shape[0]} "
                         "feature rows")
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
