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
first n kept (`sng.uniform16`).  A weight or input bit of value p is
(u < rint(min(p, 1 - p) * 2**16)) ^ (p >= 1/2) (`sng.write_thresholds`)
for either SNG kind, so outputs do not depend on `EvalConfig.sng_kind`;
a fair bit is u < 2**15.  The kernel draws whole rows in blocks of
neurons, in this order, on the caller's thread; that consumes the
generator exactly as one draw per row would and leaves it after the
sample's last word.  So outputs depend on this order and not on how the
draws are batched.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .sng import (FAIR_THRESHOLD, SngKind, _is_count, _is_seed, sng_bits,
                  uniform16, write_thresholds)
from .streams import default_tanh_states, fsm_tanh

ALLOWED_STREAM_LENGTHS = frozenset(128 << k for k in range(8))

# Most 64-bit generator words (512 KB) that one block of neurons draws on
# the stream path; it bounds the neurons per block, at least one.  Blocks
# are drawn in order, which leaves the bits unchanged.
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
    # stream length n -> _LayerPlan, filled by `_layer_plan` on first use
    _plans: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        w = np.ascontiguousarray(self.weights, dtype=float)
        if w.ndim != 2 or not w.size:
            raise ValueError(f"layer weights must be a non-empty 2-D matrix, "
                             f"got shape {w.shape}")
        bad = np.argwhere(~np.isfinite(w))
        if bad.size:
            i, j = bad[0]
            raise ValueError(f"layer weights must be finite; weight ({i}, {j}) "
                             f"is {w[i, j]}")
        if np.max(np.abs(w)) > 1.0 + 1e-9:
            i, j = np.unravel_index(np.argmax(np.abs(w)), w.shape)
            raise ValueError(f"scaled weights must lie in [-1, 1]; max |w| is "
                             f"{abs(w[i, j])} at ({i}, {j})")
        m = self.m_scale
        if (isinstance(m, bool) or not isinstance(m, numbers.Real)
                or not (math.isfinite(m) and m >= 1.0)):
            raise ValueError(f"scaling factor M must be a finite real number "
                             f">= 1, got {m!r}")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "m_scale", float(m))


@dataclass(frozen=True)
class NetworkSpec:
    layers: tuple[LayerSpec, ...]

    def __post_init__(self):
        if not self.layers:
            raise ValueError("a network needs at least one layer")
        for k, (a, b) in enumerate(zip(self.layers[:-1], self.layers[1:])):
            if a.weights.shape[1] != b.weights.shape[0]:
                raise ValueError(
                    f"layer dimensions do not chain: layer {k} is "
                    f"{a.weights.shape} and layer {k + 1} is {b.weights.shape}")

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.layers[0].weights.shape[0],
                *(layer.weights.shape[1] for layer in self.layers))


@dataclass(frozen=True)
class EvalConfig:
    """How to evaluate a network: float path when stream_length is None.
    sng_kind names the generator a run is priced as; stream bits do not
    depend on it."""

    stream_length: int | None = None
    seed: int = 0
    sng_kind: SngKind = SngKind.BMS

    def __post_init__(self):
        if not isinstance(self.sng_kind, SngKind):
            raise TypeError(
                f"sng_kind must be a SngKind, got {self.sng_kind!r}")
        if self.stream_length is not None and not (
                _is_seed(self.stream_length)
                and self.stream_length in ALLOWED_STREAM_LENGTHS):
            raise ValueError(
                f"stream_length must be one of {sorted(ALLOWED_STREAM_LENGTHS)}"
                f", got {self.stream_length!r}")
        if not _is_seed(self.seed):
            raise ValueError(
                f"seed must be a non-negative integer, got {self.seed!r}")


def _label_problem(labels: np.ndarray) -> str | None:
    """Why `labels` are not whole numbers, naming the first bad one; None
    if they are."""
    if labels.dtype.kind == "f":
        bad = np.flatnonzero(~(np.isfinite(labels)
                               & (labels == np.floor(labels))))
        if bad.size:
            return (f"labels must be whole numbers; label {bad[0]} is "
                    f"{labels[bad[0]].item()!r}")
    elif labels.dtype.kind not in "biu":
        return f"labels must be whole numbers, got dtype {labels.dtype}"
    return None


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


class _LayerPlan(NamedTuple):
    """What the stream kernel reads of one layer for one stream length n."""

    thresholds: np.ndarray   # (fan_out, fan_in) uint16, `write_thresholds`
    flips: np.ndarray        # (fan_out, fan_in) bool
    base_levels: np.ndarray  # (fan_out, n) int32: weight_sum_offset + fan_in
    m: int                   # adder bound
    n_states: np.ndarray     # (fan_out,) FSM state counts


def _layer_plan(layer: LayerSpec, n: int) -> _LayerPlan:
    """The layer's plan for stream length n, built once and kept on the layer.

    Its arrays are read-only, since every later call shares them.
    """
    plan = layer._plans.get(n)
    if plan is not None:
        return plan
    # Sums over rows of w.T, not w.sum(axis=0): a column sum can differ in
    # the last ulp, and that can move a weight_sum_offset level.
    w_rows = np.ascontiguousarray(layer.weights.T)
    fan_in = w_rows.shape[1]
    thresholds, flips = write_thresholds((w_rows + 1.0) / 2.0)
    base_levels = weight_sum_offset(w_rows.sum(axis=1), fan_in, n) + fan_in
    variance_per_input = (1.0 - np.mean(w_rows * w_rows, axis=1)
                          * INPUT_SECOND_MOMENT)
    n_states = np.array([default_tanh_states(fan_in, layer.m_scale * v)
                         for v in variance_per_input], dtype=np.int64)
    plan = _LayerPlan(thresholds, flips, base_levels,
                      fan_in + 2 * ((fan_in + 1) // 2) + 2, n_states)
    for array in (thresholds, flips, base_levels, n_states):
        array.setflags(write=False)
    layer._plans[n] = plan
    return plan


def _block_levels(plan: _LayerPlan, x_bits: np.ndarray, lo: int, hi: int,
                  rng: np.random.Generator, out: np.ndarray) -> None:
    """Adder levels of neurons lo..hi-1 of a layer, written into `out`.

    Draws the neurons' weight and fair rows, neuron by neuron, in one
    `uniform16` call.  A weight bit is (u < threshold) ^ flip, so
    (u < threshold) ^ flip ^ x marks where its XNOR with the input bit x
    mismatches; the levels are the plan's base levels plus the fair bits,
    minus the mismatches of each cycle.  x_bits is the layer's (fan_in, n)
    input bits, as bool.
    """
    fan_in = plan.thresholds.shape[1]
    n = x_bits.shape[1]
    u = uniform16(rng, (hi - lo, fan_in + 2), n)
    mismatch = np.less(u[:, :fan_in], plan.thresholds[lo:hi, :, None])
    np.bitwise_xor(mismatch, plan.flips[lo:hi, :, None], out=mismatch)
    np.bitwise_xor(mismatch, x_bits, out=mismatch)
    # a pair of independent fair bits (bipolar value 0) keeps the counter
    # moving when every input stream happens to be deterministic
    partial = plan.base_levels[lo:hi] + (
        u[:, fan_in:] < FAIR_THRESHOLD).sum(axis=1, dtype=np.int32)
    # at most fan_in mismatches per cycle, so the narrowest count that holds
    # fan_in
    count = (np.uint8 if fan_in < 1 << 8 else
             np.uint16 if fan_in < 1 << 16 else np.int64)
    np.subtract(partial, mismatch.view(np.uint8).sum(axis=1, dtype=count),
                out=out)


def _stream_layers(plans: list[_LayerPlan], bits: np.ndarray,
                   rng: np.random.Generator) -> np.ndarray:
    """Output bits of the stream layers `plans` on the first layer's
    (fan_in, n) input bits, as bool; shape (fan_out, n), uint8.

    Each layer's neurons are drawn from `rng` in blocks of
    max(1, DRAW_BLOCK // words per neuron), in order, and the layer is
    squashed in one `fsm_tanh` call.
    """
    n = bits.shape[1]
    for plan in plans:
        fan_out, fan_in = plan.thresholds.shape
        size = max(1, DRAW_BLOCK // ((fan_in + 2) * -(-n // 4)))
        x_bits = bits.view(bool)
        levels = np.empty((fan_out, n), dtype=np.int32)
        for lo in range(0, fan_out, size):
            hi = min(lo + size, fan_out)
            _block_levels(plan, x_bits, lo, hi, rng, levels[lo:hi])
        levels *= 2
        levels -= plan.m
        bits = fsm_tanh(levels, plan.n_states)
    return bits


def layer_forward_isc(layer: LayerSpec, x_bits: np.ndarray,
                      rng: np.random.Generator) -> np.ndarray:
    """Stream-domain layer: XNOR products, adder tree, FSM squashing.

    x_bits holds one bipolar input stream per row, shape (fan_in, n), of 0/1
    entries; the result holds one output stream per neuron, shape
    (fan_out, n).  Fresh weight streams are drawn neuron by neuron, without
    energy bookkeeping: each neuron consumes the words of its weight rows
    and its two fair rows.  A weight bit is (u < threshold) ^ flip
    (`sng.write_thresholds`), so its XNOR with the input bit mismatches
    where (u < threshold) ^ flip differs from x; the adder counts fan_in
    minus the mismatches, plus the fair bits.  The adder tree carries w.x;
    the +sum(w) half is a design-time constant and enters the tree as the
    deterministic `weight_sum_offset`.  Its FSM's state count is
    M * sum_i(1 - w_i^2 E[x^2]), the adder's per-cycle variance times the
    layer gain.  These layer constants come from a plan kept on the layer
    per stream length n, which no SNG kind enters.

    The neurons are drawn from `rng` in order, in blocks of at most
    DRAW_BLOCK words (at least one neuron), and one FSM pass squashes every
    row once all blocks are done.  `rng` then stands after the layer's last
    word, with any buffered 32-bit half kept.  `network_forward` runs every
    layer of a sample through the same routine.
    """
    x_bits = np.asarray(x_bits)
    if x_bits.ndim != 2:
        raise ValueError(f"x_bits must be a (fan_in, n) matrix of input "
                         f"streams, got shape {x_bits.shape}")
    n_inputs, n = x_bits.shape
    fan_in = layer.weights.shape[0]
    if n_inputs != fan_in:
        raise ValueError(f"{n_inputs} input streams for a layer of fan-in "
                         f"{fan_in}")
    if n == 0:
        raise ValueError(f"x_bits has no cycles: shape {x_bits.shape}")
    bad = np.argwhere((x_bits != 0) & (x_bits != 1))
    if bad.size:
        at = tuple(int(v) for v in bad[0])
        raise ValueError(f"x_bits entry {at} is {x_bits[at].item()!r}; "
                         "stream bits must be 0 or 1")
    x_bits = np.ascontiguousarray(x_bits, dtype=bool)
    return _stream_layers([_layer_plan(layer, n)], x_bits, rng)


def neuron_forward_isc(w: np.ndarray, x_bits: np.ndarray, m_scale: float,
                       rng: np.random.Generator) -> np.ndarray:
    """One neuron of `layer_forward_isc`: (n,) output bits on (fan_in, n)
    input bits.  It stays only because `perfbench/workloads.py` traces it."""
    return layer_forward_isc(LayerSpec(np.reshape(w, (-1, 1)), m_scale),
                             x_bits, rng)[0]


def network_forward(net: NetworkSpec, x: np.ndarray, config: EvalConfig,
                    sample_key: tuple = ()) -> np.ndarray:
    """Forward pass; float path composes exact layers, stream path streams.

    `sample_key`, a tuple of non-negative integers, disambiguates the
    stream randomness between samples evaluated under one config.
    Both paths refuse an input outside [-1, 1], naming the first one.
    """
    if not isinstance(config, EvalConfig):
        raise TypeError(f"config must be an EvalConfig, got {config!r}")
    if not isinstance(sample_key, tuple):
        raise TypeError(f"sample_key must be a tuple of non-negative "
                        f"integers, got {sample_key!r}")
    for k, entry in enumerate(sample_key):
        if not _is_seed(entry):
            raise ValueError(f"sample_key entries must be non-negative "
                             f"integers; entry {k} is {entry!r}")
    x = np.asarray(x, dtype=float)
    if x.shape != (net.dims[0],):
        raise ValueError(f"input shape {x.shape} does not match dims {net.dims}")
    bad = np.flatnonzero(~(np.abs(x) <= 1.0))
    if bad.size:
        raise ValueError(f"input {bad[0]} is {float(x[bad[0]])}; inputs must "
                         "lie in [-1, 1]")
    if config.stream_length is None:
        return network_forward_float(net, x)
    n = config.stream_length
    rng = child_seed(config.seed, 7, *sample_key)
    bits = sng_bits((x + 1.0) / 2.0, n, rng)
    plans = [_layer_plan(layer, n) for layer in net.layers]
    bits = _stream_layers(plans, bits, rng)
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
    if features.ndim != 2 or features.shape[1] != net.dims[0]:
        raise ValueError(f"features must be a (samples, {net.dims[0]}) "
                         f"matrix, got shape {features.shape}")
    if features.shape[0] == 0:
        raise ValueError("empty dataset")
    if labels.shape != (features.shape[0],):
        raise ValueError(f"{labels.size} labels for {features.shape[0]} "
                         "feature rows")
    problem = _label_problem(labels)
    if problem:
        raise ValueError(problem)
    bad = np.flatnonzero((labels < 0) | (labels >= net.dims[-1]))
    if bad.size:
        raise ValueError(f"labels must lie in [0, {net.dims[-1]}); label "
                         f"{bad[0]} is {labels[bad[0]].item()!r}")
    hits = 0
    for idx in range(features.shape[0]):
        outputs = network_forward(net, features[idx], config, sample_key=(idx,))
        hits += classify(outputs) == int(labels[idx])
    return hits / features.shape[0]


def network_to_dict(net: NetworkSpec) -> dict:
    return {
        "dims": list(net.dims),
        "layers": [{"M": layer.m_scale,
                    "weights": layer.weights.flatten().tolist()}
                   for layer in net.layers],
    }


def _entry(doc: dict, key: str, where: str):
    """doc[key], or a ValueError that names the key and where it is missing."""
    try:
        return doc[key]
    except KeyError:
        raise ValueError(f"{where} has no {key!r} entry") from None


def network_from_dict(doc: dict) -> NetworkSpec:
    if not isinstance(doc, dict):
        raise ValueError(f"the network document must be a mapping with "
                         f"'dims' and 'layers' entries, got {doc!r}")
    dims = _entry(doc, "dims", "the network document")
    specs = _entry(doc, "layers", "the network document")
    for key, value in (("dims", dims), ("layers", specs)):
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{key} must be a list, got {value!r}")
    if len(dims) != len(specs) + 1:
        raise ValueError(f"dims {dims} describe {len(dims) - 1} layers, but "
                         f"the document has {len(specs)}")
    for k, d in enumerate(dims):
        if not _is_count(d):
            raise ValueError(f"dims must be integers >= 1; dims entry {k} is "
                             f"{d!r}")
    layers = []
    for k, spec in enumerate(specs):
        shape = (dims[k], dims[k + 1])
        where = f"layer {k} of {len(specs)}"
        if not isinstance(spec, dict):
            raise ValueError(f"{where} must be a mapping with 'weights' and "
                             f"'M' entries, got {spec!r}")
        weights = _entry(spec, "weights", where)
        try:
            weights = np.array(weights, dtype=float)
        except (TypeError, ValueError) as err:
            raise ValueError(f"{where}: weights must be numbers; {err}") from None
        if weights.size != shape[0] * shape[1]:
            raise ValueError(f"{where} has {weights.size} weights; dims "
                             f"{dims} need {shape[0]} x {shape[1]} = "
                             f"{shape[0] * shape[1]}")
        m_scale = _entry(spec, "M", where)
        try:
            layers.append(LayerSpec(weights.reshape(shape), m_scale))
        except ValueError as err:  # name the layer
            raise ValueError(f"{where}: {err}") from None
    return NetworkSpec(tuple(layers))


def save_network(net: NetworkSpec, path) -> None:
    with open(path, "w") as fh:
        json.dump(network_to_dict(net), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_network(path) -> NetworkSpec:
    with open(path) as fh:
        return network_from_dict(json.load(fh))
