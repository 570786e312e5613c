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
draw per row would.  It may also split a layer's neurons into contiguous
parts that run on separate threads: each part draws from a copy of the
generator advanced to the part's first word, and the caller's generator
ends where the last part ends.  So outputs depend on this order and not on
how the draws are batched or on how many parts a layer runs in.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import NamedTuple

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
# to bound the memory of a draw; each part of a split layer draws its own
# blocks, so the bound holds per part.  Larger blocks are split by rows, in
# order, which leaves the bits unchanged.
DRAW_BLOCK = 1 << 16

# Bit generators whose advance(k) skips exactly k random_raw words, so a
# copy can start at any word of the stream.  A layer splits its neurons
# across threads only on these (Philox, for one, advances by blocks).
_POSITIONABLE = (np.random.PCG64, np.random.PCG64DXSM)

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
    # (kind, n) -> _LayerPlan, filled by `_layer_plan` on first use
    _plans: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        w = np.ascontiguousarray(self.weights, dtype=float)
        if w.ndim != 2:
            raise ValueError(
                f"layer weights must be a 2-D matrix, got shape {w.shape}")
        bad = np.argwhere(~np.isfinite(w))
        if bad.size:
            i, j = bad[0]
            raise ValueError(f"layer weights must be finite; weight ({i}, {j}) "
                             f"is {w[i, j]}")
        if w.size and np.max(np.abs(w)) > 1.0 + 1e-9:
            i, j = np.unravel_index(np.argmax(np.abs(w)), w.shape)
            raise ValueError(f"scaled weights must lie in [-1, 1]; max |w| is "
                             f"{abs(w[i, j])} at ({i}, {j})")
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
        for k, (a, b) in enumerate(zip(self.layers[:-1], self.layers[1:])):
            if a.weights.shape[1] != b.weights.shape[0]:
                raise ValueError(
                    f"layer dimensions do not chain: layer {k} is "
                    f"{a.weights.shape} and layer {k + 1} is {b.weights.shape}")
        if self.feature_scaling is not None:
            scaling = tuple(self.feature_scaling)
            if len(scaling) != 2:
                raise ValueError(f"feature_scaling must be a (lo, hi) pair, "
                                 f"got {len(scaling)} arrays")
            lo, hi = (np.asarray(v, dtype=float) for v in scaling)
            want = self.dims[:1]
            if lo.shape != want or hi.shape != want:
                raise ValueError(
                    f"feature_scaling lo and hi must each have shape {want}; "
                    f"got {lo.shape} and {hi.shape}")
            for name, v in (("lo", lo), ("hi", hi)):
                bad = np.flatnonzero(~np.isfinite(v))
                if bad.size:
                    raise ValueError(f"feature_scaling must be finite; "
                                     f"{name}[{bad[0]}] is {v[bad[0]]}")
            object.__setattr__(self, "feature_scaling", (lo, hi))

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
                f"stream_length must be one of {sorted(ALLOWED_STREAM_LENGTHS)}"
                f", got {self.stream_length!r}")


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


class _LayerPlan(NamedTuple):
    """What the stream kernel reads of one layer for one (kind, n)."""

    thresholds: np.ndarray   # (fan_out, fan_in) uint16, `write_thresholds`
    flips: np.ndarray        # (fan_out, fan_in) bool
    base_levels: np.ndarray  # (fan_out, n) int32: weight_sum_offset + fan_in
    m: int                   # adder bound
    n_states: np.ndarray     # (fan_out,) FSM state counts


def _layer_plan(layer: LayerSpec, kind: SngKind, n: int) -> _LayerPlan:
    """The layer's plan for (kind, n), built once and kept on the layer.

    Its arrays are read-only, since every later call shares them.
    """
    plan = layer._plans.get((kind, n))
    if plan is not None:
        return plan
    # Sums over rows of w.T, not w.sum(axis=0): a column sum can differ in
    # the last ulp, and that can move a weight_sum_offset level.
    w_rows = np.ascontiguousarray(layer.weights.T)
    fan_in = w_rows.shape[1]
    thresholds, _, flips = write_thresholds((w_rows + 1.0) / 2.0, kind)
    base_levels = weight_sum_offset(w_rows.sum(axis=1), fan_in, n) + fan_in
    variance_per_input = (1.0 - np.mean(w_rows * w_rows, axis=1)
                          * INPUT_SECOND_MOMENT)
    n_states = np.array([default_tanh_states(fan_in, layer.m_scale * v)
                         for v in variance_per_input], dtype=np.int64)
    plan = _LayerPlan(thresholds, flips, base_levels,
                      fan_in + 2 * ((fan_in + 1) // 2) + 2, n_states)
    for array in (thresholds, flips, base_levels, n_states):
        array.setflags(write=False)
    layer._plans[(kind, n)] = plan
    return plan


def _usable_cpus() -> int:
    """CPUs this process may run on, which caps a layer's part count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        return os.cpu_count() or 1


_pool = None   # (pid, ThreadPoolExecutor), made on the first split


def _part_pool():
    """Worker threads for the parts after the first, one per other CPU.

    Made lazily, so importing the package starts no thread and loads no
    executor code, and made anew in a forked child, which inherits the pool
    but not its threads.  The executor starts a thread only when no idle
    one can take a part.  Concurrent first calls may each make a pool; the
    threads of the one that is dropped end once it is collected.
    """
    global _pool
    if _pool is None or _pool[0] != os.getpid():
        from concurrent.futures import ThreadPoolExecutor
        _pool = (os.getpid(),
                 ThreadPoolExecutor(max(1, _usable_cpus() - 1), "mtjsc-layer"))
    return _pool[1]


def _positioned_copy(bit_generator, words: int) -> np.random.Generator:
    """A generator on a copy of `bit_generator`, `words` raw words ahead."""
    copy = type(bit_generator)(0)   # seeded only to be overwritten
    copy.state = bit_generator.state
    copy.advance(words)
    return np.random.Generator(copy)


def _part_levels(plan: _LayerPlan, x_bits: np.ndarray,
                 rng: np.random.Generator, lo: int, hi: int,
                 block: int) -> np.ndarray:
    """Adder levels of neurons lo..hi-1, shape (hi - lo, n).

    Draws `block` neurons at a time: their weight rows and two fair rows
    each, neuron by neuron, in one `_uniform_rows` call, then one compare,
    two XORs and one column sum over the whole (block, fan_in, n) array.
    """
    fan_in, n = x_bits.shape
    levels = np.empty((hi - lo, n), dtype=np.int32)
    shape = (min(block, hi - lo), fan_in, n)
    below = np.empty(shape, dtype=bool)
    key = np.empty(shape, dtype=bool)
    count = np.uint16 if fan_in < 1 << 16 else np.int64
    for start in range(lo, hi, block):
        stop = min(start + block, hi)
        k = stop - start
        u = _uniform_rows(rng, k * (fan_in + 2), n).reshape(k, fan_in + 2, n)
        np.less(u[:, :fan_in], plan.thresholds[start:stop, :, None],
                out=below[:k])
        np.bitwise_xor(plan.flips[start:stop, :, None], x_bits, out=key[:k])
        np.bitwise_xor(below[:k], key[:k], out=below[:k])
        mismatches = below[:k].view(np.uint8).sum(axis=1, dtype=count)
        # a pair of independent fair bits (bipolar value 0) keeps the
        # counter moving when every input stream happens to be deterministic
        fair = (u[:, fan_in:] < FAIR_THRESHOLD).sum(axis=1, dtype=np.int32)
        np.subtract(plan.base_levels[start:stop] + fair, mismatches,
                    out=levels[start - lo:stop - lo])
    return levels


def layer_forward_isc(layer: LayerSpec, x_bits: np.ndarray, kind: SngKind,
                      rng: np.random.Generator) -> np.ndarray:
    """Stream-domain layer: XNOR products, adder tree, FSM squashing.

    x_bits holds one bipolar input stream per row, shape (fan_in, n); the
    result holds one output stream per neuron, shape (fan_out, n).  Fresh
    weight streams are drawn neuron by neuron, without energy bookkeeping:
    each neuron consumes the words of its weight rows and its two fair rows.
    A weight bit is (u < threshold) ^ flip (`sng.write_thresholds`), so its
    XNOR with the input bit mismatches where (u < threshold) differs from
    flip ^ x; the adder counts fan_in minus the mismatches, plus the fair
    bits.  The adder tree carries w.x; the +sum(w) half is a design-time
    constant and enters the tree as the deterministic `weight_sum_offset`.
    Its FSM's state count is M * sum_i(1 - w_i^2 E[x^2]), the adder's
    per-cycle variance times the layer gain.  These layer constants come
    from a plan kept on the layer per (kind, n).

    The neurons are drawn in blocks of DRAW_BLOCK words.  On a PCG64 or
    PCG64DXSM generator, a layer of several blocks is split into one
    contiguous range of neurons per usable CPU: the first range runs on
    the calling thread with `rng`, each other on a worker thread with a
    copy of the generator advanced to the range's first word.  `rng` then
    takes the last copy's position, with any buffered 32-bit half kept,
    and one FSM pass squashes every row.  The bits do not depend on the
    split.
    """
    x_bits = np.asarray(x_bits)
    if x_bits.ndim != 2:
        raise ValueError(f"x_bits must be a (fan_in, n) matrix of input "
                         f"streams, got shape {x_bits.shape}")
    n_inputs, n = x_bits.shape
    fan_in, fan_out = layer.weights.shape
    if n_inputs != fan_in:
        raise ValueError(f"{n_inputs} input streams for a layer of fan-in "
                         f"{fan_in}")
    plan = _layer_plan(layer, kind, n)
    x_bits = x_bits.astype(bool)
    words = (fan_in + 2) * -(-n // 4)
    block = max(1, DRAW_BLOCK // words)
    parts = 1
    if type(rng.bit_generator) in _POSITIONABLE:
        parts = max(1, min(_usable_cpus(), -(-fan_out // block)))
    bounds = [fan_out * p // parts for p in range(parts + 1)]
    copies = [_positioned_copy(rng.bit_generator, start * words)
              for start in bounds[1:-1]]
    futures = [_part_pool().submit(_part_levels, plan, x_bits, g, lo, hi,
                                   block)
               for g, lo, hi in zip(copies, bounds[1:-1], bounds[2:])]
    try:
        levels = [_part_levels(plan, x_bits, rng, bounds[0], bounds[1], block)]
    finally:
        for future in futures:   # join every part; errors are raised below
            future.exception()
        if copies:
            # The LCG state alone: advance() on `rng` would also drop a
            # buffered 32-bit half.
            state = rng.bit_generator.state
            state["state"] = copies[-1].bit_generator.state["state"]
            rng.bit_generator.state = state
    levels += [f.result() for f in futures]
    steps = 2 * np.concatenate(levels) - plan.m
    return fsm_tanh_rows(steps, plan.n_states)


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
    specs = doc["layers"]
    if len(dims) != len(specs) + 1:
        raise ValueError(f"dims {dims} describe {len(dims) - 1} layers, but "
                         f"the document has {len(specs)}")
    layers = []
    for k, spec in enumerate(specs):
        shape = (dims[k], dims[k + 1])
        weights = np.array(spec["weights"], dtype=float)
        if weights.size != shape[0] * shape[1]:
            raise ValueError(
                f"layer {k} of {len(specs)} has {weights.size} weights; "
                f"dims {dims} need {shape[0]} x {shape[1]} = "
                f"{shape[0] * shape[1]}")
        layers.append(LayerSpec(weights.reshape(shape), float(spec["M"])))
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
