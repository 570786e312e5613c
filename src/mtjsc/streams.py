"""Stochastic and integral-stochastic number representations and arithmetic.

A stochastic stream is a finite sequence of bits whose fraction of 1s
carries a value: k/n in the unipolar format, (2k - n)/n in the bipolar
format.  An integral stream generalizes this to per-cycle integer levels in
[0, m], equivalent to the bitwise sum of m unit streams, which makes
addition exact and keeps products representable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class Format(enum.Enum):
    UNIPOLAR = "unipolar"
    BIPOLAR = "bipolar"


@dataclass(frozen=True)
class StochasticStream:
    bits: np.ndarray  # 0/1 uint8
    format: Format = Format.UNIPOLAR

    def __post_init__(self):
        bits = np.ascontiguousarray(self.bits, dtype=np.uint8)
        if bits.ndim != 1 or bits.size < 1:
            raise ValueError("a stream needs at least one bit")
        if bits.max(initial=0) > 1:
            raise ValueError("stream bits must be 0 or 1")
        bits.setflags(write=False)
        object.__setattr__(self, "bits", bits)

    def __len__(self) -> int:
        return self.bits.size

    def with_format(self, fmt: Format) -> "StochasticStream":
        """Reinterpret the same bits under another format."""
        return StochasticStream(self.bits, fmt)

    def to_text(self) -> str:
        return "".join("1" if b else "0" for b in self.bits)

    @classmethod
    def from_text(cls, text: str, fmt: Format = Format.UNIPOLAR) -> "StochasticStream":
        if not text or set(text) - {"0", "1"}:
            raise ValueError("stream text must be a nonempty string of 0s and 1s")
        return cls(np.frombuffer(text.encode(), dtype=np.uint8) - ord("0"), fmt)


@dataclass(frozen=True)
class IntegralStream:
    levels: np.ndarray  # integers in [0, m]
    m: int
    format: Format = Format.UNIPOLAR

    def __post_init__(self):
        levels = np.ascontiguousarray(self.levels, dtype=np.int32)
        if levels.ndim != 1 or levels.size < 1:
            raise ValueError("an integral stream needs at least one level")
        if self.m < 1:
            raise ValueError("range bound m must be >= 1")
        if levels.min(initial=0) < 0 or levels.max(initial=0) > self.m:
            raise ValueError("levels must lie in [0, m]")
        levels.setflags(write=False)
        object.__setattr__(self, "levels", levels)

    def __len__(self) -> int:
        return self.levels.size


def bernoulli_stream(p: float, n: int, seed, fmt: Format = Format.UNIPOLAR) -> StochasticStream:
    """Ideal stream of n independent bits, each 1 with probability p.

    For a bipolar stream of value v, pass p = (v + 1) / 2.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    rng = np.random.default_rng(seed)
    return StochasticStream((rng.random(n) < p).astype(np.uint8), fmt)


def value_of(stream) -> float:
    """Value carried by a stream; exact integer arithmetic over the counts."""
    if isinstance(stream, StochasticStream):
        n = stream.bits.size
        k = int(stream.bits.sum())
        if stream.format is Format.UNIPOLAR:
            return k / n
        return (2 * k - n) / n
    if isinstance(stream, IntegralStream):
        n = stream.levels.size
        total = int(stream.levels.sum(dtype=np.int64))
        if stream.format is Format.UNIPOLAR:
            return total / n
        return 2 * total / n - stream.m
    raise TypeError(f"not a stream: {type(stream).__name__}")


def _check_pair(x: StochasticStream, y: StochasticStream, same_format=True):
    if len(x) != len(y):
        raise ValueError(f"stream length mismatch: {len(x)} vs {len(y)}")
    if same_format and x.format is not y.format:
        raise ValueError("stream format mismatch")


def sc_multiply(x: StochasticStream, y: StochasticStream) -> StochasticStream:
    """Stream product: AND in the unipolar format, XNOR in the bipolar."""
    _check_pair(x, y)
    if x.format is Format.UNIPOLAR:
        bits = x.bits & y.bits
    else:
        bits = np.uint8(1) - (x.bits ^ y.bits)
    return StochasticStream(bits, x.format)


def scaled_add(a: StochasticStream, b: StochasticStream,
               s: StochasticStream) -> StochasticStream:
    """Mux-based scaled addition: each output bit comes from a when the
    select bit is 1 and from b otherwise, giving A*S + B*(1-S)."""
    _check_pair(a, b)
    if len(s) != len(a):
        raise ValueError("select stream length mismatch")
    bits = np.where(s.bits == 1, a.bits, b.bits).astype(np.uint8)
    return StochasticStream(bits, a.format)


def to_integral(stream: StochasticStream) -> IntegralStream:
    """View a unit stream as an integral stream with m = 1."""
    return IntegralStream(stream.bits.astype(np.int32), 1, stream.format)


def isc_encode(s: float, m: int, n: int, seed,
               fmt: Format = Format.UNIPOLAR) -> IntegralStream:
    """Encode a real s as the bitwise sum of m equal-split unit streams."""
    if m < 1:
        raise ValueError("m must be >= 1")
    lo, hi = (0.0, m) if fmt is Format.UNIPOLAR else (-m, m)
    if not lo <= s <= hi:
        raise ValueError(f"s = {s} outside [{lo}, {hi}] for {fmt.value} format")
    unit = s / m
    p = unit if fmt is Format.UNIPOLAR else (unit + 1.0) / 2.0
    rng = np.random.default_rng(seed)
    levels = (rng.random((m, n)) < p).sum(axis=0).astype(np.int32)
    return IntegralStream(levels, m, fmt)


def isc_add(a: IntegralStream, b: IntegralStream) -> IntegralStream:
    """Exact elementwise addition; the range bound grows to m_a + m_b."""
    if len(a) != len(b):
        raise ValueError("stream length mismatch")
    if a.format is not b.format:
        raise ValueError("stream format mismatch")
    return IntegralStream(a.levels + b.levels, a.m + b.m, a.format)


def isc_multiply(a, b) -> IntegralStream:
    """Elementwise product of levels; bound m1 * m2.

    Either operand may be a unit StochasticStream, treated as an integral
    stream with m = 1.  In the bipolar format the product is taken on the
    signed per-cycle values (2*level - m) and mapped back.
    """
    if isinstance(a, StochasticStream):
        a = to_integral(a)
    if isinstance(b, StochasticStream):
        b = to_integral(b)
    if len(a) != len(b):
        raise ValueError("stream length mismatch")
    if a.format is not b.format:
        raise ValueError("stream format mismatch")
    m = a.m * b.m
    if a.format is Format.UNIPOLAR:
        levels = a.levels.astype(np.int64) * b.levels
    else:
        signed = ((2 * a.levels.astype(np.int64) - a.m)
                  * (2 * b.levels.astype(np.int64) - b.m))
        levels = (signed + m) // 2
    return IntegralStream(levels.astype(np.int32), m, a.format)


def default_tanh_states(m: int, gain: float = 2.0) -> int:
    """State count for `fsm_tanh` on an equal-split bipolar input of bound m.

    The network's neuron FSM uses it too, with m the fan-in and a gain of
    M times the adder's mean per-input variance, which makes K the adder's
    per-cycle variance times M.  gain = 2 makes the counter's small-signal
    slope match tanh itself: the stationary output of the saturating counter
    behaves like tanh(K * drift / (2 * variance)) and the equal-split
    encoder has per-cycle variance ~= 2m near zero drift.
    """
    k = int(round(gain * m))
    k += k % 2
    return max(2, k)


def fsm_tanh_rows(steps: np.ndarray, n_states) -> np.ndarray:
    """Output bits of one saturating counter per row of signed steps.

    Row r starts at n_states[r] // 2; each cycle it moves by steps[r, t] and
    is clamped to [0, n_states[r] - 1], and the output bit is 1 while the
    state sits in the upper half.  n_states is an int or one even count
    >= 2 per row.

    Each cycle applies the clamp map x -> min(max(x + a, lo), hi).  These
    maps are closed under composition (a1 then a2 gives a = a1 + a2,
    lo = clip(lo1 + a2, lo2, hi2), hi = clip(hi1 + a2, lo2, hi2)), so a
    doubling scan over log2(n) steps composes every prefix at once, in
    exact integer arithmetic, and gives the states of the cycle-by-cycle
    counter for all rows together.
    """
    steps = np.asarray(steps)
    if steps.ndim != 2 or steps.dtype.kind != "i":
        raise ValueError("steps must be a (rows, cycles) signed integer matrix")
    n_states = np.broadcast_to(np.asarray(n_states, dtype=np.int64),
                               steps.shape[:1])
    if np.any(n_states < 2) or np.any(n_states % 2 != 0):
        raise ValueError(f"n_states must be even and >= 2, got {n_states}")
    # Every value below is at most n * max|step| + n_states in magnitude;
    # int32 holds that for the network's streams and halves the traffic.
    bound = (steps.shape[1] * int(np.abs(steps).max(initial=0))
             + int(n_states.max(initial=0)))
    dtype = np.int32 if bound < 2**31 else np.int64
    top = (n_states[:, None] - 1).astype(dtype)
    half = (n_states[:, None] // 2).astype(dtype)
    a = steps.astype(dtype)
    lo = np.zeros_like(a)
    hi = np.broadcast_to(top, a.shape).copy()
    s = 1
    while s < a.shape[1]:
        a2, lo2, hi2 = a[:, s:], lo[:, s:], hi[:, s:]
        new_lo = np.minimum(np.maximum(lo[:, :-s] + a2, lo2), hi2)
        new_hi = np.minimum(np.maximum(hi[:, :-s] + a2, lo2), hi2)
        a[:, s:] = a[:, :-s] + a2
        lo[:, s:] = new_lo
        hi[:, s:] = new_hi
        s *= 2
    state = np.minimum(np.maximum(half + a, lo), hi)
    return (state >= half).astype(np.uint8)


def fsm_tanh(a: IntegralStream, n_states: int) -> StochasticStream:
    """Saturating up/down counter driven by the signed input levels.

    The state moves by (2*level - m) each cycle, clamped to [0, n_states-1];
    the output bit is 1 while the state sits in the upper half.  With a
    state count matched to the input's range and variance the output stream
    approximates tanh of the input value, in the bipolar format.
    """
    if a.format is not Format.BIPOLAR:
        raise ValueError("fsm_tanh expects a bipolar input stream")
    steps = 2 * a.levels.astype(np.int64) - a.m
    return StochasticStream(fsm_tanh_rows(steps[None, :], n_states)[0],
                            Format.BIPOLAR)
