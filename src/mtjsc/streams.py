"""Bit streams and the FSM tanh.

A stream is an array of 0/1 bits whose share of 1s, k/n, carries the
bipolar value (2k - n)/n.  An adder tree's output is an integral stream, one
level in [0, m] per cycle.  `fsm_tanh` squashes one integral stream per
row with a saturating counter driven by the steps 2 * level - m; its output
stream approximates tanh of the input's value.
"""

from __future__ import annotations

import numpy as np


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


def _compose_prefixes(maps: np.ndarray, spare: np.ndarray):
    """Compose every prefix of a run of clamp maps, along axis 1.

    maps stacks the offsets a, lower bounds lo and upper bounds hi of K
    maps as maps[0], maps[1] and maps[2], each (K, width); map k of the
    result is maps 0, 1, ..., k applied in that order.  A doubling scan:
    the pass of shift s composes map k - s, then map k, for every k >= s,
    reading one buffer and writing the other, so no pass reads what it
    writes.  Maps below s are final in the buffer read; those below s // 2
    are final in the buffer written too (it holds the input, or the result
    of the pass before last), so only [s // 2, s) is copied across.  Every
    slice along axis 1 of a contiguous (3, K, width) array is one
    contiguous block per plane.  Returns (result, the other buffer).
    """
    s = 1
    while s < maps.shape[1]:
        # a1 + a2, lo1 + a2, hi1 + a2 in one call, then clamp both bounds
        # to [lo2, hi2]: (a1, lo1, hi1) then (a2, lo2, hi2)
        np.add(maps[:, :-s], maps[0, s:], out=spare[:, s:])
        np.maximum(spare[1:, s:], maps[1, s:], out=spare[1:, s:])
        np.minimum(spare[1:, s:], maps[2, s:], out=spare[1:, s:])
        spare[:, s // 2:s] = maps[:, s // 2:s]
        maps, spare = spare, maps
        s *= 2
    return maps, spare


def fsm_tanh(steps: np.ndarray, n_states) -> np.ndarray:
    """Output bits of one saturating counter per row of signed steps.

    Row r starts at n_states[r] // 2; each cycle it moves by steps[r, t] and
    is clamped to [0, n_states[r] - 1], and the output bit is 1 while the
    state sits in the upper half.  n_states is an int or one even count
    >= 2 per row.

    Each cycle applies the clamp map x -> min(max(x + a, lo), hi).  These
    maps are closed under composition (a1 then a2 gives a = a1 + a2,
    lo = clip(lo1 + a2, lo2, hi2), hi = clip(hi1 + a2, lo2, hi2)), so a scan
    composes every prefix at once, in exact integer arithmetic, and gives
    the states of the cycle-by-cycle counter for all rows together.  The
    states are counted from n_states // 2, so every row starts at 0 and
    outputs 1 while its state is >= 0.

    The scan has two levels.  Zero steps, each the identity on the state
    range, pad the front of the n cycles to C chunks of L = 2**ceil(log2(n)
    / 2) cycles.  The maps are laid out cycle-major, as (L, C * rows) per
    plane, with row r of chunk c in column c * rows + r, so one doubling
    scan of log2(L) passes composes the prefixes within every chunk, each
    pass a few whole-array ufunc calls.  The same scan over the C chunk
    totals gives each chunk's start state, and a last pass applies each
    within-chunk prefix to its chunk's start state.
    """
    steps = np.asarray(steps)
    if steps.ndim != 2 or steps.dtype.kind != "i":
        raise ValueError("steps must be a (rows, cycles) signed integer matrix")
    rows, n = steps.shape
    counts = np.asarray(n_states)
    if counts.ndim and counts.shape != (rows,):
        raise ValueError(f"n_states must be one count or one per row, not "
                         f"shape {counts.shape} for steps {steps.shape}")
    flat = counts.astype(float).ravel()
    bad = flat[~((flat == np.floor(flat)) & (np.abs(flat) < 2.0**62))]
    if bad.size:
        raise ValueError(f"n_states must be whole and below 2**62, got "
                         f"{bad[0]}")
    n_states = np.broadcast_to(counts.astype(np.int64), (rows,))
    if np.any(n_states < 2) or np.any(n_states % 2 != 0):
        raise ValueError(f"n_states must be even and >= 2, got {n_states}")
    if rows == 0 or n == 0:
        return np.zeros((rows, n), dtype=np.uint8)
    # Every value below is at most n * max|step| + n_states in magnitude;
    # int32 holds that for the network's streams and halves the traffic.
    # Not narrower: after a step that alone saturates the counter, the
    # composed maps can keep lo < hi while their offset grows towards
    # n * max|step|, and a wrapped offset would move the state.
    bound = (n * max(-int(steps.min()), int(steps.max()))
             + int(n_states.max()))
    dtype = np.int32 if bound < 2**31 else np.int64
    span = 1 << (((n - 1).bit_length() + 1) // 2)
    chunks = -(-n // span)
    pad = chunks * span - n
    if pad:
        steps = np.concatenate([np.zeros((rows, pad), dtype), steps], axis=1)
    width = chunks * rows
    maps = np.empty((3, span, width), dtype)
    spare = np.empty_like(maps)
    np.copyto(maps[0].reshape(span, chunks, rows).transpose(2, 1, 0),
              steps.reshape(rows, chunks, span), casting="unsafe")
    half = (n_states // 2).astype(dtype)
    bounds = np.empty((2, chunks, rows), dtype)
    bounds[0] = -half
    bounds[1] = half - 1
    maps[1:] = bounds.reshape(2, 1, width)
    maps, spare = _compose_prefixes(maps, spare)
    totals = maps[:, -1].reshape(3, chunks, rows).copy()
    totals, _ = _compose_prefixes(totals, np.empty_like(totals))
    # chunk c starts where the prefix of chunks 0..c-1 takes state 0
    start = np.zeros((chunks, rows), dtype)
    np.maximum(totals[0, :-1], totals[1, :-1], out=start[1:])
    np.minimum(start[1:], totals[2, :-1], out=start[1:])
    state = spare[0]
    np.add(maps[0], start.reshape(width), out=state)
    np.maximum(state, maps[1], out=state)
    np.minimum(state, maps[2], out=state)
    out = np.empty((rows, chunks * span), dtype=np.uint8)
    np.greater_equal(state.reshape(span, chunks, rows), 0,
                     out=out.reshape(rows, chunks, span).transpose(2, 1, 0))
    return out[:, pad:].copy() if pad else out

