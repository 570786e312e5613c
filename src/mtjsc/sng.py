"""MTJ-based stochastic number generators and their per-bit costs.

Each generated bit runs the same device sequence: reset the junction to the
AP state (skipped when the previous write did not switch), apply a write
pulse whose width sets the AP->P switching probability, then read the
stored bit.  The normal generator writes a 0 with probability 1 - p; the
biased variant (BMS) always writes the cheaper of p and 1 - p internally
and restores the requested value with an inverting mux, which caps the
worst-case write pulse at the 50%-probability width.

Both deliver Bernoulli(p) bits through one map: `write_thresholds`
quantizes min(p, 1 - p) to 2**-16 and inverts from p = 1/2 on, and
`sng_bits` applies it to 16-bit uniforms from raw generator words, also on
the network's stream path.  The kind changes only what a bit costs:
`generate_stream` derives the switched writes from it, priced by
`device.write_energy_split`, cached per model by capped write probability.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .device import (
    SwitchDirection,
    SwitchingModel,
    WriteEnergySplit,
    default_model,
    expected_write_energy,
    pulse_width_for_probability,
    write_energy_split,
)

# Probability treated as "certain" when sizing write pulses; matches the
# published worst-case write width.
WRITE_PROBABILITY_CAP = 0.999

DEFAULT_MUX_INV_ENERGY = 5e-15  # J/bit, BMS mux + inverter estimate

# Stream bits compare 16-bit uniforms with integer thresholds, so write
# probabilities are quantized to multiples of 2**-16: THRESHOLD_ONE is
# q = 1, and u < FAIR_THRESHOLD is a fair bit.
THRESHOLD_ONE = 1 << 16
FAIR_THRESHOLD = 1 << 15


class SngKind(enum.Enum):
    NORMAL = "normal"
    BMS = "bms"


@dataclass(frozen=True)
class SngCostModel:
    """Per-bit energy/time constants derived from a calibrated device model."""

    switching: SwitchingModel
    reset_energy: float        # expected P->AP write at ~100% probability
    read_energy: float
    mux_inv_energy: float      # BMS only
    bit_period_normal: float
    bit_period_bms: float
    # capped write probability -> WriteEnergySplit, filled by _write_split
    _write_energy_cache: dict = field(default_factory=dict, init=False,
                                      repr=False, compare=False)

    def __post_init__(self):
        for name in ("reset_energy", "read_energy", "mux_inv_energy",
                     "bit_period_normal", "bit_period_bms"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(
                    f"{name} must be a real number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if value < 0:
                raise ValueError(f"{name} must be nonnegative, got {value}")
        if self.bit_period_bms >= self.bit_period_normal:
            raise ValueError(
                f"BMS bit period {self.bit_period_bms} s must be shorter than "
                f"the normal one, {self.bit_period_normal} s")


def build_cost_model(model: SwitchingModel | None = None) -> SngCostModel:
    model = model or default_model()
    params = model.params
    t_reset_pulse = pulse_width_for_probability(
        WRITE_PROBABILITY_CAP, SwitchDirection.P_TO_AP, model)
    reset_energy = expected_write_energy(
        t_reset_pulse, SwitchDirection.P_TO_AP, model)
    # Read at the sense bias through the low-resistance state.
    read_energy = params.v_read ** 2 / params.r_p * params.t_read
    t_write_max = pulse_width_for_probability(
        WRITE_PROBABILITY_CAP, SwitchDirection.AP_TO_P, model)
    t_write_bms = pulse_width_for_probability(
        0.5, SwitchDirection.AP_TO_P, model)
    return SngCostModel(
        switching=model,
        reset_energy=reset_energy,
        read_energy=read_energy,
        mux_inv_energy=DEFAULT_MUX_INV_ENERGY,
        bit_period_normal=params.t_reset + t_write_max + params.t_read,
        bit_period_bms=params.t_reset + t_write_bms + params.t_read,
    )


def _is_seed(value) -> bool:
    """Whether `value` is a non-negative integer, as `SeedSequence` takes."""
    return (isinstance(value, (int, np.integer))
            and not isinstance(value, bool) and value >= 0)


def _is_count(value) -> bool:
    """Whether `value` is an integer >= 1 (a bool is not)."""
    return _is_seed(value) and value >= 1


def _check_kind(kind) -> None:
    if not isinstance(kind, SngKind):
        raise TypeError(f"kind must be a SngKind, got {kind!r}")


def _check_p(p) -> None:
    """Refuse a stream value that is not one real number in [0, 1]: a bool,
    a string, None or an array (0-d included) is named, not coerced."""
    if isinstance(p, bool) or not isinstance(p, numbers.Real):
        raise TypeError(f"p must be a real number, got {p!r}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")


def write_probability(p, kind: SngKind):
    """AP->P switching probability that realizes a stream of value p.

    p is a float or an array of values; the one map for energy and bits,
    which `write_thresholds` quantizes for the bit draw.
    """
    _check_kind(kind)
    if kind is SngKind.NORMAL:
        return 1.0 - p
    return np.minimum(p, 1.0 - p)


def _write_split(q: float, cost_model: SngCostModel) -> WriteEnergySplit:
    """AP->P write energies at switch probability q, cached per model.

    q is capped at WRITE_PROBABILITY_CAP before it sizes the pulse; q = 0
    needs no pulse and costs nothing.
    """
    q_c = min(q, WRITE_PROBABILITY_CAP)
    cache = cost_model._write_energy_cache
    if q_c not in cache:
        model = cost_model.switching
        t_w = pulse_width_for_probability(q_c, SwitchDirection.AP_TO_P, model)
        cache[q_c] = write_energy_split(t_w, SwitchDirection.AP_TO_P, model)
    return cache[q_c]


def uniform16(rng: np.random.Generator, rows: tuple, n: int) -> np.ndarray:
    """16-bit uniforms of shape rows + (n,) from raw generator words.

    Each row consumes ceil(n/4) words of `rng.bit_generator.random_raw`,
    read as little-endian uint16 with the first n kept, so a block of rows
    equals one call per row made in order.
    """
    words = rng.bit_generator.random_raw(rows + (-(-n // 4),))
    return words.astype("<u8", copy=False).view("<u2")[..., :n]


def write_thresholds(p):
    """Quantized write thresholds and inversions for a float or array of p.

    Returns (threshold, flip), each of p's shape: threshold is
    c = rint(min(p, 1 - p) * 2**16) as uint16, at most 2**15, and flip is
    p >= 0.5.  A cycle with 16-bit uniform u delivers (u < threshold) ^ flip,
    so p = 0 and p = 1 give constant streams.  This is the BMS map, and
    either kind delivers its bits; the kind sets only which writes switch
    (`generate_stream`).
    """
    p = np.asarray(p, dtype=float)
    c = np.rint(write_probability(p, SngKind.BMS) * THRESHOLD_ONE)
    return c.astype(np.uint16), p >= 0.5


def sng_bits(p, n: int, rng: np.random.Generator) -> np.ndarray:
    """Delivered bits of n generator cycles at value p, as uint8.

    p is a float or an array of values; the result has shape
    p.shape + (n,).  Each row compares n 16-bit uniforms, drawn by
    `uniform16` from ceil(n/4) raw 64-bit words, with the row's quantized
    threshold from `write_thresholds`, and inverts where p >= 1/2.  The
    rows are drawn in C order, so row i holds the bits that a call at p[i]
    alone would draw next, for any n.  p is not validated here: this is
    the stream path's hot loop, and its callers check p.
    """
    threshold, flip = write_thresholds(p)
    below = uniform16(rng, threshold.shape, n) < threshold[..., None]
    return (below ^ flip[..., None]).view(np.uint8)


def generate_stream(p: float, n: int, kind: SngKind, seed,
                    cost_model: SngCostModel) -> tuple[np.ndarray, float]:
    """Generate n bits of value p and the total energy spent doing so.

    Returns (bits, energy): bits, the (n,) uint8 array of `sng_bits`, do
    not depend on kind, which sets only the switched writes.  The normal
    generator stores inverted bits, so its writes switch where a 0 is
    delivered; BMS inverts where p >= 1/2, so its writes switch where the
    bit differs from p >= 1/2.  So the switched fraction follows the write
    probability quantized to 2**-16, within 5 binomial standard errors
    over 2**20 cycles in the tests.  Each outcome is priced at the
    unquantized write probability.  Deterministic given the seed.
    """
    _check_p(p)
    if not _is_count(n):
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    if not (_is_seed(seed) or (isinstance(seed, tuple) and seed
                               and all(map(_is_seed, seed)))):
        raise ValueError(f"seed must be a non-negative integer or a tuple of "
                         f"them, got {seed!r}")
    split = _write_split(write_probability(p, kind), cost_model)
    bits = sng_bits(p, n, np.random.default_rng(seed))
    switched = bits != (kind is SngKind.NORMAL or p >= 0.5)
    n_switched = int(switched.sum())
    # Reset precedes every bit whose previous write switched the device;
    # the device starts in the reset state, so bit 0 never needs one.
    n_resets = int(switched[:-1].sum())
    energy = (n_resets * cost_model.reset_energy
              + n_switched * split.switched
              + (n - n_switched) * split.unswitched
              + n * cost_model.read_energy)
    if kind is SngKind.BMS:
        energy += n * cost_model.mux_inv_energy
    return bits, energy


def energy_per_bit(p: float, kind: SngKind, cost_model: SngCostModel) -> float:
    """Closed-form expected energy per generated bit at stream value p."""
    _check_p(p)
    q = write_probability(p, kind)
    e = q * cost_model.reset_energy + cost_model.read_energy
    e += _write_split(q, cost_model).expected
    if kind is SngKind.BMS:
        e += cost_model.mux_inv_energy
    return e


def bit_period(kind: SngKind, cost_model: SngCostModel) -> float:
    _check_kind(kind)
    if kind is SngKind.NORMAL:
        return cost_model.bit_period_normal
    return cost_model.bit_period_bms
