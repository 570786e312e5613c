"""Tests for the stream types, their values and the FSM tanh."""

import math

import numpy as np
import pytest

from mtjsc.streams import (
    Format,
    IntegralStream,
    StochasticStream,
    default_tanh_states,
    fsm_tanh,
    fsm_tanh_rows,
    value_of,
)

UNI = Format.UNIPOLAR
BIP = Format.BIPOLAR


def equal_split(s, m, n, seed, fmt=UNI):
    """An integral stream of value s: the bitwise sum of m independent unit
    streams, each of value s / m."""
    unit = s / m
    p = unit if fmt is UNI else (unit + 1.0) / 2.0
    levels = (np.random.default_rng(seed).random((m, n)) < p).sum(axis=0)
    return IntegralStream(levels, m, fmt)


class TestValueOf:
    REFERENCE_BITS = np.array([0, 1, 0, 0, 1, 0, 1, 0, 0, 0])

    def test_reference_stream_unipolar(self):
        assert value_of(StochasticStream(self.REFERENCE_BITS)) == pytest.approx(0.3)

    def test_reference_stream_bipolar(self):
        s = StochasticStream(self.REFERENCE_BITS, BIP)
        assert value_of(s) == pytest.approx(-0.4)

    def test_all_ones(self):
        assert value_of(StochasticStream(np.ones(8))) == 1.0

    def test_integral_values(self):
        levels = IntegralStream(np.array([1, 1, 2, 1, 1, 1, 2, 1]), 2)
        assert value_of(levels) == pytest.approx(1.25)
        bip = IntegralStream(np.array([1, 1, 2, 1, 1, 1, 2, 1]), 2, BIP)
        assert value_of(bip) == pytest.approx(2 * 1.25 - 2)

    def test_exact_rationals(self):
        # counts over n divide exactly; no float drift for these
        s = StochasticStream(np.array([1, 0, 1, 0], dtype=np.uint8))
        assert value_of(s) == 0.5


class TestFsmTanh:
    def run_point(self, s, m, n=4096, seeds=(0, 1, 2, 3)):
        k = default_tanh_states(m)
        vals = [value_of(fsm_tanh(equal_split(s, m, n, seed=sd, fmt=BIP), k))
                for sd in seeds]
        return float(np.mean(vals))

    def test_zero_input(self):
        assert abs(self.run_point(0.0, 2)) <= 0.05

    def test_saturated_input(self):
        assert self.run_point(2.0, 2) == pytest.approx(1.0, abs=0.02)
        assert self.run_point(-2.0, 2) == pytest.approx(-1.0, abs=0.02)

    def test_unit_input_matches_tanh(self):
        assert self.run_point(1.0, 4) == pytest.approx(math.tanh(1.0), abs=0.05)

    def test_odd_symmetry(self):
        n = 16_384
        for s in (0.5, 1.0, 1.5):
            pos = self.run_point(s, 4, n=n)
            neg = self.run_point(-s, 4, n=n)
            assert pos + neg == pytest.approx(0.0, abs=0.04)

    def test_monotone_on_grid(self):
        vals = [self.run_point(s, 4, n=16_384, seeds=(0, 1))
                for s in np.arange(-2.0, 2.01, 0.5)]
        assert all(b > a - 0.02 for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_inputs(self):
        a = equal_split(0.5, 2, 64, seed=1, fmt=BIP)
        with pytest.raises(ValueError):
            fsm_tanh(a, 5)
        with pytest.raises(ValueError):
            fsm_tanh(equal_split(0.5, 2, 64, seed=1), 4)

    def test_default_states_even(self):
        for m in range(1, 9):
            k = default_tanh_states(m)
            assert k >= 2 and k % 2 == 0


def fsm_reference(steps, n_states):
    """The saturating counter, cycle by cycle, in Python integers."""
    top, half = n_states - 1, n_states // 2
    state, out = half, []
    for d in steps:
        state = min(max(state + int(d), 0), top)
        out.append(1 if state >= half else 0)
    return out


class TestFsmScan:
    """The doubling scan against the cycle-by-cycle counter, bit for bit."""

    def check(self, steps, n_states):
        steps = np.asarray(steps)
        before = steps.copy()
        n_states = np.broadcast_to(n_states, steps.shape[:1])
        out = fsm_tanh_rows(steps, n_states)
        assert out.shape == steps.shape and out.dtype == np.uint8
        assert np.array_equal(steps, before)   # the caller's steps are kept
        for row, k, bits in zip(steps, n_states, out):
            assert bits.tolist() == fsm_reference(row, int(k))

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 64, 255, 256, 257, 1024,
                                   16384])
    def test_random_levels(self, n):
        rng = np.random.default_rng(n)
        for m in (1, 4, 25):
            levels = rng.integers(0, m + 1, (6, n))
            for k in (2, 4, 10, 2 * m + 2):
                self.check(2 * levels - m, k)

    def test_no_rows(self):
        self.check(np.zeros((0, 300), dtype=np.int32), 4)
        self.check(np.zeros((0, 0), dtype=np.int64), np.zeros(0, dtype=int))

    def test_two_states(self):
        rng = np.random.default_rng(1)
        self.check(rng.integers(-3, 4, (5, 300)), 2)

    def test_steps_wider_than_state_range(self):
        rng = np.random.default_rng(2)
        self.check(rng.integers(-40, 41, (4, 200)), 6)
        # steps this large leave the int32 range of the scan's prefix sums
        self.check(rng.integers(-2**40, 2**40, (3, 100)), 8)
        # Every step fits int16, but after the first step, which is constant
        # on the state range, the composed maps keep lo < hi while their
        # offset passes 2**15, so a 16-bit scan would misplace the state.
        self.check(np.array([[32000] + [1] * 800]), 6000)

    def test_saturating_inputs(self):
        up = np.full((2, 100), 3)
        self.check(up, 8)
        self.check(-up, 8)
        flip = np.concatenate([np.full(60, 5), np.full(60, -5),
                               np.full(60, 1)])[None, :]
        self.check(flip, 12)

    def test_rows_with_different_state_counts(self):
        rng = np.random.default_rng(3)
        steps = rng.integers(-9, 10, (7, 513))
        self.check(steps, np.array([2, 4, 6, 10, 18, 40, 200]))

    def test_wrapper_matches_rows(self):
        a = equal_split(0.4, 3, 500, seed=4, fmt=BIP)
        out = fsm_tanh(a, 8)
        assert out.format is BIP
        assert out.bits.tolist() == fsm_reference(2 * a.levels - a.m, 8)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="even"):
            fsm_tanh_rows(np.zeros((2, 4), dtype=int), [4, 5])
        with pytest.raises(ValueError):
            fsm_tanh_rows(np.zeros(4, dtype=int), 4)
        with pytest.raises(ValueError):
            fsm_tanh_rows(np.zeros((1, 4)), 4)


class TestStreamBasics:
    def test_rejects_empty_and_nonbinary(self):
        with pytest.raises(ValueError):
            StochasticStream(np.array([], dtype=np.uint8))
        with pytest.raises(ValueError):
            StochasticStream(np.array([0, 2], dtype=np.uint8))
        with pytest.raises(ValueError):
            IntegralStream(np.array([1, 3]), 2)
