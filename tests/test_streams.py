"""Tests for the FSM tanh and its state counts."""

import math
import re

import numpy as np
import pytest

from mtjsc.streams import default_tanh_states, fsm_tanh


def equal_split(s, m, n, seed):
    """Steps 2 * level - m of an integral stream of bipolar value s: the
    bitwise sum of m independent unit streams, each of value s / m."""
    p = (s / m + 1.0) / 2.0
    levels = (np.random.default_rng(seed).random((m, n)) < p).sum(axis=0)
    return 2 * levels - m


class TestFsmTanh:
    def run_point(self, s, m, n=4096, seeds=(0, 1, 2, 3)):
        k = default_tanh_states(m)
        vals = [2 * fsm_tanh(equal_split(s, m, n, seed=sd)[None], k).mean() - 1
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
        out = fsm_tanh(steps, n_states)
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

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="even"):
            fsm_tanh(np.zeros((2, 4), dtype=int), [4, 5])
        with pytest.raises(ValueError, match="even"):
            fsm_tanh(equal_split(0.5, 2, 64, seed=1)[None], 5)
        with pytest.raises(ValueError):
            fsm_tanh(np.zeros(4, dtype=int), 4)
        with pytest.raises(ValueError):
            fsm_tanh(np.zeros((1, 4)), 4)

    @pytest.mark.parametrize("n_states, named",
                             [(4.5, "4.5"), ([4, 6.5], "6.5"),
                              (np.nan, "nan"), (1e300, "1e+300")])
    def test_non_integral_state_count_named(self, n_states, named):
        """A count is refused by value, not truncated or wrapped by the
        cast to int64."""
        with pytest.raises(ValueError, match=re.escape(
                f"whole and below 2**62, got {named}")):
            fsm_tanh(np.zeros((2, 4), dtype=int), n_states)

    def test_state_count_shape_named(self):
        named = re.escape("not shape (3,) for steps (2, 4)")
        with pytest.raises(ValueError, match=named):
            fsm_tanh(np.zeros((2, 4), dtype=int), [4, 6, 8])

