"""Tests for stochastic/integral stream arithmetic and the FSM tanh."""

import math

import numpy as np
import pytest

from mtjsc.streams import (
    Format,
    IntegralStream,
    StochasticStream,
    bernoulli_stream,
    default_tanh_states,
    fsm_tanh,
    fsm_tanh_rows,
    isc_add,
    isc_encode,
    isc_multiply,
    sc_multiply,
    scaled_add,
    to_integral,
    value_of,
)

UNI = Format.UNIPOLAR
BIP = Format.BIPOLAR


class TestValueOf:
    def test_reference_stream_unipolar(self):
        assert value_of(StochasticStream.from_text("0100101000")) == pytest.approx(0.3)

    def test_reference_stream_bipolar(self):
        s = StochasticStream.from_text("0100101000", BIP)
        assert value_of(s) == pytest.approx(-0.4)

    def test_all_ones(self):
        assert value_of(StochasticStream.from_text("11111111")) == 1.0

    def test_integral_values(self):
        levels = IntegralStream(np.array([1, 1, 2, 1, 1, 1, 2, 1]), 2)
        assert value_of(levels) == pytest.approx(1.25)
        bip = IntegralStream(np.array([1, 1, 2, 1, 1, 1, 2, 1]), 2, BIP)
        assert value_of(bip) == pytest.approx(2 * 1.25 - 2)

    def test_exact_rationals(self):
        # counts over n divide exactly; no float drift for these
        s = StochasticStream(np.array([1, 0, 1, 0], dtype=np.uint8))
        assert value_of(s) == 0.5


class TestScMultiply:
    def test_and_identity(self):
        x = bernoulli_stream(0.37, 256, seed=1)
        ones = StochasticStream(np.ones(256, dtype=np.uint8))
        assert np.array_equal(sc_multiply(x, ones).bits, x.bits)

    def test_xnor_identity(self):
        x = bernoulli_stream(0.37, 256, seed=1, fmt=BIP)
        ones = StochasticStream(np.ones(256, dtype=np.uint8), BIP)
        assert np.array_equal(sc_multiply(x, ones).bits, x.bits)

    def test_independent_unipolar_product(self):
        n = 10_000
        x = bernoulli_stream(0.5, n, seed=11)
        y = bernoulli_stream(0.5, n, seed=22)
        assert value_of(sc_multiply(x, y)) == pytest.approx(0.25, abs=0.015)

    def test_independent_bipolar_product(self):
        n = 10_000
        x = bernoulli_stream((0.6 + 1) / 2, n, seed=11, fmt=BIP)
        y = bernoulli_stream((-0.5 + 1) / 2, n, seed=22, fmt=BIP)
        assert value_of(sc_multiply(x, y)) == pytest.approx(-0.3, abs=0.03)

    def test_product_statistics(self):
        """|value - product| <= 3/sqrt(n) on average over seeded trials."""
        n = 4096
        rng = np.random.default_rng(7)
        errs = []
        for trial in range(120):
            px, py = rng.uniform(0.1, 0.9, size=2)
            x = bernoulli_stream(px, n, seed=3000 + 2 * trial)
            y = bernoulli_stream(py, n, seed=3001 + 2 * trial)
            errs.append(abs(value_of(sc_multiply(x, y)) - px * py))
        assert np.mean(errs) <= 3.0 / math.sqrt(n)

    def test_mismatch_rejected(self):
        x = bernoulli_stream(0.5, 64, seed=1)
        with pytest.raises(ValueError):
            sc_multiply(x, bernoulli_stream(0.5, 128, seed=2))
        with pytest.raises(ValueError):
            sc_multiply(x, bernoulli_stream(0.5, 64, seed=2, fmt=BIP))


class TestScaledAdd:
    def test_select_all_ones_returns_a(self):
        a = bernoulli_stream(0.8, 128, seed=1)
        b = bernoulli_stream(0.2, 128, seed=2)
        s = StochasticStream(np.ones(128, dtype=np.uint8))
        assert np.array_equal(scaled_add(a, b, s).bits, a.bits)

    def test_equal_inputs(self):
        a = bernoulli_stream(0.6, 128, seed=1)
        s = bernoulli_stream(0.5, 128, seed=3)
        assert np.array_equal(scaled_add(a, a, s).bits, a.bits)

    def test_halved_sum(self):
        n = 10_000
        a = bernoulli_stream(0.8, n, seed=1)
        b = bernoulli_stream(0.2, n, seed=2)
        s = bernoulli_stream(0.5, n, seed=3)
        assert value_of(scaled_add(a, b, s)) == pytest.approx(0.5, abs=0.015)

    def test_length_mismatch(self):
        a = bernoulli_stream(0.8, 64, seed=1)
        b = bernoulli_stream(0.2, 64, seed=2)
        with pytest.raises(ValueError):
            scaled_add(a, b, bernoulli_stream(0.5, 32, seed=3))


class TestIscEncode:
    def test_zero(self):
        enc = isc_encode(0.0, 2, 64, seed=1)
        assert np.all(enc.levels == 0)

    def test_saturated(self):
        enc = isc_encode(2.0, 2, 64, seed=1)
        assert np.all(enc.levels == 2)

    def test_mean_converges(self):
        enc = isc_encode(1.25, 2, 50_000, seed=9)
        assert value_of(enc) == pytest.approx(1.25, abs=0.02)

    def test_bipolar_range(self):
        enc = isc_encode(-1.5, 2, 50_000, seed=9, fmt=BIP)
        assert value_of(enc) == pytest.approx(-1.5, abs=0.02)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            isc_encode(2.5, 2, 64, seed=1)
        with pytest.raises(ValueError):
            isc_encode(-0.5, 2, 64, seed=1)


class TestIscAdd:
    # worked example: 0.75 + 0.5 = 1.25 from the quoted unit streams
    def test_bitwise_sum_example(self):
        a = to_integral(StochasticStream.from_text("10110111"))
        b = to_integral(StochasticStream.from_text("01101010"))
        out = isc_add(a, b)
        assert out.m == 2
        assert np.array_equal(out.levels, [1, 1, 2, 1, 1, 1, 2, 1])
        assert value_of(out) == pytest.approx(1.25)

    def test_zero_identity(self):
        a = IntegralStream(np.array([1, 0, 2, 1]), 2)
        zero = IntegralStream(np.zeros(4, dtype=np.int32), 1)
        out = isc_add(a, zero)
        assert np.array_equal(out.levels, a.levels)

    def test_elementwise(self):
        a = IntegralStream(np.array([1, 0, 2, 1]), 2)
        b = IntegralStream(np.array([0, 1, 1, 1]), 1)
        assert np.array_equal(isc_add(a, b).levels, [1, 1, 3, 2])

    def test_value_additivity_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = IntegralStream(rng.integers(0, 4, size=40), 3)
            b = IntegralStream(rng.integers(0, 3, size=40), 2)
            assert value_of(isc_add(a, b)) == pytest.approx(
                value_of(a) + value_of(b), abs=1e-12)


class TestIscMultiply:
    def test_zero_annihilates(self):
        a = IntegralStream(np.array([1, 2, 0, 1]), 2)
        zero = StochasticStream(np.zeros(4, dtype=np.uint8))
        assert np.all(isc_multiply(a, zero).levels == 0)

    def test_worked_example(self):
        """1.25 * 1.5 = 1.875 on fixed level sequences with m1 = m2 = 2."""
        a = IntegralStream(np.array([1, 1, 2, 1, 1, 1, 2, 1]), 2)
        b = IntegralStream(np.array([2, 2, 2, 1, 1, 2, 1, 1]), 2)
        assert value_of(a) == pytest.approx(1.25)
        assert value_of(b) == pytest.approx(1.5)
        out = isc_multiply(a, b)
        assert out.m == 4
        assert np.array_equal(out.levels, [2, 2, 4, 1, 1, 2, 2, 1])
        assert value_of(out) == pytest.approx(1.875)

    def test_independent_product(self):
        n = 10_000
        a = isc_encode(1.25, 2, n, seed=31)
        x = bernoulli_stream(0.5, n, seed=32)
        assert value_of(isc_multiply(a, x)) == pytest.approx(0.625, abs=0.03)

    def test_bipolar_level_mapping(self):
        a = IntegralStream(np.array([0, 1, 2]), 2, BIP)   # signed -2, 0, +2
        b = IntegralStream(np.array([1, 0, 1]), 1, BIP)   # signed +1, -1, +1
        out = isc_multiply(a, b)
        assert out.m == 2
        assert np.array_equal(2 * out.levels - out.m, [-2, 0, 2])


class TestFsmTanh:
    def run_point(self, s, m, n=4096, seeds=(0, 1, 2, 3)):
        k = default_tanh_states(m)
        vals = [value_of(fsm_tanh(isc_encode(s, m, n, seed=sd, fmt=BIP), k))
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
        a = isc_encode(0.5, 2, 64, seed=1, fmt=BIP)
        with pytest.raises(ValueError):
            fsm_tanh(a, 5)
        with pytest.raises(ValueError):
            fsm_tanh(isc_encode(0.5, 2, 64, seed=1), 4)

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
        n_states = np.broadcast_to(n_states, steps.shape[:1])
        out = fsm_tanh_rows(steps, n_states)
        assert out.shape == steps.shape and out.dtype == np.uint8
        for row, k, bits in zip(steps, n_states, out):
            assert bits.tolist() == fsm_reference(row, int(k))

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 257, 1024])
    def test_random_levels(self, n):
        rng = np.random.default_rng(n)
        for m in (1, 4, 25):
            levels = rng.integers(0, m + 1, (6, n))
            for k in (2, 4, 10, 2 * m + 2):
                self.check(2 * levels - m, k)

    def test_two_states(self):
        rng = np.random.default_rng(1)
        self.check(rng.integers(-3, 4, (5, 300)), 2)

    def test_steps_wider_than_state_range(self):
        rng = np.random.default_rng(2)
        self.check(rng.integers(-40, 41, (4, 200)), 6)
        # steps this large leave the int32 range of the scan's prefix sums
        self.check(rng.integers(-2**40, 2**40, (3, 100)), 8)

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
        a = isc_encode(0.4, 3, 500, seed=4, fmt=BIP)
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
    def test_text_round_trip(self):
        s = bernoulli_stream(0.4, 64, seed=8)
        assert np.array_equal(StochasticStream.from_text(s.to_text()).bits, s.bits)

    def test_reinterpret_format(self):
        s = bernoulli_stream(0.75, 64, seed=8)
        b = s.with_format(BIP)
        assert np.array_equal(b.bits, s.bits)
        assert value_of(b) == pytest.approx(2 * value_of(s) - 1)

    def test_rejects_empty_and_nonbinary(self):
        with pytest.raises(ValueError):
            StochasticStream(np.array([], dtype=np.uint8))
        with pytest.raises(ValueError):
            StochasticStream(np.array([0, 2], dtype=np.uint8))
        with pytest.raises(ValueError):
            IntegralStream(np.array([1, 3]), 2)
