"""Tests for the normal and biased MTJ stochastic number generators."""

import dataclasses
import re

import numpy as np
import pytest

from mtjsc.device import (
    SwitchDirection,
    expected_write_energy,
    pulse_width_for_probability,
    write_energy_split,
)
from mtjsc.sng import (
    WRITE_PROBABILITY_CAP,
    SngKind,
    bit_period,
    build_cost_model,
    energy_per_bit,
    generate_stream,
    sng_bits,
    write_probability,
    write_thresholds,
)

NORMAL = SngKind.NORMAL
BMS = SngKind.BMS


@pytest.fixture(scope="module")
def cost_model():
    return build_cost_model()


def reference_uniforms(n, rng):
    """n 16-bit uniforms as Python ints: word k of the generator's raw
    output gives the uniforms 4k..4k+3, from its low bits up."""
    words = rng.bit_generator.random_raw(-(-n // 4))
    return [(int(word) >> (16 * k)) & 0xFFFF
            for word in words for k in range(4)][:n]


def reference_bits(p, n, rng):
    """n delivered bits at value p, one Python int at a time: a bit is
    (u < round(min(p, 1 - p) * 2**16)) XOR (p >= 1/2)."""
    p = float(p)
    c = round(min(p, 1.0 - p) * 2**16)
    return np.array([(u < c) != (p >= 0.5) for u in reference_uniforms(n, rng)])


def reference_switched(p, n, kind, rng):
    """n switched-write flags at value p: BMS writes min(p, 1 - p), so its
    write switches where u < round(min(p, 1 - p) * 2**16), the delivered
    bit XOR (p >= 1/2); the normal generator stores the inverted delivered
    bit, so its write switches where a 0 is delivered."""
    bits = reference_bits(p, n, rng)
    return bits ^ (p >= 0.5) if kind is BMS else ~bits


class TestBitPeriod:
    def test_table_values(self, cost_model):
        assert bit_period(NORMAL, cost_model) == pytest.approx(9.73e-9, abs=5e-12)
        assert bit_period(BMS, cost_model) == pytest.approx(7.82e-9, abs=5e-12)

    def test_additive_components(self, cost_model):
        model = cost_model.switching
        params = model.params
        t999 = pulse_width_for_probability(0.999, SwitchDirection.AP_TO_P, model)
        t50 = pulse_width_for_probability(0.5, SwitchDirection.AP_TO_P, model)
        assert bit_period(NORMAL, cost_model) == params.t_reset + t999 + params.t_read
        assert bit_period(BMS, cost_model) == params.t_reset + t50 + params.t_read


class TestWriteProbability:
    def test_normal_complements(self):
        assert write_probability(0.7, NORMAL) == pytest.approx(0.3)
        assert write_probability(0.0, NORMAL) == 1.0

    def test_bms_takes_smaller(self):
        assert write_probability(0.3, BMS) == pytest.approx(0.3)
        assert write_probability(0.7, BMS) == pytest.approx(0.3)
        assert write_probability(0.5, BMS) == 0.5

    def test_arrays_map_like_scalars(self):
        p = np.linspace(0.0, 1.0, 41)
        for kind in (NORMAL, BMS):
            assert np.array_equal(write_probability(p, kind),
                                  [write_probability(v, kind) for v in p])

    @pytest.mark.parametrize("kind", ["normal", None])
    def test_every_kind_taker_refuses_a_non_kind(self, cost_model, kind):
        """A kind that is not a SngKind is refused by name, not priced as
        BMS."""
        calls = (lambda: write_probability(0.3, kind),
                 lambda: generate_stream(0.3, 8, kind, 0, cost_model),
                 lambda: energy_per_bit(0.3, kind, cost_model),
                 lambda: bit_period(kind, cost_model))
        for call in calls:
            with pytest.raises(TypeError, match=re.escape(
                    f"kind must be a SngKind, got {kind!r}")):
                call()


class TestGenerateStream:
    def test_certain_bit(self, cost_model):
        for kind in (NORMAL, BMS):
            stream, energy = generate_stream(1.0, 8, kind, 7, cost_model)
            assert stream.tolist() == [1] * 8
            assert energy > 0.0

    def test_normal_mean(self, cost_model):
        stream, _ = generate_stream(0.7, 10_000, NORMAL, 123, cost_model)
        assert np.mean(stream) == pytest.approx(0.7, abs=0.015)

    def test_bms_inverts_low_values(self, cost_model):
        stream, _ = generate_stream(0.3, 10_000, BMS, 123, cost_model)
        assert np.mean(stream) == pytest.approx(0.3, abs=0.015)
        # internally the device generated 0.7, so the cost matches p = 0.7
        assert abs(energy_per_bit(0.3, BMS, cost_model)
                   - energy_per_bit(0.7, BMS, cost_model)) < 1e-18

    def test_deterministic_given_seed(self, cost_model):
        s1, e1 = generate_stream(0.42, 4096, BMS, 99, cost_model)
        s2, e2 = generate_stream(0.42, 4096, BMS, 99, cost_model)
        assert np.array_equal(s1, s2)
        assert e1 == e2

    def test_unbiased_over_seeds(self, cost_model):
        """|mean - p| within the 3-sigma binomial bound on >= 99% of trials."""
        n = 2000
        rng = np.random.default_rng(2024)
        failures = 0
        trials = 1000
        for trial in range(trials):
            p = rng.uniform(0.05, 0.95)
            kind = NORMAL if trial % 2 else BMS
            stream, _ = generate_stream(p, n, kind, 10_000 + trial, cost_model)
            bound = 3.0 * np.sqrt(p * (1.0 - p) / n)
            if abs(np.mean(stream) - p) > bound:
                failures += 1
        assert failures <= 0.01 * trials + 2

    def test_monte_carlo_energy_matches_closed_form(self, cost_model):
        n = 100_000
        for p in (0.2, 0.5, 0.9):
            for kind in (NORMAL, BMS):
                _, energy = generate_stream(p, n, kind, 5, cost_model)
                expected = energy_per_bit(p, kind, cost_model)
                assert energy / n == pytest.approx(expected, rel=0.02)

    def test_input_validation(self, cost_model):
        with pytest.raises(ValueError):
            generate_stream(1.5, 8, NORMAL, 0, cost_model)
        with pytest.raises(ValueError):
            generate_stream(0.5, 0, NORMAL, 0, cost_model)

    @pytest.mark.parametrize("n", [0, -4, 2.5, "8", True, None])
    def test_bad_length_named(self, cost_model, n):
        with pytest.raises(ValueError, match=r"n must be an integer >= 1, "
                                             rf"got {re.escape(repr(n))}$"):
            generate_stream(0.5, n, NORMAL, 0, cost_model)


    @pytest.mark.parametrize("seed", [None, True, -1, 1.5, "1", [1, 2], (),
                                      (1, -1), (1, True)])
    def test_bad_seed_named(self, cost_model, seed):
        """A seed SeedSequence would take otherwise (None as fresh entropy,
        True as 1) is refused like the rest, by value."""
        with pytest.raises(ValueError, match=rf"^seed must be a non-negative "
                                             rf"integer or a tuple of them, "
                                             rf"got {re.escape(repr(seed))}$"):
            generate_stream(0.5, 8, NORMAL, seed, cost_model)

    @pytest.mark.parametrize("seed", [3, np.uint8(3), (3, 1), (np.int64(3),)])
    def test_seed_is_the_generator_seed(self, cost_model, seed):
        bits, _ = generate_stream(0.3, 64, BMS, seed, cost_model)
        expected = sng_bits(0.3, 64, np.random.default_rng(seed))
        assert np.array_equal(bits, expected)


class TestEnergyPerBit:
    @pytest.mark.parametrize("p", [-0.5, 1.5, float("nan")])
    def test_rejects_p_outside_unit_interval(self, cost_model, p):
        with pytest.raises(ValueError, match=rf"p must be in \[0, 1\], got {p}"):
            energy_per_bit(p, BMS, cost_model)
        with pytest.raises(ValueError, match=rf"p must be in \[0, 1\], got {p}"):
            generate_stream(p, 8, BMS, 0, cost_model)

    @pytest.mark.parametrize("p", [True, np.array(0.5), np.array([0.5]),
                                   "0.5", None],
                             ids=["bool", "0-d", "1-elem", "str", "None"])
    def test_rejects_p_that_is_not_one_real(self, cost_model, p):
        message = rf"p must be a real number, got {re.escape(repr(p))}$"
        with pytest.raises(TypeError, match=message):
            energy_per_bit(p, BMS, cost_model)
        with pytest.raises(TypeError, match=message):
            generate_stream(p, 8, BMS, 0, cost_model)

    def test_bms_symmetry_exact(self, cost_model):
        for p in np.linspace(0.0, 1.0, 101):
            diff = abs(energy_per_bit(p, BMS, cost_model)
                       - energy_per_bit(1.0 - p, BMS, cost_model))
            assert diff < 1e-18

    def test_bms_bounded_by_normal_plus_mux(self, cost_model):
        for p in np.linspace(0.0, 1.0, 101):
            assert energy_per_bit(p, BMS, cost_model) <= \
                energy_per_bit(p, NORMAL, cost_model) + cost_model.mux_inv_energy + 1e-24

    def test_cheap_at_extremes(self, cost_model):
        for kind in (NORMAL, BMS):
            mid = energy_per_bit(0.5, kind, cost_model)
            assert energy_per_bit(1.0, kind, cost_model) < mid
        assert energy_per_bit(0.0, BMS, cost_model) < energy_per_bit(0.5, BMS, cost_model)


class TestSharedPaths:
    """The one bit draw and the one energy split, pinned with exact equality."""

    P_GRID = np.linspace(0.0, 1.0, 41)

    def test_energy_per_bit_from_device(self, cost_model):
        model = cost_model.switching
        for kind in (NORMAL, BMS):
            for p in self.P_GRID:
                q = write_probability(p, kind)
                t_w = pulse_width_for_probability(
                    min(q, WRITE_PROBABILITY_CAP), SwitchDirection.AP_TO_P, model)
                expected = q * cost_model.reset_energy + cost_model.read_energy
                expected += expected_write_energy(
                    t_w, SwitchDirection.AP_TO_P, model)
                if kind is BMS:
                    expected += cost_model.mux_inv_energy
                assert energy_per_bit(p, kind, cost_model) == expected

    @pytest.mark.parametrize("name", ["reset_energy", "read_energy",
                                      "mux_inv_energy", "bit_period_normal",
                                      "bit_period_bms"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), "1e-15",
                                       True, None])
    def test_cost_model_rejects_non_finite(self, cost_model, name, value):
        """A value that is not finite, or not a real number at all, is named."""
        reason = "finite" if isinstance(value, float) else "a real number"
        with pytest.raises(ValueError,
                           match=f"{name} must be {reason}, got {value!r}"):
            dataclasses.replace(cost_model, **{name: value})

    @pytest.mark.parametrize("name", ["reset_energy", "read_energy",
                                      "mux_inv_energy", "bit_period_normal",
                                      "bit_period_bms"])
    def test_cost_model_rejects_negative(self, cost_model, name):
        with pytest.raises(ValueError, match=rf"^{name} must be nonnegative, "
                                             rf"got -1e-15$"):
            dataclasses.replace(cost_model, **{name: -1e-15})

    def test_cost_model_needs_the_shorter_bms_period(self, cost_model):
        t = cost_model.bit_period_normal
        with pytest.raises(ValueError, match=rf"^BMS bit period {t} s must be "
                                             rf"shorter than the normal one, "
                                             rf"{t} s$"):
            dataclasses.replace(cost_model, bit_period_bms=t)

    def test_cache_not_part_of_equality(self):
        warm, cold = build_cost_model(), build_cost_model()
        energy_per_bit(0.3, BMS, warm)
        assert warm._write_energy_cache and not cold._write_energy_cache
        assert warm == cold
        assert repr(warm) == repr(cold)

    def test_generate_stream_bits_are_the_shared_draw(self, cost_model):
        for kind in (NORMAL, BMS):
            for p in (0.0, 0.2, 0.5, 0.8, 1.0):
                stream, _ = generate_stream(p, 512, kind, 11, cost_model)
                bits = sng_bits(p, 512, np.random.default_rng(11))
                assert np.array_equal(stream, bits)

    def test_bit_mapping(self):
        """Below p = 1/2 a bit is u < c; from p = 1/2 on it is inverted."""
        for p in (0.2, 0.5 - 2**-18, 0.5, 0.8):
            bits = sng_bits(p, 256, np.random.default_rng(3))
            ref = reference_bits(p, 256, np.random.default_rng(3))
            assert bits.dtype == np.uint8
            assert np.array_equal(bits.astype(bool), ref)

    @pytest.mark.parametrize("kind", [NORMAL, BMS])
    def test_array_p_matches_per_p_calls(self, kind):
        """One call on an array of p equals one per-row reference draw per
        p, in order, and each row's writes switch where the reference
        switches under either kind: where the delivered bit differs from
        the bit the kind stores."""
        ps = np.concatenate([[0.0, 0.5, 1.0, 0.25, 0.75],
                             np.random.default_rng(5).uniform(0, 1, 7)])
        for shape in ((12,), (3, 4)):
            bits = sng_bits(ps.reshape(shape), 64, np.random.default_rng(9))
            assert bits.shape == shape + (64,)
            rng = np.random.default_rng(9)
            for p, row in zip(ps, bits.reshape(-1, 64)):
                state = rng.bit_generator.state
                assert np.array_equal(row.astype(bool),
                                      reference_bits(p, 64, rng))
                rng.bit_generator.state = state
                stored = kind is NORMAL or p >= 0.5
                assert np.array_equal(row != stored,
                                      reference_switched(p, 64, kind, rng))

    @pytest.mark.parametrize("n", [*range(1, 10), 128])
    @pytest.mark.parametrize("kind", [NORMAL, BMS])
    def test_block_rows_equal_per_row_calls(self, cost_model, kind, n):
        """Each row of a block draw equals a scalar call made next, and
        `generate_stream` under either kind delivers a fresh scalar call's
        bits, for lengths that end mid-word and on a word boundary."""
        ps = np.random.default_rng(n).uniform(0, 1, 5)
        bits = sng_bits(ps, n, np.random.default_rng(4))
        rng = np.random.default_rng(4)
        for p, row in zip(ps, bits):
            assert np.array_equal(row, sng_bits(p, n, rng))
            stream, _ = generate_stream(p, n, kind, 4, cost_model)
            assert np.array_equal(stream, sng_bits(p, n,
                                                   np.random.default_rng(4)))

    @pytest.mark.parametrize("kind", [NORMAL, BMS])
    def test_certain_write_probabilities_are_constant(self, cost_model, kind):
        """p = 0 and p = 1 (weights of -1 and +1) give constant streams
        under either kind; `test_generate_stream_energy_from_split` prices
        their writes, all switched where q = 1 and none where q = 0."""
        for p in (0.0, 1.0):
            bits, _ = generate_stream(p, 4096, kind, 2, cost_model)
            assert np.array_equal(bits, np.full(4096, p, dtype=np.uint8))

    def test_thresholds_quantize_to_2_16(self):
        """c = rint(min(p, 1 - p) * 2**16), at most 2**15, and the bit is
        inverted from p = 1/2 on."""
        ps = np.array([0.0, 1.0, 0.5, 0.75, 0.2, 3 / 2**17, 5 / 2**17, 1 / 3,
                       0.5 - 2**-18])
        threshold, flip = write_thresholds(ps)
        # min(p, 1 - p): 0, 0, 1/2, 1/4, 0.2, 1.5/2**16 and 2.5/2**16 (ties,
        # both to the even 2), 1/3 and 1/2 - 2**-18 (to 2**15)
        assert threshold.dtype == np.uint16
        assert threshold.tolist() == [0, 0, 2**15, 2**14, 13107, 2, 2, 21845,
                                      2**15]
        assert np.array_equal(flip, ps >= 0.5)

    # codes 0, 1, 2**15, 2**16 - 1 and 2**16 of p, and p = 1/2 - 2**-18,
    # where c rounds up to 2**15 below p = 1/2
    SWITCH_PS = (0.0, 2**-16, 0.5, 1 - 2**-16, 1.0, 0.5 - 2**-18)

    @pytest.mark.parametrize("kind", [NORMAL, BMS])
    def test_switch_frequency_is_quantized_q(self, cost_model, kind):
        """Over 2**20 cycles the switch frequency matches the write
        probability quantized to 2**-16, round(q * 2**16) / 2**16.

        The switched flags are `generate_stream`'s bits read by the kind's
        rule: the normal generator switches where a 0 is delivered, BMS
        where the bit differs from p >= 1/2.  Margin: 5 binomial standard
        errors at 2**20 cycles, a two-sided false-failure chance below
        1e-6 per p; a certain q must match exactly.
        """
        n = 1 << 20
        for p in (*self.SWITCH_PS, 0.125, 0.49, 0.51, 0.75, 0.99, 0.9999):
            bits, _ = generate_stream(p, n, kind, 21, cost_model)
            switched = bits != (kind is NORMAL or p >= 0.5)
            q = round(write_probability(p, kind) * 2**16) / 2**16
            sigma = np.sqrt(q * (1 - q) / n)
            assert abs(switched.mean() - q) <= 5 * sigma, p

    def test_generate_stream_energy_from_split(self, cost_model):
        """The energy prices the reference switched flags exactly: one
        reset after each switched write but the last, and each write at
        its outcome's energy."""
        model = cost_model.switching
        n = 300
        for kind in (NORMAL, BMS):
            for p in (0.35, 0.65, *self.SWITCH_PS):
                q = write_probability(p, kind)
                t_w = pulse_width_for_probability(
                    min(q, WRITE_PROBABILITY_CAP), SwitchDirection.AP_TO_P,
                    model)
                split = write_energy_split(t_w, SwitchDirection.AP_TO_P, model)
                switched = reference_switched(p, n, kind,
                                              np.random.default_rng(8))
                k = int(switched.sum())
                expected = (int(switched[:-1].sum()) * cost_model.reset_energy
                            + k * split.switched + (n - k) * split.unswitched
                            + n * cost_model.read_energy)
                if kind is BMS:
                    expected += n * cost_model.mux_inv_energy
                _, energy = generate_stream(p, n, kind, 8, cost_model)
                assert energy == expected, (kind, p)
