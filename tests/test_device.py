"""Tests for the MTJ switching model against its calibration anchors.

The coarse oracle is plain trapezoidal integration of the reference
density (`ref_density` below, times the model constant) on a fine uniform
grid.  `TestExactReference` gates the module's fixed quadrature rule
against a high-precision one (`quad_integral` below).
"""

import dataclasses
import math
import pickle
import re
import sys
import threading

import numpy as np
import pytest
from scipy.integrate import quad

from mtjsc import device
from mtjsc.device import (
    DEFAULT_MAX_PULSE,
    MtjParams,
    SwitchDirection,
    SwitchingModel,
    default_model,
    expected_write_energy,
    pulse_width_for_probability,
    switching_probability,
    write_energy_split,
)
from mtjsc.sng import (
    DEFAULT_MUX_INV_ENERGY,
    WRITE_PROBABILITY_CAP,
    SngKind,
    build_cost_model,
    energy_per_bit,
)

AP2P = SwitchDirection.AP_TO_P
P2AP = SwitchDirection.P_TO_AP


@pytest.fixture(scope="module")
def model():
    return default_model()


def ref_density(t, kappa, over, delta):
    phi = 0.5 * math.pi * math.exp(-kappa * t)
    s2 = math.sin(phi) ** 2
    return math.exp(-delta * s2) * over * s2


def ref_kappa_over(params, direction):
    over = params.current_density(direction) - params.jc0(direction)
    return params.spin_rate() * over, over


def trapezoid_integral(t_p, direction, model, moment=0, steps=10_000):
    """Trapezoid rule for the integral of t**moment times the calibrated
    reference density over [0, t_p]."""
    params = model.params
    kappa, over = ref_kappa_over(params, direction)
    ts = np.linspace(0.0, t_p, steps + 1)
    dens = np.array([t ** moment * ref_density(t, kappa, over, params.delta)
                     for t in ts])
    return model.constant(direction) * np.trapezoid(dens, ts)


def switch_time(t_p, direction, model):
    """The unconditional expected switch time E[t_sw] that
    `write_energy_split` prices: the model constant times the knot table's
    first moment over [0, t_p]."""
    _, moment = device._integrators(model.params, direction).moments(t_p)
    return model.constant(direction) * moment


# High-precision reference, independent of the module's fixed rule:
# scipy's adaptive quadrature on each knot piece at a relative tolerance of
# 1e-13, the pieces summed exactly.  Against 30-digit mpmath it is within
# 4e-14.


def quad_integral(params, t_end, direction, moment=0):
    """Integral of t**moment times the uncalibrated density over [0, t_end]."""
    kappa, over = ref_kappa_over(params, direction)
    knots = [0.0] + [x / kappa for x in device._SPLIT_POINTS if x / kappa < t_end]
    knots.append(t_end)
    f = lambda t: t ** moment * ref_density(t, kappa, over, params.delta)
    return math.fsum(quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                     for lo, hi in zip(knots[:-1], knots[1:]))


def quad_probability(t_p, direction, model):
    raw = quad_integral(model.params, t_p, direction)
    return min(1.0, max(0.0, model.constant(direction) * raw))


def quad_write_energy(t_p, direction, model):
    params = model.params
    v = params.v_write
    i_start = v / params.start_resistance(direction)
    i_end = v / params.end_resistance(direction)
    p_sw = quad_probability(t_p, direction, model)
    e_t = model.constant(direction) * quad_integral(params, t_p, direction, 1)
    e_sw = v * (i_start * e_t + i_end * (t_p - e_t))
    return p_sw * e_sw + (1.0 - p_sw) * v * i_start * t_p


def quad_pulse_width(p, direction, model):
    """Bisection on the reference CDF, to the module's width tolerance."""
    lo, hi = 0.0, DEFAULT_MAX_PULSE
    assert quad_probability(hi, direction, model) >= p
    while hi - lo > 1e-6 * hi:
        mid = 0.5 * (lo + hi)
        if quad_probability(mid, direction, model) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def knot_grid(params, direction):
    """Every knot x/kappa, one ulp either side of it, 1e-15 s, 60 geometric
    points from 0.2 to 20 ns and the default maximum pulse, in increasing
    order."""
    kappa, _ = ref_kappa_over(params, direction)
    grid = [1e-15, DEFAULT_MAX_PULSE] + list(np.geomspace(0.2e-9, 20e-9, 60))
    for x in device._SPLIT_POINTS:
        t = x / kappa
        grid += [math.nextafter(t, 0.0), t, math.nextafter(t, math.inf)]
    return sorted(grid)


class TestSwitchingDensity:
    """The uncalibrated density that the knot table integrates."""

    def test_t0_is_maximal_angle_term(self, model):
        """At t = 0 the precession angle is pi/2 exactly."""
        params = model.params
        over = params.current_density(AP2P) - params.jc0(AP2P)
        density, _ = device._density(params, AP2P)
        assert density(0.0) == pytest.approx(math.exp(-params.delta) * over)

    def test_decays_to_zero(self, model):
        density, _ = device._density(model.params, AP2P)
        assert density(50e-9) < 1e-12 * density(2e-9)

    def test_nonnegative(self, model):
        density, _ = device._density(model.params, AP2P)
        for t in np.linspace(0, 10e-9, 200):
            assert density(t) >= 0.0

    def test_low_bias_rejected(self, model):
        low = dataclasses.replace(
            model, params=dataclasses.replace(model.params, v_write=0.2))
        with pytest.raises(ValueError, match="precessional"):
            switching_probability(1e-9, AP2P, low)

    def test_density_consistent_with_half_probability_anchor(self, model):
        """Integrating the reference density, times the fitted constant, up
        to 1.49 ns gives the 50% anchor."""
        integral = trapezoid_integral(1.49e-9, AP2P, model)
        assert integral == pytest.approx(0.50, abs=0.01)


class TestSwitchingProbability:
    def test_zero_pulse(self, model):
        assert switching_probability(0.0, AP2P, model) == 0.0

    def test_anchor_999(self, model):
        p = switching_probability(3.40e-9, AP2P, model)
        assert p == pytest.approx(0.999, abs=0.005)

    def test_anchor_50(self, model):
        p = switching_probability(1.49e-9, AP2P, model)
        assert p == pytest.approx(0.50, abs=0.01)

    def test_monotone_and_bounded(self, model):
        grid = np.linspace(0, 20e-9, 100)
        probs = [switching_probability(t, AP2P, model) for t in grid]
        assert all(b >= a - 1e-12 for a, b in zip(probs, probs[1:]))
        assert all(0.0 <= p <= 1.0 for p in probs)

    def test_matches_trapezoid_oracle(self, model):
        for t_p in (0.8e-9, 1.49e-9, 2.5e-9, 3.40e-9):
            oracle = trapezoid_integral(t_p, AP2P, model)
            got = switching_probability(t_p, AP2P, model)
            assert got == pytest.approx(oracle, rel=1e-3)


class TestExpectedSwitchTime:
    """E[t_sw] as `write_energy_split` prices it (`switch_time`)."""

    def test_zero_pulse(self, model):
        assert switch_time(0.0, AP2P, model) == 0.0

    def test_bounded_by_pulse_times_probability(self, model):
        for t_p in (0.5e-9, 1.49e-9, 3.40e-9, 8e-9):
            e_t = switch_time(t_p, AP2P, model)
            p = switching_probability(t_p, AP2P, model)
            assert 0.0 <= e_t <= t_p * p + 1e-18

    def test_matches_trapezoid_oracle(self, model):
        oracle = trapezoid_integral(3.40e-9, AP2P, model, moment=1)
        got = switch_time(3.40e-9, AP2P, model)
        assert got == pytest.approx(oracle, rel=1e-3)


class TestExpectedWriteEnergy:
    def test_zero_pulse(self, model):
        assert expected_write_energy(0.0, AP2P, model) == 0.0

    def test_ap2p_anchor_energy(self, model):
        t999 = pulse_width_for_probability(0.999, AP2P, model)
        e = expected_write_energy(t999, AP2P, model)
        assert e == pytest.approx(0.93e-12, rel=0.15)

    def test_p2ap_anchor_energy(self, model):
        t999 = pulse_width_for_probability(0.999, P2AP, model)
        e = expected_write_energy(t999, P2AP, model)
        assert e == pytest.approx(0.46e-12, rel=0.15)

    def test_monotone_in_pulse_width(self, model):
        for direction in (AP2P, P2AP):
            grid = np.linspace(0.1e-9, 8e-9, 40)
            energies = [expected_write_energy(t, direction, model)
                        for t in grid]
            assert all(b >= a - 1e-18 for a, b in zip(energies, energies[1:]))


class TestWriteEnergySplit:
    def test_zero_pulse(self, model):
        assert write_energy_split(0.0, AP2P, model) == (0.0, 0.0, 0.0)

    def test_negative_pulse_rejected(self, model):
        with pytest.raises(ValueError, match="nonnegative"):
            write_energy_split(-1e-9, AP2P, model)

    def test_outcome_energies(self, model):
        """One pass of the knot table gives what `switching_probability`
        and the table's first moment (`switch_time`) give apart, at the 70%
        width and on the knot grid."""
        params = model.params
        for direction in (AP2P, P2AP):
            v = params.v_write
            i_start = v / params.start_resistance(direction)
            i_end = v / params.end_resistance(direction)
            widths = [pulse_width_for_probability(0.7, direction, model)]
            for t_p in widths + knot_grid(params, direction):
                split = write_energy_split(t_p, direction, model)
                e_t = switch_time(t_p, direction, model)
                assert split.p_switch == switching_probability(
                    t_p, direction, model)
                assert split.switched == v * (i_start * e_t
                                              + i_end * (t_p - e_t))
                assert split.unswitched == v * i_start * t_p

    def test_expected_is_the_weighted_mean(self, model):
        for t_p in np.linspace(0.2e-9, 6e-9, 12):
            split = write_energy_split(t_p, AP2P, model)
            assert expected_write_energy(t_p, AP2P, model) == (
                split.p_switch * split.switched
                + (1.0 - split.p_switch) * split.unswitched)


class TestPulseWidthForProbability:
    def test_zero_probability(self, model):
        assert pulse_width_for_probability(0.0, AP2P, model) == 0.0

    def test_anchor_widths(self, model):
        t999 = pulse_width_for_probability(0.999, AP2P, model)
        assert t999 == pytest.approx(3.40e-9, rel=0.05)
        t50 = pulse_width_for_probability(0.5, AP2P, model)
        assert t50 == pytest.approx(1.49e-9, rel=0.05)

    def test_inverse_consistency(self, model):
        for p in np.arange(0.01, 1.0, 0.01):
            t = pulse_width_for_probability(p, AP2P, model)
            back = switching_probability(t, AP2P, model)
            assert back == pytest.approx(p, abs=1e-5)

    def test_unreachable_probability(self, model):
        """AP->P levels off at 0.999985 below DEFAULT_MAX_PULSE."""
        with pytest.raises(ValueError, match="not reachable below 20 ns"):
            pulse_width_for_probability(0.99999, AP2P, model)


class TestCalibration:
    def test_anchor_is_exact(self):
        model = default_model()
        p = switching_probability(3.40e-9, AP2P, model)
        assert p == pytest.approx(0.999, abs=1e-4)

    def test_idempotent(self):
        m1 = default_model()
        m2 = default_model(m1.params)
        assert m1 == m2

    def test_model_is_a_frozen_hashable_value(self, model):
        """Setting a field raises, and equal models, like the cost models
        built on them, compare and hash equal, so either can key a cache."""
        for name in ("ap_to_p", "p_to_ap"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(model, name, math.nan)
        copy = default_model(dataclasses.replace(model.params))
        assert copy == model and hash(copy) == hash(model)
        cost, cost_copy = build_cost_model(model), build_cost_model(copy)
        assert cost_copy == cost and hash(cost_copy) == hash(cost)

    def test_predicts_half_point(self):
        model = default_model()
        t50 = pulse_width_for_probability(0.5, AP2P, model)
        assert t50 == pytest.approx(1.49e-9, rel=0.05)

    def test_rejects_degenerate_anchor(self):
        with pytest.raises(ValueError, match="anchor probability .* got 1.0"):
            device._fit_constant(MtjParams(), (3.40e-9, 1.0, AP2P))

    def test_direction_rejects_degenerate_anchor(self):
        with pytest.raises(ValueError, match="anchor probability .* got 0.0"):
            device._fit_constant(MtjParams(), (3.40e-9, 0.0, P2AP))

    @pytest.mark.parametrize("value", [math.nan, 0.0, -1.0, math.inf,
                                       True, "1.0", None])
    @pytest.mark.parametrize("direction", [AP2P, P2AP])
    def test_model_refuses_bad_constant(self, direction, value):
        """A missing constant, or one that is not a finite positive number,
        is refused by direction and value: a NaN or zero AP->P constant gave
        probability 0, an infinite one a 9.9e-315 s pulse width, True was
        taken as 1, and a string or None failed on an unnamed comparison."""
        message = ("be finite and positive" if isinstance(value, float)
                   else "be a real number")
        other = {AP2P: P2AP, P2AP: AP2P}[direction].value
        with pytest.raises(TypeError, match="missing 1 required positional "
                           f"argument: '{direction.value}'"):
            SwitchingModel(MtjParams(), **{other: 1.0})
        with pytest.raises(ValueError, match=f"{direction.value} constant must "
                           f"{message}, got {value!r}"):
            SwitchingModel(MtjParams(), **{direction.value: value, other: 1.0})


    @pytest.mark.parametrize("anchors", [
        [(1e-9, 0.5, AP2P)], ((1e-9, 0.5, AP2P), [2e-9, 0.5, P2AP])],
        ids=["list", "tuple holding a list"])
    def test_model_refuses_anchors_that_are_not_tuples(self, anchors):
        """A list would leave the model unhashable and its anchors open to
        change after construction."""
        with pytest.raises(ValueError, match=rf"^anchors must be a tuple of "
                           rf"tuples, got {re.escape(repr(anchors))}$"):
            SwitchingModel(MtjParams(), 1.0, 1.0, anchors)

    @pytest.mark.parametrize("direction", [AP2P, P2AP])
    def test_anchor_at_time_zero_has_no_mass(self, direction):
        with pytest.raises(RuntimeError, match=r"^calibration failed: zero "
                                               r"density mass at the anchor$"):
            device._fit_constant(MtjParams(), (0.0, 0.5, direction))


class TestParams:
    def test_resistances(self):
        params = MtjParams()
        assert params.r_p == pytest.approx(5e-12 / (20e-9 * 58e-9))
        assert params.r_ap == pytest.approx(params.r_p * (1 + params.tmr))

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            MtjParams(delta=-1.0)
        with pytest.raises(ValueError):
            MtjParams(eta_spin=1.5)
        with pytest.raises(ValueError):
            MtjParams(tmr=0.0)

    @pytest.mark.parametrize("name, value, message", [
        ("ms", 0.0, "must be positive"),
        ("t_f", 0.0, "must be positive"),
        ("t_read", -1.0, "must be positive"),
        ("delta", math.nan, "must be finite"),
        ("v_write", math.nan, "must be finite"),
        ("v_write", math.inf, "must be finite"),
        ("v_write", -1.2, "must be positive"),
        ("tmr", math.inf, "must be finite"),
        ("v_read", math.nan, "must be finite"),
        ("eta_spin", 1.5, r"must be in \(0, 1\]"),
        ("delta", "47.5", "must be a real number"),
        ("delta", True, "must be a real number"),
        ("t_read", None, "must be a real number"),
    ])
    def test_field_named_with_value(self, name, value, message):
        with pytest.raises(ValueError, match=f"{name} {message}, got {value!r}"):
            MtjParams(**{name: value})

    def test_read_bias_may_be_negative(self):
        assert MtjParams(v_read=-0.3).v_read == -0.3


class TestExactReference:
    """The module's CDF, first moment, pulse widths and calibration against
    the high-precision quadrature reference, in both directions."""

    GEOMETRIC = np.geomspace(0.2e-9, 20e-9, 60)

    @staticmethod
    def model_for(model, direction, overdrive):
        """The model at its own v_write, or with v_write just above the
        switching threshold, where every pulse up to 20 ns ends deep inside
        the first knot piece."""
        if overdrive == "v_write":
            return model
        params = model.params
        threshold = params.jc0(direction) * params.start_resistance(direction) \
            * params.cell_area
        return dataclasses.replace(model, params=dataclasses.replace(
            params, v_write=threshold * (1 + 1e-6)))

    @pytest.mark.parametrize("overdrive", ["v_write", "near_threshold"])
    @pytest.mark.parametrize("direction", [AP2P, P2AP])
    def test_cdf_on_knot_grid(self, model, direction, overdrive):
        model = self.model_for(model, direction, overdrive)
        params = model.params
        grid = knot_grid(params, direction)
        # A cleared table per order, so the running knot integrals are
        # filled both ways.
        values = []
        for order in (grid, grid[::-1]):
            device._integrators.cache_clear()
            cdf = device._integrators(params, direction).cdf
            values.append({t: cdf(t) for t in order})
        assert values[0] == values[1]
        for t in grid:
            got = switching_probability(t, direction, model)
            assert abs(got - quad_probability(t, direction, model)) <= 1e-6
        if overdrive == "near_threshold":
            for t in self.GEOMETRIC:
                expected = quad_integral(params, t, direction)
                assert values[0][t] == pytest.approx(expected, rel=1e-12, abs=0)

    @pytest.mark.parametrize("overdrive", ["v_write", "near_threshold"])
    @pytest.mark.parametrize("direction", [AP2P, P2AP])
    def test_expected_switch_time_on_knot_grid(self, model, direction, overdrive):
        """E[t_sw] as `write_energy_split` prices it, the model constant
        times the table's first moment, against the reference moment."""
        model = self.model_for(model, direction, overdrive)
        params = model.params
        if overdrive == "v_write":
            grid, rel = [t for t in knot_grid(params, direction) if t >= 0.5e-9], 5e-5
        else:
            grid, rel = self.GEOMETRIC, 1e-12
        c = model.constant(direction)
        for t in grid:
            expected = c * quad_integral(params, t, direction, 1)
            assert switch_time(t, direction, model) == \
                pytest.approx(expected, rel=rel, abs=0)

    @pytest.mark.parametrize("direction", [AP2P, P2AP])
    def test_pulse_widths(self, model, direction):
        # The AP->P CDF levels off below 1 - 1e-9 (test_ap_to_p_saturation).
        saturated = (1 - 1e-9,) if direction is P2AP else ()
        for p in (1e-6, 0.01, 0.25, 0.5, 0.75, 0.999) + saturated:
            expected = quad_pulse_width(p, direction, model)
            assert pulse_width_for_probability(p, direction, model) == \
                pytest.approx(expected, rel=1e-5)

    def test_ap_to_p_saturation(self, model):
        """The AP->P probability levels off near 0.999985, so 1 - 1e-9 is
        refused rather than met at a width set by quadrature error."""
        level = quad_probability(DEFAULT_MAX_PULSE, AP2P, model)
        assert 0.999 < level < 1 - 1e-6
        with pytest.raises(ValueError, match="not reachable below 20 ns"):
            pulse_width_for_probability(1 - 1e-9, AP2P, model)

    def test_default_model_constants(self, model):
        """The reference CDF and energy pass through both anchors."""
        t_ap, p_anchor = device.AP2P_ANCHOR
        assert abs(quad_probability(t_ap, AP2P, model) - p_anchor) <= 1e-6
        t_anchor = model.anchors[-1][0]
        assert abs(quad_probability(t_anchor, P2AP, model)
                   - p_anchor) <= 1e-6
        assert quad_write_energy(t_anchor, P2AP, model) == \
            pytest.approx(device.P2AP_ENERGY_ANCHOR, rel=1e-6)

    def test_cost_model_fields(self, model):
        params = model.params
        t_reset = quad_pulse_width(WRITE_PROBABILITY_CAP, P2AP, model)
        t_max = quad_pulse_width(WRITE_PROBABILITY_CAP, AP2P, model)
        t_bms = quad_pulse_width(0.5, AP2P, model)
        cost = build_cost_model(model)
        assert cost.switching is model
        assert cost.mux_inv_energy == DEFAULT_MUX_INV_ENERGY
        assert cost.reset_energy == pytest.approx(
            quad_write_energy(t_reset, P2AP, model), rel=1e-5)
        assert cost.read_energy == params.v_read ** 2 / params.r_p * params.t_read
        assert cost.bit_period_normal == pytest.approx(
            params.t_reset + t_max + params.t_read, rel=1e-5)
        assert cost.bit_period_bms == pytest.approx(
            params.t_reset + t_bms + params.t_read, rel=1e-5)


class TestIntegralTable:
    """Every knot piece is integrated once per (params, direction),
    whichever model asks; the values are the same bit for bit, whatever
    was asked before and whichever thread asks."""

    PROBABILITIES = (1e-6, 0.02, 0.3, 0.5, 0.77, 0.999)

    # float.hex of the values before the model kept its integrals.
    COST_MODEL = ("0x1.02f4f80b2ead6p-41", "0x1.4e51fcf053ac1p-27",
                  "0x1.0cb1724bca756p-27")
    ENERGY_PER_BIT = {
        SngKind.BMS: ("0x1.f52b181fb7a0ap-43", "0x1.01f9fd5842928p-41",
                      "0x1.524828560855fp-41", "0x1.c951f67bb4b34p-42",
                      "0x1.8c633b6c077b0p-43"),
        SngKind.NORMAL: ("0x1.366c3d353bfe2p-40", "0x1.9fec21dd7d76ap-41",
                         "0x1.4f7794e534308p-41", "0x1.c3b0cf9a0c686p-42",
                         "0x1.8120eda8b6e53p-43"),
    }

    def test_cost_model_bit_for_bit(self):
        cost = build_cost_model(default_model())
        assert (cost.reset_energy.hex(), cost.bit_period_normal.hex(),
                cost.bit_period_bms.hex()) == self.COST_MODEL

    @pytest.mark.parametrize("kind", [SngKind.BMS, SngKind.NORMAL])
    def test_energy_per_bit_bit_for_bit(self, kind):
        cost = build_cost_model(default_model())
        got = tuple(energy_per_bit(p, kind, cost).hex()
                    for p in (0.02, 0.3, 0.5, 0.77, 0.999))
        assert got == self.ENERGY_PER_BIT[kind]

    def test_default_model_calibration_bit_for_bit(self):
        model = default_model()
        assert model.constant(P2AP).hex() == "0x1.8cfdb0e772c92p+0"
        assert model.anchors[-1][0].hex() == "0x1.bd7ad3f579d90p-30"

    def test_calibration_integrates_each_piece_once(self, monkeypatch):
        """The bisection of the P->AP energy anchor reuses one table: a cold
        default_model() took 444 rules when every step built its own.  A
        rule is one `_gauss` or one `_gauss_moments` call."""
        calls = []
        for name in ("_gauss", "_gauss_moments"):
            rule = getattr(device, name)
            monkeypatch.setattr(device, name, lambda f, a, b, rule=rule: (
                calls.append(1) or rule(f, a, b)))
        device._integrators.cache_clear()
        default_model()
        assert len(calls) <= 100

    def test_models_on_equal_params_share_one_table(self):
        first, second = default_model(), default_model()
        third = default_model(dataclasses.replace(first.params))
        fourth = default_model(pickle.loads(pickle.dumps(first.params)))
        assert first.params is not third.params
        assert first.params is not fourth.params
        models = (first, second, third, fourth)
        for direction in (AP2P, P2AP):
            tables = {id(device._integrators(m.params, direction))
                      for m in models}
            assert len(tables) == 1
        assert first == second == third == fourth
        assert len({hash(m) for m in models}) == 1
        splits = [write_energy_split(2e-9, P2AP, m) for m in models]
        assert splits[0] == splits[1] == splits[2] == splits[3]

    @staticmethod
    def values(model, direction, grid, probabilities):
        """Every table-backed function of `model` on the grid, in order."""
        return ([switching_probability(t, direction, model) for t in grid],
                [write_energy_split(t, direction, model) for t in grid],
                [pulse_width_for_probability(p, direction, model)
                 for p in probabilities])

    @pytest.mark.parametrize("direction", [AP2P, P2AP])
    def test_values_do_not_depend_on_what_was_asked_before(self, model, direction):
        grid = knot_grid(model.params, direction)
        up = list(np.geomspace(0.2e-9, 20e-9, 40))
        warmed = []
        for order in (up[::-1], up):
            device._integrators.cache_clear()
            for t in order:
                switching_probability(t, direction, model)
                write_energy_split(t, direction, model)
            warmed.append(self.values(model, direction, grid, self.PROBABILITIES))

        # Every value from a table that holds nothing yet.
        def cold(fn, x):
            device._integrators.cache_clear()
            return fn(x, direction, model)

        fresh = tuple([cold(fn, t) for t in grid]
                      for fn in (switching_probability, write_energy_split))
        fresh += ([cold(pulse_width_for_probability, p)
                   for p in self.PROBABILITIES],)
        assert warmed[0] == warmed[1] == fresh

    @pytest.mark.parametrize("direction", [AP2P, P2AP])
    def test_pulse_width_is_the_plain_bisection(self, model, direction):
        """Starting on the spine gives the plain bisection over
        [0, DEFAULT_MAX_PULSE] bit for bit, in whichever order p is asked;
        1e-30 and below lie under the spine's last node and start at 0."""
        # The AP->P CDF levels off below 1 - 1e-9 (test_ap_to_p_saturation).
        saturated = (1 - 1e-9,) if direction is P2AP else ()
        ps = (5e-324, 1e-300, 1e-30, 1e-9, 2.0 ** -16, 0.01, 0.3, 0.5,
              0.999) + saturated

        def plain(p):
            return device._bisect(
                lambda t: switching_probability(t, direction, model),
                p, 0.0, DEFAULT_MAX_PULSE)

        expected = {p: plain(p) for p in ps}
        for order in (ps, ps[::-1]):
            device._integrators.cache_clear()
            got = {p: pulse_width_for_probability(p, direction, model)
                   for p in order}
            assert got == expected

    @pytest.mark.parametrize("direction", [AP2P, P2AP])
    def test_table_is_built_whole(self, model, direction, monkeypatch):
        """Building a table takes one `_gauss_moments` rule per knot piece
        and one `_gauss` per spine node, down to the first node below the
        first knot; a pulse width then takes one `_gauss` per probe."""
        calls, probes = [], []
        for name in ("_gauss", "_gauss_moments"):
            rule = getattr(device, name)
            monkeypatch.setattr(device, name, lambda f, a, b, rule=rule, name=name: (
                calls.append(name) or rule(f, a, b)))
        bisect = device._bisect
        monkeypatch.setattr(device, "_bisect", lambda f, target, lo, hi: bisect(
            lambda t: probes.append(t) or f(t), target, lo, hi))
        device._integrators.cache_clear()
        table = device._integrators(model.params, direction)
        assert len(table.spine) == 8
        assert table.spine[-1][0] < table.knots[1] <= table.spine[-2][0]
        assert calls == ["_gauss_moments"] * 10 + ["_gauss"] * 8
        for p in (1e-30, 0.3, 0.999):
            calls.clear()
            probes.clear()
            pulse_width_for_probability(p, direction, model)
            assert probes and calls == ["_gauss"] * len(probes)

    def test_warm_model_pickles(self):
        """A cost model, whose build warms the table, pickles as a plain
        value and prices the same."""
        cost = build_cost_model(default_model())
        copy = pickle.loads(pickle.dumps(cost))
        assert copy == cost
        assert energy_per_bit(0.3, SngKind.BMS, copy) == \
            energy_per_bit(0.3, SngKind.BMS, cost)

    def test_threads_sharing_a_fresh_model_match_serial_values(self, model):
        """Two threads miss the cleared table cache together, each builds a
        table, and both read whichever was kept, under a switch interval
        short enough to interleave the builds inside one knot piece."""
        grid = np.geomspace(0.2e-9, 20e-9, 12)[::-1]

        def run(shared, out):
            for direction in (AP2P, P2AP):
                for t in grid:
                    out.append(switching_probability(t, direction, shared))
                    out.append(write_energy_split(t, direction, shared))
                for p in self.PROBABILITIES:
                    out.append(pulse_width_for_probability(p, direction, shared))

        serial = []
        device._integrators.cache_clear()
        run(model, serial)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(40):
                device._integrators.cache_clear()
                outs = ([], [])
                start = threading.Barrier(2)
                threads = [threading.Thread(target=lambda out=out: (
                    start.wait(), run(model, out))) for out in outs]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                assert outs[0] == serial and outs[1] == serial
        finally:
            sys.setswitchinterval(interval)


class TestRejectsBadTimes:
    """NaN or infinite times are refused by name; the fixed quadrature rule
    would turn them into NaN."""

    BAD = [math.nan, math.inf, -math.inf, -1e-9]

    @pytest.mark.parametrize("t", BAD)
    @pytest.mark.parametrize("fn", [switching_probability, write_energy_split,
                                    expected_write_energy])
    def test_pulse_width_rejected(self, model, fn, t):
        with pytest.raises(ValueError, match=f"t_p must be finite and nonnegative, got {t}"):
            fn(t, AP2P, model)

    @pytest.mark.parametrize("t", BAD)
    def test_anchor_time_rejected(self, t):
        for direction in (AP2P, P2AP):
            with pytest.raises(ValueError, match=f"anchor pulse width .* got {t}"):
                device._fit_constant(MtjParams(), (t, 0.5, direction))


class TestMessagesNameTheValue:
    @pytest.mark.parametrize("fn", [
        switching_probability, write_energy_split, expected_write_energy,
        pulse_width_for_probability])
    def test_direction_not_a_switch_direction(self, model, fn):
        """A direction given by its value is refused by name before any
        table is built for it."""
        device._integrators.cache_clear()
        with pytest.raises(TypeError, match="direction must be a "
                           "SwitchDirection, got 'ap_to_p'"):
            fn(0.3, "ap_to_p", model)
        assert device._integrators.cache_info().currsize == 0

    @pytest.mark.parametrize("direction", ["ap_to_p", "p_to_ap", None])
    def test_constant_refuses_a_direction_by_value(self, model, direction):
        """Anything but a SwitchDirection is refused by name, neither read
        as the P->AP constant nor raised as a bare KeyError."""
        with pytest.raises(TypeError, match="direction must be a "
                           f"SwitchDirection, got {direction!r}"):
            model.constant(direction)

    @pytest.mark.parametrize("p", [1.0, -0.1, math.nan])
    def test_pulse_width_probability(self, model, p):
        with pytest.raises(ValueError, match=rf"p must be in \[0, 1\), got {p}"):
            pulse_width_for_probability(p, AP2P, model)

    def test_energy_anchor_outside_bracket(self):
        """At 3 V the P->AP write at either end of the bracket costs more
        than the 0.46 pJ anchor, so no pulse width in it fits."""
        params = dataclasses.replace(MtjParams(), v_write=3.0)
        lo, hi = device.ENERGY_ANCHOR_BRACKET
        with pytest.raises(RuntimeError) as err:
            default_model(params)
        message = str(err.value)
        assert f"energy anchor {device.P2AP_ENERGY_ANCHOR} J" in message
        c_ap = device._fit_constant(params, (*device.AP2P_ANCHOR, AP2P))
        for t in (lo, hi):
            c = device._fit_constant(params, (t, 0.999, P2AP))
            m = SwitchingModel(params, c_ap, c)
            assert f"{expected_write_energy(t, P2AP, m)} J at {t} s" in message
