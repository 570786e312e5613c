"""Tests for the MTJ switching model against its calibration anchors.

The quadrature oracle used throughout is plain trapezoidal integration of
`switching_density` on a fine uniform grid, independent of the adaptive
scheme inside the module.
"""

import math

import numpy as np
import pytest

from mtjsc import device
from mtjsc.device import (
    MtjParams,
    SwitchDirection,
    calibrate,
    calibrate_direction,
    default_model,
    expected_switch_time,
    expected_write_energy,
    pulse_width_for_probability,
    switching_density,
    switching_probability,
    write_energy_split,
)

AP2P = SwitchDirection.AP_TO_P
P2AP = SwitchDirection.P_TO_AP
V_WRITE = 1.2


@pytest.fixture(scope="module")
def model():
    return default_model()


def trapezoid_cdf(t_p, direction, bias, model, steps=10_000):
    ts = np.linspace(0.0, t_p, steps + 1)
    dens = np.array([switching_density(t, direction, bias, model) for t in ts])
    return np.trapezoid(dens, ts)


def trapezoid_first_moment(t_p, direction, bias, model, steps=10_000):
    ts = np.linspace(0.0, t_p, steps + 1)
    dens = np.array([t * switching_density(t, direction, bias, model) for t in ts])
    return np.trapezoid(dens, ts)


class TestSwitchingDensity:
    def test_t0_is_maximal_angle_term(self, model):
        """At t = 0 the precession angle is pi/2 exactly."""
        params = model.params
        over = params.current_density(V_WRITE, AP2P) - params.jc0(AP2P)
        expected = model.constant(AP2P) * math.exp(-params.delta) * over
        assert switching_density(0.0, AP2P, V_WRITE, model) == pytest.approx(expected)

    def test_decays_to_zero(self, model):
        assert switching_density(50e-9, AP2P, V_WRITE, model) < 1e-12 * \
            switching_density(2e-9, AP2P, V_WRITE, model)

    def test_nonnegative(self, model):
        for t in np.linspace(0, 10e-9, 200):
            assert switching_density(t, AP2P, V_WRITE, model) >= 0.0

    def test_low_bias_rejected(self, model):
        with pytest.raises(ValueError, match="precessional"):
            switching_density(1e-9, AP2P, 0.2, model)

    def test_density_consistent_with_half_probability_anchor(self, model):
        """Integrating the density up to 1.49 ns gives the 50% anchor."""
        integral = trapezoid_cdf(1.49e-9, AP2P, V_WRITE, model)
        assert integral == pytest.approx(0.50, abs=0.01)


class TestSwitchingProbability:
    def test_zero_pulse(self, model):
        assert switching_probability(0.0, AP2P, V_WRITE, model) == 0.0

    def test_anchor_999(self, model):
        p = switching_probability(3.40e-9, AP2P, V_WRITE, model)
        assert p == pytest.approx(0.999, abs=0.005)

    def test_anchor_50(self, model):
        p = switching_probability(1.49e-9, AP2P, V_WRITE, model)
        assert p == pytest.approx(0.50, abs=0.01)

    def test_monotone_and_bounded(self, model):
        grid = np.linspace(0, 20e-9, 100)
        probs = [switching_probability(t, AP2P, V_WRITE, model) for t in grid]
        assert all(b >= a - 1e-12 for a, b in zip(probs, probs[1:]))
        assert all(0.0 <= p <= 1.0 for p in probs)

    def test_matches_trapezoid_oracle(self, model):
        for t_p in (0.8e-9, 1.49e-9, 2.5e-9, 3.40e-9):
            oracle = trapezoid_cdf(t_p, AP2P, V_WRITE, model)
            got = switching_probability(t_p, AP2P, V_WRITE, model)
            assert got == pytest.approx(oracle, rel=1e-3)


class TestExpectedSwitchTime:
    def test_zero_pulse(self, model):
        assert expected_switch_time(0.0, AP2P, V_WRITE, model) == 0.0

    def test_bounded_by_pulse_times_probability(self, model):
        for t_p in (0.5e-9, 1.49e-9, 3.40e-9, 8e-9):
            e_t = expected_switch_time(t_p, AP2P, V_WRITE, model)
            p = switching_probability(t_p, AP2P, V_WRITE, model)
            assert 0.0 <= e_t <= t_p * p + 1e-18

    def test_matches_trapezoid_oracle(self, model):
        oracle = trapezoid_first_moment(3.40e-9, AP2P, V_WRITE, model)
        got = expected_switch_time(3.40e-9, AP2P, V_WRITE, model)
        assert got == pytest.approx(oracle, rel=1e-3)


class TestExpectedWriteEnergy:
    def test_zero_pulse(self, model):
        assert expected_write_energy(0.0, AP2P, V_WRITE, model) == 0.0

    def test_ap2p_anchor_energy(self, model):
        t999 = pulse_width_for_probability(0.999, AP2P, V_WRITE, model)
        e = expected_write_energy(t999, AP2P, V_WRITE, model)
        assert e == pytest.approx(0.93e-12, rel=0.15)

    def test_p2ap_anchor_energy(self, model):
        t999 = pulse_width_for_probability(0.999, P2AP, V_WRITE, model)
        e = expected_write_energy(t999, P2AP, V_WRITE, model)
        assert e == pytest.approx(0.46e-12, rel=0.15)

    def test_monotone_in_pulse_width(self, model):
        for direction in (AP2P, P2AP):
            grid = np.linspace(0.1e-9, 8e-9, 40)
            energies = [expected_write_energy(t, direction, V_WRITE, model)
                        for t in grid]
            assert all(b >= a - 1e-18 for a, b in zip(energies, energies[1:]))


class TestWriteEnergySplit:
    def test_zero_pulse(self, model):
        assert write_energy_split(0.0, AP2P, V_WRITE, model) == (0.0, 0.0, 0.0)

    def test_negative_pulse_rejected(self, model):
        with pytest.raises(ValueError, match="nonnegative"):
            write_energy_split(-1e-9, AP2P, V_WRITE, model)

    def test_outcome_energies(self, model):
        params = model.params
        for direction in (AP2P, P2AP):
            t_p = pulse_width_for_probability(0.7, direction, V_WRITE, model)
            split = write_energy_split(t_p, direction, V_WRITE, model)
            i_start = V_WRITE / params.start_resistance(direction)
            i_end = V_WRITE / params.end_resistance(direction)
            e_t = expected_switch_time(t_p, direction, V_WRITE, model)
            assert split.p_switch == switching_probability(
                t_p, direction, V_WRITE, model)
            assert split.switched == V_WRITE * (i_start * e_t + i_end * (t_p - e_t))
            assert split.unswitched == V_WRITE * i_start * t_p

    def test_expected_is_the_weighted_mean(self, model):
        for t_p in np.linspace(0.2e-9, 6e-9, 12):
            split = write_energy_split(t_p, AP2P, V_WRITE, model)
            assert expected_write_energy(t_p, AP2P, V_WRITE, model) == (
                split.p_switch * split.switched
                + (1.0 - split.p_switch) * split.unswitched)


class TestPulseWidthForProbability:
    def test_zero_probability(self, model):
        assert pulse_width_for_probability(0.0, AP2P, V_WRITE, model) == 0.0

    def test_anchor_widths(self, model):
        t999 = pulse_width_for_probability(0.999, AP2P, V_WRITE, model)
        assert t999 == pytest.approx(3.40e-9, rel=0.05)
        t50 = pulse_width_for_probability(0.5, AP2P, V_WRITE, model)
        assert t50 == pytest.approx(1.49e-9, rel=0.05)

    def test_inverse_consistency(self, model):
        for p in np.arange(0.01, 1.0, 0.01):
            t = pulse_width_for_probability(p, AP2P, V_WRITE, model)
            back = switching_probability(t, AP2P, V_WRITE, model)
            assert back == pytest.approx(p, abs=1e-5)

    def test_unreachable_probability(self, model):
        with pytest.raises(ValueError, match="not reachable"):
            pulse_width_for_probability(0.999, AP2P, V_WRITE, model,
                                        max_pulse=2e-9)


class TestCalibration:
    def test_anchor_is_exact(self):
        anchor = (3.40e-9, 0.999, AP2P, V_WRITE)
        model = calibrate(MtjParams(), anchor)
        p = switching_probability(3.40e-9, AP2P, V_WRITE, model)
        assert p == pytest.approx(0.999, abs=1e-4)

    def test_idempotent(self):
        anchor = (3.40e-9, 0.999, AP2P, V_WRITE)
        m1 = calibrate(MtjParams(), anchor)
        m2 = calibrate(m1.params, anchor)
        assert m1.norm_constant == m2.norm_constant

    def test_predicts_half_point(self):
        anchor = (3.40e-9, 0.999, AP2P, V_WRITE)
        model = calibrate(MtjParams(), anchor)
        t50 = pulse_width_for_probability(0.5, AP2P, V_WRITE, model)
        assert t50 == pytest.approx(1.49e-9, rel=0.05)

    def test_rejects_degenerate_anchor(self):
        with pytest.raises(ValueError):
            calibrate(MtjParams(), (3.40e-9, 1.0, AP2P, V_WRITE))

    def test_direction_fit_matches_calibrate(self):
        anchor = (3.40e-9, 0.999, AP2P, V_WRITE)
        base = calibrate(MtjParams(), (2.0e-9, 0.5, P2AP, V_WRITE))
        refit = calibrate_direction(base, anchor)
        direct = calibrate(MtjParams(), anchor)
        assert refit.constant(AP2P) == direct.constant(AP2P)
        assert refit.constant(P2AP) == base.constant(P2AP)
        assert refit.anchors == base.anchors + (anchor,)

    def test_direction_rejects_degenerate_anchor(self, model):
        with pytest.raises(ValueError):
            calibrate_direction(model, (3.40e-9, 0.0, AP2P, V_WRITE))


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
