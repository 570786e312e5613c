"""Tests for the MTJ switching model against its calibration anchors.

The quadrature oracle used throughout is plain trapezoidal integration of
`switching_density` on a fine uniform grid, independent of the adaptive
scheme inside the module.  `TestExactReference` also pins the module's
quadrature bit for bit against the slow form it replaced (the `ref_*`
functions below).
"""

import math

import numpy as np
import pytest

from mtjsc import device
from mtjsc.device import (
    DEFAULT_MAX_PULSE,
    MtjParams,
    SwitchDirection,
    SwitchingModel,
    calibrate,
    calibrate_direction,
    calibrate_direction_to_energy,
    default_model,
    expected_switch_time,
    expected_write_energy,
    pulse_width_for_probability,
    switching_density,
    switching_probability,
    write_energy_split,
)
from mtjsc.sng import DEFAULT_MUX_INV_ENERGY, WRITE_PROBABILITY_CAP, build_cost_model

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


# Slow exact reference: the quadrature as it stood before the module's CDF
# evaluator.  Every CDF re-derives the density, runs a fresh adaptive
# Simpson per segment with fresh endpoint values and keeps no memo; the
# bisection prices every midpoint through the full CDF.

REF_SPLIT_POINTS = (0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 9.0, 13.0, 18.0, 25.0)


def ref_density(t, kappa, over, delta):
    phi = 0.5 * math.pi * math.exp(-kappa * t)
    s2 = math.sin(phi) ** 2
    return math.exp(-delta * s2) * over * s2


def ref_adaptive_simpson(f, a, b, tol, max_depth=40):
    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def recurse(x0, x2, f0, f1, f2, whole, eps, depth):
        xm = 0.5 * (x0 + x2)
        xl = 0.5 * (x0 + xm)
        xr = 0.5 * (xm + x2)
        fl = f(xl)
        fr = f(xr)
        left = simpson(x0, xm, f0, fl, f1)
        right = simpson(xm, x2, f1, fr, f2)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        half = 0.5 * eps
        return (recurse(x0, xm, f0, fl, f1, left, half, depth - 1)
                + recurse(xm, x2, f1, fr, f2, right, half, depth - 1))

    if b <= a:
        return 0.0
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, tol, max_depth)


def ref_integrate(f, t_end, kappa, tol):
    if t_end <= 0:
        return 0.0
    knots = [0.0] + [x / kappa for x in REF_SPLIT_POINTS if x / kappa < t_end]
    knots.append(t_end)
    total = 0.0
    for lo, hi in zip(knots[:-1], knots[1:]):
        total += ref_adaptive_simpson(f, lo, hi, tol / len(knots))
    return total


def ref_kappa_over(params, bias, direction):
    over = params.current_density(bias, direction) - params.jc0(direction)
    return params.spin_rate() * over, over


def ref_raw_cdf(params, t_end, bias, direction):
    kappa, over = ref_kappa_over(params, bias, direction)
    f = lambda t: ref_density(t, kappa, over, params.delta)
    return ref_integrate(f, t_end, kappa, 1e-9 * max(over, 1.0))


def ref_probability(t_p, direction, bias, model):
    if t_p == 0:
        return 0.0
    raw = ref_raw_cdf(model.params, t_p, bias, direction)
    return min(1.0, max(0.0, model.constant(direction) * raw))


def ref_switch_time(t_p, direction, bias, model):
    if t_p == 0:
        return 0.0
    params = model.params
    kappa, over = ref_kappa_over(params, bias, direction)
    f = lambda t: t * ref_density(t, kappa, over, params.delta)
    raw = ref_integrate(f, t_p, kappa, 1e-9 * max(over * t_p, 1.0))
    return model.constant(direction) * raw


def ref_write_energy(t_p, direction, bias, model):
    params = model.params
    i_start = bias / params.start_resistance(direction)
    i_end = bias / params.end_resistance(direction)
    p_sw = ref_probability(t_p, direction, bias, model)
    e_t = ref_switch_time(t_p, direction, bias, model)
    e_sw = bias * (i_start * e_t + i_end * (t_p - e_t))
    e_nsw = bias * i_start * t_p
    return p_sw * e_sw + (1.0 - p_sw) * e_nsw


def ref_pulse_width(p, direction, bias, model, max_pulse=DEFAULT_MAX_PULSE):
    if p == 0.0:
        return 0.0
    lo, hi = 0.0, max_pulse
    if ref_probability(hi, direction, bias, model) < p:
        return None
    while hi - lo > 1e-6 * hi:
        mid = 0.5 * (lo + hi)
        if ref_probability(mid, direction, bias, model) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def ref_default_constants():
    """default_model's two constants and its P->AP anchor time."""
    params = MtjParams()
    v = params.v_write
    t_ap, p_anchor = device.AP2P_ANCHOR
    c_ap = p_anchor / ref_raw_cdf(params, t_ap, v, AP2P)

    def model_at(t_anchor):
        c_p = p_anchor / ref_raw_cdf(params, t_anchor, v, P2AP)
        return SwitchingModel(params, {AP2P: c_ap, P2AP: c_p})

    def energy_at(t_anchor):
        return ref_write_energy(t_anchor, P2AP, v, model_at(t_anchor))

    lo, hi = 0.5e-9, 6e-9
    assert energy_at(lo) < device.P2AP_ENERGY_ANCHOR < energy_at(hi)
    while hi - lo > 1e-6 * hi:
        mid = 0.5 * (lo + hi)
        if energy_at(mid) < device.P2AP_ENERGY_ANCHOR:
            lo = mid
        else:
            hi = mid
    t_anchor = 0.5 * (lo + hi)
    return model_at(t_anchor).norm_constant, t_anchor


def knot_grid(params, direction, bias=V_WRITE):
    """Every knot x/kappa, one ulp either side of it, 1e-15 s and the
    default maximum pulse, in increasing order."""
    kappa, _ = ref_kappa_over(params, bias, direction)
    grid = [1e-15, DEFAULT_MAX_PULSE]
    for x in REF_SPLIT_POINTS:
        t = x / kappa
        grid += [math.nextafter(t, 0.0), t, math.nextafter(t, math.inf)]
    return sorted(grid)


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

    @pytest.mark.parametrize("name, value, message", [
        ("ms", 0.0, "must be positive"),
        ("t_f", 0.0, "must be positive"),
        ("t_read", -1.0, "must be positive"),
        ("delta", math.nan, "must be finite"),
        ("v_write", math.nan, "must be finite"),
        ("tmr", math.inf, "must be finite"),
        ("v_read", math.nan, "must be finite"),
        ("eta_spin", 1.5, r"must be in \(0, 1\]"),
    ])
    def test_field_named_with_value(self, name, value, message):
        with pytest.raises(ValueError, match=f"{name} {message}, got {value}"):
            MtjParams(**{name: value})

    def test_read_bias_may_be_negative(self):
        assert MtjParams(v_read=-0.3).v_read == -0.3


class TestExactReference:
    """The CDF evaluator, its segment memo and shared knots reproduce the
    slow quadrature exactly (==), in both directions."""

    PROBABILITIES = (1e-6, 0.01, 0.25, 0.5, 0.75, 0.999, 1 - 1e-9)

    @staticmethod
    def bias_for(params, direction, overdrive):
        """V_WRITE, or a bias just above the switching threshold.  Only there
        does the quadrature tolerance bind, so only there does a full
        segment's integral depend on the knot count."""
        if overdrive == "v_write":
            return V_WRITE
        threshold = params.jc0(direction) * params.start_resistance(direction) \
            * params.cell_area
        return threshold * (1 + 1e-6)

    @pytest.mark.parametrize("overdrive", ["v_write", "near_threshold"])
    @pytest.mark.parametrize("direction", [AP2P, P2AP])
    def test_cdf_on_knot_grid(self, model, direction, overdrive):
        bias = self.bias_for(model.params, direction, overdrive)
        grid = knot_grid(model.params, direction, bias)
        expected = {t: ref_raw_cdf(model.params, t, bias, direction)
                    for t in grid}
        # One evaluator per order, so the memo is filled both ways.
        for order in (grid, grid[::-1]):
            cdf = device._cdf_evaluator(model.params, bias, direction)
            assert [cdf(t) for t in order] == [expected[t] for t in order]
        for t in grid:
            assert switching_probability(t, direction, bias, model) == \
                ref_probability(t, direction, bias, model)

    @pytest.mark.parametrize("overdrive", ["v_write", "near_threshold"])
    @pytest.mark.parametrize("direction", [AP2P, P2AP])
    def test_expected_switch_time_on_knot_grid(self, model, direction, overdrive):
        bias = self.bias_for(model.params, direction, overdrive)
        for t in knot_grid(model.params, direction, bias):
            assert expected_switch_time(t, direction, bias, model) == \
                ref_switch_time(t, direction, bias, model)

    @pytest.mark.parametrize("direction", [AP2P, P2AP])
    def test_pulse_widths(self, model, direction):
        for p in self.PROBABILITIES:
            expected = ref_pulse_width(p, direction, V_WRITE, model)
            assert expected is not None
            assert pulse_width_for_probability(
                p, direction, V_WRITE, model) == expected

    def test_default_model_constants(self, model):
        constants, t_anchor = ref_default_constants()
        assert model.norm_constant == constants
        assert model.anchors[-1][0] == t_anchor

    def test_cost_model_fields(self, model):
        params = model.params
        v = params.v_write
        t_reset = ref_pulse_width(WRITE_PROBABILITY_CAP, P2AP, v, model)
        t_max = ref_pulse_width(WRITE_PROBABILITY_CAP, AP2P, v, model)
        t_bms = ref_pulse_width(0.5, AP2P, v, model)
        cost = build_cost_model(model)
        assert cost.switching is model
        assert cost.mux_inv_energy == DEFAULT_MUX_INV_ENERGY
        assert cost.reset_energy == ref_write_energy(t_reset, P2AP, v, model)
        assert cost.read_energy == params.v_read ** 2 / params.r_p * params.t_read
        assert cost.bit_period_normal == params.t_reset + t_max + params.t_read
        assert cost.bit_period_bms == params.t_reset + t_bms + params.t_read


class TestRejectsBadTimes:
    """NaN or infinite times are refused by name; they used to hang the
    adaptive quadrature at its depth limit."""

    BAD = [math.nan, math.inf, -math.inf, -1e-9]

    @pytest.mark.parametrize("t", BAD)
    @pytest.mark.parametrize("fn", [switching_probability, expected_switch_time,
                                    write_energy_split, expected_write_energy])
    def test_pulse_width_rejected(self, model, fn, t):
        with pytest.raises(ValueError, match=f"t_p must be finite and nonnegative, got {t}"):
            fn(t, AP2P, V_WRITE, model)

    @pytest.mark.parametrize("t", BAD)
    def test_density_time_rejected(self, model, t):
        with pytest.raises(ValueError, match=f"t must be finite and nonnegative, got {t}"):
            switching_density(t, AP2P, V_WRITE, model)

    @pytest.mark.parametrize("t", BAD)
    def test_anchor_time_rejected(self, model, t):
        with pytest.raises(ValueError, match=f"anchor pulse width .* got {t}"):
            calibrate(MtjParams(), (t, 0.5, AP2P, V_WRITE))
        with pytest.raises(ValueError, match=f"anchor pulse width .* got {t}"):
            calibrate_direction(model, (t, 0.5, P2AP, V_WRITE))

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_max_pulse_rejected(self, model, t):
        with pytest.raises(ValueError, match=f"max_pulse .* got {t}"):
            pulse_width_for_probability(0.5, AP2P, V_WRITE, model, max_pulse=t)

    @pytest.mark.parametrize("bias", [math.nan, math.inf])
    def test_bias_rejected(self, model, bias):
        with pytest.raises(ValueError, match=f"bias must be finite, got {bias}"):
            switching_probability(1e-9, AP2P, bias, model)


class TestMessagesNameTheValue:
    @pytest.mark.parametrize("p", [1.0, -0.1, math.nan])
    def test_pulse_width_probability(self, model, p):
        with pytest.raises(ValueError, match=rf"p must be in \[0, 1\), got {p}"):
            pulse_width_for_probability(p, AP2P, V_WRITE, model)

    def test_energy_anchor_outside_bracket(self, model):
        lo, hi = 0.5e-9, 6e-9
        with pytest.raises(RuntimeError) as err:
            calibrate_direction_to_energy(model, 1e-9, 0.999, P2AP, V_WRITE,
                                          bracket=(lo, hi))
        message = str(err.value)
        assert "energy anchor 1e-09 J" in message
        for t in (lo, hi):
            m = calibrate_direction(model, (t, 0.999, P2AP, V_WRITE))
            assert f"{expected_write_energy(t, P2AP, V_WRITE, m)} J at {t} s" in message
