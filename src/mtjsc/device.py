"""Precessional-mode MTJ switching statistics and write energy.

The switching-time density for a current-driven MTJ in the precessional
regime is

    pdf(t) = C * exp(-delta * sin^2(phi)) * (J - Jc0) * sin^2(phi)

with phi(t) = (pi/2) * exp(-(eta * mu_B / (e * Ms * t_F)) * (J - Jc0) * t).

The proportionality constant C is not a device constant; it is fixed per
switching direction by calibrating the cumulative switching probability
against measured anchor points (see `default_model`).  All currents follow
from the write bias and the start-state resistance; the energy of a write
pulse splits the pulse at the expected switching time between start-state
and end-state currents.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

MU_B = 9.274009994e-24  # J/T
E_CHARGE = 1.602176634e-19  # C

# Calibrated against the 50%-switching-probability pulse width of 1.49 ns
# (AP->P, 1.2 V).  The TMR ratio is not reported with the rest of the device
# constants, and it is the one free parameter left after the single-anchor
# fit of the density constant.
TMR_CALIBRATED = 0.625528

# Anchor points used by `default_model`: AP->P reaches 99.9% switching at
# 3.40 ns under 1.2 V; the expected P->AP write energy at its own 99.9%
# pulse width is 0.46 pJ.
AP2P_ANCHOR = (3.40e-9, 0.999)
P2AP_ENERGY_ANCHOR = 0.46e-12

DEFAULT_MAX_PULSE = 20e-9


class SwitchDirection(enum.Enum):
    AP_TO_P = "ap_to_p"
    P_TO_AP = "p_to_ap"


@dataclass(frozen=True)
class MtjParams:
    """Device constants and calibration anchors for the switching model.

    Units are SI throughout: current densities in A/m^2, magnetization in
    A/m, lengths in m, resistance-area product in ohm*m^2.
    """

    delta: float = 47.5                 # thermal stability factor
    jc0_p2ap: float = 7.55e10           # A/m^2
    jc0_ap2p: float = 4.10e10           # A/m^2
    eta_spin: float = 0.85
    ms: float = 1.222e6                 # A/m  (1222 emu/cc)
    t_f: float = 2.5e-9                 # m
    cell_area: float = 20e-9 * 58e-9    # m^2
    ra_product: float = 5e-12           # ohm*m^2
    tmr: float = TMR_CALIBRATED
    mu_b: float = MU_B
    e_charge: float = E_CHARGE
    v_write: float = 1.2                # V
    v_read: float = -0.1                # V
    t_reset: float = 4.33e-9            # s
    t_read: float = 2.0e-9              # s

    def __post_init__(self):
        if self.delta <= 0 or self.jc0_p2ap <= 0 or self.jc0_ap2p <= 0:
            raise ValueError("delta and critical current densities must be positive")
        if not 0 < self.eta_spin <= 1:
            raise ValueError("spin transfer efficiency must be in (0, 1]")
        if self.cell_area <= 0 or self.tmr <= 0 or self.ra_product <= 0:
            raise ValueError("cell_area, tmr and ra_product must be positive")

    @property
    def r_p(self) -> float:
        return self.ra_product / self.cell_area

    @property
    def r_ap(self) -> float:
        return self.r_p * (1.0 + self.tmr)

    def jc0(self, direction: SwitchDirection) -> float:
        if direction is SwitchDirection.AP_TO_P:
            return self.jc0_ap2p
        return self.jc0_p2ap

    def start_resistance(self, direction: SwitchDirection) -> float:
        """Resistance of the state the device is in before switching."""
        if direction is SwitchDirection.AP_TO_P:
            return self.r_ap
        return self.r_p

    def end_resistance(self, direction: SwitchDirection) -> float:
        if direction is SwitchDirection.AP_TO_P:
            return self.r_p
        return self.r_ap

    def current_density(self, bias: float, direction: SwitchDirection) -> float:
        """J through the junction at the given bias, start-state resistance."""
        return abs(bias) / (self.start_resistance(direction) * self.cell_area)

    def spin_rate(self) -> float:
        """eta*mu_B / (e*Ms*t_F): converts overdrive (A/m^2) to 1/s."""
        return self.eta_spin * self.mu_b / (self.e_charge * self.ms * self.t_f)


@dataclass(frozen=True)
class SwitchingModel:
    """Calibrated switching model: params plus per-direction pdf constants."""

    params: MtjParams
    norm_constant: dict[SwitchDirection, float]
    anchors: tuple = ()

    def constant(self, direction: SwitchDirection) -> float:
        return self.norm_constant[direction]


def _overdrive(params: MtjParams, bias: float, direction: SwitchDirection) -> float:
    j = params.current_density(bias, direction)
    jc0 = params.jc0(direction)
    if j <= jc0:
        raise ValueError(
            f"bias {bias} V gives J = {j:.3e} A/m^2 <= Jc0 = {jc0:.3e}; "
            "not in the precessional regime"
        )
    return j - jc0


def _raw_density(t: float, kappa: float, over: float, delta: float) -> float:
    phi = 0.5 * math.pi * math.exp(-kappa * t)
    s2 = math.sin(phi) ** 2
    return math.exp(-delta * s2) * over * s2


def _adaptive_simpson(f, a: float, b: float, tol: float, max_depth: int = 40) -> float:
    """Adaptive Simpson quadrature with absolute tolerance `tol`."""

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


# The density is a narrow bump on the kappa*t timescale; splitting the
# integration range at fixed multiples of 1/kappa keeps the adaptive
# quadrature from stepping over it.
_SPLIT_POINTS = (0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 9.0, 13.0, 18.0, 25.0)


def _integrate_density(f, t_end: float, kappa: float, tol: float) -> float:
    if t_end <= 0:
        return 0.0
    knots = [0.0]
    for x in _SPLIT_POINTS:
        t = x / kappa
        if t < t_end:
            knots.append(t)
    knots.append(t_end)
    total = 0.0
    for lo, hi in zip(knots[:-1], knots[1:]):
        total += _adaptive_simpson(f, lo, hi, tol / len(knots))
    return total


def _raw_cdf(params: MtjParams, t_end: float, bias: float,
             direction: SwitchDirection, tol: float = 1e-9) -> float:
    """Integral of the uncalibrated density from 0 to t_end."""
    over = _overdrive(params, bias, direction)
    kappa = params.spin_rate() * over
    f = lambda t: _raw_density(t, kappa, over, params.delta)
    return _integrate_density(f, t_end, kappa, tol * max(over, 1.0))


def switching_density(t: float, direction: SwitchDirection, bias: float,
                      model: SwitchingModel) -> float:
    """Probability density (1/s) of switching at time t under a pulse."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    params = model.params
    over = _overdrive(params, bias, direction)
    kappa = params.spin_rate() * over
    return model.constant(direction) * _raw_density(t, kappa, over, params.delta)


def switching_probability(t_p: float, direction: SwitchDirection, bias: float,
                          model: SwitchingModel) -> float:
    """Cumulative switching probability for a pulse of width t_p, in [0, 1]."""
    if t_p < 0:
        raise ValueError("t_p must be nonnegative")
    if t_p == 0:
        return 0.0
    raw = _raw_cdf(model.params, t_p, bias, direction)
    return min(1.0, max(0.0, model.constant(direction) * raw))


def expected_switch_time(t_p: float, direction: SwitchDirection, bias: float,
                         model: SwitchingModel) -> float:
    """Integral of t * pdf(t) over [0, t_p] (unconditional, in seconds)."""
    if t_p < 0:
        raise ValueError("t_p must be nonnegative")
    if t_p == 0:
        return 0.0
    params = model.params
    over = _overdrive(params, bias, direction)
    kappa = params.spin_rate() * over
    f = lambda t: t * _raw_density(t, kappa, over, params.delta)
    raw = _integrate_density(f, t_p, kappa, 1e-9 * max(over * t_p, 1.0))
    return model.constant(direction) * raw


class WriteEnergySplit(NamedTuple):
    """A write pulse's switch probability and its energy (J) per outcome."""

    p_switch: float
    switched: float
    unswitched: float

    @property
    def expected(self) -> float:
        return self.p_switch * self.switched + (1.0 - self.p_switch) * self.unswitched


def write_energy_split(t_p: float, direction: SwitchDirection, bias: float,
                       model: SwitchingModel) -> WriteEnergySplit:
    """Switch probability and per-outcome energies of a pulse of width t_p.

    If the device switches, the pulse carries the start-state current up to
    the expected switching time and the end-state current afterwards:
    V*(I_start*E[t_sw] + I_end*(T - E[t_sw])).  If it does not switch, the
    start-state current flows for the whole pulse: V*I_start*T.
    """
    params = model.params
    v = abs(bias)
    i_start = v / params.start_resistance(direction)
    i_end = v / params.end_resistance(direction)
    p_sw = switching_probability(t_p, direction, bias, model)
    e_t = expected_switch_time(t_p, direction, bias, model)
    e_sw = v * (i_start * e_t + i_end * (t_p - e_t))
    e_nsw = v * i_start * t_p
    return WriteEnergySplit(p_sw, e_sw, e_nsw)


def expected_write_energy(t_p: float, direction: SwitchDirection, bias: float,
                          model: SwitchingModel) -> float:
    """Expected energy (J) of a write pulse of width t_p: the outcome-weighted
    mean of `write_energy_split`, which the SNG cost model caches per q."""
    return write_energy_split(t_p, direction, bias, model).expected


def pulse_width_for_probability(p: float, direction: SwitchDirection, bias: float,
                                model: SwitchingModel,
                                max_pulse: float = DEFAULT_MAX_PULSE) -> float:
    """Smallest pulse width whose switching probability equals p.

    Solved by bisection to a relative width tolerance of 1e-6.  Raises if p
    is not reachable below `max_pulse`.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError("p must be in [0, 1)")
    if p == 0.0:
        return 0.0
    lo, hi = 0.0, max_pulse
    if switching_probability(hi, direction, bias, model) < p:
        raise ValueError(
            f"switching probability {p} not reachable below {max_pulse * 1e9:.3g} ns"
        )
    while hi - lo > 1e-6 * hi:
        mid = 0.5 * (lo + hi)
        if switching_probability(mid, direction, bias, model) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _fit_constant(params: MtjParams, anchor: tuple) -> float:
    """Density constant that puts the CDF through `anchor`."""
    t_p, p, direction, bias = anchor
    if not 0.0 < p < 1.0:
        raise ValueError("anchor probability must be in (0, 1)")
    raw = _raw_cdf(params, t_p, bias, direction)
    if raw <= 0.0:
        raise RuntimeError("calibration failed: zero density mass at the anchor")
    return p / raw


def calibrate(params: MtjParams, anchor: tuple) -> SwitchingModel:
    """Fix the density constant so the CDF passes through one anchor point.

    `anchor` is (pulse_width, probability, direction, bias).  Both
    directions receive the fitted constant; `calibrate_direction` can then
    override one of them.  Secondary anchors are recorded for checking, not
    fitted.
    """
    c = _fit_constant(params, anchor)
    return SwitchingModel(
        params=params,
        norm_constant={SwitchDirection.AP_TO_P: c, SwitchDirection.P_TO_AP: c},
        anchors=(anchor,),
    )


def calibrate_direction(model: SwitchingModel, anchor: tuple) -> SwitchingModel:
    """Refit the constant of a single direction from its own anchor point."""
    constants = dict(model.norm_constant)
    constants[anchor[2]] = _fit_constant(model.params, anchor)
    return SwitchingModel(params=model.params, norm_constant=constants,
                          anchors=model.anchors + (anchor,))


def calibrate_direction_to_energy(model: SwitchingModel, energy: float, p: float,
                                  direction: SwitchDirection, bias: float,
                                  bracket: tuple = (0.5e-9, 6e-9)) -> SwitchingModel:
    """Refit one direction so its expected write energy at the probability-p
    pulse width equals `energy`.

    Parametrized by the pulse width T at which the CDF reaches p: the
    direction constant becomes p / raw_cdf(T), and T is solved by bisection
    so the pulse energy matches.
    """

    def energy_at(t_anchor: float) -> float:
        m = calibrate_direction(model, (t_anchor, p, direction, bias))
        return expected_write_energy(t_anchor, direction, bias, m)

    lo, hi = bracket
    if not energy_at(lo) < energy < energy_at(hi):
        raise RuntimeError("energy anchor outside the bracketable range")
    while hi - lo > 1e-6 * hi:
        mid = 0.5 * (lo + hi)
        if energy_at(mid) < energy:
            lo = mid
        else:
            hi = mid
    t_anchor = 0.5 * (lo + hi)
    return calibrate_direction(model, (t_anchor, p, direction, bias))


def default_model(params: MtjParams | None = None) -> SwitchingModel:
    """Model calibrated to the published anchor measurements.

    AP->P: 99.9% switching at 3.40 ns, 1.2 V.  P->AP: expected write energy
    of 0.46 pJ at its own 99.9% pulse width.
    """
    params = params or MtjParams()
    t_anchor, p_anchor = AP2P_ANCHOR
    model = calibrate(params, (t_anchor, p_anchor, SwitchDirection.AP_TO_P,
                               params.v_write))
    return calibrate_direction_to_energy(
        model, P2AP_ENERGY_ANCHOR, p_anchor, SwitchDirection.P_TO_AP,
        params.v_write)
