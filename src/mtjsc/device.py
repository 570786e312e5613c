"""Precessional-mode MTJ switching statistics and write energy.

The switching-time density for a current-driven MTJ in the precessional
regime is

    pdf(t) = C * exp(-delta * sin^2(phi)) * (J - Jc0) * sin^2(phi)

with phi(t) = (pi/2) * exp(-(eta * mu_B / (e * Ms * t_F)) * (J - Jc0) * t).

The proportionality constant C is not a device constant; it is fixed per
switching direction by calibrating the cumulative switching probability
against measured anchor points (see `default_model`).  All currents follow
from the write bias `params.v_write` and the start-state resistance; the
energy of a write pulse splits the pulse at the expected switching time
between start-state and end-state currents.
"""

from __future__ import annotations

import bisect
import enum
import functools
import math
import numbers
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

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

# Pulse widths (s) that `default_model` searches for the P->AP energy anchor.
ENERGY_ANCHOR_BRACKET = (0.5e-9, 6e-9)


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
    v_write: float = 1.2                # V
    v_read: float = -0.1                # V
    t_reset: float = 4.33e-9            # s
    t_read: float = 2.0e-9              # s

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{f.name} must be a real number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
            # v_read is negative by design; every other field is a magnitude.
            if f.name != "v_read" and value <= 0:
                raise ValueError(f"{f.name} must be positive, got {value}")
        if self.eta_spin > 1:
            raise ValueError(f"eta_spin must be in (0, 1], got {self.eta_spin}")

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

    def current_density(self, direction: SwitchDirection) -> float:
        """J through the junction at v_write, start-state resistance."""
        return self.v_write / (self.start_resistance(direction) * self.cell_area)

    def spin_rate(self) -> float:
        """eta*mu_B / (e*Ms*t_F): converts overdrive (A/m^2) to 1/s."""
        return self.eta_spin * MU_B / (E_CHARGE * self.ms * self.t_f)


@dataclass(frozen=True)
class SwitchingModel:
    """Calibrated switching model: params plus one pdf constant per
    direction, each field named by its direction's value."""

    params: MtjParams
    ap_to_p: float
    p_to_ap: float
    anchors: tuple = ()

    def __post_init__(self):
        # A float passes before the abstract-class check: calibration builds
        # a model per bisection probe, and that check costs more than the
        # rest of the construction.
        for name, c in (("ap_to_p", self.ap_to_p), ("p_to_ap", self.p_to_ap)):
            if not isinstance(c, float) and (
                    isinstance(c, bool) or not isinstance(c, numbers.Real)):
                raise ValueError(f"{name} constant must be a real number, "
                                 f"got {c!r}")
            if not 0.0 < c < math.inf:
                raise ValueError(f"{name} constant must be finite and "
                                 f"positive, got {c!r}")
        if not (isinstance(self.anchors, tuple)
                and all(isinstance(a, tuple) for a in self.anchors)):
            raise ValueError(f"anchors must be a tuple of tuples, got "
                             f"{self.anchors!r}")

    def constant(self, direction: SwitchDirection) -> float:
        if direction is SwitchDirection.AP_TO_P:
            return self.ap_to_p
        if direction is SwitchDirection.P_TO_AP:
            return self.p_to_ap
        raise TypeError(f"direction must be a SwitchDirection, got {direction!r}")


def _check_time(name: str, t: float) -> None:
    """Reject a pulse width or time that is negative or not finite: the
    fixed quadrature rule would silently return NaN for it."""
    if not 0.0 <= t < math.inf:
        raise ValueError(f"{name} must be finite and nonnegative, got {t}")


def _overdrive(params: MtjParams, direction: SwitchDirection) -> float:
    j = params.current_density(direction)
    jc0 = params.jc0(direction)
    if j <= jc0:
        raise ValueError(
            f"v_write {params.v_write} V gives J = {j:.3e} A/m^2 "
            f"<= Jc0 = {jc0:.3e}; not in the precessional regime"
        )
    return j - jc0


def _density(params: MtjParams, direction: SwitchDirection):
    """The uncalibrated density t -> exp(-delta*s2) * over * s2, where
    s2 = sin^2((pi/2) * exp(-kappa*t)), and its kappa."""
    if not isinstance(direction, SwitchDirection):
        raise TypeError(f"direction must be a SwitchDirection, got {direction!r}")
    over = _overdrive(params, direction)
    kappa = params.spin_rate() * over
    half_pi, neg_kappa, neg_delta = 0.5 * math.pi, -kappa, -params.delta
    exp, sin = math.exp, math.sin

    def density(t: float) -> float:
        s2 = sin(half_pi * exp(neg_kappa * t)) ** 2
        return exp(neg_delta * s2) * over * s2

    return density, kappa


# Six-node Gauss-Legendre rule on [-1, 1] (Golub and Welsch, "Calculation
# of Gauss quadrature rules", Math. Comp. 23, 1969).
_GAUSS_RULE = tuple(zip(*(a.tolist() for a in np.polynomial.legendre.leggauss(6))))


def _gauss(f, a: float, b: float) -> float:
    """The six-node Gauss-Legendre rule for the integral of f over [a, b]."""
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    total = 0.0
    for x, w in _GAUSS_RULE:
        total += w * f(mid + half * x)
    return half * total


def _gauss_moments(density, a: float, b: float) -> tuple:
    """`_gauss` for density and for t * density over [a, b] at once, one
    density evaluation per node; each sum is the one `_gauss` makes."""
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    total, moment = 0.0, 0.0
    for x, w in _GAUSS_RULE:
        t = mid + half * x
        d = density(t)
        total += w * d
        moment += w * (t * d)
    return half * total, half * moment


# The density is a narrow bump on the kappa*t timescale; cutting the
# integration range at fixed multiples of 1/kappa keeps each piece smooth
# enough for one fixed rule.
_SPLIT_POINTS = (0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 9.0, 13.0, 18.0, 25.0)


class _Table(NamedTuple):
    """The knot table of the uncalibrated density of one (params,
    direction); see `_integrators`."""

    density: Callable[[float], float]
    knots: tuple
    cumulative: tuple   # (integral, first moment) over [0, knot], per knot
    spine: tuple        # (t_j, cdf(t_j)), t_j = DEFAULT_MAX_PULSE * 2**-j

    def cdf(self, t_end: float) -> float:
        """The integral of the density over [0, t_end]."""
        knots = self.knots
        last = bisect.bisect_left(knots, t_end, 1) - 1
        return self.cumulative[last][0] + _gauss(self.density, knots[last], t_end)

    def moments(self, t_end: float) -> tuple:
        """The integrals of the density and of t * density over [0, t_end]."""
        knots = self.knots
        last = bisect.bisect_left(knots, t_end, 1) - 1
        total, moment = self.cumulative[last]
        tail, tail_moment = _gauss_moments(self.density, knots[last], t_end)
        return total + tail, moment + tail_moment


@functools.cache
def _integrators(params: MtjParams, direction: SwitchDirection) -> _Table:
    """The knot table of the uncalibrated density of one (params, direction),
    built whole.

    `cdf(t)` integrates the density over [0, t] by `_gauss`, and
    `moments(t)` the density and t * density by `_gauss_moments`, which
    makes the same sums; each adds one rule over [last knot below t, t] to
    the kept integrals up to that knot, which sum one `_gauss_moments` rule
    per piece in knot order.  The spine holds cdf(t_j) at t_j =
    DEFAULT_MAX_PULSE halved j times, the left spine of a bisection over
    [0, DEFAULT_MAX_PULSE], from node 0 down to the first node below the
    first knot 0.5/kappa.

    The table depends on neither the fitted constant nor the pulse, so
    every model on equal params, calibration's included, shares one; it is
    never changed once built."""
    density, kappa = _density(params, direction)
    knots = (0.0,) + tuple(x / kappa for x in _SPLIT_POINTS)
    cumulative = [(0.0, 0.0)]
    for a, b in zip(knots, knots[1:]):
        total, moment = _gauss_moments(density, a, b)
        cumulative.append((cumulative[-1][0] + total, cumulative[-1][1] + moment))
    table = _Table(density, knots, tuple(cumulative), ())
    spine = [(DEFAULT_MAX_PULSE, table.cdf(DEFAULT_MAX_PULSE))]
    while spine[-1][0] >= knots[1]:
        t = 0.5 * spine[-1][0]
        spine.append((t, table.cdf(t)))
    return table._replace(spine=tuple(spine))


def _probability(c: float, raw: float) -> float:
    """The calibrated switching probability of an uncalibrated CDF value."""
    return min(1.0, max(0.0, c * raw))


def switching_probability(t_p: float, direction: SwitchDirection,
                          model: SwitchingModel) -> float:
    """Cumulative switching probability for a pulse of width t_p, in [0, 1]."""
    _check_time("t_p", t_p)
    raw = _integrators(model.params, direction).cdf(t_p)
    return _probability(model.constant(direction), raw)


class WriteEnergySplit(NamedTuple):
    """A write pulse's switch probability and its energy (J) per outcome."""

    p_switch: float
    switched: float
    unswitched: float

    @property
    def expected(self) -> float:
        return self.p_switch * self.switched + (1.0 - self.p_switch) * self.unswitched


def write_energy_split(t_p: float, direction: SwitchDirection,
                       model: SwitchingModel) -> WriteEnergySplit:
    """Switch probability and per-outcome energies of a pulse of width t_p.

    If the device switches, the pulse carries the start-state current up to
    the expected switching time and the end-state current afterwards:
    V*(I_start*E[t_sw] + I_end*(T - E[t_sw])).  If it does not switch, the
    start-state current flows for the whole pulse: V*I_start*T.  Both
    integrals come from one pass of the knot table, `moments`: p_switch is
    bit for bit what `switching_probability` returns, and E[t_sw] is the
    model constant times the first moment.
    """
    _check_time("t_p", t_p)
    params = model.params
    v = params.v_write
    i_start = v / params.start_resistance(direction)
    i_end = v / params.end_resistance(direction)
    raw, moment = _integrators(params, direction).moments(t_p)
    c = model.constant(direction)
    p_sw = _probability(c, raw)
    e_t = c * moment
    e_sw = v * (i_start * e_t + i_end * (t_p - e_t))
    e_nsw = v * i_start * t_p
    return WriteEnergySplit(p_sw, e_sw, e_nsw)


def expected_write_energy(t_p: float, direction: SwitchDirection,
                          model: SwitchingModel) -> float:
    """Expected energy (J) of a write pulse of width t_p: the outcome-weighted
    mean of `write_energy_split`, which the SNG cost model caches per q."""
    return write_energy_split(t_p, direction, model).expected


def _bisect(f, target: float, lo: float, hi: float) -> float:
    """Bisect [lo, hi] on f(mid) < target to a relative width of 1e-6 and
    return its midpoint; f is nondecreasing, and callers check the ends."""
    while hi - lo > 1e-6 * hi:
        mid = 0.5 * (lo + hi)
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def pulse_width_for_probability(p: float, direction: SwitchDirection,
                                model: SwitchingModel) -> float:
    """Smallest pulse width whose switching probability equals p.

    Solved by `_bisect` over [0, DEFAULT_MAX_PULSE] to a relative width
    tolerance of 1e-6, every midpoint priced through the shared knot table.
    Until a midpoint falls short of p, the bisection halves its upper end
    with its lower end at 0; those midpoints are the table's spine, so the
    search reads them and starts from the first one short of p, or from 0
    below the last one, with the same midpoints after it.  A probe compares
    c * cdf(t) with p unclamped, which for 0 < p < 1 and the finite,
    positive c that `SwitchingModel` holds answers as the clamped
    `switching_probability` would.  Raises if p is not reachable below
    `DEFAULT_MAX_PULSE` (spine node 0); the CDF levels off below 1 (AP->P
    near 0.999985 for the default model), so a p above that level is
    refused.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"p must be in [0, 1), got {p}")
    if p == 0.0:
        return 0.0
    table = _integrators(model.params, direction)
    cdf, c = table.cdf, model.constant(direction)
    if c * table.spine[0][1] < p:
        raise ValueError(f"switching probability {p} not reachable below "
                         f"{DEFAULT_MAX_PULSE * 1e9:.3g} ns")
    lo, hi = 0.0, DEFAULT_MAX_PULSE
    for t, raw in table.spine[1:]:
        if c * raw < p:
            lo = t
            break
        hi = t
    return _bisect(lambda t: c * cdf(t), p, lo, hi)


def _fit_constant(params: MtjParams, anchor: tuple) -> float:
    """Density constant that puts the CDF through `anchor`."""
    t_p, p, direction = anchor
    if not 0.0 < p < 1.0:
        raise ValueError(f"anchor probability must be in (0, 1), got {p}")
    _check_time("anchor pulse width", t_p)
    raw = _integrators(params, direction).cdf(t_p)
    if raw <= 0.0:
        raise RuntimeError("calibration failed: zero density mass at the anchor")
    return p / raw


def default_model(params: MtjParams | None = None) -> SwitchingModel:
    """Model calibrated to the published anchor measurements.

    AP->P: 99.9% switching at 3.40 ns, 1.2 V, fitted by `_fit_constant`.
    P->AP: expected write energy of 0.46 pJ at its own 99.9% pulse width T;
    `_bisect` solves T over `ENERGY_ANCHOR_BRACKET`, each probe fitting the
    P->AP constant through (T, 99.9%) and pricing the write at T.
    """
    params = params or MtjParams()
    t_anchor, p_anchor = AP2P_ANCHOR
    ap_anchor = (t_anchor, p_anchor, SwitchDirection.AP_TO_P)
    c_ap = _fit_constant(params, ap_anchor)

    def fitted(t: float) -> SwitchingModel:
        p2ap_anchor = (t, p_anchor, SwitchDirection.P_TO_AP)
        return SwitchingModel(params, c_ap, _fit_constant(params, p2ap_anchor),
                              (ap_anchor, p2ap_anchor))

    def energy_at(t: float) -> float:
        return expected_write_energy(t, SwitchDirection.P_TO_AP, fitted(t))

    energy, (lo, hi) = P2AP_ENERGY_ANCHOR, ENERGY_ANCHOR_BRACKET
    e_lo, e_hi = energy_at(lo), energy_at(hi)
    if not e_lo < energy < e_hi:
        raise RuntimeError(
            f"energy anchor {energy} J outside the bracketable range: "
            f"{e_lo} J at {lo} s, {e_hi} J at {hi} s")
    return fitted(_bisect(energy_at, energy, lo, hi))
