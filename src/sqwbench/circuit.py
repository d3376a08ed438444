"""Flux-tunable resonator-array parameter solver.

Physical picture: half-wavelength transmission-line resonators of
length 2L (coordinate x in [-L, L]) joined at their midpoints by
symmetric SQUIDs.  An external flux through a SQUID sets an effective
quadratic coupling coefficient, summarized by two dimensionless ratios:

    chi_c = C_J / (2*L*c)           junction vs. total resonator capacitance
    chi_l = E(flux) * (2*L*l)       signed inverse-inductance ratio

The resonator mode wave numbers k solve the transcendental equation

    tan(kL) = -4*chi_c*kL + (chi_l_left + chi_l_right) / (2*kL)

with one root per tangent branch (plus a low branch-0 root when the
chi_l sum is positive).  Mode profiles are cos/sin pieces matched at
x = 0; the orthonormalization integral fixes the midpoint amplitude
u(0) = A in closed form, and the nearest-neighbor couplings follow as

    kappa_cap = 2*chi_c * u_n(0)*u_m(0) * sqrt(w_n*w_m)
    kappa_ind = chi_l_link / (2*k_n*k_m*L^2) * u_n(0)*u_m(0) * sqrt(w_n*w_m)
    kappa_total = -kappa_ind + kappa_cap

so the link switches off exactly when chi_l_link = 4*chi_c*(kL)^2.

All frequencies are reported in rad/s; dimensionless quantities (kL, A,
kappa/omega ratios) are the robust outputs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

from .errors import NumericError, UnreachableFluxError, ValidationError, _is_index, _is_number, _not_finite

__all__ = [
    "CircuitParams",
    "ChiPair",
    "ModeSolution",
    "CouplingResult",
    "OperatingPoint",
    "DEFAULT_PARAMS",
    "josephson_coefficient",
    "chi_from_params",
    "max_chi_l",
    "solve_mode",
    "normalization_amplitude",
    "couplings",
    "solve_flux_off",
    "pulse_duration",
    "solve_operating_point",
]


def _check_positive(label: str, value) -> None:
    if not (_is_number(value) and 0.0 < value <= sys.float_info.max):  # exact, also for an int past the floats
        raise ValidationError(f"{label} must be a positive finite number, got {value!r}")


@dataclass(frozen=True)
class CircuitParams:
    """SI-unit hardware constants of the resonator/SQUID array.

    cap_per_length : float
        Transmission-line capacitance per unit length (F/m).
    ind_per_length : float
        Transmission-line inductance per unit length (H/m).
    half_length : float
        Resonator half-length L (m); the line spans [-L, L].
    junction_capacitance : float
        SQUID junction capacitance C_J (F).
    josephson_energy : float
        Josephson energy E_J of each junction (J).
    flux_quantum : float
        Magnetic flux quantum (Wb).
    """

    cap_per_length: float
    ind_per_length: float
    half_length: float
    junction_capacitance: float
    josephson_energy: float
    flux_quantum: float = 2.0679e-15

    def __post_init__(self):
        for field in fields(self):
            _check_positive(field.name, getattr(self, field.name))
        # the formulas divide by these products, so one that overflows to inf or underflows to 0 is an input error
        _check_positive("flux_quantum**2", self.flux_quantum * self.flux_quantum)
        _check_positive("ind_per_length * cap_per_length", self.ind_per_length * self.cap_per_length)
        _check_positive("2 * half_length * cap_per_length", 2.0 * self.half_length * self.cap_per_length)
        # the solver's ratios, named by their inputs: an overflow would surface as a solver argument's inf
        chi = chi_from_params(self, josephson_coefficient(0.0, self))  # chi_l at integer flux is the largest
        labels = (
            "chi_c = junction_capacitance / (2 * half_length * cap_per_length)",
            "max chi_l = 4 pi**2 * josephson_energy / flux_quantum**2 * 2 * half_length * ind_per_length",
        )
        for label, value in zip(labels, (chi.chi_c, chi.chi_l)):
            if fault := _not_finite(label, value):
                raise ValidationError(fault)
        try:  # the all-on mode, chi_l sum = -2 * max chi_l, has the hardest branch-1 bracket of every solve
            _root_in_branch(1, chi.chi_c, -2.0 * chi.chi_l)
        except NumericError:
            raise ValidationError(
                f"{labels[0]} = {chi.chi_c!r} and {labels[1]} = {chi.chi_l!r} leave the all-on mode equation "
                "no root the solver can resolve in tangent branch 1"
            ) from None

    def wave_speed(self) -> float:
        """Electromagnetic wave speed 1/sqrt(l*c) in the line (m/s)."""
        return 1.0 / math.sqrt(self.ind_per_length * self.cap_per_length)


@dataclass(frozen=True)
class ChiPair:
    """Dimensionless junction ratios: relative capacitance and signed relative inverse inductance."""

    chi_c: float
    chi_l: float


@dataclass(frozen=True)
class ModeSolution:
    """One resonator mode: dimensionless wave number kL, frequency, and midpoint amplitude.

    ``omega`` is kL / (L * sqrt(l*c)) in rad/s.
    """

    kl: float
    amplitude: float
    mode_index: int
    omega: float


@dataclass(frozen=True)
class CouplingResult:
    """Capacitive and inductive link strengths (rad/s); total = -kappa_ind + kappa_cap."""

    kappa_cap: float
    kappa_ind: float

    @property
    def kappa_total(self) -> float:
        return -self.kappa_ind + self.kappa_cap


def josephson_coefficient(flux_ratio: float, params: CircuitParams) -> float:
    """Flux-tuned quadratic coupling coefficient of a symmetric SQUID (J/Wb^2).

    Even and 2-periodic in ``flux_ratio`` (external flux over one flux
    quantum); maximal magnitude at integer ratios, zero at half-integer.
    """
    if fault := _not_finite("flux_ratio", flux_ratio):
        raise ValidationError(fault)
    scale = 4.0 * math.pi**2 / params.flux_quantum**2
    return scale * params.josephson_energy * math.cos(math.pi * flux_ratio)


def chi_from_params(params: CircuitParams, josephson_coeff: float) -> ChiPair:
    """Dimensionless ratios for a given junction coefficient."""
    chi_c = params.junction_capacitance / (2.0 * params.half_length * params.cap_per_length)
    chi_l = josephson_coeff * (2.0 * params.half_length * params.ind_per_length)
    return ChiPair(chi_c=chi_c, chi_l=chi_l)


def max_chi_l(params: CircuitParams) -> float:
    """Largest reachable |chi_l| (at integer flux ratios)."""
    return abs(chi_from_params(params, josephson_coefficient(0.0, params)).chi_l)


def _mode_equation(x: float, chi_c: float, chi_sum: float) -> float:
    return math.tan(x) + 4.0 * chi_c * x - chi_sum / (2.0 * x)


def _mode_equation_derivative(x: float, chi_c: float, chi_sum: float) -> float:
    return 1.0 / math.cos(x) ** 2 + 4.0 * chi_c + chi_sum / (2.0 * x * x)


def _root_in_branch(branch: int, chi_c: float, chi_sum: float) -> float | None:
    """Root of the mode equation inside one tangent branch.

    Branch m covers ((m-1/2)*pi, (m+1/2)*pi); branch 0 covers (0, pi/2)
    and holds a root only when the chi_l sum is positive.  Bisection
    narrows the bracket, a guarded derivative step polishes the root to
    residual below 1e-12.
    """
    lo_edge = max(branch - 0.5, 0.0) * math.pi
    hi_edge = (branch + 0.5) * math.pi
    bracket = None
    for delta in (1e-9, 1e-12, 1e-14):
        shift = delta * max(1.0, hi_edge)
        lo = lo_edge + shift
        hi = hi_edge - shift
        f_lo = _mode_equation(lo, chi_c, chi_sum)
        f_hi = _mode_equation(hi, chi_c, chi_sum)
        if f_lo < 0.0 < f_hi:
            bracket = (lo, hi, f_lo)
            break
    if bracket is None:
        if branch == 0:
            return None
        raise NumericError(
            f"no sign change found in tangent branch {branch} "
            f"({lo_edge:.6g}, {hi_edge:.6g}) for chi_c={chi_c!r}, chi_l sum={chi_sum!r}"
        )
    lo, hi, f_lo = bracket
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        f_mid = _mode_equation(mid, chi_c, chi_sum)
        if f_mid < 0.0:
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    for _ in range(60):
        fx = _mode_equation(x, chi_c, chi_sum)
        if abs(fx) < 1e-12:
            return x
        dfx = _mode_equation_derivative(x, chi_c, chi_sum)
        step_ok = dfx != 0.0
        if step_ok:
            x_new = x - fx / dfx
            step_ok = lo < x_new < hi
        if step_ok:
            x = x_new
        else:
            # derivative step left the bracket; fall back to bisection
            if fx < 0.0:
                lo = x
            else:
                hi = x
            x = 0.5 * (lo + hi)
    raise NumericError(
        f"root polishing stalled in branch {branch} at x={x!r} "
        f"(residual {_mode_equation(x, chi_c, chi_sum)!r})"
    )


# 50-ohm line, 1-cm half-length, standard junction values
DEFAULT_PARAMS = CircuitParams(
    cap_per_length=1e-10,
    ind_per_length=2.5e-7,
    half_length=1e-2,
    junction_capacitance=1e-15,
    josephson_energy=6.6262e-24,
)


def solve_mode(
    chi_c: float,
    chi_l_left: float,
    chi_l_right: float,
    mode_index: int,
    params: CircuitParams,
) -> ModeSolution:
    """The mode_index-th positive root of the transcendental mode equation.

    ``chi_l_left`` and ``chi_l_right`` are the inverse-inductance ratios
    of the two SQUIDs flanking the resonator; only their sum enters.
    Roots are enumerated branch by branch in increasing order; ``params``
    turns the root kL into the mode frequency ``omega``.
    """
    for name, value in (("chi_c", chi_c), ("chi_l_left", chi_l_left), ("chi_l_right", chi_l_right)):
        if fault := _not_finite(name, value):
            raise ValidationError(fault)
    if not _is_index(mode_index) or mode_index < 1:
        raise ValidationError(f"mode_index must be an integer >= 1, got {mode_index!r}")
    chi_sum = chi_l_left + chi_l_right
    roots: list[float] = []
    branch = 0
    while len(roots) < mode_index:
        root = _root_in_branch(branch, chi_c, chi_sum)
        if root is not None:
            roots.append(root)
        branch += 1
    kl = roots[mode_index - 1]
    omega = kl * params.wave_speed() / params.half_length
    return ModeSolution(kl=kl, amplitude=normalization_amplitude(kl, chi_c), mode_index=mode_index, omega=omega)


def normalization_amplitude(kl: float, chi_c: float) -> float:
    """Midpoint amplitude u(0) = A fixed by the mode orthonormalization.

    The mode profile is u(x) = A*cos(kx) +- B*sin(kx) with
    B = A*tan(kL); the weighted norm (c/2) integral of u^2 over the line
    plus the junction term 2*C_J*u(0)^2 must equal L*c/2.  The cos/sin
    integrals are elementary, giving

        A = 1 / sqrt(1 + tan(kL)^2 + tan(kL)/kL + 8*chi_c).
    """
    if not (math.isfinite(kl) and kl > 0):
        raise ValidationError(f"kl must be positive and finite, got {kl!r}")
    t = math.tan(kl)
    weight = 1.0 + t * t + t / kl + 8.0 * chi_c
    if weight <= 0.0:
        raise ValidationError(f"orthonormalization weight is non-positive ({weight!r}) at kl={kl!r}")
    return 1.0 / math.sqrt(weight)


def couplings(mode_n: ModeSolution, mode_m: ModeSolution, chi_c: float, chi_l_link: float) -> CouplingResult:
    """Capacitive and inductive couplings of the link joining two solved modes."""
    shared = mode_n.amplitude * mode_m.amplitude * math.sqrt(mode_n.omega * mode_m.omega)
    kappa_cap = 2.0 * chi_c * shared
    kappa_ind = chi_l_link / (2.0 * mode_n.kl * mode_m.kl) * shared
    return CouplingResult(kappa_cap=kappa_cap, kappa_ind=kappa_ind)


def solve_flux_off(chi_c: float, kl: float, chi_l_max: float) -> float:
    """Flux ratio at which a link's total coupling vanishes.

    The inductive part cancels the capacitive one when
    chi_l = 4*chi_c*(kL)^2, i.e. at flux ratio
    arccos(4*chi_c*(kL)^2 / chi_l_max) / pi.
    """
    if chi_l_max <= 0:
        raise ValidationError(f"chi_l_max must be positive, got {chi_l_max!r}")
    target = 4.0 * chi_c * kl * kl
    if target > chi_l_max:
        scale = target / chi_l_max
        raise UnreachableFluxError(
            f"zero-coupling point needs chi_l = {target:.6g} but the junction only reaches "
            f"{chi_l_max:.6g}; the Josephson energy would have to grow by a factor {scale:.4g}",
            required_energy_scale=scale,
        )
    return math.acos(target / chi_l_max) / math.pi


def pulse_duration(theta: float, kappa_total: float) -> float:
    """Interval length tau realizing a rotation angle theta = kappa*tau.

    The angle is first reduced modulo 2*pi, since theta and theta + 2*pi
    generate the same local operator.
    """
    if kappa_total == 0.0:
        raise ValidationError("coupling strength is zero; no pulse duration realizes the angle")
    if fault := _not_finite("theta", theta):
        raise ValidationError(fault)
    return theta % (2.0 * math.pi) / kappa_total


@dataclass(frozen=True)
class OperatingPoint:
    """Solved switch settings for one link of the array.

    ``mode_all_on`` is the resonator mode when both flanking SQUIDs are
    driven at the on-flux; ``mode_operating`` is the self-consistent
    mode during the walk, when one flanking SQUID is on and the other is
    parked at the zero-coupling flux.  ``coupling_on``/``coupling_off``
    are the driven and idle link strengths at the operating mode.
    """

    chi_c: float
    chi_l_max: float
    chi_l_off: float
    flux_on: float
    flux_off: float
    mode_all_on: ModeSolution
    mode_operating: ModeSolution
    coupling_on: CouplingResult
    coupling_off: CouplingResult


def solve_operating_point(params: CircuitParams) -> OperatingPoint:
    """Solve the on/off switch settings of the fundamental mode self-consistently.

    The idle SQUID's chi_l must equal 4*chi_c*(kL)^2 at the very mode
    that chi_l itself shifts, so the mode and the off-ratio are iterated
    to a fixed point (convergence is fast: the off-ratio is a small
    correction).
    """
    pair = chi_from_params(params, josephson_coefficient(1.0, params))
    chi_c = pair.chi_c
    chi_lm = abs(pair.chi_l)
    mode_all_on = solve_mode(chi_c, -chi_lm, -chi_lm, 1, params)
    kl = mode_all_on.kl
    try:
        for _ in range(80):  # a safety bound; a few iterations converge
            solve_flux_off(chi_c, kl, chi_lm)  # raises UnreachableFluxError once the off point is out of reach
            mode_operating = solve_mode(chi_c, -chi_lm, 4.0 * chi_c * kl * kl, 1, params)
            converged = abs(mode_operating.kl - kl) < 1e-13
            kl = mode_operating.kl
            if converged:
                break
        else:
            raise NumericError("operating-point iteration did not converge")
        flux_off = solve_flux_off(chi_c, kl, chi_lm)
    except UnreachableFluxError as exc:
        required = params.josephson_energy * exc.required_energy_scale
        raise UnreachableFluxError(f"{exc} (required E_J >= {required:.6g} J)", exc.required_energy_scale) from None
    chi_off = 4.0 * chi_c * kl * kl
    return OperatingPoint(
        chi_c=chi_c,
        chi_l_max=chi_lm,
        chi_l_off=chi_off,
        flux_on=1.0,
        flux_off=flux_off,
        mode_all_on=mode_all_on,
        mode_operating=mode_operating,
        coupling_on=couplings(mode_operating, mode_operating, chi_c, -chi_lm),
        coupling_off=couplings(mode_operating, mode_operating, chi_c, chi_off),
    )
