import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from sqwbench.circuit import (
    DEFAULT_PARAMS,
    CircuitParams,
    chi_from_params,
    couplings,
    josephson_coefficient,
    max_chi_l,
    normalization_amplitude,
    pulse_duration,
    solve_flux_off,
    solve_mode,
    solve_operating_point,
)
from sqwbench.errors import NumericError, UnreachableFluxError, ValidationError

CHI_C = 0.5e-3
CHI_L_MAX = 0.3059


def mode_residual(kl, chi_c, chi_sum):
    return math.tan(kl) + 4 * chi_c * kl - chi_sum / (2 * kl)


def quadrature_amplitude(kl, chi_c):
    """Independent normalization oracle: numeric integral of the mode profile."""
    t = math.tan(kl)

    def profile_sq(s):
        return (math.cos(kl * s) + t * math.sin(kl * abs(s))) ** 2

    integral, _ = quad(profile_sq, -1.0, 1.0, points=[0.0], limit=200, epsabs=1e-13, epsrel=1e-13)
    return 1.0 / math.sqrt(integral + 8.0 * chi_c)


class TestJosephsonCoefficient:
    def test_half_flux_kills_coupling(self):
        peak = abs(josephson_coefficient(0.0, DEFAULT_PARAMS))
        assert abs(josephson_coefficient(0.5, DEFAULT_PARAMS)) < 1e-15 * peak

    def test_full_flux_ratio_gives_negative_maximum(self):
        coeff = josephson_coefficient(1.0, DEFAULT_PARAMS)
        scale = 4 * math.pi**2 / DEFAULT_PARAMS.flux_quantum**2
        assert coeff == pytest.approx(-scale * DEFAULT_PARAMS.josephson_energy, rel=1e-12)

    def test_off_flux_matches_quoted_cosine(self):
        coeff = josephson_coefficient(0.4801, DEFAULT_PARAMS)
        chi_l = chi_from_params(DEFAULT_PARAMS, coeff).chi_l
        assert chi_l == pytest.approx(0.0191, abs=2e-4)

    def test_even_and_periodic_in_flux(self):
        for f in (0.1, 0.37, 0.9):
            a = josephson_coefficient(f, DEFAULT_PARAMS)
            assert josephson_coefficient(-f, DEFAULT_PARAMS) == pytest.approx(a, rel=1e-12)
            assert josephson_coefficient(f + 2.0, DEFAULT_PARAMS) == pytest.approx(a, rel=1e-9)


class TestChiFromParams:
    def test_relative_capacitance(self):
        pair = chi_from_params(DEFAULT_PARAMS, 0.0)
        assert pair.chi_c == pytest.approx(0.5e-3, rel=1e-12)

    def test_relative_inverse_inductance_at_full_flux(self):
        pair = chi_from_params(DEFAULT_PARAMS, josephson_coefficient(1.0, DEFAULT_PARAMS))
        assert pair.chi_l == pytest.approx(-0.3059, abs=5e-5)
        assert max_chi_l(DEFAULT_PARAMS) == pytest.approx(0.3059, abs=5e-5)

    def test_zero_coefficient(self):
        assert chi_from_params(DEFAULT_PARAMS, 0.0).chi_l == 0.0

    def test_positivity_enforced(self):
        with pytest.raises(ValidationError):
            CircuitParams(0.0, 2.5e-7, 1e-2, 1e-15, 6.6e-24)


class TestSolveMode:
    def test_both_couplers_on(self):
        mode = solve_mode(CHI_C, -CHI_L_MAX, -CHI_L_MAX, 1, DEFAULT_PARAMS)
        assert mode.kl == pytest.approx(3.0351, abs=5e-4)

    def test_one_on_one_off(self):
        mode = solve_mode(CHI_C, -CHI_L_MAX, 0.0191, 1, DEFAULT_PARAMS)
        assert mode.kl == pytest.approx(3.089, abs=1e-3)

    def test_bare_resonator_first_mode_is_pi(self):
        mode = solve_mode(0.0, 0.0, 0.0, 1, DEFAULT_PARAMS)
        assert mode.kl == pytest.approx(math.pi, abs=1e-12)

    def test_residuals_below_tolerance(self):
        for chi_c in (0.0, 2e-4, 1e-3, 5e-3):
            for chi_l in (-0.3, -0.05, 0.0, 0.02, 0.3):
                for idx in (1, 2, 3):
                    mode = solve_mode(chi_c, chi_l, chi_l, idx, DEFAULT_PARAMS)
                    assert abs(mode_residual(mode.kl, chi_c, 2 * chi_l)) < 1e-10

    def test_roots_strictly_increase_with_mode_index(self):
        for chi_l in (-0.3, 0.0, 0.25):
            kls = [solve_mode(CHI_C, chi_l, chi_l, m, DEFAULT_PARAMS).kl for m in range(1, 6)]
            assert all(a < b for a, b in zip(kls, kls[1:]))

    def test_positive_chi_sum_adds_low_branch_root(self):
        mode1 = solve_mode(CHI_C, 0.3, 0.3, 1, DEFAULT_PARAMS)
        assert 0.0 < mode1.kl < math.pi / 2
        mode2 = solve_mode(CHI_C, 0.3, 0.3, 2, DEFAULT_PARAMS)
        assert math.pi / 2 < mode2.kl < 1.5 * math.pi

    def test_omega_filled_from_params(self):
        mode = solve_mode(CHI_C, -CHI_L_MAX, -CHI_L_MAX, 1, DEFAULT_PARAMS)
        expected = mode.kl * DEFAULT_PARAMS.wave_speed() / DEFAULT_PARAMS.half_length
        assert mode.omega == pytest.approx(expected, rel=1e-15)

    def test_pathological_chi_reports_branch(self):
        with pytest.raises(NumericError, match="branch"):
            solve_mode(0.0, -1e18, -1e18, 1, DEFAULT_PARAMS)

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValidationError):
            solve_mode(float("nan"), 0.0, 0.0, 1, DEFAULT_PARAMS)
        with pytest.raises(ValidationError):
            solve_mode(0.0, 0.0, 0.0, 0, DEFAULT_PARAMS)

    @pytest.mark.parametrize("mode_index", [1.5, True, 0, -1])
    def test_mode_index_must_be_a_positive_integer(self, mode_index):
        # 1.5 used to fail as a list index with TypeError, and True was taken as mode 1
        with pytest.raises(ValidationError, match=r"mode_index must be an integer >= 1, got "):
            solve_mode(5e-4, -0.3, -0.3, mode_index, DEFAULT_PARAMS)


@pytest.mark.parametrize(
    "call,name",
    [
        (lambda x: josephson_coefficient(x, DEFAULT_PARAMS), "flux_ratio"),
        (lambda x: solve_mode(x, 0.0, 0.0, 1, DEFAULT_PARAMS), "chi_c"),
        (lambda x: solve_mode(CHI_C, -0.3, x, 1, DEFAULT_PARAMS), "chi_l_right"),
        (lambda x: pulse_duration(x, 1e9), "theta"),
    ],
    ids=["josephson_coefficient", "solve_mode-chi_c", "solve_mode-chi_l", "pulse_duration"],
)
def test_integer_beyond_float_range_is_not_finite(call, name):
    # compared exactly, not converted to float, which would raise OverflowError
    with pytest.raises(ValidationError) as info:
        call(10**400)
    assert str(info.value) == f"{name} must be finite, got {10**400}"


class TestNormalizationAmplitude:
    def test_quoted_midpoint_amplitude(self):
        mode = solve_mode(CHI_C, -CHI_L_MAX, -CHI_L_MAX, 1, DEFAULT_PARAMS)
        a = normalization_amplitude(mode.kl, CHI_C)
        assert 1.005 <= a <= 1.015
        assert a == pytest.approx(quadrature_amplitude(mode.kl, CHI_C), abs=1e-8)

    def test_bare_cosine_mode(self):
        a = normalization_amplitude(math.pi, 0.0)
        assert a == pytest.approx(1.0, abs=1e-12)
        assert a == pytest.approx(quadrature_amplitude(math.pi, 0.0), abs=1e-8)

    def test_matches_quadrature_on_grid(self):
        for chi_c in (0.0, 2e-4, 1e-3, 4e-3):
            for chi_l in (-0.3, -0.1, 0.0, 0.15):
                kl = solve_mode(chi_c, chi_l, chi_l, 1, DEFAULT_PARAMS).kl
                assert normalization_amplitude(kl, chi_c) == pytest.approx(
                    quadrature_amplitude(kl, chi_c), abs=1e-8
                )

    def test_amplitude_decreases_with_chi_c(self):
        kl = solve_mode(CHI_C, -CHI_L_MAX, -CHI_L_MAX, 1, DEFAULT_PARAMS).kl
        values = [normalization_amplitude(kl, chi_c) for chi_c in (2e-4, 4e-4, 8e-4, 1.6e-3)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_invalid_kl_rejected(self):
        with pytest.raises(ValidationError):
            normalization_amplitude(0.0, CHI_C)


class TestCouplings:
    def test_quoted_ratios_both_on(self):
        mode = solve_mode(CHI_C, -CHI_L_MAX, -CHI_L_MAX, 1, DEFAULT_PARAMS)
        link = couplings(mode, mode, CHI_C, -CHI_L_MAX)
        assert link.kappa_cap / mode.omega == pytest.approx(1.0201e-3, abs=1e-6)
        assert link.kappa_ind / mode.omega == pytest.approx(-1.6939e-2, abs=2e-5)
        assert link.kappa_total == -link.kappa_ind + link.kappa_cap

    def test_balanced_link_switches_off(self):
        mode = solve_mode(CHI_C, -CHI_L_MAX, 0.0191, 1, DEFAULT_PARAMS)
        link = couplings(mode, mode, CHI_C, 4 * CHI_C * mode.kl**2)
        assert abs(link.kappa_total) / mode.omega < 1e-12

    def test_ratios_are_scale_free(self):
        base_mode = solve_mode(CHI_C, -CHI_L_MAX, -CHI_L_MAX, 1, DEFAULT_PARAMS)
        base = couplings(base_mode, base_mode, CHI_C, -CHI_L_MAX)
        scaled_params = CircuitParams(
            cap_per_length=DEFAULT_PARAMS.cap_per_length * 3.7,
            ind_per_length=DEFAULT_PARAMS.ind_per_length * 3.7,
            half_length=DEFAULT_PARAMS.half_length,
            junction_capacitance=DEFAULT_PARAMS.junction_capacitance,
            josephson_energy=DEFAULT_PARAMS.josephson_energy,
        )
        scaled_mode = solve_mode(CHI_C, -CHI_L_MAX, -CHI_L_MAX, 1, scaled_params)
        scaled = couplings(scaled_mode, scaled_mode, CHI_C, -CHI_L_MAX)
        assert scaled.kappa_cap / scaled_mode.omega == pytest.approx(
            base.kappa_cap / base_mode.omega, abs=1e-12
        )
        assert scaled.kappa_ind / scaled_mode.omega == pytest.approx(
            base.kappa_ind / base_mode.omega, abs=1e-12
        )


class TestSolveFluxOff:
    def test_quoted_off_flux(self):
        mode = solve_mode(CHI_C, -CHI_L_MAX, 0.0191, 1, DEFAULT_PARAMS)
        assert solve_flux_off(CHI_C, mode.kl, CHI_L_MAX) == pytest.approx(0.4801, abs=5e-4)

    def test_zero_chi_c_means_half_flux(self):
        assert solve_flux_off(0.0, 3.0, CHI_L_MAX) == pytest.approx(0.5, abs=1e-15)

    def test_boundary_case(self):
        kl = 3.0
        chi_l_max = 4 * CHI_C * kl * kl
        assert solve_flux_off(CHI_C, kl, chi_l_max) == pytest.approx(0.0, abs=1e-12)

    def test_unreachable_reports_required_energy_scale(self):
        kl = 3.0
        with pytest.raises(UnreachableFluxError) as excinfo:
            solve_flux_off(CHI_C, kl, 0.001)
        assert excinfo.value.required_energy_scale == pytest.approx(4 * CHI_C * kl * kl / 0.001)
        assert "Josephson energy" in str(excinfo.value)


class TestPulseDuration:
    def test_linear_in_theta(self):
        kappa = 2 * math.pi * 10.63e6
        assert pulse_duration(0.0, kappa) == 0.0
        tau3 = pulse_duration(math.pi / 3, kappa)
        tau4 = pulse_duration(math.pi / 4, kappa)
        assert tau4 / tau3 == pytest.approx(0.75, rel=1e-12)

    def test_period_reduction(self):
        kappa = 1e9
        assert pulse_duration(2 * math.pi + math.pi / 3, kappa) == pytest.approx(
            pulse_duration(math.pi / 3, kappa), rel=1e-12
        )

    def test_negative_angle_reduced_to_its_positive_equivalent(self):
        kappa = 1e9
        assert pulse_duration(-math.pi / 3, kappa) == pytest.approx(pulse_duration(5 * math.pi / 3, kappa), rel=1e-12)

    def test_reduction_leaves_angles_in_one_period_exact(self):
        kappa = 2 * math.pi * 10.63e6
        for theta in (0.0, 5e-324, math.pi / 3, math.pi, math.nextafter(2 * math.pi, 0.0)):
            assert pulse_duration(theta, kappa) == theta / kappa

    def test_zero_coupling_rejected(self):
        with pytest.raises(ValidationError):
            pulse_duration(1.0, 0.0)

    def test_feasibility_scale_with_stock_constants(self):
        operating = solve_operating_point(DEFAULT_PARAMS)
        tau = pulse_duration(math.pi / 3, operating.coupling_on.kappa_total)
        assert 0.0 < tau < 1e-6  # sub-microsecond pulses


class TestOperatingPoint:
    def test_self_consistent_numbers(self):
        op = solve_operating_point(DEFAULT_PARAMS)
        assert op.mode_all_on.kl == pytest.approx(3.0351, abs=5e-4)
        assert op.mode_operating.kl == pytest.approx(3.089, abs=1e-3)
        assert op.chi_l_off == pytest.approx(0.0191, abs=2e-4)
        assert op.chi_l_off / op.chi_l_max == pytest.approx(0.0624, abs=5e-4)
        assert op.flux_on == 1.0
        assert op.flux_off == pytest.approx(0.4801, abs=5e-4)

    def test_operating_mode_ratios(self):
        op = solve_operating_point(DEFAULT_PARAMS)
        omega = op.mode_operating.omega
        assert op.coupling_on.kappa_cap / omega == pytest.approx(0.6242 / 617.8077, abs=2e-6)
        assert op.coupling_on.kappa_ind / omega == pytest.approx(-10.0054 / 617.8077, abs=2e-5)

    def test_switch_really_opens(self):
        op = solve_operating_point(DEFAULT_PARAMS)
        assert abs(op.coupling_off.kappa_total) / op.mode_operating.omega < 1e-10

    def test_flux_off_round_trips_through_josephson_coefficient(self):
        op = solve_operating_point(DEFAULT_PARAMS)
        pair = chi_from_params(DEFAULT_PARAMS, josephson_coefficient(op.flux_off, DEFAULT_PARAMS))
        assert pair.chi_l == pytest.approx(op.chi_l_off, rel=1e-9)

    def test_weak_junction_unreachable(self):
        weak = CircuitParams(
            cap_per_length=1e-10,
            ind_per_length=2.5e-7,
            half_length=1e-2,
            junction_capacitance=1e-15,
            josephson_energy=1e-28,
        )
        with pytest.raises(UnreachableFluxError):
            solve_operating_point(weak)

    def test_weak_junction_reports_required_energy_scale(self):
        weak = dataclasses.replace(DEFAULT_PARAMS, josephson_energy=1e-28)
        pair = chi_from_params(weak, josephson_coefficient(1.0, weak))
        chi_lm = abs(pair.chi_l)
        kl_all_on = solve_mode(pair.chi_c, -chi_lm, -chi_lm, 1, weak).kl
        with pytest.raises(UnreachableFluxError) as excinfo:
            solve_operating_point(weak)
        assert excinfo.value.required_energy_scale == pytest.approx(4 * pair.chi_c * kl_all_on**2 / chi_lm, rel=1e-12)


class TestFluxSweep:
    def test_monotone_single_zero_crossing(self):
        # one coupler swept from zero flux to a full flux quantum, partner held on
        chi_lm = max_chi_l(DEFAULT_PARAMS)
        totals = []
        count = 40
        for k in range(count + 1):
            flux_ratio = k / count
            chi = chi_from_params(DEFAULT_PARAMS, josephson_coefficient(flux_ratio, DEFAULT_PARAMS))
            mode = solve_mode(chi.chi_c, -chi_lm, chi.chi_l, 1, DEFAULT_PARAMS)
            totals.append(couplings(mode, mode, chi.chi_c, chi.chi_l).kappa_total)
        totals = np.array(totals)
        assert totals[0] < 0 < totals[-1]
        assert np.all(np.diff(totals) > 0)
        assert int(np.sum(np.diff(np.sign(totals)) != 0)) == 1
