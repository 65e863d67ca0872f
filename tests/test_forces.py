import math

import numpy as np
import pytest

from qubitkick.core import (
    HBAR,
    TWO_PI,
    InvalidParameterError,
    PhysicalParams,
    QubitState,
    SimConfig,
    derive_dimensionless,
)
from qubitkick.dynamics import solve_trajectory
from qubitkick.forces import (
    PLATFORMS,
    TABLE_TOLERANCE,
    bloch_map,
    characteristic_force,
    dimensional_forces,
    force_magnitudes,
    table_comparison,
)


class TestCharacteristicForce:
    def test_ion_published_value(self):
        f0c = characteristic_force(PLATFORMS["ion"].params)
        assert f0c == pytest.approx(8.3e-21, rel=0.05)

    def test_nanodiamond_published_value(self):
        f0c = characteristic_force(PLATFORMS["nanodiamond"].params)
        assert f0c == pytest.approx(1.1e-17, rel=0.05)

    def test_piezo_published_value(self):
        f0c = characteristic_force(PLATFORMS["piezo"].params)
        assert f0c == pytest.approx(2.8e-11, rel=0.05)

    def test_vanishes_with_coupling(self):
        pp = PhysicalParams(mass=1e-20, omega_o=1e6, omega_q=1e7, Omega=0.0)
        assert characteristic_force(pp) == 0.0

    def test_formula(self):
        pp = PLATFORMS["ion"].params
        assert characteristic_force(pp) == pytest.approx(
            HBAR * pp.Omega / (4.0 * math.sqrt(2.0) * pp.q0), rel=1e-14)


class TestForceMagnitudes:
    def test_all_published_rows_within_five_percent(self):
        assert TABLE_TOLERANCE == 0.05  # the tolerance `table1` applies
        for row in table_comparison():
            if row["degenerate"]:
                continue
            assert row["rel_error"] <= 0.05, row

    def test_piezo_deterministic_scale_degenerate(self):
        budget = force_magnitudes(PLATFORMS["piezo"].params)
        assert budget.degenerate
        assert budget.f0 == pytest.approx(0.0, abs=1e-30)

    def test_budget_relations(self):
        pp = PLATFORMS["ion"].params
        budget = force_magnitudes(pp)
        assert budget.xi_q0 == budget.f0_char
        assert budget.xi_p0 == pytest.approx(budget.f0_char * pp.omega_q / pp.omega_o, rel=1e-14)
        assert budget.f0 == pytest.approx(budget.f0_char * abs(pp.omega_q / pp.omega_o - 1.0), rel=1e-14)


class TestDimensionalForces:
    def test_pole_state_has_no_deterministic_force(self):
        t = np.linspace(0, 1e-6, 20)
        out = dimensional_forces(t, QubitState(0.0, 0.0), PLATFORMS["ion"].params, (0.0, 0.0))
        assert np.all(out["f"] == 0.0)

    def test_equator_at_time_zero(self):
        pp = PLATFORMS["ion"].params
        r = pp.omega_o / pp.omega_q
        out = dimensional_forces(0.0, QubitState(0.5, 0.0), pp, (0.0, 0.0))
        expected = characteristic_force(pp) * (1.0 - r) / (2.0 * r)
        assert out["f"] == pytest.approx(expected, rel=1e-14)

    def test_zero_draw_has_no_stochastic_force(self):
        t = np.linspace(0, 1e-6, 20)
        out = dimensional_forces(t, QubitState(0.5, 0.0), PLATFORMS["ion"].params, (0.0, 0.0))
        assert np.all(out["xi_q"] == 0.0)
        assert np.all(out["xi_p"] == 0.0)

    def test_momentum_noise_uses_analytic_derivative(self):
        pp = PLATFORMS["ion"].params
        zx, zy = 0.7, -0.4
        t = np.linspace(0, 2e-9, 64)
        out = dimensional_forces(t, QubitState(0.3, 1.0), pp, (zx, zy))
        f0c = characteristic_force(pp)
        r = pp.omega_o / pp.omega_q
        tau = pp.omega_q * t
        # xi_q = f0c lambda_q and xi_p = (f0c/r) d lambda_p/d tau, written out in trig
        for key, expected in (("xi_q", f0c * (-zx * np.cos(tau) + zy * np.sin(tau))),
                              ("xi_p", (f0c / r) * (zx * np.cos(tau) - zy * np.sin(tau)))):
            assert np.max(np.abs(out[key] - expected)) <= 1e-14 * np.max(np.abs(expected))

    def test_characteristic_force_from_dimensionless_roundtrip(self):
        # f0_char == hbar g omega_q / (2 q0): reconstructing the SI scale
        # from the reduced coupling must agree to 1e-12 relative
        pp = PLATFORMS["nanodiamond"].params
        dp = derive_dimensionless(pp, T_si=1e-3)
        rebuilt = HBAR * dp.g * pp.omega_q / (2.0 * pp.q0)
        assert rebuilt == pytest.approx(characteristic_force(pp), rel=1e-12)


class TestDimensionalConsistency:
    def test_si_equation_of_motion_reconstruction(self):
        # solve the reduced dynamics, restore dimensions, and check
        #   m x'' + m omega_o^2 x = f + xi_q + xi_p   to 1e-12 relative
        pp = PLATFORMS["ion"].params
        state = QubitState(0.3, 1.0)
        dp = derive_dimensionless(pp, T_si=2.0 / (pp.omega_q / TWO_PI) * 1e-3)
        zx, zy = 0.6, -0.8
        cfg = SimConfig(dt=0.005)
        tau, Q, _ = solve_trajectory(dp, state, [[zx, zy]], cfg, eom_sign="eq37")
        q = Q[0]
        t = tau / pp.omega_q

        # second derivative from the governing reduced equation
        lam_q = -zx * np.cos(tau) + zy * np.sin(tau)
        forcing = dp.g * ((1.0 - dp.r) * state.eta_f * np.cos(tau + state.phi)
                          + (dp.r - 1.0) * lam_q)
        q_ddot = -dp.r**2 * q + forcing

        x = pp.q0 * q
        x_ddot = pp.q0 * pp.omega_q**2 * q_ddot
        lhs = pp.mass * x_ddot + pp.mass * pp.omega_o**2 * x

        out = dimensional_forces(t, state, pp, (zx, zy))
        rhs = out["f"] + out["xi_q"] + out["xi_p"]
        scale = np.max(np.abs(rhs))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


class TestBlochMap:
    def test_pole_and_equator_extrema(self):
        bmap = bloch_map(65)
        assert np.allclose(bmap.eta_f[0, :], 0.0, atol=1e-15)
        assert np.allclose(bmap.eta_st[0, :], 1.0, atol=1e-15)
        assert np.allclose(bmap.eta_f[-1, :], 0.0, atol=1e-12)
        assert np.allclose(bmap.eta_st[-1, :], 1.0, atol=1e-12)
        mid = bmap.theta.shape[0] // 2
        assert np.allclose(bmap.eta_f[mid, :], 0.5, atol=1e-12)
        assert np.allclose(bmap.eta_st[mid, :], 1.0 / math.sqrt(2.0), atol=1e-12)

    def test_hemispheric_symmetry(self):
        bmap = bloch_map(33)
        assert np.allclose(bmap.eta_f, bmap.eta_f[::-1, :], atol=1e-12)
        assert np.allclose(bmap.eta_st, bmap.eta_st[::-1, :], atol=1e-12)

    def test_azimuth_independence(self):
        bmap = bloch_map(32)
        assert np.allclose(bmap.eta_f, bmap.eta_f[:, :1], atol=1e-15)
        assert np.allclose(bmap.eta_st, bmap.eta_st[:, :1], atol=1e-15)

    def test_intensity_identity(self):
        bmap = bloch_map(64)
        assert np.max(np.abs(bmap.eta_st**2 - (1.0 - 2.0 * bmap.eta_f**2))) <= 1e-14

    def test_ranges(self):
        bmap = bloch_map(48)
        assert bmap.eta_f.min() >= 0.0 and bmap.eta_f.max() <= 0.5 + 1e-15
        assert bmap.eta_st.min() >= 1.0 / math.sqrt(2.0) - 1e-15 and bmap.eta_st.max() <= 1.0 + 1e-15

    def test_resolution_validation(self):
        with pytest.raises(InvalidParameterError):
            bloch_map(4)
