import dataclasses
import inspect
import math
import typing
import warnings

import numpy as np
import pytest

from qubitkick import dynamics, quantum, reconstruct
from qubitkick.core import DimensionlessParams, InvalidParameterError, QubitState, SimConfig
from qubitkick.dynamics import (
    EOM_CONVENTIONS,
    EnsembleStats,
    mean_closed_form,
    response_basis,
    run_ensemble,
    solve_trajectory,
    time_grid,
)
from qubitkick.reconstruct import (
    DegenerateBasisError,
    MeanFit,
    UndersampledError,
    estimate_nonstationary,
    fit_mean,
    recover_state,
    reconstruct_from_stats,
)

from per_draw import per_draw_moments

DP = DimensionlessParams(g=0.05, r=0.5, T=40.0)
TRUTH = QubitState(0.3, 1.0)


def synthetic_fit(dp=DP, state=TRUTH, dt=0.02):
    tau = time_grid(dp.T, dt)
    return fit_mean(tau, mean_closed_form(dp, state, tau), dp)


class TestFitMean:
    def test_recovers_generating_coefficients_exactly(self):
        fit = synthetic_fit()
        amp = DP.n_qubits * DP.g * TRUTH.eta_f
        assert fit.A_c == pytest.approx(amp * math.cos(TRUTH.phi), abs=1e-10)
        assert fit.A_s == pytest.approx(amp * math.sin(TRUTH.phi), abs=1e-10)
        assert fit.residual_norm <= 1e-10

    def test_zero_mean_gives_zero_coefficients(self):
        tau = time_grid(DP.T, 0.02)
        fit = fit_mean(tau, np.zeros_like(tau), DP)
        assert fit.A_c == 0.0 and fit.A_s == 0.0

    def test_resonant_basis_rejected(self):
        dp = DimensionlessParams(g=0.05, r=1.0, T=40.0)
        tau = time_grid(dp.T, 0.02)
        with pytest.raises(DegenerateBasisError):
            fit_mean(tau, np.zeros_like(tau), dp)

    def test_near_resonant_basis_ill_conditioned(self):
        dp = DimensionlessParams(g=0.05, r=1.0 + 1e-5, T=40.0)
        tau = time_grid(dp.T, 0.02)
        with pytest.raises(DegenerateBasisError):
            fit_mean(tau, np.zeros_like(tau), dp)

    def test_short_grid_rejected(self):
        dp = DimensionlessParams(g=0.05, r=0.5, T=10.0)
        tau = time_grid(dp.T, 0.02)  # under two periods of the slow tone
        with pytest.raises(InvalidParameterError):
            fit_mean(tau, np.zeros_like(tau), dp)

    @pytest.mark.parametrize("case", ("empty grid", "mean off the grid", "2-D tau"))
    def test_malformed_input_names_the_shapes(self, case):
        tau = time_grid(DP.T, 0.02)
        tau, mean_q = {"empty grid": (tau[:0], tau[:0]),
                       "mean off the grid": (tau, np.zeros(tau.size - 1)),
                       "2-D tau": (tau[None, :], np.zeros_like(tau))}[case]
        with pytest.raises(InvalidParameterError, match=rf"tau \({tau.shape[0]},.*mean_q \({mean_q.shape[0]},"):
            fit_mean(tau, mean_q, DP)

    def test_grid_order_does_not_matter(self):
        # a reversed grid was refused as "need span 25.1, got -40.0", a shuffled one as "got -9.3"
        tau = time_grid(DP.T, 0.02)
        mean_q = mean_closed_form(DP, TRUTH, tau)
        ref = fit_mean(tau, mean_q, DP)
        shuffled = np.random.default_rng(1).permutation(tau.size)
        for order in (slice(None, None, -1), shuffled):
            fit = fit_mean(tau[order], mean_q[order], DP)
            assert abs(fit.A_c - ref.A_c) <= 1e-12 and abs(fit.A_s - ref.A_s) <= 1e-12
            # the rest rule reads the mean wherever tau = 0 sits
            with pytest.raises(InvalidParameterError, match="at rest"):
                fit_mean(tau[order], mean_q[order] + 1.0, DP)


class TestRecoverState:
    def test_noiseless_roundtrip(self):
        result = recover_state(synthetic_fit())
        assert result.eta_f_hat == pytest.approx(TRUTH.eta_f, abs=1e-10)
        assert result.phi_hat == pytest.approx(TRUTH.phi, abs=1e-10)
        assert min(result.p_branches) == pytest.approx(0.3, abs=1e-9)
        assert max(result.p_branches) == pytest.approx(0.7, abs=1e-9)

    def test_equator_branches_coincide(self):
        dp = DimensionlessParams(g=0.05, r=0.5, T=40.0)
        result = recover_state(synthetic_fit(dp, QubitState(0.5, 0.7)))
        assert result.p_branches[0] == pytest.approx(0.5, abs=1e-6)
        assert result.p_branches[1] == pytest.approx(0.5, abs=1e-6)

    def test_pole_state_indeterminate_phase(self):
        result = recover_state(synthetic_fit(DP, QubitState(0.0, 0.0)))
        assert result.eta_f_hat == pytest.approx(0.0, abs=1e-12)
        assert result.p_branches == pytest.approx((0.0, 1.0), abs=1e-9)
        assert result.phase_indeterminate

    def test_zero_coupling_rejected(self):
        # a fit can only carry g = 0 if built by hand: the drive rows vanish there
        fit = MeanFit(A_c=0.01, A_s=0.0, cov=1e-12 * np.eye(2), residual_norm=0.0, condition=1.0,
                      dp=DimensionlessParams(g=0.0, r=0.5, T=40.0))
        with pytest.raises(InvalidParameterError, match="g = 0"):
            recover_state(fit)

    def test_unphysical_flag(self):
        # inflate the coefficients so eta_f lands far above 1/2
        fit = MeanFit(A_c=0.1, A_s=0.0, cov=1e-12 * np.eye(2), residual_norm=0.0, condition=1.0, dp=DP)
        result = recover_state(fit)
        assert result.unphysical
        assert result.p_branches == (0.5, 0.5)

    def test_convention_stamp(self):
        assert recover_state(synthetic_fit()).eom_sign == "eq37"
        tau, Q, _ = solve_trajectory(DP, TRUTH, np.zeros((1, 2)), SimConfig(dt=0.02), "eq35")
        fit = fit_mean(tau, Q[0], DP, "eq35")
        assert fit.eom_sign == "eq35"
        assert recover_state(fit).eom_sign == "eq35"

    def test_missing_covariance_tested_against_bare_ceiling(self):
        fit = MeanFit(A_c=0.0255, A_s=0.0, cov=np.full((2, 2), np.nan), residual_norm=0.0, condition=1.0,
                      dp=DP)
        result = recover_state(fit)
        assert math.isnan(result.eta_f_stderr) and math.isnan(result.phi_stderr)
        assert result.eta_f_hat == pytest.approx(0.51) and result.unphysical
        # no stderr to compare the amplitude with, so the phase is still reported
        assert result.phi_hat == 0.0 and not result.phase_indeterminate


class TestAllConventions:
    @pytest.mark.parametrize("conv", EOM_CONVENTIONS)
    def test_noiseless_roundtrip(self, conv):
        tau, Q, _ = solve_trajectory(DP, TRUTH, np.zeros((1, 2)), SimConfig(dt=0.02), conv)
        fit = fit_mean(tau, Q[0], DP, conv)
        result = recover_state(fit)
        assert result.eta_f_hat == pytest.approx(TRUTH.eta_f, abs=1e-10)
        assert result.phi_hat == pytest.approx(TRUTH.phi, abs=1e-10)
        assert result.eom_sign == conv

    @pytest.mark.parametrize("conv", EOM_CONVENTIONS)
    def test_monte_carlo_roundtrip(self, conv):
        cfg = SimConfig(dt=0.02, n_traj=2_000, seed=3)
        stats = run_ensemble(DP, TRUTH, cfg, eom_sign=conv)
        result = reconstruct_from_stats(stats)
        assert abs(result.eta_f_hat - TRUTH.eta_f) <= 3.0 * result.eta_f_stderr + 0.01
        assert abs(result.phi_hat - TRUTH.phi) <= 3.0 * result.phi_stderr + 0.02
        assert result.eom_sign == conv

    @pytest.mark.parametrize("conv", ("eq37", "eq35"))
    def test_resonance_rejected_where_the_drive_collapses(self, conv):
        # eq37: the drive vanishes at r = 1; eq35: its phi = 0 row does (rank 1)
        dp = DimensionlessParams(g=0.05, r=1.0, T=40.0)
        tau = time_grid(dp.T, 0.02)
        with pytest.raises(DegenerateBasisError):
            fit_mean(tau, np.zeros_like(tau), dp, conv)

    def test_canonical_roundtrip_at_resonance(self):
        dp = DimensionlessParams(g=0.05, r=1.0, T=40.0)
        tau, Q, _ = solve_trajectory(dp, TRUTH, np.zeros((1, 2)), SimConfig(dt=0.02), "canonical")
        fit = fit_mean(tau, Q[0], dp, "canonical")
        assert fit.condition < 1.1
        result = recover_state(fit)
        assert result.eta_f_hat == pytest.approx(TRUTH.eta_f, abs=1e-10)
        assert result.phi_hat == pytest.approx(TRUTH.phi, abs=1e-10)


class TestMonteCarloRoundtrip:
    def test_recovery_within_three_stderr(self):
        cfg = SimConfig(dt=0.02, n_traj=20_000, seed=33)
        stats = run_ensemble(DP, TRUTH, cfg)
        result = reconstruct_from_stats(stats)
        assert abs(result.eta_f_hat - TRUTH.eta_f) <= 3.0 * result.eta_f_stderr + 0.01
        assert abs(result.phi_hat - TRUTH.phi) <= 3.0 * result.phi_stderr + 0.02
        assert "nonstationary" in result.diagnostics

    def test_population_flip_indistinguishable(self):
        cfg = SimConfig(dt=0.02, n_traj=20_000, seed=34)
        res = {}
        for p in (0.2, 0.8):
            stats = run_ensemble(DP, QubitState(p, 1.0), cfg)
            res[p] = reconstruct_from_stats(stats)
        # same seed and an exactly p <-> 1-p invariant generator: the two
        # reconstructions agree to solver rounding and share both branches
        assert res[0.2].eta_f_hat == pytest.approx(res[0.8].eta_f_hat, abs=1e-10)
        assert res[0.2].phi_hat == pytest.approx(res[0.8].phi_hat, abs=1e-8)
        assert res[0.2].p_branches == pytest.approx(res[0.8].p_branches, abs=1e-8)

    def test_few_batches_give_no_stderr(self, monkeypatch):
        # below four batches there is no spread to take the error bars from
        cfg = SimConfig(dt=0.02, n_traj=2_000, seed=3)
        monkeypatch.setattr(dynamics, "_N_BATCHES", 3)
        stats = run_ensemble(DP, TRUTH, cfg)
        result = reconstruct_from_stats(stats)
        assert math.isnan(result.eta_f_stderr) and math.isnan(result.phi_stderr)
        assert result.unphysical == (result.eta_f_hat > 0.5)

    @pytest.mark.parametrize("start", [dict(q_init=1.0), dict(q_init=10.0), dict(p_init=-0.5)])
    def test_start_away_from_rest_refused(self, start):
        # the free motion has no column in the mean fit: from q = 1 it read eta_f 15.5 (truth 0.46)
        stats = run_ensemble(DP, TRUTH, SimConfig(dt=0.02, n_traj=2_000, seed=3, **start))
        with pytest.raises(InvalidParameterError, match="at rest"):
            reconstruct_from_stats(stats)

    def test_fit_mean_refuses_a_mean_off_rest_at_tau_0(self):
        # from q = 1 the fit read eta_f 15.49 (truth 0.458) without complaint
        stats = run_ensemble(DP, TRUTH, SimConfig(dt=0.02, n_traj=20_000, seed=3, q_init=1.0))
        with pytest.raises(InvalidParameterError, match="at rest"):
            fit_mean(stats.tau, stats.mean_q, DP)
        # the same mean on a grid past tau = 0 carries no such anchor
        fit_mean(stats.tau[1:], stats.mean_q[1:], DP)

    def test_exact_quantum_mean_passes_the_rest_rule(self):
        # the oracle's ground-start mean is 5.2e-19 at tau = 0 from rounding, not 0;
        # under canonical its fit gives the state back to O(g^2)
        dp = DimensionlessParams(g=0.01, r=0.5, T=40.0)
        tau = time_grid(dp.T, 0.02)
        psi0 = quantum.ground_initial_state(TRUTH, quantum.ORACLE_N_FOCK)
        mean_q = quantum.evolve_expectations(quantum.build_hamiltonian(dp, quantum.ORACLE_N_FOCK), psi0,
                                             tau).mean_q
        assert mean_q[0] != 0.0
        result = recover_state(fit_mean(tau, mean_q, dp, "canonical"))
        assert 0.99 <= result.eta_f_hat / TRUTH.eta_f <= 1.0
        assert abs(result.phi_hat - TRUTH.phi) <= 1e-3
        # an offset of a thousandth of the mean's scale is still off rest, as is a non-finite start
        for start in (1e-3 * np.max(np.abs(mean_q)), math.nan, math.inf):
            with pytest.raises(InvalidParameterError, match="at rest"):
                fit_mean(tau, np.concatenate(([start], mean_q[1:])), dp, "canonical")

    @pytest.mark.parametrize("name", ["mean_q", "tau"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_fit_mean_refuses_a_non_finite_input_past_tau_0(self, name, bad):
        # a NaN mean_q at index 100 gave A_c = A_s = nan, and recover_state then
        # eta_f_hat = nan with unphysical False; a NaN tau failed inside the SVD
        tau = time_grid(DP.T, 0.02)
        data = {"tau": tau, "mean_q": mean_closed_form(DP, TRUTH, tau)}
        data[name][100] = bad
        with pytest.raises(InvalidParameterError, match=f"finite {name}, got {bad} at index 100"):
            fit_mean(data["tau"], data["mean_q"], DP)

    def test_stderr_shrinks_as_root_n(self):
        sizes = (1_000, 10_000, 100_000)
        errs = []
        for n in sizes:
            cfg = SimConfig(dt=0.02, n_traj=n, seed=35)
            stats = run_ensemble(DP, TRUTH, cfg)
            result = reconstruct_from_stats(stats)
            errs.append(result.eta_f_stderr)
        slope = np.polyfit(np.log(sizes), np.log(errs), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.1)


class TestNonstationaryEstimator:
    def test_pole_state_amplitude_consistent_with_zero(self):
        cfg = SimConfig(dt=0.02, n_traj=20_000, seed=36)
        dp = DimensionlessParams(g=0.05, r=0.5, T=20.0)
        stats = run_ensemble(dp, QubitState(0.0, 0.0), cfg)
        ns = estimate_nonstationary(stats)
        assert ns["amplitude_hat"] <= 3.0 * ns["amplitude_stderr"]

    def test_equator_amplitude_near_half(self):
        cfg = SimConfig(dt=0.02, n_traj=40_000, seed=37)
        dp = DimensionlessParams(g=0.05, r=0.5, T=20.0)
        stats = run_ensemble(dp, QubitState(0.5, 0.35), cfg)
        ns = estimate_nonstationary(stats)
        assert ns["amplitude_hat"] == pytest.approx(0.5, rel=0.10)

    def test_phase_estimates_doubled_angle(self):
        cfg = SimConfig(dt=0.02, n_traj=40_000, seed=38)
        dp = DimensionlessParams(g=0.05, r=0.5, T=20.0)
        state = QubitState(0.3, 0.7)
        stats = run_ensemble(dp, state, cfg)
        ns = estimate_nonstationary(stats)
        wrapped = (ns["phase_hat"] - 2.0 * state.phi) % (2 * math.pi)
        dist = min(wrapped, 2 * math.pi - wrapped)
        assert dist < 0.1

    def test_stationary_amplitude_estimates_eta_st_sq(self):
        cfg = SimConfig(dt=0.02, n_traj=40_000, seed=39)
        dp = DimensionlessParams(g=0.05, r=0.5, T=20.0)
        state = QubitState(0.3, 0.7)
        stats = run_ensemble(dp, state, cfg)
        ns = estimate_nonstationary(stats)
        assert ns["eta_st_sq_hat"] == pytest.approx(state.eta_st**2, rel=0.05)

    @pytest.mark.parametrize("n_batches", (1, 3, 10_000))
    def test_few_batches_give_nan_stderrs(self, n_batches, monkeypatch):
        # below four batches there is no spread to take the error bars from, and
        # a batch of one draw has no scatter (its covariance read 0, so every
        # stderr read 0.0); the point estimates come from the pooled covariance
        # alone, so the same explicit draws give them at any batching
        cfg = SimConfig(dt=0.02, n_traj=10_000, seed=41)
        dp = DimensionlessParams(g=0.05, r=0.5, T=20.0)

        def with_draws(stats):
            means, scatters = per_draw_moments(TRUTH, cfg.seed, stats.batch_counts)
            return dataclasses.replace(stats, batch_means=means, batch_scatters=scatters)

        ref = estimate_nonstationary(with_draws(run_ensemble(dp, TRUTH, cfg)))
        monkeypatch.setattr(dynamics, "_N_BATCHES", n_batches)
        stats = run_ensemble(dp, TRUTH, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            ns = estimate_nonstationary(stats)
            pooled = estimate_nonstationary(with_draws(stats))
        for key in ("amplitude_stderr", "phase_stderr", "eta_st_sq_stderr", "eta_st_stderr"):
            assert math.isnan(ns[key]), key
        assert all(math.isnan(s) for s in ns["mode_component_stderr"])
        for key in ("amplitude_hat", "phase_hat", "eta_st_sq_hat", "eta_st_hat"):
            assert pooled[key] == pytest.approx(ref[key], rel=1e-12), key
        assert pooled["mode_components"] == pytest.approx(ref["mode_components"], rel=1e-12)

    def test_undersampled_rejected(self):
        cfg = SimConfig(dt=0.02, n_traj=500, seed=40)
        dp = DimensionlessParams(g=0.05, r=0.5, T=20.0)
        stats = run_ensemble(dp, TRUTH, cfg)
        with pytest.raises(UndersampledError):
            estimate_nonstationary(stats)


class TestCovarianceDegeneracy:
    """The covariance channel refuses by the rule the mean fit uses."""

    @staticmethod
    def nonstationary(conv, g, r):
        dp = DimensionlessParams(g=g, r=r, T=40.0)
        stats = run_ensemble(dp, TRUTH, SimConfig(dt=0.05, n_traj=10_000, seed=3), eom_sign=conv)
        return estimate_nonstationary(stats)

    def test_eq37_resonance_refused(self):
        # every response row of eq37 vanishes at r = 1, the noise rows as the drive rows
        with pytest.raises(DegenerateBasisError):
            self.nonstationary("eq37", 0.05, 1.0)

    @pytest.mark.parametrize("conv", ("eq35", "canonical"))
    def test_resonance_kept_where_the_noise_rows_survive(self, conv):
        ns = self.nonstationary(conv, 0.05, 1.0)
        k = 2.0 * TRUTH.p * (1.0 - TRUTH.p)
        assert abs(ns["amplitude_hat"] - k) <= 5.0 * ns["amplitude_stderr"]

    @pytest.mark.parametrize("conv", EOM_CONVENTIONS)
    def test_weak_coupling_not_refused(self, conv):
        # the kernel design scales as g^2 (rms 6e-5 under eq37); the rows are checked per unit g zeta
        ns = self.nonstationary(conv, 0.01, 0.5)
        k = 2.0 * TRUTH.p * (1.0 - TRUTH.p)
        assert abs(ns["amplitude_hat"] - k) <= 5.0 * ns["amplitude_stderr"]


def scd_fit(stats, dp):
    """Reference: least squares of the pooled and batch covariances on the coarse grid onto
    the kernels (S, C, D) of the noise rows; (alpha, u, v) per column, pooled first.  A
    batch's covariance is b^T M_b b on the coarse grid, b the record's noise rows."""
    bx, by = response_basis(dp, stats.coarse_tau, stats.eom_sign)[2:]
    xx, yy, xy = np.outer(bx, bx), np.outer(by, by), np.outer(bx, by)
    X = np.stack([(xx + yy).ravel(), (xx - yy).ravel(), (xy + xy.T).ravel()], axis=1)
    n_batches = stats.batch_counts.size
    bc = stats.Q[1:, np.searchsorted(stats.tau, stats.coarse_tau)]
    batch_cov_qq = bc.T @ stats.batch_draw_cov @ bc
    Y = np.vstack([stats.cov_qq.ravel(), batch_cov_qq.reshape(n_batches, -1)])
    return np.linalg.lstsq(X, Y.T, rcond=None)[0]


class TestMomentMaps:
    """Both in-memory channels are fixed maps of the draws' moments."""

    DP = DimensionlessParams(g=0.05, r=0.5, T=40.0)

    @pytest.mark.parametrize("conv", EOM_CONVENTIONS)
    def test_covariance_components_equal_the_map_of_M(self, conv):
        stats = run_ensemble(self.DP, TRUTH, SimConfig(dt=0.05, n_traj=10_000, seed=5), eom_sign=conv)
        ref = scd_fit(stats, self.DP)
        ns = estimate_nonstationary(stats)
        pooled = np.array([ns["eta_st_sq_hat"], *ns["mode_components"]])
        assert np.max(np.abs(pooled - ref[:, 0])) <= 1e-13 * np.max(np.abs(ref[:, 0]))
        # the identity itself: alpha, u, v = (M_xx + M_yy)/2, (M_xx - M_yy)/2, M_xy, pooled and per batch
        for M, col in zip([stats.draw_cov, *stats.batch_draw_cov], ref.T):
            mapped = np.array([(M[0, 0] + M[1, 1]) / 2, (M[0, 0] - M[1, 1]) / 2, M[0, 1]])
            assert np.max(np.abs(mapped - col)) <= 1e-13 * np.max(np.abs(col))
        batches = ref[:, 1:]
        stderr = np.sqrt(np.diag(np.cov(batches, ddof=1) / batches.shape[1]))
        got = np.array([ns["eta_st_sq_stderr"], *ns["mode_component_stderr"]])
        assert np.max(np.abs(got - stderr) / stderr) <= 1e-10

    @pytest.mark.parametrize("conv", EOM_CONVENTIONS)
    def test_mean_coefficients_equal_fit_mean_on_the_stacked_means(self, conv):
        stats = run_ensemble(self.DP, TRUTH, SimConfig(dt=0.05, n_traj=2_000, seed=6), eom_sign=conv)
        result = reconstruct_from_stats(stats)
        # fit_mean on the pooled mean and on each batch's mean, Q[0] + mean zeta . Q[1:];
        # the batch coefficients' spread over the number of batches is the covariance
        fit = fit_mean(stats.tau, stats.mean_q, self.DP, conv)
        batch_fits = [fit_mean(stats.tau, mean, self.DP, conv)
                      for mean in stats.Q[0] + stats.batch_means @ stats.Q[1:]]
        coeffs = np.array([[f.A_c for f in batch_fits], [f.A_s for f in batch_fits]])
        ref = recover_state(dataclasses.replace(fit, cov=np.cov(coeffs, ddof=1) / len(batch_fits)))
        scale = math.hypot(fit.A_c, fit.A_s)
        assert abs(result.diagnostics["A_c"] - fit.A_c) <= 1e-13 * scale
        assert abs(result.diagnostics["A_s"] - fit.A_s) <= 1e-13 * scale
        assert result.diagnostics["condition"] == pytest.approx(fit.condition, rel=1e-13)
        for key in ("eta_f_hat", "eta_f_stderr", "phi_hat", "phi_stderr"):
            assert getattr(result, key) == pytest.approx(getattr(ref, key), rel=1e-13), key
        assert result.residual_norm == pytest.approx(fit.residual_norm, rel=1e-10, abs=1e-14)


class TestOwnDynamics:
    """The fits read the dynamics from the record, so each inverts the dynamics that made it."""

    @pytest.mark.parametrize("conv", EOM_CONVENTIONS)
    @pytest.mark.parametrize("field, value", [("g", 0.025), ("r", 0.7), ("n_qubits", 2)])
    def test_round_trip_away_from_the_module_dynamics(self, field, value, conv):
        # each dp differs from DP in one field, so a fit that fell back on DP would miss
        dp = DimensionlessParams(**{"g": DP.g, "r": DP.r, "T": DP.T, field: value})
        stats = run_ensemble(dp, TRUTH, SimConfig(dt=0.05, n_traj=10_000, seed=7), eom_sign=conv)
        assert stats.dp == dp
        result = reconstruct_from_stats(stats)
        assert abs(result.eta_f_hat - TRUTH.eta_f) <= 5.0 * result.eta_f_stderr
        ns = result.diagnostics["nonstationary"]
        k = 2.0 * TRUTH.p * (1.0 - TRUTH.p)
        assert abs(ns["amplitude_hat"] - k) <= 5.0 * ns["amplitude_stderr"]


def test_fits_of_a_record_or_a_mean_fit_take_no_dynamics():
    # a record or a MeanFit carries its dp, so a second one could only disagree with it
    guarded = []
    for name, func in inspect.getmembers(reconstruct, inspect.isfunction):
        if name.startswith("_") or func.__module__ != reconstruct.__name__:
            continue
        hints = typing.get_type_hints(func)
        params = list(inspect.signature(func).parameters)
        if hints.get(params[0]) in (EnsembleStats, MeanFit):
            guarded.append(name)
            assert DimensionlessParams not in [hints.get(p) for p in params], name
    assert {"reconstruct_from_stats", "estimate_nonstationary", "recover_state"} <= set(guarded)


def test_intensity_identity_between_channels():
    # eta_st^2 = 1 - 2 eta_f^2 ties the two independent estimates together
    cfg = SimConfig(dt=0.02, n_traj=40_000, seed=41)
    stats = run_ensemble(DP, TRUTH, cfg)
    result = reconstruct_from_stats(stats)
    ns = result.diagnostics["nonstationary"]
    lhs = ns["eta_st_sq_hat"]
    rhs = 1.0 - 2.0 * result.eta_f_hat**2
    combined = ns["eta_st_sq_stderr"] + 4.0 * result.eta_f_hat * result.eta_f_stderr
    assert abs(lhs - rhs) <= 3.0 * combined + 0.01


# Coverage: 300 seeds of 10^4 draws per (convention, p) cell.  A z-score
# from 20 batches follows t(19): sd 1.06 and 94% within 2.  The bounds allow
# for the spread of 300 seeds: the sd of z lies in [0.87, 1.25], and the
# share within 2 sigma, binomial with sd 1.4%, in [0.90, 0.98].
COVERAGE_DP = DimensionlessParams(g=0.05, r=0.5, T=40.0)
COVERAGE_PHI = 1.0
COVERAGE_SEEDS = range(300)
# known misses of the mean channel's eta_f error bar, kept as strict
# expected failures until its polar map goes past first order
MEAN_CHANNEL_MISSES = {
    ("eq35", 0.02, "eta_f"): "eq35 at p <= 0.02: eta_f z sd 1.5-3.8 by draw set while the Cartesian "
                             "(A_c, A_s) z sd is 1.04-1.09; the first-order radial term fails",
    ("eq37", 0.5, "eta_f"): "p = 1/2, purely tangential noise: eta_f z sd 0.32, bias +0.41 sigma",
    ("canonical", 0.5, "eta_f"): "p = 1/2, purely tangential noise: eta_f z sd 0.32, bias +0.41 sigma",
}


@pytest.fixture(scope="module")
def coverage_sweep():
    """(error, stderr) arrays over the seeds per quantity, one reduction per cell."""
    cells = {}

    def run(conv, p):
        if (conv, p) not in cells:
            k = 2.0 * p * (1.0 - p)
            rows = []
            for seed in COVERAGE_SEEDS:
                stats = run_ensemble(COVERAGE_DP, QubitState(p, COVERAGE_PHI),
                                     SimConfig(dt=0.05, n_traj=10_000, seed=seed),
                                     eom_sign=conv)
                result = reconstruct_from_stats(stats)
                ns = result.diagnostics["nonstationary"]
                rows.append({
                    "eta_f": (result.eta_f_hat - math.sqrt(p * (1.0 - p)), result.eta_f_stderr),
                    "phi": (math.remainder(result.phi_hat - COVERAGE_PHI, 2 * math.pi), result.phi_stderr),
                    "k": (ns["amplitude_hat"] - k, ns["amplitude_stderr"]),
                    "two_phi": (math.remainder(ns["phase_hat"] - 2 * COVERAGE_PHI, 2 * math.pi),
                                ns["phase_stderr"]),
                })
            cells[conv, p] = {key: np.array([row[key] for row in rows]).T for key in rows[0]}
        return cells[conv, p]

    return run


def _coverage_cases():
    for conv in EOM_CONVENTIONS:
        for p in (0.3, 0.02, 0.5):
            # at p = 1/2 the doubled phase has no spread to score (test_equator_doubled_phase_exact)
            for quantity in ("eta_f", "phi", "k") + (("two_phi",) if p != 0.5 else ()):
                miss = MEAN_CHANNEL_MISSES.get((conv, p, quantity))
                yield pytest.param(conv, p, quantity,
                                   marks=pytest.mark.xfail(reason=miss, strict=True) if miss else ())


@pytest.mark.parametrize("conv, p, quantity", list(_coverage_cases()))
def test_coverage_z_scores_follow_t19(coverage_sweep, conv, p, quantity):
    error, stderr = coverage_sweep(conv, p)[quantity]
    # a phase is scored over the seeds that report one
    reported = ~np.isnan(error)
    z = error[reported] / stderr[reported]
    assert reported.mean() >= 0.8
    assert 0.87 <= np.std(z, ddof=1) <= 1.25
    assert 0.90 <= np.mean(np.abs(z) <= 2.0) <= 0.98


@pytest.mark.parametrize("conv", EOM_CONVENTIONS)
def test_coverage_equator_doubled_phase_exact(coverage_sweep, conv):
    # at p = 1/2 the draws' covariance has rank one, along phi
    error, _ = coverage_sweep(conv, 0.5)["two_phi"]
    assert np.max(np.abs(error)) <= 1e-12


@pytest.mark.parametrize("conv", EOM_CONVENTIONS)
def test_coverage_doubled_phase_flagged_near_the_pole(coverage_sweep, conv):
    # p = 0.005: k = 0.01 lies within a few stderrs of 0, so 2 phi is withheld
    error, stderr = coverage_sweep(conv, 0.005)["two_phi"]
    assert np.mean(np.isnan(error) & np.isnan(stderr)) >= 0.8
