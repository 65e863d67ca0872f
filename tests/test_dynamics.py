import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from qubitkick import dynamics, spectral
from qubitkick.core import DimensionlessParams, InvalidParameterError, QubitState, SimConfig
from qubitkick.dynamics import (
    EOM_CONVENTIONS,
    ResonanceError,
    _closed_form_batch,
    _rhs,
    _rk4_batch,
    mean_closed_form,
    response_basis,
    run_ensemble,
    solve_trajectory,
    time_grid,
    welch_psd,
)
from qubitkick.noise import sample_zetas, zeta_factor

from per_draw import per_draw_moments

DP = DimensionlessParams(g=0.05, r=0.5, T=30.0)
EQUATOR = QubitState(0.5, 0.0)
ZERO_DRAW = np.zeros((1, 2))


class TestMeanClosedForm:
    def test_pole_state_identically_zero(self):
        tau = np.linspace(0, 30, 100)
        assert np.all(mean_closed_form(DP, QubitState(0.0, 0.0), tau) == 0.0)

    def test_starts_at_zero(self):
        assert mean_closed_form(DP, QubitState(0.3, 0.0), np.array([0.0]))[0] == 0.0

    def test_frozen_value_at_pi(self):
        # r = 1/2, p = 1/2, phi = 0 at tau = pi:
        # (g/2)/(3/2) (cos(pi/2) - cos(pi)) = g/3
        g = 0.05
        dp = DimensionlessParams(g=g, r=0.5, T=10.0)
        val = mean_closed_form(dp, EQUATOR, np.array([math.pi]))[0]
        assert val == pytest.approx(g / 3.0, rel=1e-14)

    def test_resonance_raises(self):
        dp = DimensionlessParams(g=0.05, r=1.0, T=10.0)
        with pytest.raises(ResonanceError):
            mean_closed_form(dp, EQUATOR, np.linspace(0, 10, 11))


class TestClosedFormSolver:
    def test_free_oscillator(self):
        # g = 0 from (1, 0): q = cos(r tau), p = -sin(r tau)
        dp = DimensionlessParams(g=0.0, r=0.5, T=20.0)
        cfg = SimConfig(dt=0.01, q_init=1.0, p_init=0.0)
        tau, Q, P = solve_trajectory(dp, EQUATOR, ZERO_DRAW, cfg)
        assert np.allclose(Q[0], np.cos(0.5 * tau), atol=1e-12)
        assert np.allclose(P[0], -np.sin(0.5 * tau), atol=1e-12)

    def test_zero_draw_equals_mean(self):
        cfg = SimConfig(dt=0.01)
        s = QubitState(0.3, 1.0)
        tau, Q, _ = solve_trajectory(DP, s, ZERO_DRAW, cfg)
        assert np.allclose(Q[0], mean_closed_form(DP, s, tau), atol=1e-13)

    def test_matches_rk4_for_random_draws(self):
        # 100 random draws, dt = 1e-3 over T = 50: max abs <= 1e-8
        dp = DimensionlessParams(g=0.05, r=0.5, T=50.0)
        s = QubitState(0.3, 1.0)
        tau = time_grid(dp.T, 1e-3)
        zetas = sample_zetas(s, seed=42, indices=range(100))
        for conv in EOM_CONVENTIONS:
            Z = _closed_form_batch(dp, s, zetas, 0j, tau, conv)
            Q, P = _rk4_batch(dp, s, zetas, 0j, tau, conv)
            assert np.max(np.abs(Z.real - Q)) <= 1e-8
            assert np.max(np.abs(Z.imag - P)) <= 1e-8

    def test_linearity_in_noise_and_force(self):
        cfg = SimConfig(dt=0.01)
        s = QubitState(0.3, 0.7)
        _, Q, _ = solve_trajectory(DP, s, [[0.0, 0.0], [0.8, -0.5], [1.6, -1.0]], cfg)
        assert np.allclose(Q[2] - Q[0], 2.0 * (Q[1] - Q[0]), atol=1e-12)

    def test_qubit_count_scales_force_and_noise(self):
        # n qubits: deterministic part x n, noise part x sqrt(n)
        s = QubitState(0.3, 0.7)
        cfg = SimConfig(dt=0.02)
        dp1 = DimensionlessParams(g=0.05, r=0.5, T=20.0, n_qubits=1)
        dp4 = DimensionlessParams(g=0.05, r=0.5, T=20.0, n_qubits=4)
        draws = [[0.0, 0.0], [0.8, -0.5]]
        _, (det1, full1), _ = solve_trajectory(dp1, s, draws, cfg)
        _, (det4, full4), _ = solve_trajectory(dp4, s, draws, cfg)
        assert np.allclose(det4, 4.0 * det1, atol=1e-13)
        assert np.allclose(full4 - det4, 2.0 * (full1 - det1), atol=1e-13)

    @pytest.mark.parametrize("zetas", [np.zeros(2), np.zeros((1, 3)), np.zeros((0, 2)), np.zeros((1, 2, 1))])
    def test_draws_block_of_wrong_shape_refused(self, zetas):
        for solver in dynamics.SOLVERS:
            with pytest.raises(InvalidParameterError, match="zetas"):
                solve_trajectory(DP, EQUATOR, zetas, SimConfig(dt=0.01), solver=solver)


class TestRk4:
    def test_fourth_order_convergence(self):
        dp = DimensionlessParams(g=0.05, r=0.5, T=10.0)
        s = QubitState(0.3, 1.0)
        draw = [[0.6, -0.2]]

        def err(dt):
            _, ref, _ = solve_trajectory(dp, s, draw, SimConfig(dt=dt))
            _, rk, _ = solve_trajectory(dp, s, draw, SimConfig(dt=dt), solver="rk4")
            return np.max(np.abs(ref - rk))

        assert err(0.02) / err(0.01) >= 12.0

    def test_free_energy_conservation(self):
        # undriven harmonic invariant q^2 + p^2 over T = 100 at dt = 1e-3
        dp = DimensionlessParams(g=0.0, r=0.5, T=100.0)
        cfg = SimConfig(dt=1e-3, q_init=1.0, p_init=0.0)
        _, Q, P = solve_trajectory(dp, EQUATOR, ZERO_DRAW, cfg, solver="rk4")
        energy = Q[0]**2 + P[0]**2
        assert np.max(np.abs(energy - energy[0])) <= 1e-9

    def test_resonant_secular_growth_matches_closed_form(self):
        # at r = 1 the eq35 noise drive is resonant: envelope grows ~ tau
        dp = DimensionlessParams(g=0.05, r=1.0, T=20.0)
        draw = [[1.0, 0.5]]
        cfg = SimConfig(dt=1e-3)
        _, Q, P = solve_trajectory(dp, EQUATOR, draw, cfg, eom_sign="eq35")
        _, rk, _ = solve_trajectory(dp, EQUATOR, draw, cfg, eom_sign="eq35", solver="rk4")
        assert np.max(np.abs(Q[0] - rk[0])) <= 1e-6
        env = np.abs(Q[0] + 1j * P[0])
        assert env[-1] > 2.0 * env[env.size // 4]  # secular envelope growth

    def test_step_budget_enforced(self):
        dp = DimensionlessParams(g=0.0, r=2.0, T=1.0)
        with pytest.raises(InvalidParameterError):
            solve_trajectory(dp, EQUATOR, ZERO_DRAW, SimConfig(dt=0.05), solver="rk4")


def rk4_step_by_step(dp, state, zetas, z0, tau, eom_sign):
    """Reference: one RK4 step per grid interval, four `_rhs` stages each."""
    dt = float(tau[1] - tau[0])
    q = np.full(zetas.shape[0], z0.real)
    p = np.full(zetas.shape[0], z0.imag)
    Q, P = [q], [p]
    def trig(t):
        return np.cos(t), np.sin(t)

    for t in tau[:-1]:
        k1q, k1p = _rhs(dp, state, zetas, trig(t), q, p, eom_sign)
        k2q, k2p = _rhs(dp, state, zetas, trig(t + 0.5 * dt), q + 0.5 * dt * k1q, p + 0.5 * dt * k1p, eom_sign)
        k3q, k3p = _rhs(dp, state, zetas, trig(t + 0.5 * dt), q + 0.5 * dt * k2q, p + 0.5 * dt * k2p, eom_sign)
        k4q, k4p = _rhs(dp, state, zetas, trig(t + dt), q + dt * k3q, p + dt * k3p, eom_sign)
        q = q + (dt / 6.0) * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
        p = p + (dt / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        Q.append(q)
        P.append(p)
    return np.stack(Q, axis=1), np.stack(P, axis=1)


class TestRk4Scan:
    BLOCK = 2048  # steps a block, pinned through the budget: grids end on and just past block edges

    @pytest.mark.parametrize("conv", EOM_CONVENTIONS)
    @pytest.mark.parametrize("points", (2, BLOCK + 1, 3 * BLOCK + 7))
    def test_matches_step_by_step_reference(self, conv, points, monkeypatch):
        # coarsest allowed step, dt max(1, r) = 0.05, from a nonzero start
        dt = 0.05
        dp = DimensionlessParams(g=0.05, r=0.5, T=(points - 1) * dt)
        s = QubitState(0.3, 1.0)
        tau = time_grid(dp.T, dt)
        assert tau.size == points
        SimConfig(dt=dt).check_step(dp.r)
        zetas = sample_zetas(s, seed=5, indices=range(3))
        monkeypatch.setattr(dynamics, "_RK4_BLOCK_ELEMENTS", 3 * self.BLOCK)
        assert dynamics._rk4_block_steps(3) == self.BLOCK
        Q, P = _rk4_batch(dp, s, zetas, 0.4 - 0.3j, tau, conv)
        Qr, Pr = rk4_step_by_step(dp, s, zetas, 0.4 - 0.3j, tau, conv)
        scale = max(np.max(np.abs(Qr)), np.max(np.abs(Pr)))
        assert np.max(np.abs(Q - Qr)) <= 1e-12 * scale
        assert np.max(np.abs(P - Pr)) <= 1e-12 * scale

    def test_rhs_calls_fixed_per_block(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(1)
            return _rhs(*args)

        monkeypatch.setattr(dynamics, "_rhs", counting)
        zetas = np.zeros((2, 2))
        block = dynamics._rk4_block_steps(zetas.shape[0])
        assert block > 1
        counts = {}
        for points in (2, block + 1, block + 2, 2 * block + 1):
            calls.clear()
            _rk4_batch(DP, EQUATOR, zetas, 0j, np.arange(points) * 0.01, "eq37")
            counts[points] = len(calls)
        assert counts[2] == counts[block + 1]
        assert counts[block + 2] == counts[2 * block + 1] > counts[2]

    @pytest.mark.parametrize("n", (1, 300))
    def test_rows_independent_of_block_length(self, n, monkeypatch):
        # 4200 steps: two default blocks at n = 1, three 2048-step blocks, or one block
        dp = DimensionlessParams(g=0.05, r=0.5, T=42.0)
        s = QubitState(0.3, 1.0)
        tau = time_grid(dp.T, 0.01)
        zetas = sample_zetas(s, seed=9, indices=range(n))
        assert dynamics._rk4_block_steps(n) < tau.size - 1
        rows = {}
        for label, elements in (("default", dynamics._RK4_BLOCK_ELEMENTS), ("2048", 2048 * n),
                                ("one", n * tau.size)):
            monkeypatch.setattr(dynamics, "_RK4_BLOCK_ELEMENTS", elements)
            rows[label] = _rk4_batch(dp, s, zetas, 0.4 - 0.3j, tau, "eq37")
        Q, P = rows.pop("one")
        scale = max(np.max(np.abs(Q)), np.max(np.abs(P)))
        for Qb, Pb in rows.values():
            assert np.max(np.abs(Qb - Q)) <= 1e-13 * scale
            assert np.max(np.abs(Pb - P)) <= 1e-13 * scale

    def test_peak_memory_within_twice_the_output(self):
        dp = DimensionlessParams(g=0.05, r=0.5, T=50.0)
        s = QubitState(0.3, 1.0)
        tau = time_grid(dp.T, 1e-3)
        zetas = sample_zetas(s, seed=42, indices=range(100))
        tracemalloc.start()
        try:
            Q, P = _rk4_batch(dp, s, zetas, 0j, tau, "eq37")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert Q.shape == P.shape == (100, 50_001)
        assert peak <= 2 * (Q.nbytes + P.nbytes)


class TestEnsemble:
    @pytest.mark.parametrize("solver", ("closed_form", "rk4"))
    @pytest.mark.parametrize("conv", EOM_CONVENTIONS)
    @pytest.mark.parametrize("state", (QubitState(0.3, 1.0), EQUATOR), ids=("p=0.3", "p=0.5"))
    def test_matches_brute_force_ensemble(self, state, conv, solver, monkeypatch):
        # every statistic against explicit trajectories and two-pass estimators; the record
        # takes the moments of the explicit draws, batch by batch; an ensemble is solved in
        # closed form, and under rk4 its record takes the rk4 basis rows, which holds
        # because an RK4 step is affine in the draws as well
        dp = DimensionlessParams(g=0.05, r=0.5, T=20.0)
        cfg = SimConfig(dt=0.02, n_traj=300, seed=11, q_init=0.2, p_init=-0.1)
        monkeypatch.setattr(dynamics, "_N_BATCHES", 7)  # batches of 42 and 43 draws
        stats = run_ensemble(dp, state, cfg, eom_sign=conv)
        means, scatters = per_draw_moments(state, cfg.seed, stats.batch_counts)
        stats = dataclasses.replace(stats, batch_means=means, batch_scatters=scatters)
        zetas = sample_zetas(state, cfg.seed, range(cfg.n_traj))
        z0 = complex(cfg.q_init, cfg.p_init)
        if solver == "closed_form":
            Z = _closed_form_batch(dp, state, zetas, z0, stats.tau, conv)
            Q, P = Z.real, Z.imag
        else:
            Q, P = _rk4_batch(dp, state, zetas, z0, stats.tau, conv)
            _, Qb, Pb = solve_trajectory(dp, state, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                                         cfg, conv, "rk4")
            stats = dataclasses.replace(stats, Q=np.vstack([Qb[0], Qb[1:] - Qb[0]]),
                                        P=np.vstack([Pb[0], Pb[1:] - Pb[0]]))
        idx = np.searchsorted(stats.tau, stats.coarse_tau)
        batches = np.split(np.arange(cfg.n_traj), np.cumsum(stats.batch_counts)[:-1])

        def close(a, b):
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

        close(stats.mean_q, Q.mean(axis=0))
        close(stats.mean_p, P.mean(axis=0))
        close(stats.var_q, np.var(Q, axis=0, ddof=1))
        close(stats.cov_qq, np.cov(Q[:, idx].T))
        # each batch's mean and covariance through the draws' moments and the rows
        b, bc = stats.Q[1:], stats.Q[1:, idx]
        close(stats.Q[0] + stats.batch_means @ b, np.array([Q[i].mean(axis=0) for i in batches]))
        close(bc.T @ stats.batch_draw_cov @ bc, np.array([np.cov(Q[i][:, idx].T) for i in batches]))
        for (omega, psd), segment in ((stats.psd(256), 256), (stats.psd(), stats.tau.size)):
            ref_omega, ref_psd = welch_psd(Q, segment, cfg.dt)
            assert np.array_equal(omega, ref_omega)
            close(psd, ref_psd)

    def test_variance_free_of_cancellation(self):
        # a large initial displacement dominates every trajectory; the
        # variance must still match the two-pass estimate of the explicit rows
        dp = DimensionlessParams(g=0.05, r=0.5, T=40.0)
        s = QubitState(0.3, 1.0)
        cfg = SimConfig(dt=0.02, n_traj=4000, seed=3, q_init=1e3)
        stats = run_ensemble(dp, s, cfg)
        means, scatters = per_draw_moments(s, cfg.seed, stats.batch_counts)
        stats = dataclasses.replace(stats, batch_means=means, batch_scatters=scatters)
        zetas = sample_zetas(s, cfg.seed, range(cfg.n_traj))
        Q = _closed_form_batch(dp, s, zetas, complex(cfg.q_init), stats.tau, "eq37").real
        ref = np.var(Q, axis=0, ddof=1)[1:]
        assert np.max(np.abs(stats.var_q[1:] - ref)) <= 1e-9 * np.max(ref)

    def test_batch_moments_match_exact_sums(self):
        # the per-draw reference's batch mean and scatter against exactly rounded sums
        # (math.fsum) of the same draws; a sequential sum over 5000 draws misses by ~1e-16
        state = QubitState(0.3, 1.0)
        n_traj = 5000
        mean_err = 0.0
        for seed in range(40):
            means, scatters = per_draw_moments(state, seed, [n_traj])
            zetas = sample_zetas(state, seed, range(n_traj))
            mu = np.array([math.fsum(col) / n_traj for col in zetas.T])
            dev = zetas - mu
            scatter = np.array([[math.fsum(dev[:, j] * dev[:, k]) for k in range(2)] for j in range(2)])
            mean_err = max(mean_err, np.max(np.abs(means[0] - mu)))
            assert np.max(np.abs(scatters[0] - scatter)) <= 1e-15 * np.max(np.abs(scatter))
        assert mean_err <= 2e-17

    def test_closed_form_ignores_rk4_step_budget(self):
        # the exact solver has no step error; the coarse grid samples the same mean
        cfg = SimConfig(dt=0.1, n_traj=200, seed=17)
        coarse = run_ensemble(DP, QubitState(0.3, 1.0), cfg)
        fine = run_ensemble(DP, QubitState(0.3, 1.0), SimConfig(dt=0.02, n_traj=200, seed=17))
        assert np.allclose(coarse.tau, fine.tau[::5], rtol=0.0, atol=1e-12)
        assert np.max(np.abs(coarse.mean_q - fine.mean_q[::5])) <= 1e-12 * np.max(np.abs(fine.mean_q))
        with pytest.raises(InvalidParameterError):
            solve_trajectory(DP, EQUATOR, ZERO_DRAW, cfg, solver="rk4")

    def test_variance_starts_at_zero(self):
        cfg = SimConfig(dt=0.02, n_traj=200, seed=12)
        stats = run_ensemble(DP, QubitState(0.3, 0.0), cfg)
        assert stats.var_q[0] == 0.0
        assert np.all(stats.var_q >= 0.0)

    def test_pole_state_mean_consistent_with_zero(self):
        cfg = SimConfig(dt=0.02, n_traj=4000, seed=13)
        stats = run_ensemble(DP, QubitState(0.0, 0.0), cfg)
        band = 4.0 * np.sqrt(np.maximum(stats.var_q, 1e-30) / stats.n_traj)
        assert np.all(np.abs(stats.mean_q[1:]) <= band[1:] + 1e-12)

    @pytest.mark.parametrize("p", (0.1, 0.3, 0.5))
    @pytest.mark.parametrize("phi", (0.0, math.pi / 3))
    def test_mean_tracks_closed_form(self, p, phi):
        cfg = SimConfig(dt=0.02, n_traj=4000, seed=14)
        s = QubitState(p, phi)
        stats = run_ensemble(DP, s, cfg)
        band = 4.0 * np.sqrt(np.maximum(stats.var_q, 1e-30) / stats.n_traj)
        resid = np.abs(stats.mean_q - mean_closed_form(DP, s, stats.tau))
        assert np.all(resid[1:] <= band[1:] + 1e-12)

    def test_population_flip_gives_identical_statistics(self):
        # same seed, flipped population: the trajectory distribution is
        # invariant (eta_f and the kernel coefficients coincide), so the
        # realised statistics agree to rounding
        cfg = SimConfig(dt=0.02, n_traj=500, seed=15)
        a = run_ensemble(DP, QubitState(0.2, 1.0), cfg)
        b = run_ensemble(DP, QubitState(0.8, 1.0), cfg)
        assert np.allclose(a.mean_q, b.mean_q, atol=1e-12)
        assert np.allclose(a.cov_qq, b.cov_qq, atol=1e-12)

    def test_rk4_solver_route(self):
        # the mean of explicit draws solved by rk4 agrees with the closed-form mean of a
        # record that takes those draws' moments
        dp = DimensionlessParams(g=0.05, r=0.5, T=10.0)
        cfg = SimConfig(dt=0.02, n_traj=64, seed=16)
        zetas = sample_zetas(EQUATOR, cfg.seed, range(cfg.n_traj))
        _, rk, _ = solve_trajectory(dp, EQUATOR, zetas, cfg, solver="rk4")
        stats = run_ensemble(dp, EQUATOR, cfg)
        means, scatters = per_draw_moments(EQUATOR, cfg.seed, stats.batch_counts)
        stats = dataclasses.replace(stats, batch_means=means, batch_scatters=scatters)
        assert np.max(np.abs(rk.mean(axis=0) - stats.mean_q)) <= 1e-8

    def test_memory_independent_of_the_draw_count(self):
        # each batch's moments are drawn, never its draws: 10^8 draws peak as 10^3 do
        dp = DimensionlessParams(g=0.05, r=0.5, T=10.0)
        peaks = []
        for n_traj in (1000, 1000, 10**8):  # the first call warms up
            tracemalloc.start()
            try:
                run_ensemble(dp, QubitState(0.3, 1.0), SimConfig(dt=0.02, n_traj=n_traj, seed=4))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        assert peaks[2] <= 1.1 * peaks[1]

    @pytest.mark.parametrize("conv", EOM_CONVENTIONS)
    @pytest.mark.parametrize("r", (0.5, 1.0, 1.7))
    def test_record_rows_are_the_response_basis(self, conv, r):
        # one solve per record: its drive rows are response_basis's rows bit for bit, at
        # resonance too, the mean row is the drive on D, and the noise rows Q[1:] are what
        # a unit draw adds to a closed-form trajectory
        dp = DimensionlessParams(g=0.05, r=r, T=30.0, n_qubits=2)
        state = QubitState(0.3, 1.0)
        stats = run_ensemble(dp, state, SimConfig(dt=0.05, n_traj=50), eom_sign=conv)
        basis = response_basis(dp, stats.tau, conv)
        assert stats.D.dtype == np.float64 and stats.D.shape == (2, stats.tau.size)
        assert stats.D.tobytes() == basis.tobytes()
        amp = dp.n_qubits * dp.g * state.eta_f
        mean = amp * (math.cos(state.phi) * stats.D[0] + math.sin(state.phi) * stats.D[1])
        assert np.max(np.abs(stats.Q[0] - mean)) <= 1e-14 * np.max(np.abs(mean))
        unit_draws = _closed_form_batch(dp, state, np.eye(2), 0j, stats.tau, conv).real - stats.Q[0]
        assert np.max(np.abs(unit_draws - stats.Q[1:])) <= 1e-14 * np.max(np.abs(stats.Q[1:]))

    def test_record_arrays_are_read_only(self):
        # the pooled moments are taken once per record, so nothing may write under them
        stats = run_ensemble(DP, QubitState(0.3, 1.0), SimConfig(dt=0.05, n_traj=100))
        mean_q = stats.mean_q
        for name in ("tau", "Q", "P", "D", "batch_counts", "batch_means", "batch_scatters"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(stats, name)[...] = 0
        with pytest.raises(ValueError, match="read-only"):
            stats.draw_mean[...] = 0
        assert np.array_equal(stats.mean_q, mean_q)

    def test_needs_two_trajectories(self):
        with pytest.raises(InvalidParameterError):
            run_ensemble(DP, EQUATOR, SimConfig(dt=0.02, n_traj=1))
        # fewer draws than batches: one draw a batch
        cfg = SimConfig(dt=0.02, n_traj=10)
        assert run_ensemble(DP, EQUATOR, cfg).batch_counts.tolist() == [1] * 10

    def test_batch_edges_are_exact_integers(self):
        # the edges are floor(k n / 20) in exact arithmetic: float edges lost the
        # odd draw above 2^53 and sat one off at n = 164
        dp = DimensionlessParams(g=0.05, r=0.5, T=2.0)
        state = QubitState(0.3, 1.0)
        for n in (2**53 + 1, 10**17 + 3, 10**18 + 7, 2**63 - 1):
            assert run_ensemble(dp, state, SimConfig(dt=0.05, n_traj=n)).n_traj == n
        counts = run_ensemble(dp, state, SimConfig(dt=0.05, n_traj=164)).batch_counts
        assert np.cumsum(counts).tolist() == [k * 164 // 20 for k in range(1, 21)]
        # int64 counts hold at most 2^63 - 1 draws
        with pytest.raises(InvalidParameterError, match="n_traj"):
            run_ensemble(dp, state, SimConfig(dt=0.05, n_traj=2**63))

    def test_numpy_count_takes_the_exact_edges(self):
        # SimConfig stores a Python int: an int64 n_traj overflowed k * n in the edges,
        # warned, and was then refused for negative batch counts
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stats = run_ensemble(DP, EQUATOR, SimConfig(dt=0.1, n_traj=np.int64(2**62)))
        assert stats.n_traj == 2**62


class TestWelchPsd:
    def test_calibration_tone_peaks_at_its_frequency(self):
        dt = 0.05
        tau = np.arange(0, 400, dt)
        omega0 = 0.5
        freq, psd = welch_psd(np.cos(omega0 * tau), segment_length=2048, dt=dt)
        peak = freq[np.argmax(psd)]
        assert abs(peak - omega0) <= freq[1] - freq[0]

    def test_free_oscillator_single_peak(self):
        dp = DimensionlessParams(g=0.0, r=0.5, T=200.0)
        rng = np.random.default_rng(0)
        rows = []
        for _ in range(8):
            cfg = SimConfig(dt=0.05, q_init=float(rng.normal()), p_init=float(rng.normal()))
            rows.append(solve_trajectory(dp, EQUATOR, ZERO_DRAW, cfg)[1][0])
        freq, psd = welch_psd(np.array(rows), segment_length=2048, dt=0.05)
        assert abs(freq[np.argmax(psd)] - 0.5) <= freq[1] - freq[0]

    def test_driven_case_shows_both_tones(self):
        # deterministic drive at frequency 1 on top of the free tone at r
        dp = DimensionlessParams(g=0.05, r=0.5, T=400.0)
        cfg = SimConfig(dt=0.05, q_init=0.3, p_init=0.0)
        _, Q, _ = solve_trajectory(dp, EQUATOR, ZERO_DRAW, cfg)
        freq, psd = welch_psd(Q[0], segment_length=4096, dt=0.05)
        df = freq[1] - freq[0]

        def power_near(omega):
            sel = np.abs(freq - omega) <= 2 * df
            return psd[sel].max()

        background = np.median(psd[(freq > 1.5) & (freq < 3.0)])
        assert power_near(0.5) > 100 * background
        assert power_near(1.0) > 100 * background

    def test_normalisation_integrates_tone_power(self):
        # one-sided density per unit angular frequency: a unit cosine carries
        # total power 1/2
        dt = 0.05
        tau = np.arange(0, 2000, dt)
        freq, psd = welch_psd(np.cos(0.5 * tau), segment_length=8192, dt=dt)
        total = np.trapezoid(psd, freq)
        assert total == pytest.approx(0.5, rel=0.02)

    def test_segments_overlap_by_half(self):
        # an odd segment overlaps its neighbour by segment_length // 2 points
        x = np.random.default_rng(0).normal(size=(2, 200))
        omega, psd = welch_psd(x, segment_length=51, dt=0.1)
        freq, pxx = spectral.welch(x, 10.0, 51, 25)
        assert np.array_equal(omega, 2.0 * math.pi * freq)
        assert np.array_equal(psd, pxx.mean(axis=0) / (2.0 * math.pi))

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            welch_psd(np.zeros(100), segment_length=200, dt=0.1)
        for dt in (0.0, -0.1, math.nan, math.inf):
            with pytest.raises(InvalidParameterError):
                welch_psd(np.zeros(100), segment_length=50, dt=dt)
        for segment_length in (0, 1, 2.5, 50.0):
            with pytest.raises(InvalidParameterError):
                welch_psd(np.zeros(100), segment_length=segment_length, dt=0.1)
        freq, _ = welch_psd(np.zeros(100), segment_length=np.int64(50), dt=0.1)
        assert freq.size == 26

    @pytest.mark.parametrize("shape, text", (((0, 64), r"\(0, 64\)"), ((2, 3, 64), r"\(2, 3, 64\)")),
                             ids=("no rows", "3-D"))
    def test_rows_it_cannot_average_refused(self, shape, text):
        # no rows gave an all-NaN PSD after RuntimeWarnings; a 3-D stack was averaged
        # over its first axis only, a "PSD" of shape (3, 9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match=f"one row or a 2-D array of rows, got shape {text}"):
                welch_psd(np.zeros(shape), segment_length=16, dt=0.1)


class TestNoiseResponse:
    def test_covariance_model_matches_monte_carlo(self):
        # the derived noise rows, b^T Sigma b', against a Monte Carlo ensemble
        s = QubitState(0.3, 1.0)
        dp = DimensionlessParams(g=0.05, r=0.5, T=20.0)
        cfg = SimConfig(dt=0.02, n_traj=40_000, seed=21)
        for conv in EOM_CONVENTIONS:
            stats = run_ensemble(dp, s, cfg, eom_sign=conv)
            b = stats.Q[1:, stats._coarse_idx]
            L = zeta_factor(s)
            model = b.T @ L @ L.T @ b
            scale = np.max(np.abs(model)) + 1e-30
            assert np.max(np.abs(stats.cov_qq - model)) / scale < 0.05


class TestResponseBasis:
    @pytest.mark.parametrize("conv", EOM_CONVENTIONS)
    def test_rows_rebuild_every_trajectory(self, conv):
        # mean = n g eta_f (cos phi, sin phi) . drive rows; a draw adds zeta . the record's
        # noise rows Q[1:]
        dp = DimensionlessParams(g=0.05, r=0.7, T=30.0, n_qubits=2)
        tau = time_grid(dp.T, 0.05)
        basis = response_basis(dp, tau, conv)
        assert basis.shape == (2, tau.size)
        noise_rows = run_ensemble(dp, EQUATOR, SimConfig(dt=0.05, n_traj=2), eom_sign=conv).Q[1:]
        zetas = np.array([[0.0, 0.0], [0.4, -1.3], [-0.9, 0.2]])
        for state in (QubitState(0.3, 1.0), QubitState(0.8, 4.0), QubitState(0.0, 0.0)):
            amp = dp.n_qubits * dp.g * state.eta_f
            mean = amp * (math.cos(state.phi) * basis[0] + math.sin(state.phi) * basis[1])
            exact = _closed_form_batch(dp, state, zetas, 0j, tau, conv).real
            assert np.max(np.abs(exact - (mean + zetas @ noise_rows))) <= 1e-14

    @pytest.mark.parametrize("case", ("2-D", "nan", "inf"))
    def test_grid_that_is_not_finite_and_1d_refused(self, case):
        # a (2, 3) tau was a bare broadcast ValueError; a NaN gave NaN rows silently, and
        # an inf gave NaN rows after RuntimeWarnings from cos and sin
        tau = time_grid(DP.T, 0.1)
        if case == "2-D":
            tau, message = tau[:6].reshape(2, 3), r"got shape \(2, 3\) with 0 non-finite"
        else:
            tau[40], message = float(case), r"got shape \(301,\) with 1 non-finite"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match=rf"tau must be a finite 1-D grid, {message}"):
                response_basis(DP, tau)

    @pytest.mark.parametrize("conv", EOM_CONVENTIONS)
    def test_zero_coupling_gives_the_rows_of_any_coupling(self, conv):
        # the drive rows hold no g: g = 0 is accepted, silently, with the rows of g = 0.05
        tau = time_grid(30.0, 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = response_basis(DimensionlessParams(g=0.0, r=0.5, T=30.0), tau, conv)
        assert rows.tobytes() == response_basis(DimensionlessParams(g=0.05, r=0.5, T=30.0), tau, conv).tobytes()


def phase_integral(theta, tau):
    """Reference: int_0^tau e^{i theta s} ds = tau e^{i theta tau / 2} sinc(theta tau / 2),
    entire in theta; at theta = 0 it reduces exactly to the secular tau."""
    x = 0.5 * theta * tau
    return tau * np.exp(1j * x) * np.sinc(x / np.pi)


def reference_rows(dp, tau, conv):
    """(rotation, rows): e^{i w0 tau} and the rotation times K applied to the two phase integrals."""
    w0, K = dynamics._input_map(dp, conv)
    rot = np.exp(1j * w0 * tau)
    return rot, rot * (K @ np.stack([phase_integral(-1.0 - w0, tau), phase_integral(1.0 - w0, tau)]))


class TestTwoToneRows:
    """The closed-form rows from two tone factors against the rotated phase integrals."""

    @pytest.mark.parametrize("conv", EOM_CONVENTIONS)
    @pytest.mark.parametrize("r", (0.5, 1.0 - 1e-6, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.0 + 1e-6, 1.7))
    @pytest.mark.parametrize("T", (40.0, 1000.0, 1e4))
    def test_rows_match_phase_integral_form(self, conv, r, T):
        dp = DimensionlessParams(g=0.05, r=r, T=T)
        tau = time_grid(dp.T, 0.05)
        _, K, tones = dynamics._tones(dp, tau, conv)
        rows = K @ tones
        _, ref = reference_rows(dp, tau, conv)
        # a phase of order T is rounded by ~T eps in the rows and in the reference alike
        tol = 1e-12 * max(1.0, T / 1000.0)
        for row, ref_row in zip(rows, ref):
            assert np.max(np.abs(row - ref_row)) <= tol * np.max(np.abs(ref_row))

    @pytest.mark.parametrize("conv", EOM_CONVENTIONS)
    @pytest.mark.parametrize("z0", (0j, 0.4 - 0.3j))
    def test_trajectories_match_phase_integral_form(self, conv, z0):
        dp = DimensionlessParams(g=0.05, r=1.0, T=1000.0, n_qubits=2)
        tau = time_grid(dp.T, 0.05)
        state = QubitState(0.3, 1.0)
        zetas = np.array([[0.0, 0.0], [0.4, -1.3], [-0.9, 0.2]])
        rot, ref = reference_rows(dp, tau, conv)
        amp = dp.n_qubits * dp.g * state.eta_f
        inputs = np.hstack([np.tile([amp * math.cos(state.phi), amp * math.sin(state.phi)], (3, 1)), zetas])
        expected = rot * z0 + inputs @ ref
        Z = _closed_form_batch(dp, state, zetas, z0, tau, conv)
        scale = np.max(np.abs(expected), axis=1, keepdims=True)
        assert np.all(np.max(np.abs(Z - expected), axis=1, keepdims=True) <= 1e-12 * scale)


def test_time_grid_is_uniform_and_spans_horizon():
    tau = time_grid(30.0, 0.01)
    steps = np.diff(tau)
    assert tau[0] == 0.0
    assert np.allclose(steps, 0.01, rtol=1e-12, atol=1e-15)
    assert tau[-1] == pytest.approx(30.0, abs=1e-9)
    assert tau.size == 3001


def test_unknown_convention_rejected():
    # `_check_eom` is the one refusal of an unknown convention on every public path
    for call in (lambda: solve_trajectory(DP, EQUATOR, ZERO_DRAW, SimConfig(dt=0.01), eom_sign="bogus"),
                 lambda: run_ensemble(DP, EQUATOR, SimConfig(dt=0.1), eom_sign="bogus"),
                 lambda: response_basis(DP, time_grid(DP.T, 0.1), "bogus")):
        with pytest.raises(InvalidParameterError, match="unknown eom_sign"):
            call()


def test_unknown_solver_rejected():
    with pytest.raises(InvalidParameterError, match="unknown solver"):
        solve_trajectory(DP, EQUATOR, ZERO_DRAW, SimConfig(dt=0.01), solver="euler")


def test_non_finite_rows_refused_under_both_solvers(monkeypatch):
    # one finite check covers the single trajectory under either solver, another the
    # ensemble rows, which run_ensemble takes from its own one call of _tones
    monkeypatch.setattr(dynamics, "_closed_form_batch",
                        lambda dp, state, zetas, z0, tau, eom_sign: np.full((len(zetas), tau.size), np.nan + 0j))
    monkeypatch.setattr(dynamics, "_rk4_batch",
                        lambda dp, state, zetas, z0, tau, eom_sign: (np.full((len(zetas), tau.size), np.inf),) * 2)
    monkeypatch.setattr(dynamics, "_tones", lambda dp, tau, eom_sign: (
        *dynamics._input_map(dp, eom_sign), np.full((2, tau.size), np.nan + 0j)))
    for solver in dynamics.SOLVERS:
        with pytest.raises(FloatingPointError):
            solve_trajectory(DP, EQUATOR, ZERO_DRAW, SimConfig(dt=0.01), solver=solver)
    with pytest.raises(FloatingPointError):
        run_ensemble(DP, EQUATOR, SimConfig(dt=0.01, n_traj=10))
