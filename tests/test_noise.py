import math
import tracemalloc
import warnings

import numpy as np
import pytest

from qubitkick.core import InvalidParameterError, QubitState
from qubitkick.noise import (
    empirical_covariance_from_zetas,
    kernel_block_matrix,
    kernel_rank_check,
    noise_map,
    sample_moments,
    sample_zetas,
    zeta_factor,
)

from per_draw import KS_C, ks_distance, per_draw_moments


def random_states(seed, n):
    rng = np.random.default_rng(seed)
    return [QubitState(float(rng.uniform(0, 1)), float(rng.uniform(0, 2 * math.pi))) for _ in range(n)]


def literal_sigma(state):
    """The draws' covariance from the hand-written quadratic-form coefficients
    a = 1 - k(1 + cos 2phi), b = 1 - k(1 - cos 2phi), c = -k sin 2phi, k = 2p(1 - p)."""
    k = 2.0 * state.p * (1.0 - state.p)
    cos2, sin2 = math.cos(2.0 * state.phi), math.sin(2.0 * state.phi)
    return np.array([[1.0 - k * (1.0 + cos2), -k * sin2], [-k * sin2, 1.0 - k * (1.0 - cos2)]])


def literal_kernel_oracle(tau, tau_p, state):
    """Independent route: assemble the kernel from the three component
    matrices contracted with the literal quadratic-form coefficients, then
    symmetrise (only the symmetric part enters the quadratic form)."""
    def assemble(t, tp):
        ct, st_ = math.cos(t), math.sin(t)
        cp, sp = math.cos(tp), math.sin(tp)
        m_xx = np.array([[ct * cp, -ct * sp], [-st_ * cp, st_ * sp]])
        m_yy = np.array([[st_ * sp, st_ * cp], [ct * sp, ct * cp]])
        m_xy = np.array([[-ct * sp, -0.5 * math.cos(t + tp)],
                         [-0.5 * math.cos(t + tp), st_ * cp]])
        (a, c), (_, b) = literal_sigma(state)
        return a * m_xx + b * m_yy + 2.0 * c * m_xy

    return 0.5 * (assemble(tau, tau_p) + assemble(tau_p, tau).T)


def sigma(state):
    """The draws' covariance L L^T, L = `zeta_factor(state)`."""
    L = zeta_factor(state)
    return L @ L.T


def det2(m):
    """m_00 m_11 - m_01 m_10 of a 2x2 matrix, by the formula."""
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


class TestQuadCoeffs:
    """The quadratic-form coefficients (a, c), (c, b) as the entries of Sigma = L L^T."""

    def test_ground_state(self):
        (a, c), (_, b) = sigma(QubitState(0.0, 0.0))
        assert (a, b, c) == (1.0, 1.0, 0.0)

    def test_equator_phi_zero(self):
        m = sigma(QubitState(0.5, 0.0))
        (a, c), (_, b) = m
        assert a == pytest.approx(0.0, abs=1e-15)
        assert b == pytest.approx(1.0, abs=1e-15)
        assert c == pytest.approx(0.0, abs=1e-15)
        assert det2(m) == pytest.approx(0.0, abs=1e-15)

    def test_equator_phi_quarter(self):
        m = sigma(QubitState(0.5, math.pi / 4))
        (a, c), (_, b) = m
        assert a == pytest.approx(0.5, abs=1e-15)
        assert b == pytest.approx(0.5, abs=1e-15)
        assert c == pytest.approx(-0.5, abs=1e-15)
        assert det2(m) == pytest.approx(0.0, abs=1e-15)

    def test_det_identity_many_states(self):
        for s in random_states(0, 1000):
            assert abs(det2(sigma(s)) - (1.0 - 4.0 * s.p * (1.0 - s.p))) <= 1e-14

    def test_population_flip_symmetry(self):
        for s in random_states(1, 50):
            flipped = QubitState(1.0 - s.p, s.phi)
            assert sigma(flipped) == pytest.approx(sigma(s), abs=1e-15)

    def test_nonnegative_diagonal(self):
        for s in random_states(2, 200):
            m = sigma(s)
            assert m[0, 0] >= -1e-15 and m[1, 1] >= -1e-15


def kernel_pair(tau, tau_p, state):
    """The 2x2 kernel block K_ab(tau, tau'), a and b each q or p, read off
    `kernel_block_matrix` on the two-point grid (tau, tau')."""
    return kernel_block_matrix([tau, tau_p], state)[np.ix_([0, 2], [1, 3])]


class TestKernelMatrix:
    def test_ground_state_rotation_structure(self):
        s = QubitState(0.0, 0.0)
        for tau, tau_p in ((0.0, 0.0), (1.3, 0.4), (5.0, 2.2)):
            d = tau - tau_p
            expected = np.array([[math.cos(d), math.sin(d)], [-math.sin(d), math.cos(d)]])
            assert np.allclose(kernel_pair(tau, tau_p, s), expected, atol=1e-14)

    def test_equal_times_ground_state_identity(self):
        assert np.allclose(kernel_pair(0.7, 0.7, QubitState(0.0, 0.0)), np.eye(2), atol=1e-14)

    def test_equator_origin_value(self):
        # contraction of the component matrices at the origin: diag(a, b) = diag(0, 1)
        assert np.allclose(kernel_pair(0.0, 0.0, QubitState(0.5, 0.0)),
                           np.diag([0.0, 1.0]), atol=1e-14)

    def test_matches_literal_component_assembly(self):
        rng = np.random.default_rng(3)
        for s in random_states(4, 25):
            tau, tau_p = rng.uniform(0, 10, size=2)
            assert np.allclose(kernel_pair(tau, tau_p, s),
                               literal_kernel_oracle(tau, tau_p, s), atol=1e-14)

    def test_cross_block_symmetry(self):
        rng = np.random.default_rng(5)
        for s in random_states(6, 20):
            tau, tau_p = rng.uniform(0, 10, size=2)
            m1 = kernel_pair(tau, tau_p, s)
            m2 = kernel_pair(tau_p, tau, s)
            assert m1[0, 1] == pytest.approx(m2[1, 0], abs=1e-14)

    def test_population_flip_symmetry(self):
        for s in random_states(7, 20):
            flipped = QubitState(1.0 - s.p, s.phi)
            assert np.array_equal(kernel_pair(1.0, 0.3, s), kernel_pair(1.0, 0.3, flipped))

    def test_block_quadrants_match_literal_component_assembly(self):
        grid = np.linspace(0, 4 * math.pi, 9)
        for s in random_states(14, 10):
            # the block's four N x N quadrants, as (N, N, 2, 2)
            quadrants = kernel_block_matrix(grid, s).reshape(2, grid.size, 2, grid.size).transpose(1, 3, 0, 2)
            for i, j in np.ndindex(grid.size, grid.size):
                assert np.allclose(quadrants[i, j], literal_kernel_oracle(grid[i], grid[j], s), atol=1e-14)

    def test_matches_the_closed_forms(self):
        # K_qq, K_pp = (1-k) cos d -+ k cos(s + 2 phi), K_qp = (1-k) sin d + k sin(s + 2 phi)
        rng = np.random.default_rng(15)
        for s in random_states(16, 25):
            tau, tau_p = rng.uniform(0, 10, size=2)
            k, d = 2.0 * s.p * (1.0 - s.p), tau - tau_p
            stat_c, stat_s = (1 - k) * math.cos(d), (1 - k) * math.sin(d)
            mode_c, mode_s = k * math.cos(tau + tau_p + 2.0 * s.phi), k * math.sin(tau + tau_p + 2.0 * s.phi)
            # K_pq(tau, tau') = K_qp(tau', tau)
            expected = [[stat_c - mode_c, stat_s + mode_s], [-stat_s + mode_s, stat_c + mode_c]]
            assert np.allclose(kernel_pair(tau, tau_p, s), expected, atol=1e-14)

    def test_stationary_at_poles(self):
        # covariance depends only on tau - tau' for pole states
        s = QubitState(1.0, 0.0)
        m1 = kernel_pair(2.0, 1.0, s)
        m2 = kernel_pair(7.5, 6.5, s)
        assert np.allclose(m1, m2, atol=1e-14)


class TestNoiseMap:
    def test_rows_are_the_lambda_formulas(self):
        zx, zy = 0.7, -1.2
        tau = np.linspace(0, 10, 101)
        lam_q, lam_p = np.moveaxis(noise_map(tau) @ np.array([zx, zy]), -1, 0)
        assert np.allclose(lam_q, -zx * np.cos(tau) + zy * np.sin(tau), rtol=0, atol=1e-15)
        assert np.allclose(lam_p, zx * np.sin(tau) + zy * np.cos(tau), rtol=0, atol=1e-15)
        assert noise_map(0.3).shape == (2, 2)
        assert noise_map(np.zeros((4, 3))).shape == (4, 3, 2, 2)


class TestZetaFactor:
    def test_reproduces_covariance(self):
        # at p = 1/2 with phi near 0 or pi the off-diagonal -sin(2 phi) / 2 is tiny but not zero
        near_equator = [QubitState(0.5, 1e-8), QubitState(0.5, math.pi - 1e-8)]
        for s in random_states(8, 100) + near_equator:
            L = zeta_factor(s)
            assert np.max(np.abs(L @ L.T - literal_sigma(s))) <= 1e-15

    def test_degenerate_equator(self):
        L = zeta_factor(QubitState(0.5, 0.0))
        assert L[0, 0] == 0.0
        assert np.allclose(L @ L.T, np.diag([0.0, 1.0]), atol=1e-15)

    def test_rank_one_at_any_equator_phase(self):
        for phi in (0.0, 0.3, math.pi / 4, 2.0):
            L = zeta_factor(QubitState(0.5, phi))
            assert np.linalg.matrix_rank(L, tol=1e-10) == 1

    def test_equator_column_exactly_zero(self):
        # variance (1 - 2p)^2 along the phase direction: none at all at p = 1/2
        for phi in (0.0, 1e-8, 0.3, math.pi / 4, 2.0, math.pi - 1e-8):
            assert np.all(zeta_factor(QubitState(0.5, phi))[:, 0] == 0.0)


class TestSampler:
    def test_streams_deterministic_and_independent(self):
        state = QubitState(0.3, 1.0)
        a1 = sample_zetas(state, 99, range(1000))
        a2 = sample_zetas(state, 99, range(1000))
        b = sample_zetas(state, 100, range(1000))
        assert a1.tobytes() == a2.tobytes()
        assert not np.allclose(a1, b)
        assert abs(np.corrcoef(a1[:, 0], b[:, 0])[0, 1]) < 5.0 / math.sqrt(a1.shape[0])

    @pytest.mark.parametrize("n", [1, 8, 5000, 20_011])
    def test_any_contiguous_split_gives_the_same_bits(self, n):
        state = QubitState(0.4, 0.8)
        whole = sample_zetas(state, 123, range(n))
        cuts = sorted({c for c in (0, 1, 7, 4999, n) if c <= n})
        blocks = [sample_zetas(state, 123, range(i0, i1)) for i0, i1 in zip(cuts[:-1], cuts[1:])]
        assert np.concatenate(blocks).tobytes() == whole.tobytes()
        for i0, i1 in ((0, n), (n // 3, n), (n - 1, n), (n // 2, n // 2 + 1)):
            assert sample_zetas(state, 123, range(i0, i1)).tobytes() == whole[i0:i1].tobytes()
        assert sample_zetas(state, 123, range(n, n)).shape == (0, 2)

    @pytest.mark.parametrize("state", (QubitState(0.0, 0.0), QubitState(0.5, 0.0), QubitState(0.5, 1.0),
                                       QubitState(0.3, 1.0)), ids=("pole", "equator", "equator-phi1", "p=0.3"))
    @pytest.mark.parametrize("indices", (range(0, 1), range(0, 5000), range(777, 9000), range(42, 42)),
                             ids=("one", "batch", "offset", "empty"))
    def test_draws_match_row_wise_reference(self, state, indices):
        # the broadcast (n, 2) textbook formula on row-ordered uniforms must keep every bit
        u = np.random.Generator(np.random.PCG64(5).advance(2 * indices.start)).random((len(indices), 2))
        radius = np.sqrt(-2.0 * np.log1p(-u[:, 0]))
        angle = 2.0 * math.pi * u[:, 1]
        L = zeta_factor(state)
        ref = (radius * np.cos(angle))[:, None] * L[:, 0] + (radius * np.sin(angle))[:, None] * L[:, 1]
        zetas = sample_zetas(state, 5, indices)
        assert zetas.shape == ref.shape == (len(indices), 2)
        assert zetas.tobytes() == ref.tobytes()

    def test_finite_without_warnings_at_the_edge_uniforms(self, monkeypatch):
        # u1 at the angles 0, pi/2, pi, 3pi/2 and 2pi-, each with u0 at 0, 1/2 and 1 - 2^-53
        edges = np.array([0.0, 0.25, 0.5, 0.75, 1.0 - 2.0**-53])
        u = np.stack(np.meshgrid([0.0, 0.5, 1.0 - 2.0**-53], edges, indexing="ij"), axis=-1).reshape(-1, 2)

        class EdgeUniforms:
            def __init__(self, bit_generator):
                pass

            def random(self, size):
                assert size == u.shape
                return u.copy()

        monkeypatch.setattr(np.random, "Generator", EdgeUniforms)
        for state in (QubitState(0.0, 0.0), QubitState(0.5, 1.0), QubitState(0.3, 1.0)):
            with warnings.catch_warnings(), np.errstate(all="raise"):
                warnings.simplefilter("error")
                zetas = sample_zetas(state, 5, range(len(u)))
            assert zetas.shape == u.shape and np.all(np.isfinite(zetas))

    @pytest.mark.parametrize("indices", [range(0, 10, 2), range(-1, 5), range(5, 0, -1), [0, 1, 2],
                                         np.arange(3), (0, 1)])
    def test_stepped_negative_or_non_range_indices_refused(self, indices):
        with pytest.raises(InvalidParameterError):
            sample_zetas(QubitState(0.3, 1.0), 1, indices)

    def test_equator_draws_live_on_a_line(self):
        zetas = sample_zetas(QubitState(0.5, 1.0), seed=5, indices=range(500))
        s = np.linalg.svd(zetas - zetas.mean(axis=0), compute_uv=False)
        assert s[1] <= 1e-10 * s[0]

    def test_zero_mean(self):
        n = 20000
        zetas = sample_zetas(QubitState(0.3, 0.5), seed=6, indices=range(n))
        lam = noise_map(np.linspace(0, 5, 7)) @ zetas.T  # (grid, (lambda_q, lambda_p), n)
        assert np.max(np.abs(lam.mean(axis=-1))) < 4.0 / math.sqrt(n)

    def test_ground_state_variance_stationary(self):
        zetas = sample_zetas(QubitState(0.0, 0.0), seed=7, indices=range(100_000))
        grid = np.linspace(0, 4 * math.pi, 9)
        emp = empirical_covariance_from_zetas(zetas, grid)
        assert np.max(np.abs(np.diag(emp) - 1.0)) < 0.02


class TestSampleMoments:
    LAW_SEEDS = range(200)
    LAW_BATCHES = 10  # batches per seed: 2000 samples a side

    @pytest.mark.parametrize("count", (1, 2, 500))
    @pytest.mark.parametrize("p", (0.3, 0.02, 0.5))
    def test_law_matches_the_per_draw_reduction(self, p, count):
        # each component of the mean and the scatter, sampled against reduced from explicit
        # draws, by a two-sample KS test over 200 seeds; 45 statistics at KS_ALPHA each give
        # a false-alarm rate of at most 0.45% for the whole family (Bonferroni)
        state = QubitState(p, 1.0)
        counts = [count] * self.LAW_BATCHES
        sampled = [sample_moments(state, seed, counts) for seed in self.LAW_SEEDS]
        reduced = [per_draw_moments(state, seed, counts) for seed in self.LAW_SEEDS]

        def components(moments):
            means = np.concatenate([m for m, _ in moments])
            scatters = np.concatenate([s for _, s in moments])
            return [means[:, 0], means[:, 1], scatters[:, 0, 0], scatters[:, 0, 1], scatters[:, 1, 1]]

        n = len(self.LAW_SEEDS) * self.LAW_BATCHES
        threshold = KS_C * math.sqrt(2.0 / n)
        for name, a, b in zip(("mean_x", "mean_y", "scatter_xx", "scatter_xy", "scatter_yy"),
                              components(sampled), components(reduced)):
            assert ks_distance(a, b) <= threshold, name

    def test_one_stream_per_seed_independent_of_the_draws(self):
        state = QubitState(0.3, 1.0)
        counts = np.array([7, 500, 3])
        a, b = sample_moments(state, 99, counts), sample_moments(state, 99, counts)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b))
        assert not np.allclose(sample_moments(state, 100, counts)[0], a[0])
        assert not np.allclose(sample_moments(state, 99, counts)[0], per_draw_moments(state, 99, counts)[0])

    @pytest.mark.parametrize("phi", (0.0, 1.0, 2.5))
    def test_exact_structure(self, phi):
        counts = np.array([1, 2, 3, 500, 1, 10**8])
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            equator = sample_moments(QubitState(0.5, phi), 8, counts)
            off = sample_moments(QubitState(0.3, phi), 8, counts)
        # at p = 1/2 the draws live on the line of L[:, 1]: so do the means, and each
        # scatter is tr(scatter) L[:, 1] L[:, 1]^T, L[:, 1] a unit vector
        line = zeta_factor(QubitState(0.5, phi))[:, 1]
        means, scatters = equator
        assert np.all(np.abs(means @ np.array([line[1], -line[0]]))
                      <= 1e-15 * np.linalg.norm(means, axis=1))
        trace = np.trace(scatters, axis1=1, axis2=2)
        assert np.all(np.abs(scatters - trace[:, None, None] * np.outer(line, line))
                      <= 1e-15 * trace[:, None, None])
        for means, scatters in (equator, off):
            assert np.all(np.isfinite(means))
            assert np.array_equal(scatters, scatters.swapaxes(1, 2))
            assert np.all(scatters[counts == 1] == 0.0)  # one draw has no scatter
            assert np.all(np.trace(scatters[counts > 1], axis1=1, axis2=2) > 0.0)
        # two draws span one direction: a rank-one scatter
        scatter = off[1][1]
        assert abs(np.linalg.det(scatter)) <= 1e-15 * np.trace(scatter) ** 2

    @pytest.mark.parametrize("counts", ([0], [5, -1], [2.5], [[3, 4]], 3, [True, True]))
    def test_counts_below_one_or_not_integer_refused(self, counts):
        with pytest.raises(InvalidParameterError):
            sample_moments(QubitState(0.3, 1.0), 1, counts)


class TestEmpiricalCovariance:
    def test_needs_two_samples(self):
        with pytest.raises(InvalidParameterError):
            empirical_covariance_from_zetas(np.array([[1.0, 0.0]]), np.linspace(0, 1, 4))

    def test_duplicated_realization_is_rank_one(self):
        zetas = np.tile([0.5, -0.3], (10, 1))
        grid = np.linspace(0, 3, 5)
        cov = empirical_covariance_from_zetas(zetas, grid)
        assert np.max(np.abs(cov)) <= 1e-14  # identical draws carry no spread

    def test_memory_scales_with_the_grid_not_the_draws(self):
        zetas = sample_zetas(QubitState(0.3, 1.0), seed=12, indices=range(100_000))
        grid = np.linspace(0, 4 * math.pi, 33)
        tracemalloc.start()
        try:
            empirical_covariance_from_zetas(zetas, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # an (n, 2N) array of every draw's path alone would be 52.8 MB
        assert peak <= 8 * 2**20

    def test_faithful_to_kernel(self):
        state = QubitState(0.3, 1.0)
        zetas = sample_zetas(state, seed=9, indices=range(100_000))
        grid = np.linspace(0, 4 * math.pi, 17)
        emp = empirical_covariance_from_zetas(zetas, grid)
        assert np.max(np.abs(emp - kernel_block_matrix(grid, state))) < 0.02

    def test_nonstationary_mode_amplitude(self):
        # fit the tau+tau' mode of the lambda_q autocovariance; its
        # amplitude is 2 p (1-p) and its phase 2 phi
        state = QubitState(0.3, 1.0)
        k = 2.0 * state.p * (1.0 - state.p)
        zetas = sample_zetas(state, seed=10, indices=range(100_000))
        grid = np.linspace(0, 4 * math.pi, 17)
        emp = empirical_covariance_from_zetas(zetas, grid)[: grid.size, : grid.size]
        t1, t2 = np.meshgrid(grid, grid, indexing="ij")
        X = np.stack([np.cos(t1 - t2).ravel(), np.cos(t1 + t2).ravel(), np.sin(t1 + t2).ravel()], axis=1)
        coef, *_ = np.linalg.lstsq(X, emp.ravel(), rcond=None)
        amplitude = math.hypot(coef[1], coef[2])
        phase = math.atan2(coef[2], -coef[1]) % (2 * math.pi)
        assert amplitude == pytest.approx(k, abs=0.02)
        assert abs(phase - 2.0 * state.phi) < 0.1


class TestKernelRankCheck:
    def test_ground_state_rank_two(self):
        info = kernel_rank_check(np.linspace(0, 4 * math.pi, 64), QubitState(0.0, 0.0))
        assert info["rank"] == 2
        assert info["psd_ok"]

    def test_equator_rank_one(self):
        for phi in (0.0, 1.0):
            info = kernel_rank_check(np.linspace(0, 4 * math.pi, 64), QubitState(0.5, phi))
            assert info["rank"] == 1

    def test_density_scaling(self):
        s = QubitState(0.2, 0.4)
        coarse = kernel_rank_check(np.linspace(0, 4 * math.pi, 64), s)
        fine = kernel_rank_check(np.linspace(0, 4 * math.pi, 128), s)
        assert fine["rank"] == coarse["rank"]
        assert fine["max_eigenvalue"] / coarse["max_eigenvalue"] == pytest.approx(2.0, rel=0.15)

    def test_psd_for_random_states(self):
        for s in random_states(11, 25):
            info = kernel_rank_check(np.linspace(0, 3 * math.pi, 48), s)
            assert info["psd_ok"]
            assert info["rank"] <= 2

    def test_short_grid_rejected(self):
        with pytest.raises(InvalidParameterError):
            kernel_rank_check(np.linspace(0, 1, 3), QubitState(0.0, 0.0))


def test_sampled_noise_matches_cholesky_transform():
    # the factor of each state maps the same unit-normal draws
    seed, idx = 123, range(7, 40)
    normals = sample_zetas(QubitState(0.0, 0.0), seed, idx)  # L = identity at the pole
    for state in (QubitState(0.4, 0.8), QubitState(0.5, 1.0), QubitState(1.0, 0.0)):
        expected = normals @ zeta_factor(state).T
        assert sample_zetas(state, seed, idx) == pytest.approx(expected, abs=1e-15)


def test_box_muller_normals_are_standard():
    # unit-normal pairs at the pole: moments and tails of N(0, I)
    n = 200_000
    z = sample_zetas(QubitState(0.0, 0.0), 11, range(n))
    se = 1.0 / math.sqrt(n)
    assert np.max(np.abs(z.mean(axis=0))) < 5 * se
    assert np.max(np.abs(np.cov(z.T) - np.eye(2))) < 5 * math.sqrt(2) * se
    # P(|z| > 2) = 0.0455 per coordinate
    tail = np.mean(np.abs(z) > 2.0, axis=0)
    assert np.max(np.abs(tail - 0.0455)) < 5 * math.sqrt(0.0455 * 0.9545 / n)
