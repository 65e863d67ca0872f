"""Two-time noise kernel and its exact low-rank Gaussian sampler.

The fluctuation exponent is a quadratic form in just two scalars (W_x, W_y),
so the decoupling noise is driven by one Gaussian pair zeta = (zeta_x, zeta_y)
with a state-dependent 2x2 covariance Sigma.  The law is stated once, in its
own frame, by the exact square root `zeta_factor` = R(phi) diag(|1 - 2p|, 1):
variance (1 - 2p)^2 along (cos phi, sin phi), 1 across it, and
Sigma = L L^T, which every kernel and phase reads.  Each realisation is the
fixed trigonometric map lambda(tau) = U(tau) zeta (`noise_map`), exact at all
times, so sampling is O(1) per trajectory, and each covariance is
U(tau) Sigma U(tau')^T.  A draw is one row of the (n, 2) array `sample_zetas`
returns: a textbook Box-Muller normal pair mixed by that factor.  An ensemble
needs only the mean and the scatter of each batch of draws, and
`sample_moments` draws those from their exact joint law (a Gaussian mean and
a Bartlett-factored Wishart scatter through the same factor) on its own
stream, without making the draws.
"""

from __future__ import annotations

import math

import numpy as np

from .core import InvalidParameterError, QubitState

# eigenvalue tolerance of `kernel_rank_check`, relative to the largest
PSD_TOL = 1e-10


def zeta_factor(state: QubitState) -> np.ndarray:
    """Exact square root L = R(phi) diag(|1 - 2p|, 1) of the draws' covariance.

    R(phi) is the rotation by phi, so this is the noise law in its own frame:
    variance (1 - 2p)^2 = <sigma_z>^2 along the phase direction
    (cos phi, sin phi), and 1 across it.  At the equator (p = 1/2) column 0
    is exactly zero, so the draws live on one line.
    """
    s = abs(1.0 - 2.0 * state.p)
    cos_phi, sin_phi = math.cos(state.phi), math.sin(state.phi)
    return np.array([[s * cos_phi, -sin_phi], [s * sin_phi, cos_phi]])


def sample_zetas(state: QubitState, seed: int, indices: range) -> np.ndarray:
    """Draws (zeta_x, zeta_y) for indices = range(i0, i1), i0 >= 0; shape (i1 - i0, 2).

    Draw i uses the stream derived from (seed, i): outputs 2i and 2i+1 of
    PCG64(seed), two uniforms u_0, u_1 that the Box-Muller map (Box & Muller,
    Ann. Math. Statist. 29, 610, 1958) turns into the normal pair
    r (cos 2 pi u_1, sin 2 pi u_1), r = sqrt(-2 log1p(-u_0)), mixed by
    `zeta_factor(state)`.  A block is one `advance` plus one vector draw,
    and every step is elementwise, so any contiguous split of the indices
    gives the same bits.  A seed gives the same bits on one machine; across
    CPUs they can differ in the last bit, where numpy dispatches `log1p` to
    different SIMD kernels.
    """
    if not isinstance(indices, range) or indices.step != 1 or indices.start < 0:
        raise InvalidParameterError(f"indices must be range(i0, i1) with i0 >= 0, got {indices!r}")
    u = np.random.Generator(np.random.PCG64(seed).advance(2 * indices.start)).random((len(indices), 2))
    radius = np.sqrt(-2.0 * np.log1p(-u[:, 0]))  # finite: u < 1
    angle = 2.0 * math.pi * u[:, 1]
    L = zeta_factor(state)
    return (radius * np.cos(angle))[:, None] * L[:, 0] + (radius * np.sin(angle))[:, None] * L[:, 1]


def sample_moments(state: QubitState, seed: int, counts) -> tuple[np.ndarray, np.ndarray]:
    """Each batch's mean (B, 2) and centred 2x2 scatter (B, 2, 2) of counts[b] >= 1 draws,
    drawn from their exact joint law at O(B) cost and memory, whatever the counts.

    For n draws with covariance L L^T, L = `zeta_factor(state)`, the mean is
    L z / sqrt(n) with z ~ N(0, I), and the scatter, independent of it, is
    L A A^T L^T with A the lower-triangular Bartlett factor of a
    Wishart(n - 1, I): A_00^2 ~ chi2(n - 1), A_11^2 ~ chi2(n - 2) and
    A_10 ~ N(0, 1) (Bartlett 1933; Odell & Feiveson, JASA 61, 199, 1966).
    chi2(0) is exactly 0, so a batch of two draws has a rank-one scatter, and
    a batch of one has A = 0 and scatter exactly 0.  At p = 1/2 column 0 of L
    is exactly zero, so each scatter is L[:, 1] L[:, 1]^T (A_10^2 + A_11^2):
    rank one by construction.

    One generator per call, PCG64(SeedSequence(seed, spawn_key=(1,))),
    independent of the PCG64(seed) stream of `sample_zetas`.  It draws z for
    every batch, then A_10, then A_00^2 and A_11^2 as 2 Gamma(dof / 2), each
    vectorised over the batches in index order.  So the seed and the counts
    fix the bits, and the batch edges are part of the law.
    """
    counts = np.asarray(counts)
    if counts.ndim != 1 or not np.issubdtype(counts.dtype, np.integer) or np.any(counts < 1):
        raise InvalidParameterError(f"counts must be a 1-D array of integers >= 1, got {counts!r}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(1,))))
    z = rng.standard_normal((counts.size, 2))
    A = np.zeros((counts.size, 2, 2))
    A[:, 1, 0] = np.where(counts > 1, rng.standard_normal(counts.size), 0.0)
    A[:, 0, 0] = np.sqrt(2.0 * rng.standard_gamma((counts - 1) / 2.0))
    A[:, 1, 1] = np.sqrt(2.0 * rng.standard_gamma(np.maximum(counts - 2, 0) / 2.0))
    L = zeta_factor(state)
    LA = L @ A
    return (z / np.sqrt(counts)[:, None]) @ L.T, LA @ LA.swapaxes(1, 2)


def noise_map(tau) -> np.ndarray:
    """U(tau) with shape tau.shape + (2, 2), so a draw's noise is lambda(tau) = U(tau) zeta:

        lambda_q(tau) = -zeta_x cos(tau) + zeta_y sin(tau)
        lambda_p(tau) =  zeta_x sin(tau) + zeta_y cos(tau)

    Row 0 maps (zeta_x, zeta_y) to lambda_q, row 1 to lambda_p.  Both are
    unit-frequency rotations, so d lambda_q/d tau = lambda_p and
    d lambda_p/d tau = -lambda_q.
    """
    c, s = np.cos(tau), np.sin(tau)
    return np.stack([np.stack([-c, s], axis=-1), np.stack([s, c], axis=-1)], axis=-2)


def _on_grid(tau_grid, sigma: np.ndarray) -> np.ndarray:
    """V sigma V^T, V the (2N, 2) map from (zeta_x, zeta_y) to lambda_q on the grid, then lambda_p."""
    V = noise_map(np.asarray(tau_grid, dtype=float)).swapaxes(0, 1).reshape(-1, 2)
    return V @ sigma @ V.T


def kernel_block_matrix(tau_grid, state: QubitState) -> np.ndarray:
    """Discretised 2N x 2N covariance V Sigma V^T of stacked (lambda_q, lambda_p) samples.

    Sigma = L L^T, L = `zeta_factor(state)`, is the draws' covariance, and
    entry (i, j) of block (a, b), a and b each q or p, is K_ab(tau_i, tau_j)
    of the two-time kernel U(tau) Sigma U(tau')^T:

        K_qq = (1-k) cos(d) - k cos(s + 2 phi)
        K_pp = (1-k) cos(d) + k cos(s + 2 phi)
        K_qp = (1-k) sin(d) + k sin(s + 2 phi)
        K_pq(tau, tau') = K_qp(tau', tau)

    with k = 2p(1-p), d = tau - tau', s = tau + tau'.  The (1-k) prefactor
    multiplies the stationary part of every entry, including the cross one.
    """
    L = zeta_factor(state)
    return _on_grid(tau_grid, L @ L.T)


def empirical_covariance_from_zetas(zetas: np.ndarray, tau_grid) -> np.ndarray:
    """Unbiased sample covariance of stacked (lambda_q, lambda_p) evaluations over
    an (n, 2) array of draws: V cov(zetas) V^T, in memory of order grid^2, not n."""
    zetas = np.asarray(zetas, dtype=float)
    if zetas.ndim != 2 or zetas.shape[1] != 2 or zetas.shape[0] < 2:
        raise InvalidParameterError("zetas must have shape (n >= 2, 2)")
    return _on_grid(tau_grid, np.cov(zetas, rowvar=False))


def kernel_rank_check(tau_grid, state: QubitState) -> dict:
    """Eigen-spectrum of the discretised kernel: PSD to tolerance, rank <= 2.

    Significant eigenvalues are those above PSD_TOL * max * N; the kernel
    is V Sigma V^T with V of two columns, so at most two can appear (one at
    the equator, where Sigma degenerates).
    """
    tau_grid = np.asarray(tau_grid, dtype=float)
    if tau_grid.size < 4:
        raise InvalidParameterError("rank check needs a grid of at least 4 points")
    sigma = kernel_block_matrix(tau_grid, state)
    eigenvalues = np.linalg.eigvalsh(sigma)
    lam_max = float(eigenvalues[-1])
    lam_min = float(eigenvalues[0])
    threshold = PSD_TOL * lam_max * tau_grid.size
    rank = int(np.sum(eigenvalues > threshold))
    return {
        "eigenvalues": eigenvalues[::-1].tolist(),
        "rank": rank,
        "min_eigenvalue": lam_min,
        "max_eigenvalue": lam_max,
        "psd_ok": bool(lam_min >= -PSD_TOL * lam_max),
    }
