"""Two-time noise kernel and its exact low-rank Gaussian sampler.

The fluctuation exponent is a quadratic form in just two scalars (W_x, W_y),
so the decoupling noise is driven by a single Gaussian pair (zeta_x, zeta_y)
with a state-dependent 2x2 covariance.  Each realisation is therefore a
smooth trigonometric function of rescaled time with an exact derivative:

    lambda_q(tau) = -zeta_x cos(tau) + zeta_y sin(tau)
    lambda_p(tau) =  zeta_x sin(tau) + zeta_y cos(tau)

which makes sampling O(1) per trajectory and exact at all times.  The dense
discretised kernel is kept only as a validation oracle (rank and PSD checks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import InvalidParameterError, QubitState

# covariance entries below this are treated as exactly degenerate
DEGENERACY_EPS = 1e-14


@dataclass(frozen=True)
class QuadFormCoeffs:
    """Coefficients (a, b, c) of the fluctuation quadratic form
    a W_x^2 + b W_y^2 + 2 c W_x W_y; also the covariance of (zeta_x, zeta_y).
    """

    a: float
    b: float
    c: float

    @property
    def det(self) -> float:
        return self.a * self.b - self.c * self.c

    def matrix(self) -> np.ndarray:
        return np.array([[self.a, self.c], [self.c, self.b]])


def quad_coeffs(state: QubitState) -> QuadFormCoeffs:
    """State-dependent quadratic-form coefficients; det = 1 - 4p(1-p) exactly."""
    p, phi = state.p, state.phi
    k = 2.0 * p * (1.0 - p)
    return QuadFormCoeffs(
        a=1.0 - k * (1.0 + math.cos(2.0 * phi)),
        b=1.0 - k * (1.0 - math.cos(2.0 * phi)),
        c=-k * math.sin(2.0 * phi),
    )


def zeta_cholesky(state: QubitState) -> np.ndarray:
    """Lower-triangular factor L with L L^T = [[a, c], [c, b]].

    Degenerate-safe: at the equator the covariance is rank one and the
    under-root residual is clipped to zero below 1e-14.
    """
    coeffs = quad_coeffs(state)
    a, b, c = coeffs.a, coeffs.b, coeffs.c
    if a <= DEGENERACY_EPS:
        # PSD forces c = 0 here; the noise lives on the zeta_y axis
        return np.array([[0.0, 0.0], [0.0, math.sqrt(max(b, 0.0))]])
    l11 = math.sqrt(a)
    l21 = c / l11
    resid = b - l21 * l21
    l22 = math.sqrt(resid) if resid > DEGENERACY_EPS else 0.0
    return np.array([[l11, 0.0], [l21, l22]])


@dataclass(frozen=True)
class NoiseRealization:
    """One draw of the correlated noise pair, exact for all rescaled times."""

    zeta_x: float
    zeta_y: float

    def lambda_q(self, tau):
        tau = np.asarray(tau, dtype=float)
        return -self.zeta_x * np.cos(tau) + self.zeta_y * np.sin(tau)

    def lambda_p(self, tau):
        tau = np.asarray(tau, dtype=float)
        return self.zeta_x * np.sin(tau) + self.zeta_y * np.cos(tau)

    def dlambda_q(self, tau):
        """d lambda_q / d tau; analytically equal to lambda_p."""
        return self.lambda_p(tau)

    def dlambda_p(self, tau):
        """d lambda_p / d tau; analytically equal to -lambda_q."""
        return -self.lambda_q(tau)

    @property
    def zetas(self) -> np.ndarray:
        return np.array([self.zeta_x, self.zeta_y])


ZERO_NOISE = NoiseRealization(0.0, 0.0)


def sample_zetas(state: QubitState, seed: int, indices: range) -> np.ndarray:
    """Draws (zeta_x, zeta_y) for indices = range(i0, i1), i0 >= 0; shape (i1 - i0, 2).

    Draw i uses the stream derived from (seed, i): outputs 2i and 2i+1 of
    PCG64(seed), a Box-Muller normal pair times `zeta_cholesky(state)`.  A
    block is one `advance` plus one vector draw, so any contiguous split of
    the indices gives the same bits.
    """
    if not isinstance(indices, range) or indices.step != 1 or indices.start < 0:
        raise InvalidParameterError(f"indices must be range(i0, i1) with i0 >= 0, got {indices!r}")
    u = np.random.Generator(np.random.PCG64(seed).advance(2 * indices.start)).random((len(indices), 2))
    radius = np.sqrt(-2.0 * np.log1p(-u[:, 0]))  # finite: u < 1
    angle = 2.0 * math.pi * u[:, 1]
    L = zeta_cholesky(state)
    # elementwise, so a row's bits do not depend on the block it is drawn in
    return (radius * np.cos(angle))[:, None] * L[:, 0] + (radius * np.sin(angle))[:, None] * L[:, 1]


def kernel_matrix(tau, tau_prime, state: QubitState) -> np.ndarray:
    """Two-time covariance of (lambda_q, lambda_p) as a 2x2 block.

    Closed form of the state-contracted kernel:

        K_qq = (1-k) cos(d) - k cos(s + 2 phi)
        K_pp = (1-k) cos(d) + k cos(s + 2 phi)
        K_qp = (1-k) sin(d) + k sin(s + 2 phi)
        K_pq(tau, tau') = K_qp(tau', tau)

    with k = 2p(1-p), d = tau - tau', s = tau + tau'.  The (1-k) prefactor
    multiplies the stationary part of every entry, including the cross one.
    Scalars give a 2x2 matrix; equal-length arrays give shape (2, 2, n).
    """
    tau = np.asarray(tau, dtype=float)
    tau_prime = np.asarray(tau_prime, dtype=float)
    p, phi = state.p, state.phi
    k = 2.0 * p * (1.0 - p)
    st = 1.0 - k
    d = tau - tau_prime
    s = tau + tau_prime + 2.0 * phi
    qq = st * np.cos(d) - k * np.cos(s)
    pp = st * np.cos(d) + k * np.cos(s)
    qp = st * np.sin(d) + k * np.sin(s)
    pq = -st * np.sin(d) + k * np.sin(s)
    return np.array([[qq, qp], [pq, pp]])


def kernel_block_matrix(tau_grid, state: QubitState) -> np.ndarray:
    """Discretised 2N x 2N covariance of stacked (lambda_q, lambda_p) samples."""
    tau_grid = np.asarray(tau_grid, dtype=float)
    t1 = tau_grid[:, None]
    t2 = tau_grid[None, :]
    blocks = kernel_matrix(t1, t2, state)
    return np.block([[blocks[0, 0], blocks[0, 1]], [blocks[1, 0], blocks[1, 1]]])


def empirical_covariance(realizations, tau_grid) -> np.ndarray:
    """Unbiased sample covariance of stacked (lambda_q, lambda_p) evaluations.

    Accepts an iterable of NoiseRealization; accumulates first and second
    moments so arbitrarily many draws fit in memory.
    """
    tau_grid = np.asarray(tau_grid, dtype=float)
    m = 2 * tau_grid.size
    total = np.zeros(m)
    outer = np.zeros((m, m))
    n = 0
    for real in realizations:
        v = np.concatenate([real.lambda_q(tau_grid), real.lambda_p(tau_grid)])
        total += v
        outer += np.outer(v, v)
        n += 1
    if n < 2:
        raise InvalidParameterError("empirical covariance needs at least 2 realizations")
    mean = total / n
    return (outer - n * np.outer(mean, mean)) / (n - 1)


def empirical_covariance_from_zetas(zetas: np.ndarray, tau_grid) -> np.ndarray:
    """Same estimator, vectorised over an (n, 2) array of draws."""
    zetas = np.asarray(zetas, dtype=float)
    if zetas.ndim != 2 or zetas.shape[1] != 2 or zetas.shape[0] < 2:
        raise InvalidParameterError("zetas must have shape (n >= 2, 2)")
    tau_grid = np.asarray(tau_grid, dtype=float)
    c, s = np.cos(tau_grid), np.sin(tau_grid)
    # rows of U map (zeta_x, zeta_y) to the stacked evaluations
    U = np.concatenate([np.stack([-c, s], axis=1), np.stack([s, c], axis=1)], axis=0)
    X = zetas @ U.T
    X = X - X.mean(axis=0)
    return (X.T @ X) / (zetas.shape[0] - 1)


def kernel_rank_check(tau_grid, state: QubitState, psd_tol: float = 1e-10) -> dict:
    """Eigen-spectrum of the discretised kernel: PSD to tolerance, rank <= 2.

    Significant eigenvalues are those above psd_tol * max * N; the analytic
    kernel is a sum of two separable terms, so at most two can appear (one
    at the equator, where the form degenerates).
    """
    tau_grid = np.asarray(tau_grid, dtype=float)
    if tau_grid.size < 4:
        raise InvalidParameterError("rank check needs a grid of at least 4 points")
    sigma = kernel_block_matrix(tau_grid, state)
    eigenvalues = np.linalg.eigvalsh(sigma)
    lam_max = float(eigenvalues[-1])
    lam_min = float(eigenvalues[0])
    threshold = psd_tol * lam_max * tau_grid.size
    rank = int(np.sum(eigenvalues > threshold))
    return {
        "eigenvalues": eigenvalues[::-1].tolist(),
        "rank": rank,
        "min_eigenvalue": lam_min,
        "max_eigenvalue": lam_max,
        "psd_ok": bool(lam_min >= -psd_tol * lam_max),
    }
