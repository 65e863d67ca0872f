"""Infer the qubit state from classical ensemble statistics.

The ensemble mean is linear in (A_c, A_s) on the closed-form basis

    B1(tau) = cos(r tau) - cos(tau),   B2(tau) = sin(r tau)/r - sin(tau)

so ordinary least squares recovers the superposition intensity eta_f and the
phase phi by reparametrisation, with covariance-transparent errors.  Only
the unordered pair {p, 1-p} is identifiable at first order: every
first-order observable is symmetric under p <-> 1-p, and the second-order
term that would break the tie is excluded from the dynamics.  Results
therefore always carry both branches.

The two-time covariance of the q residuals adds an independent channel: its
tau+tau' mode has amplitude 2p(1-p) (kernel units) and phase 2 phi, and its
stationary amplitude estimates eta_st^2 = 1 - 2 eta_f^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DimensionlessParams, InvalidParameterError, wrap_angle
from .dynamics import RESONANCE_EPS, EnsembleStats, noise_response

MIN_PERIODS = 2.0
MAX_CONDITION = 1e8
MIN_TRAJ_NONSTATIONARY = 10_000


class DegenerateBasisError(ValueError):
    """Fit basis collapses (resonance or ill-conditioning)."""


class UndersampledError(ValueError):
    """Too few trajectories for the requested estimator."""


@dataclass(frozen=True)
class MeanFit:
    A_c: float
    A_s: float
    cov: np.ndarray
    residual_norm: float
    condition: float


@dataclass(frozen=True)
class ReconstructionResult:
    """Recovered state parameters with first-order error propagation.

    `p_branches` is the unordered pair {p, 1-p}; `phase_indeterminate` is set
    at the poles where eta_f = 0 carries no phase information; `unphysical`
    flags eta_f estimates significantly above the 1/2 ceiling, or above the
    bare ceiling when the stderrs are NaN (no error estimate available).
    """

    eta_f_hat: float
    eta_f_stderr: float
    phi_hat: float
    phi_stderr: float
    p_branches: tuple[float, float]
    eta_st_hat: float | None
    eta_st_stderr: float | None
    residual_norm: float
    phase_indeterminate: bool
    unphysical: bool
    eom_sign: str
    diagnostics: dict


def mean_basis(tau: np.ndarray, r: float) -> np.ndarray:
    """Design matrix [B1, B2] of the closed-form mean."""
    tau = np.asarray(tau, dtype=float)
    b1 = np.cos(r * tau) - np.cos(tau)
    b2 = np.sin(r * tau) / r - np.sin(tau)
    return np.stack([b1, b2], axis=1)


def fit_mean(tau, mean_q, dp: DimensionlessParams) -> MeanFit:
    """Least squares of the ensemble mean onto the closed-form basis."""
    tau = np.asarray(tau, dtype=float)
    mean_q = np.asarray(mean_q, dtype=float)
    if abs(dp.r - 1.0) < RESONANCE_EPS:
        raise DegenerateBasisError("mean-fit basis degenerates at r = 1")
    span_needed = MIN_PERIODS * 2.0 * math.pi / min(1.0, dp.r)
    if tau[-1] - tau[0] < span_needed:
        raise InvalidParameterError(
            f"grid must cover >= {MIN_PERIODS} periods of the slower tone "
            f"(need span {span_needed:.1f}, got {tau[-1] - tau[0]:.1f})"
        )
    X = mean_basis(tau, dp.r)
    singular = np.linalg.svd(X, compute_uv=False)
    condition = float(singular[0] / singular[-1])
    if condition > MAX_CONDITION:
        raise DegenerateBasisError(f"normal equations ill-conditioned (cond = {condition:.2e})")
    # near r = 1 both basis columns collapse together (amplitude ~ |r-1|),
    # leaving the condition number finite but the fit meaningless
    if singular[-1] / math.sqrt(tau.size) < 1e-3:
        raise DegenerateBasisError(
            f"basis amplitude collapses near resonance (rms {singular[-1] / math.sqrt(tau.size):.2e})"
        )
    coeffs, _, _, _ = np.linalg.lstsq(X, mean_q, rcond=None)
    resid = mean_q - X @ coeffs
    dof = max(tau.size - 2, 1)
    sigma2 = float(resid @ resid) / dof
    cov = sigma2 * np.linalg.inv(X.T @ X)
    return MeanFit(
        A_c=float(coeffs[0]),
        A_s=float(coeffs[1]),
        cov=cov,
        residual_norm=float(np.linalg.norm(resid)),
        condition=condition,
    )


def recover_state(fit: MeanFit, dp: DimensionlessParams, eom_sign: str = "eq37",
                  eta_st: tuple[float, float] | None = None) -> ReconstructionResult:
    """Map fitted mean coefficients back to (eta_f, phi) and the p branches.

    The fitted model is mean_q = A_c B1 + A_s B2 with
    A_c = n g eta_f cos(phi)/(1+r), A_s = -n g eta_f sin(phi)/(1+r), so

        eta_f = (1+r) sqrt(A_c^2 + A_s^2) / (g n),  phi = atan2(-A_s, A_c).

    The recovered phi is stamped with the sign convention in force.
    """
    if dp.g <= 0.0:
        raise InvalidParameterError("no deterministic signal at g = 0; state not recoverable from the mean")
    scale = (1.0 + dp.r) / (dp.g * dp.n_qubits)
    u, v = fit.A_c, fit.A_s
    rho = math.hypot(u, v)
    eta_f = scale * rho
    phase_indeterminate = rho == 0.0
    phi_hat = 0.0 if phase_indeterminate else wrap_angle(math.atan2(-v, u))

    if rho > 0.0:
        j_eta = scale * np.array([u / rho, v / rho])
        eta_var = float(j_eta @ fit.cov @ j_eta)
        j_phi = np.array([v / rho**2, -u / rho**2])
        phi_var = float(j_phi @ fit.cov @ j_phi)
    else:
        eta_var = float(scale**2 * max(fit.cov[0, 0], fit.cov[1, 1]))
        phi_var = float("inf")
        phase_indeterminate = True
    # a NaN fit covariance (no error estimate) propagates as NaN stderrs
    eta_stderr = math.nan if math.isnan(eta_var) else math.sqrt(max(eta_var, 0.0))
    phi_stderr = math.sqrt(phi_var) if math.isfinite(phi_var) else phi_var

    disc = 1.0 - 4.0 * eta_f**2
    unphysical = eta_f > 0.5 + (0.0 if math.isnan(eta_stderr) else 2.0 * eta_stderr)
    root = math.sqrt(max(disc, 0.0))
    branches = ((1.0 - root) / 2.0, (1.0 + root) / 2.0)

    eta_st_hat = eta_st_stderr = None
    if eta_st is not None:
        eta_st_hat, eta_st_stderr = eta_st

    return ReconstructionResult(
        eta_f_hat=eta_f,
        eta_f_stderr=eta_stderr,
        phi_hat=phi_hat,
        phi_stderr=phi_stderr,
        p_branches=branches,
        eta_st_hat=eta_st_hat,
        eta_st_stderr=eta_st_stderr,
        residual_norm=fit.residual_norm,
        phase_indeterminate=phase_indeterminate or eta_f == 0.0,
        unphysical=unphysical,
        eom_sign=eom_sign,
        diagnostics={"A_c": fit.A_c, "A_s": fit.A_s, "condition": fit.condition},
    )


def _covariance_basis(dp: DimensionlessParams, tau_c: np.ndarray, eom_sign: str):
    """Model kernels {stationary, Re mode, Im mode} on the coarse grid."""
    W, rho, eps, delta = noise_response(dp, tau_c, eom_sign)
    S = np.real(np.outer(W, W.conj()))
    M = np.outer(W, W)
    return rho * S, rho * M.real, rho * M.imag, eps, delta


def _fit_covariance(cov: np.ndarray, S, ReM, ImM):
    X = np.stack([S.ravel(), ReM.ravel(), ImM.ravel()], axis=1)
    coeffs, _, _, _ = np.linalg.lstsq(X, cov.ravel(), rcond=None)
    return coeffs  # (alpha, u, v)


def estimate_nonstationary(stats: EnsembleStats, dp: DimensionlessParams) -> dict:
    """Fit the tau+tau' covariance mode of the q residuals.

    Returns the non-stationary amplitude (kernel units, estimating 2p(1-p)),
    its phase (estimating 2 phi), and the stationary amplitude (estimating
    eta_st^2 = 1 - 2p(1-p)).  Standard errors come from refits over the
    per-batch covariances stored by the ensemble driver.
    """
    if stats.n_traj < MIN_TRAJ_NONSTATIONARY:
        raise UndersampledError(
            f"covariance-mode fit needs n_traj >= {MIN_TRAJ_NONSTATIONARY} "
            f"(got {stats.n_traj}); amplitude errors scale as 1/sqrt(n)"
        )
    S, ReM, ImM, eps, delta = _covariance_basis(dp, stats.coarse_tau, stats.eom_sign)

    def invert(coeffs):
        alpha, u, v = coeffs
        k_hat = math.hypot(u, v)
        two_phi = wrap_angle(math.atan2(-eps * delta * v, eps * u)) if k_hat > 0.0 else 0.0
        return alpha, k_hat, two_phi

    pooled = _fit_covariance(stats.cov_qq, S, ReM, ImM)
    alpha_hat, k_hat, two_phi_hat = invert(pooled)

    n_batches = stats.batch_cov_qq.shape[0]
    alphas = np.empty(n_batches)
    ks = np.empty(n_batches)
    comps = np.empty((n_batches, 2))
    phases = np.empty(n_batches, dtype=complex)
    for b in range(n_batches):
        coeffs_b = _fit_covariance(stats.batch_cov_qq[b], S, ReM, ImM)
        a_b, k_b, tp_b = invert(coeffs_b)
        alphas[b], ks[b] = a_b, k_b
        comps[b] = coeffs_b[1:]
        phases[b] = np.exp(1j * tp_b)
    scale = 1.0 / math.sqrt(n_batches)
    amplitude_stderr = float(np.std(ks, ddof=1)) * scale
    alpha_stderr = float(np.std(alphas, ddof=1)) * scale
    comp_stderr = np.std(comps, axis=0, ddof=1) * scale
    # circular spread of the batch phases
    mean_dir = phases.mean()
    circ_var = max(1.0 - abs(mean_dir), 0.0)
    phase_stderr = float(math.sqrt(2.0 * circ_var)) * scale if k_hat > 0 else float("inf")

    alpha_clipped = max(alpha_hat, 0.0)
    eta_st_hat = math.sqrt(alpha_clipped)
    eta_st_stderr = alpha_stderr / (2.0 * eta_st_hat) if eta_st_hat > 0 else float("inf")
    return {
        "amplitude_hat": k_hat,
        "amplitude_stderr": amplitude_stderr,
        "phase_hat": two_phi_hat,
        "phase_stderr": phase_stderr,
        # raw mode components: the folded amplitude is biased near zero, so
        # consistency-with-zero checks should use these instead
        "mode_components": (float(pooled[1]), float(pooled[2])),
        "mode_component_stderr": (float(comp_stderr[0]), float(comp_stderr[1])),
        "eta_st_sq_hat": alpha_hat,
        "eta_st_sq_stderr": alpha_stderr,
        "eta_st_hat": eta_st_hat,
        "eta_st_stderr": eta_st_stderr,
        "n_traj": stats.n_traj,
        "n_batches": n_batches,
        "eom_sign": stats.eom_sign,
    }


def reconstruct_from_stats(stats: EnsembleStats, dp: DimensionlessParams,
                           with_nonstationary: bool = True) -> ReconstructionResult:
    """Full pipeline: mean fit plus (optionally) the covariance-mode channel.

    The coefficient covariance is taken from refits over the ensemble's
    index batches rather than from fit residuals: the Monte Carlo noise
    average lies exactly in the span of the fit basis (it has the same
    zero-IC response form as the deterministic mean), so residuals carry no
    information about the estimator spread.
    """
    fit = fit_mean(stats.tau, stats.mean_q, dp)
    n_batches = stats.batch_mean_q.shape[0]
    if n_batches >= 4:
        coeffs = np.empty((n_batches, 2))
        for b in range(n_batches):
            batch_fit = fit_mean(stats.tau, stats.batch_mean_q[b], dp)
            coeffs[b] = (batch_fit.A_c, batch_fit.A_s)
        cov_batch = np.cov(coeffs.T, ddof=1) / n_batches
        fit = MeanFit(A_c=fit.A_c, A_s=fit.A_s, cov=cov_batch,
                      residual_norm=fit.residual_norm, condition=fit.condition)
    eta_st = None
    diagnostics_extra = {}
    if with_nonstationary and stats.n_traj >= MIN_TRAJ_NONSTATIONARY:
        ns = estimate_nonstationary(stats, dp)
        eta_st = (ns["eta_st_hat"], ns["eta_st_stderr"])
        diagnostics_extra = {"nonstationary": ns}
    result = recover_state(fit, dp, eom_sign=stats.eom_sign, eta_st=eta_st)
    if diagnostics_extra:
        result.diagnostics.update(diagnostics_extra)
    return result
