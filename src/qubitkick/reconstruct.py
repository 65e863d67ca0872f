"""Infer the qubit state from classical ensemble statistics.

Both channels are fitted on `dynamics.response_basis`, the zero-initial-
condition response of the convention in force, so every `eom_sign` is
inverted with the equation of motion that produced the data.

The ensemble mean is n g eta_f (cos(phi) D_c + sin(phi) D_s) on the two
drive rows, so ordinary least squares gives A_c = n g eta_f cos(phi) and
A_s = n g eta_f sin(phi), and the superposition intensity eta_f and the
phase phi follow by reparametrisation.  Only the unordered pair {p, 1-p} is
identifiable at first order: every first-order observable is symmetric
under p <-> 1-p, and the second-order term that would break the tie is
excluded from the dynamics.  Results therefore always carry both branches.

The two-time covariance of the q residuals adds an independent channel.
With the noise rows b = (B_x, B_y) and k = 2p(1-p) it is

    b^T Sigma b' = (1-k) S - k cos(2 phi) C - k sin(2 phi) D,
    S = B_x B_x' + B_y B_y',  C = B_x B_x' - B_y B_y',  D = B_x B_y' + B_y B_x',

so its tau+tau' mode has amplitude k (kernel units) and phase 2 phi, and
its stationary amplitude estimates eta_st^2 = 1 - 2 eta_f^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DimensionlessParams, InvalidParameterError, wrap_angle
from .dynamics import DEFAULT_EOM, EnsembleStats, response_basis

MIN_PERIODS = 2.0
MAX_CONDITION = 1e8
# rms of the weaker drive row (q per unit n g eta_f) below which it is lost
MIN_BASIS_RMS = 1e-3
# batch refits needed for a coefficient covariance
MIN_BATCHES = 4
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
    eom_sign: str = DEFAULT_EOM


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


def fit_mean(tau, mean_q, dp: DimensionlessParams, eom_sign: str = DEFAULT_EOM) -> MeanFit:
    """Least squares of the ensemble mean onto the convention's two drive rows.

    `mean_q` is one mean on `tau`, or a stack whose first row is the pooled
    mean and whose further rows are the means of the ensemble's index
    batches; all rows share one design matrix and one solve.  With at least
    MIN_BATCHES batches their spread gives `cov`; otherwise `cov` is NaN,
    because the Monte Carlo mean lies in the span of the basis and its
    residuals say nothing about the estimator spread.
    """
    tau = np.asarray(tau, dtype=float)
    Y = np.atleast_2d(np.asarray(mean_q, dtype=float))
    span_needed = MIN_PERIODS * 2.0 * math.pi / min(1.0, dp.r)
    if tau[-1] - tau[0] < span_needed:
        raise InvalidParameterError(
            f"grid must cover >= {MIN_PERIODS} periods of the slower tone "
            f"(need span {span_needed:.1f}, got {tau[-1] - tau[0]:.1f})"
        )
    X = response_basis(dp, tau, eom_sign)[:2].T
    singular = np.linalg.svd(X, compute_uv=False)
    # checked first: at eq37 resonance the basis is all zeros and the
    # condition ratio would be 0/0
    rms = singular[-1] / math.sqrt(tau.size)
    if rms < MIN_BASIS_RMS:
        raise DegenerateBasisError(f"drive response collapses under {eom_sign} (rms {rms:.2e})")
    condition = float(singular[0] / singular[-1])
    if condition > MAX_CONDITION:
        raise DegenerateBasisError(f"normal equations ill-conditioned (cond = {condition:.2e})")
    coeffs, _, _, _ = np.linalg.lstsq(X, Y.T, rcond=None)
    n_batches = Y.shape[0] - 1
    if n_batches >= MIN_BATCHES:
        cov = np.cov(coeffs[:, 1:], ddof=1) / n_batches
    else:
        cov = np.full((2, 2), np.nan)
    return MeanFit(
        A_c=float(coeffs[0, 0]),
        A_s=float(coeffs[1, 0]),
        cov=cov,
        residual_norm=float(np.linalg.norm(Y[0] - X @ coeffs[:, 0])),
        condition=condition,
        eom_sign=eom_sign,
    )


def recover_state(fit: MeanFit, dp: DimensionlessParams,
                  eta_st: tuple[float, float] | None = None) -> ReconstructionResult:
    """Map fitted mean coefficients back to (eta_f, phi) and the p branches.

    Under every convention A_c = n g eta_f cos(phi) and A_s = n g eta_f sin(phi),
    so

        eta_f = sqrt(A_c^2 + A_s^2) / (g n),  phi = atan2(A_s, A_c).

    The result is stamped with the convention the fit was made under.
    """
    if dp.g <= 0.0:
        raise InvalidParameterError("no deterministic signal at g = 0; state not recoverable from the mean")
    scale = 1.0 / (dp.g * dp.n_qubits)
    u, v = fit.A_c, fit.A_s
    rho = math.hypot(u, v)
    eta_f = scale * rho
    phase_indeterminate = rho == 0.0
    phi_hat = 0.0 if phase_indeterminate else wrap_angle(math.atan2(v, u))

    if rho > 0.0:
        j_eta = scale * np.array([u / rho, v / rho])
        eta_var = float(j_eta @ fit.cov @ j_eta)
        j_phi = np.array([-v / rho**2, u / rho**2])
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
        eom_sign=fit.eom_sign,
        diagnostics={"A_c": fit.A_c, "A_s": fit.A_s, "condition": fit.condition},
    )


def _covariance_basis(dp: DimensionlessParams, tau_c: np.ndarray, eom_sign: str) -> np.ndarray:
    """Design matrix of the kernels (S, C, D) on the coarse grid, one column each."""
    bx, by = response_basis(dp, tau_c, eom_sign)[2:]
    xx, yy, xy = np.outer(bx, bx), np.outer(by, by), np.outer(bx, by)
    return np.stack([(xx + yy).ravel(), (xx - yy).ravel(), (xy + xy.T).ravel()], axis=1)


def estimate_nonstationary(stats: EnsembleStats, dp: DimensionlessParams) -> dict:
    """Fit the tau+tau' covariance mode of the q residuals.

    Returns the non-stationary amplitude (kernel units, estimating 2p(1-p)),
    its phase (estimating 2 phi), and the stationary amplitude (estimating
    eta_st^2 = 1 - 2p(1-p)).  Standard errors come from refits over the
    per-batch covariances that `run_ensemble` stores; below MIN_BATCHES
    batches every stderr is NaN.
    """
    if stats.n_traj < MIN_TRAJ_NONSTATIONARY:
        raise UndersampledError(
            f"covariance-mode fit needs n_traj >= {MIN_TRAJ_NONSTATIONARY} "
            f"(got {stats.n_traj}); amplitude errors scale as 1/sqrt(n)"
        )
    X = _covariance_basis(dp, stats.coarse_tau, stats.eom_sign)
    n_batches = stats.batch_cov_qq.shape[0]
    # one solve: the pooled covariance first, then every batch covariance
    Y = np.vstack([stats.cov_qq.ravel(), stats.batch_cov_qq.reshape(n_batches, -1)])
    alpha, u, v = np.linalg.lstsq(X, Y.T, rcond=None)[0]
    ks = np.hypot(u, v)
    alpha_hat, k_hat = float(alpha[0]), float(ks[0])
    two_phi_hat = wrap_angle(math.atan2(-v[0], -u[0])) if k_hat > 0.0 else 0.0

    eta_st_hat = math.sqrt(max(alpha_hat, 0.0))
    if n_batches >= MIN_BATCHES:
        scale = 1.0 / math.sqrt(n_batches)
        amplitude_stderr = float(np.std(ks[1:], ddof=1)) * scale
        alpha_stderr = float(np.std(alpha[1:], ddof=1)) * scale
        comp_stderr = np.std(np.stack([u[1:], v[1:]]), axis=1, ddof=1) * scale
        # circular spread of the batch phases
        phases = np.where(ks[1:] > 0.0, np.exp(1j * np.arctan2(-v[1:], -u[1:])), 1.0)
        circ_var = max(1.0 - abs(phases.mean()), 0.0)
        phase_stderr = float(math.sqrt(2.0 * circ_var)) * scale if k_hat > 0 else float("inf")
        eta_st_stderr = alpha_stderr / (2.0 * eta_st_hat) if eta_st_hat > 0 else float("inf")
    else:
        # too few batch refits for a spread, the same rule as `fit_mean`
        amplitude_stderr = alpha_stderr = phase_stderr = eta_st_stderr = math.nan
        comp_stderr = (math.nan, math.nan)
    return {
        "amplitude_hat": k_hat,
        "amplitude_stderr": amplitude_stderr,
        "phase_hat": two_phi_hat,
        "phase_stderr": phase_stderr,
        # raw mode components: the folded amplitude is biased near zero, so
        # consistency-with-zero checks should use these instead
        "mode_components": (float(u[0]), float(v[0])),
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

    The coefficient covariance is taken from the spread of the batch means'
    fits rather than from fit residuals: the Monte Carlo noise average lies
    exactly in the span of the fit basis (it has the same zero-IC response
    form as the deterministic mean), so residuals carry no information about
    the estimator spread.  The pooled and batch means share one solve.
    """
    fit = fit_mean(stats.tau, np.vstack([stats.mean_q, stats.batch_mean_q]), dp, stats.eom_sign)
    eta_st = None
    diagnostics_extra = {}
    if with_nonstationary and stats.n_traj >= MIN_TRAJ_NONSTATIONARY:
        ns = estimate_nonstationary(stats, dp)
        eta_st = (ns["eta_st_hat"], ns["eta_st_stderr"])
        diagnostics_extra = {"nonstationary": ns}
    result = recover_state(fit, dp, eta_st=eta_st)
    if diagnostics_extra:
        result.diagnostics.update(diagnostics_extra)
    return result
