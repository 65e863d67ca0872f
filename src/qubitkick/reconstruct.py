"""Infer the qubit state from classical ensemble statistics.

Both channels are fitted on `dynamics.response_basis`, the rows every
closed-form trajectory is built from: the zero-initial-condition q response
of the convention in force to the unit inputs (A_c, A_s, zeta_x, zeta_y).
Each channel checks its pair of rows by one degeneracy rule, then solves
the pooled and the per-batch statistics at once.

The ensemble mean is A_c D_c + A_s D_s on the two drive rows, so ordinary
least squares gives A_c = n g eta_f cos(phi) and A_s = n g eta_f sin(phi),
and the superposition intensity eta_f and the phase phi follow by
reparametrisation.  Only the unordered pair {p, 1-p} is
identifiable at first order: every first-order observable is symmetric
under p <-> 1-p, and the second-order term that would break the tie is
excluded from the dynamics.  Results therefore always carry both branches.

The two-time covariance of the q residuals adds an independent channel.
With the noise rows b = (B_x, B_y) and k = 2p(1-p) it is

    b^T Sigma b' = (1-k) S - k cos(2 phi) C - k sin(2 phi) D,
    S = B_x B_x' + B_y B_y',  C = B_x B_x' - B_y B_y',  D = B_x B_y' + B_y B_x',

so its tau+tau' mode has amplitude k (kernel units) and phase 2 phi, and
its stationary amplitude estimates eta_st^2 = 1 - 2 eta_f^2.

Both channels take their error bars by one rule.  The covariance of the
fitted coefficients is the spread of the per-batch fits over the number of
batches (NaN below MIN_BATCHES), and a fitted pair (u, v) becomes an
amplitude and an angle by first-order propagation through hypot and atan2.
An angle whose amplitude is 0 or under PHASE_MIN_SNR of its own stderr is
reported as NaN and flagged indeterminate: the first-order phase error
fails there, and near a pole the phase is noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DimensionlessParams, InvalidParameterError, wrap_angle
from .dynamics import DEFAULT_EOM, EnsembleStats, response_basis

MIN_PERIODS = 2.0
MAX_CONDITION = 1e8
# rms of the weaker of two response rows (q per unit input) below which it is lost
MIN_BASIS_RMS = 1e-3
# batch refits needed for a coefficient covariance
MIN_BATCHES = 4
# amplitude over its stderr below which the angle is reported indeterminate
PHASE_MIN_SNR = 3.0
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

    `p_branches` is the unordered pair {p, 1-p}; `phase_indeterminate` is set,
    and `phi_hat` and `phi_stderr` are NaN, where eta_f is 0 or under
    PHASE_MIN_SNR of its stderr, as near the poles; `unphysical`
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


def _check_design(X: np.ndarray, what: str) -> float:
    """Refuse response rows (the columns of X) that collapse or are ill-conditioned.

    Returns the condition number.  The rms goes first: where the rows vanish
    (eq37 at r = 1) the condition ratio would be 0/0.
    """
    singular = np.linalg.svd(X, compute_uv=False)
    rms = singular[-1] / math.sqrt(X.shape[0])
    if rms < MIN_BASIS_RMS:
        raise DegenerateBasisError(f"{what} collapses (rms {rms:.2e})")
    condition = float(singular[0] / singular[-1])
    if condition > MAX_CONDITION:
        raise DegenerateBasisError(f"{what} ill-conditioned (cond = {condition:.2e})")
    return condition


def _solve(X: np.ndarray, Y: np.ndarray):
    """One least-squares solve of the pooled row Y[0] and the batch rows Y[1:].

    Returns the pooled coefficients and their covariance, the spread of the
    batch coefficients over the number of batches.  Below MIN_BATCHES batches
    there are too few refits for a spread, and the covariance is all NaN.
    """
    coeffs = np.linalg.lstsq(X, Y.T, rcond=None)[0]
    batches = coeffs[:, 1:]
    if batches.shape[1] < MIN_BATCHES:
        return coeffs[:, 0], np.full((X.shape[1], X.shape[1]), np.nan)
    return coeffs[:, 0], np.cov(batches, ddof=1) / batches.shape[1]


def _polar(u: float, v: float, cov: np.ndarray):
    """(amplitude, its stderr, angle, its stderr, indeterminate) of the vector (u, v).

    The stderrs propagate `cov` through hypot and atan2 to first order, so a
    NaN `cov` gives NaN stderrs and never sets `indeterminate`.  The angle
    and its stderr are NaN, and `indeterminate` is set, where the amplitude
    is 0 or under PHASE_MIN_SNR of its stderr.
    """
    rho = math.hypot(u, v)
    if rho == 0.0:
        # no direction to project on: the larger component spread bounds the amplitude's
        return 0.0, math.sqrt(max(cov[0, 0], cov[1, 1])), math.nan, math.nan, True
    radial, tangential = np.array([u, v]) / rho, np.array([-v, u]) / rho
    # max(x, 0.0) keeps a NaN x and clips rounding below 0 of a rank-deficient cov
    rho_stderr = math.sqrt(max(float(radial @ cov @ radial), 0.0))
    if rho < PHASE_MIN_SNR * rho_stderr:
        return rho, rho_stderr, math.nan, math.nan, True
    angle_stderr = math.sqrt(max(float(tangential @ cov @ tangential), 0.0)) / rho
    return rho, rho_stderr, wrap_angle(math.atan2(v, u)), angle_stderr, False


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
    condition = _check_design(X, f"drive response under {eom_sign}")
    coeffs, cov = _solve(X, Y)
    return MeanFit(
        A_c=float(coeffs[0]),
        A_s=float(coeffs[1]),
        cov=cov,
        residual_norm=float(np.linalg.norm(Y[0] - X @ coeffs)),
        condition=condition,
        eom_sign=eom_sign,
    )


def recover_state(fit: MeanFit, dp: DimensionlessParams,
                  eta_st: tuple[float, float] | None = None) -> ReconstructionResult:
    """Map fitted mean coefficients back to (eta_f, phi) and the p branches.

    Under every convention A_c = n g eta_f cos(phi) and A_s = n g eta_f sin(phi),
    so

        eta_f = sqrt(A_c^2 + A_s^2) / (g n),  phi = atan2(A_s, A_c),

    with stderrs from `fit.cov` by `_polar`.  The result is stamped with the convention the fit was made under.
    """
    if dp.g <= 0.0:
        raise InvalidParameterError("no deterministic signal at g = 0; state not recoverable from the mean")
    scale = 1.0 / (dp.g * dp.n_qubits)
    rho, rho_stderr, phi_hat, phi_stderr, phase_indeterminate = _polar(fit.A_c, fit.A_s, fit.cov)
    eta_f, eta_stderr = scale * rho, scale * rho_stderr

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
        phase_indeterminate=phase_indeterminate,
        unphysical=unphysical,
        eom_sign=fit.eom_sign,
        diagnostics={"A_c": fit.A_c, "A_s": fit.A_s, "condition": fit.condition},
    )


def estimate_nonstationary(stats: EnsembleStats, dp: DimensionlessParams) -> dict:
    """Fit the tau+tau' covariance mode of the q residuals.

    Returns the non-stationary amplitude (kernel units, estimating 2p(1-p)),
    its phase (estimating 2 phi), and the stationary amplitude (estimating
    eta_st^2 = 1 - 2p(1-p)).  The noise rows are checked per unit g sqrt(n)
    zeta, so the rule of `fit_mean` holds whatever g; under eq37 they equal
    the drive rows.  Standard errors come from the covariance of the refits
    over the per-batch covariances of `EnsembleStats`, through
    `_polar` for the amplitude and phase; below MIN_BATCHES batches every
    stderr is NaN.  The phase is NaN where `_polar` flags it indeterminate.
    """
    if stats.n_traj < MIN_TRAJ_NONSTATIONARY:
        raise UndersampledError(
            f"covariance-mode fit needs n_traj >= {MIN_TRAJ_NONSTATIONARY} "
            f"(got {stats.n_traj}); amplitude errors scale as 1/sqrt(n)"
        )
    bx, by = response_basis(dp, stats.coarse_tau, stats.eom_sign)[2:]
    _check_design(np.stack([bx, by], axis=1) / (dp.g * math.sqrt(dp.n_qubits)),
                  f"noise response under {stats.eom_sign}")
    # design of the kernels (S, C, D) on the coarse grid, one column each
    xx, yy, xy = np.outer(bx, bx), np.outer(by, by), np.outer(bx, by)
    X = np.stack([(xx + yy).ravel(), (xx - yy).ravel(), (xy + xy.T).ravel()], axis=1)
    n_batches = stats.batch_counts.size
    Y = np.vstack([stats.cov_qq.ravel(), stats.batch_cov_qq.reshape(n_batches, -1)])
    (alpha_hat, u, v), cov = _solve(X, Y)
    alpha_hat = float(alpha_hat)
    k_hat, amplitude_stderr, two_phi_hat, phase_stderr, _ = _polar(-u, -v, cov[1:, 1:])
    alpha_stderr, *comp_stderr = np.sqrt(np.diag(cov)).tolist()
    eta_st_hat = math.sqrt(max(alpha_hat, 0.0))
    eta_st_stderr = alpha_stderr / (2.0 * eta_st_hat) if eta_st_hat > 0 else float("inf")
    return {
        "amplitude_hat": k_hat,
        "amplitude_stderr": amplitude_stderr,
        "phase_hat": two_phi_hat,
        "phase_stderr": phase_stderr,
        # raw mode components: the folded amplitude is biased near zero, so
        # consistency-with-zero checks should use these instead
        "mode_components": (float(u), float(v)),
        "mode_component_stderr": tuple(comp_stderr),
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
    the estimator spread.  The pooled and batch means share one solve.  The
    fit has no column for free motion, so the ensemble must start at rest.
    """
    if stats.Q[0, 0] != 0.0 or stats.P[0, 0] != 0.0:
        raise InvalidParameterError(f"the mean fit needs an ensemble started at rest, got "
                                    f"q_init = {stats.Q[0, 0]}, p_init = {stats.P[0, 0]}")
    fit = fit_mean(stats.tau, np.vstack([stats.mean_q, stats.batch_mean_q]), dp, stats.eom_sign)
    if not (with_nonstationary and stats.n_traj >= MIN_TRAJ_NONSTATIONARY):
        return recover_state(fit, dp)
    ns = estimate_nonstationary(stats, dp)
    result = recover_state(fit, dp, eta_st=(ns["eta_st_hat"], ns["eta_st_stderr"]))
    result.diagnostics["nonstationary"] = ns
    return result
