"""Infer the qubit state from classical ensemble statistics.

Both channels rest on the rows every closed-form trajectory is built from:
the zero-initial-condition q response of the convention in force to the
unit inputs (A_c, A_s, zeta_x, zeta_y).  The mean channel reads the drive
rows (A_c, A_s), `dynamics.response_basis`, and the covariance channel the
noise rows (zeta_x, zeta_y).  Each channel checks its pair of rows by one
degeneracy rule.  An ensemble kept as `EnsembleStats` holds those rows as
solved once by `run_ensemble`: the drive rows D, and the noise rows as
Q[1:] beside the mean row Q[0].  With
the dynamics `dp` they were solved at and, per batch, the count, mean and
scatter of its draws, both in-memory fits are fixed maps of those moments,
take the record alone and solve nothing again.  `fit_mean` fits a bare mean
on a grid, as a CSV carries it, so it takes the dynamics as an argument and
the drive rows from `response_basis`; the `MeanFit` it returns carries the
dynamics on.

The ensemble mean is A_c D_c + A_s D_s on the two drive rows, so ordinary
least squares gives A_c = n g eta_f cos(phi) and A_s = n g eta_f sin(phi),
and the superposition intensity eta_f and the phase phi follow by
reparametrisation.  The mean x_bar . Q with x_bar = (1, mean zeta) is linear
in x_bar, so one solve of the three rows of Q gives a 2x3 map G, and the
coefficients of the pooled and of each batch's mean are G x_bar.  Only the
unordered pair {p, 1-p} is identifiable at first order: every first-order
observable is symmetric under p <-> 1-p, and the second-order term that
would break the tie is excluded from the dynamics.  Results therefore
always carry both branches.

The two-time covariance of the q residuals adds an independent channel.
With the noise rows b = (B_x, B_y) and k = 2p(1-p) it is

    b^T Sigma b' = (1-k) S - k cos(2 phi) C - k sin(2 phi) D,
    S = B_x B_x' + B_y B_y',  C = B_x B_x' - B_y B_y',  D = B_x B_y' + B_y B_x',

so its tau+tau' mode has amplitude k (kernel units) and phase 2 phi, and
its stationary amplitude estimates eta_st^2 = 1 - 2 eta_f^2.  The sample
covariance of q is b^T M b' with M the draws' sample covariance, and
b^T M b' = alpha S + u C + v D exactly for

    alpha = (M_xx + M_yy) / 2,  u = (M_xx - M_yy) / 2,  v = M_xy,

so the least-squares fit of (S, C, D) to the covariance is that map of M,
taken pooled and per batch without a design.

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
from dataclasses import dataclass, replace

import numpy as np

from .core import (DegenerateBasisError, DimensionlessParams, InvalidParameterError,
                   UndersampledError, wrap_angle)
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
# |mean_q| at tau = 0, relative to max |mean_q|, that still counts as a start at rest
REST_RTOL = 1e-12


@dataclass(frozen=True)
class MeanFit:
    A_c: float
    A_s: float
    cov: np.ndarray
    residual_norm: float
    condition: float
    dp: DimensionlessParams  # the dynamics the coefficients were fitted at
    eom_sign: str = DEFAULT_EOM


@dataclass(frozen=True)
class ReconstructionResult:
    """Recovered state parameters with first-order error propagation.

    `p_branches` is the unordered pair {p, 1-p}, read from eta_f = sqrt(p(1-p)),
    so it holds for a pure state only: a mixed state's eta_f is smaller, and the
    dephased diag(0.7, 0.3), whose mean and noise are those of the pole, reads
    as about {0, 1}.  `phase_indeterminate` is set,
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


def _check_design(X: np.ndarray, what: str):
    """Refuse response rows (the columns of X) that collapse or are ill-conditioned.

    Returns the thin SVD (U, s, Vt) of X, which `_fit_drive` solves with, and
    the condition number.  The rms goes first: where the rows vanish (eq37 at
    r = 1) the condition ratio would be 0/0.
    """
    U, singular, Vt = np.linalg.svd(X, full_matrices=False)
    rms = singular[-1] / math.sqrt(X.shape[0])
    if rms < MIN_BASIS_RMS:
        raise DegenerateBasisError(f"{what} collapses (rms {rms:.2e})")
    condition = float(singular[0] / singular[-1])
    if condition > MAX_CONDITION:
        raise DegenerateBasisError(f"{what} ill-conditioned (cond = {condition:.2e})")
    return (U, singular, Vt), condition


def _batch_cov(batch_coeffs: np.ndarray) -> np.ndarray:
    """Covariance of pooled coefficients from the per-batch ones, one batch a column.

    It is the spread of the batch coefficients over the number of batches.
    Below MIN_BATCHES batches there are too few refits for a spread, and the
    covariance is all NaN.
    """
    k, n_batches = batch_coeffs.shape
    if n_batches < MIN_BATCHES:
        return np.full((k, k), np.nan)
    dev = batch_coeffs - batch_coeffs.mean(axis=1, keepdims=True)
    return (dev @ dev.T) / ((n_batches - 1) * n_batches)


def _fit_drive(tau: np.ndarray, dp: DimensionlessParams, eom_sign: str, rows: np.ndarray, Y: np.ndarray):
    """(coefficients, condition): least squares of each column of Y, a series on `tau`,
    onto the two drive rows `rows` (2, len(tau)), through the thin SVD that
    `_check_design` takes of the design; coefficients (2, Y's columns).

    Refuses a grid, in any order, that spans less than MIN_PERIODS periods of
    the slower tone, g = 0, and a pair of rows that `_check_design` refuses.
    """
    span_needed = MIN_PERIODS * 2.0 * math.pi / min(1.0, dp.r)
    span = tau.max() - tau.min()
    if span < span_needed:
        raise InvalidParameterError(
            f"grid must cover >= {MIN_PERIODS} periods of the slower tone "
            f"(need span {span_needed:.1f}, got {span:.1f})"
        )
    _require_coupling(dp)
    (U, singular, Vt), condition = _check_design(rows.T, f"drive response under {eom_sign}")
    return Vt.T @ ((U.T @ Y) / singular[:, None]), condition


def _require_coupling(dp: DimensionlessParams) -> None:
    if dp.g <= 0.0:
        raise InvalidParameterError("no response to the qubit at g = 0")


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


def _refuse_non_finite(name: str, values: np.ndarray) -> None:
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise InvalidParameterError(f"the mean fit needs a finite {name}, "
                                    f"got {values[bad[0]]} at index {bad[0]}")


def fit_mean(tau, mean_q, dp: DimensionlessParams, eom_sign: str = DEFAULT_EOM) -> MeanFit:
    """Least squares of one ensemble mean on `tau` onto the convention's two drive rows.

    The mean comes alone, as an ensemble CSV carries it, so `cov` is NaN: the
    Monte Carlo mean lies in the span of the basis, and its residuals say
    nothing about the estimator spread.  `tau` may be in any order.

    The fit has no column for free motion, and the drive rows are exactly 0
    at tau = 0, so a mean is refused where tau = 0 and |mean_q| exceeds
    REST_RTOL of its largest finite |mean_q|: rounding, as in the exact
    quantum mean, passes.
    That catches a `q_init` offset, not a `p_init` one, whose mean starts at 0.
    A NaN or an inf in `tau`, or in `mean_q` past tau = 0, is refused with its
    first index.
    """
    tau = np.asarray(tau, dtype=float)
    y = np.asarray(mean_q, dtype=float)
    if tau.ndim != 1 or tau.size == 0 or y.shape != tau.shape:
        raise InvalidParameterError(f"the mean fit needs a non-empty 1-D tau and a mean_q of its "
                                    f"shape, got tau {tau.shape} and mean_q {np.shape(mean_q)}")
    # contiguous, so a CSV's strided columns fit to the same bits as the arrays they were written from
    tau, y = np.ascontiguousarray(tau), np.ascontiguousarray(y)
    _refuse_non_finite("tau", tau)
    # a non-finite mean_q at tau = 0 fails the <= and is refused as off rest
    rest_tol = REST_RTOL * np.max(np.abs(y[np.isfinite(y)]), initial=0.0)
    off_rest = y[(tau == 0.0) & ~(np.abs(y) <= rest_tol)]
    if off_rest.size:
        raise InvalidParameterError(f"the mean fit needs an ensemble started at rest, "
                                    f"got mean_q = {off_rest[0]} at tau = 0")
    _refuse_non_finite("mean_q", y)
    rows = response_basis(dp, tau, eom_sign)
    coeffs, condition = _fit_drive(tau, dp, eom_sign, rows, y[:, None])
    coeffs = coeffs[:, 0]
    return MeanFit(
        A_c=float(coeffs[0]),
        A_s=float(coeffs[1]),
        cov=np.full((2, 2), np.nan),
        residual_norm=float(np.linalg.norm(y - coeffs @ rows)),
        condition=condition,
        dp=dp,
        eom_sign=eom_sign,
    )


def recover_state(fit: MeanFit) -> ReconstructionResult:
    """Map fitted mean coefficients back to (eta_f, phi) and the p branches.

    Under every convention A_c = n g eta_f cos(phi) and A_s = n g eta_f sin(phi),
    with g and n those of `fit.dp`, so

        eta_f = sqrt(A_c^2 + A_s^2) / (g n),  phi = atan2(A_s, A_c),

    with stderrs from `fit.cov` by `_polar`.  The result is stamped with the
    convention the fit was made under and carries no covariance channel.
    """
    dp = fit.dp
    _require_coupling(dp)
    scale = 1.0 / (dp.g * dp.n_qubits)
    rho, rho_stderr, phi_hat, phi_stderr, phase_indeterminate = _polar(fit.A_c, fit.A_s, fit.cov)
    eta_f, eta_stderr = scale * rho, scale * rho_stderr

    disc = 1.0 - 4.0 * eta_f**2
    unphysical = eta_f > 0.5 + (0.0 if math.isnan(eta_stderr) else 2.0 * eta_stderr)
    root = math.sqrt(max(disc, 0.0))
    branches = ((1.0 - root) / 2.0, (1.0 + root) / 2.0)

    return ReconstructionResult(
        eta_f_hat=eta_f,
        eta_f_stderr=eta_stderr,
        phi_hat=phi_hat,
        phi_stderr=phi_stderr,
        p_branches=branches,
        eta_st_hat=None,
        eta_st_stderr=None,
        residual_norm=fit.residual_norm,
        phase_indeterminate=phase_indeterminate,
        unphysical=unphysical,
        eom_sign=fit.eom_sign,
        diagnostics={"A_c": fit.A_c, "A_s": fit.A_s, "condition": fit.condition},
    )


def _mode_components(M: np.ndarray) -> np.ndarray:
    """(alpha, u, v) of the covariance M (..., 2, 2), stacked on the first axis.

    v takes the mean of the two off-diagonal entries, as the fit of the
    symmetric D kernel does.
    """
    xx, yy = M[..., 0, 0], M[..., 1, 1]
    return np.array([0.5 * (xx + yy), 0.5 * (xx - yy), 0.5 * (M[..., 0, 1] + M[..., 1, 0])])


def estimate_nonstationary(stats: EnsembleStats) -> dict:
    """The tau+tau' covariance mode of the q residuals, from the draws' covariance.

    Returns the non-stationary amplitude (kernel units, estimating 2p(1-p)),
    its phase (estimating 2 phi), and the stationary amplitude (estimating
    eta_st^2 = 1 - 2p(1-p)).  The components (alpha, u, v) are the map of the
    pooled M = scatter/(n-1) in the module docstring, and the same map of
    each batch's scatter over (count - 1) gives their stderrs.  The noise
    rows are still checked, the record's Q[1:] on the coarse grid per unit
    g sqrt(n) zeta, so the rule of `fit_mean` holds whatever g; under eq37
    they equal the drive rows, and the channel refuses where they vanish
    (r = 1), as it refuses g = 0.  The amplitude and phase
    come through `_polar`; below MIN_BATCHES batches every stderr is NaN.
    The phase is NaN where `_polar` flags it indeterminate.  A batch of one
    draw has no scatter, so its covariance is NaN and so is every stderr.
    """
    dp = stats.dp
    if stats.n_traj < MIN_TRAJ_NONSTATIONARY:
        raise UndersampledError(
            f"covariance-mode fit needs n_traj >= {MIN_TRAJ_NONSTATIONARY} "
            f"(got {stats.n_traj}); amplitude errors scale as 1/sqrt(n)"
        )
    _require_coupling(dp)
    _check_design(stats.Q[1:, stats._coarse_idx].T / (dp.g * math.sqrt(dp.n_qubits)),
                  f"noise response under {stats.eom_sign}")
    alpha_hat, u, v = _mode_components(stats.draw_cov).tolist()
    cov = _batch_cov(_mode_components(stats.batch_draw_cov))
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
        "mode_components": (u, v),
        "mode_component_stderr": tuple(comp_stderr),
        "eta_st_sq_hat": alpha_hat,
        "eta_st_sq_stderr": alpha_stderr,
        "eta_st_hat": eta_st_hat,
        "eta_st_stderr": eta_st_stderr,
        "n_traj": stats.n_traj,
        "n_batches": stats.batch_counts.size,
        "eom_sign": stats.eom_sign,
    }


def reconstruct_from_stats(stats: EnsembleStats) -> ReconstructionResult:
    """Full pipeline: the mean fit, plus the covariance-mode channel from
    MIN_TRAJ_NONSTATIONARY draws on, at the dynamics `stats.dp`.

    One least-squares solve of the three basis rows Q onto the record's drive
    rows D, through the SVD that checks them, gives the 2x3 map G, and the coefficients of the pooled mean and of each
    batch mean are G (1, mean zeta).  The coefficient covariance is taken
    from the spread of the batch coefficients rather than from fit
    residuals: the Monte Carlo noise average lies exactly in the span of the
    fit basis (it has the same zero-IC response form as the deterministic
    mean), so residuals carry no information about the estimator spread.
    The fit has no column for free motion, so the ensemble must start at rest.
    """
    if stats.Q[0, 0] != 0.0 or stats.P[0, 0] != 0.0:
        raise InvalidParameterError(f"the mean fit needs an ensemble started at rest, got "
                                    f"q_init = {stats.Q[0, 0]}, p_init = {stats.P[0, 0]}")
    G, condition = _fit_drive(stats.tau, stats.dp, stats.eom_sign, stats.D, stats.Q.T)
    coeffs = G[:, 0] + G[:, 1:] @ stats.draw_mean
    fit = MeanFit(
        A_c=float(coeffs[0]),
        A_s=float(coeffs[1]),
        cov=_batch_cov(G[:, :1] + G[:, 1:] @ stats.batch_means.T),
        residual_norm=float(np.linalg.norm(stats.mean_q - coeffs @ stats.D)),
        condition=condition,
        dp=stats.dp,
        eom_sign=stats.eom_sign,
    )
    result = recover_state(fit)
    if stats.n_traj < MIN_TRAJ_NONSTATIONARY:
        return result
    ns = estimate_nonstationary(stats)
    return replace(result, eta_st_hat=ns["eta_st_hat"], eta_st_stderr=ns["eta_st_stderr"],
                   diagnostics={**result.diagnostics, "nonstationary": ns})
