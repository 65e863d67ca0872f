"""Trajectory solvers, ensemble Monte Carlo, and spectral estimators.

Every supported equation-of-motion convention is linear with drives at
rescaled frequency 1 (the qubit frame), so one complex template covers all
of them exactly:

    dz/dtau = i w0 z + D_minus e^{-i tau} + D_plus e^{+i tau},  z = q + i p

with per-trajectory constant coefficients.  The particular integral is
written with a sinc so it stays accurate through the resonance |w0| = 1,
where it degenerates smoothly into the secular tau * e^{i tau} growth.

Conventions (`eom_sign`):

* ``eq37``  (default): second-order form  q'' + r^2 q =
  g [(1-r) eta_f cos(tau+phi) + dlambda_p/dtau + r lambda_q], started from
  q(0) = q0, q'(0) = r p0, with p = q'/r.  Its zero-initial-condition mean
  is exactly the printed closed form implemented in `mean_closed_form`.
* ``eq35``: the first-order pair  q' = -r p - g(eta_f sin(tau+phi) +
  lambda_q),  p' = r q - g(eta_f cos(tau+phi) - lambda_p)  taken verbatim;
  it carries the opposite overall force sign and a counter-rotating free
  part, and its noise drive is resonant at r = 1.
* ``canonical``: the variational form with the canonical free rotation
  q' = +r p, the full first-order force amplitude 2 g eta_f, and noise pair
  (lambda_p, -lambda_q); this is the convention the exact quantum oracle
  confirms to second order in g (see `quantum.compare_classical_quantum`).

For n non-interacting qubits the force scales by n and the noise by sqrt(n).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import spectral as _signal  # kept under this name: bench/tracing.py wraps _signal.welch
from .core import DimensionlessParams, InvalidParameterError, QubitState, SimConfig
from .noise import NoiseRealization, sample_zetas

EOM_CONVENTIONS = ("eq37", "eq35", "canonical")
DEFAULT_EOM = "eq37"

RESONANCE_EPS = 1e-6


class ResonanceError(ValueError):
    """Raised where a closed form degenerates at r = 1."""


@dataclass(frozen=True)
class Trajectory:
    """One solved phase-space path with its provenance."""

    tau: np.ndarray
    q: np.ndarray
    p: np.ndarray
    seed: int | None
    index: int | None
    solver: str
    eom_sign: str = DEFAULT_EOM


@dataclass(frozen=True)
class EnsembleStats:
    """Aggregated ensemble statistics.

    Two-time covariance is kept on a coarse sub-grid, both pooled and per
    batch (contiguous index blocks) so downstream fits can bootstrap a
    standard error.  PSD entries are None when spectral output was skipped.
    """

    tau: np.ndarray
    mean_q: np.ndarray
    mean_p: np.ndarray
    var_q: np.ndarray
    coarse_tau: np.ndarray
    cov_qq: np.ndarray
    batch_counts: np.ndarray
    batch_mean_q: np.ndarray  # per-batch mean of q on the full grid, (B, N)
    batch_cov_qq: np.ndarray  # per-batch covariance on the coarse grid
    psd_freq: np.ndarray | None
    psd: np.ndarray | None
    n_traj: int
    seed: int
    eom_sign: str
    solver: str


def time_grid(T: float, dt: float) -> np.ndarray:
    """Uniform grid covering [0, T] with exact spacing dt (T rounded to a step)."""
    n_steps = max(1, int(round(T / dt)))
    return np.linspace(0.0, n_steps * dt, n_steps + 1)


def _check_eom(eom_sign: str) -> str:
    if eom_sign not in EOM_CONVENTIONS:
        raise InvalidParameterError(f"unknown eom_sign {eom_sign!r}; choose from {EOM_CONVENTIONS}")
    return eom_sign


def deterministic_force(tau, state: QubitState, g: float, n_qubits: int = 1) -> np.ndarray:
    """First-order force vector n g eta_f (cos(tau+phi), -sin(tau+phi))."""
    tau = np.asarray(tau, dtype=float)
    amp = n_qubits * g * state.eta_f
    return np.array([amp * np.cos(tau + state.phi), -amp * np.sin(tau + state.phi)])


def mean_closed_form(dp: DimensionlessParams, state: QubitState, tau) -> np.ndarray:
    """Closed-form ensemble mean of q under the default (eq37) convention.

    mean_q = n g eta_f/(1+r) [cos(phi)(cos r tau - cos tau)
                              - sin(phi)(sin(r tau)/r - sin tau)]

    Valid away from r = 1; at resonance the basis degenerates and callers
    are directed to the uniformly-valid trajectory solver.
    """
    if abs(dp.r - 1.0) < RESONANCE_EPS:
        raise ResonanceError(
            "mean closed form degenerates at r = 1; use solve_trajectory_closed_form, "
            "whose sinc-form particular integral covers the secular case"
        )
    tau = np.asarray(tau, dtype=float)
    r = dp.r
    amp = dp.n_qubits * dp.g * state.eta_f / (1.0 + r)
    return amp * (
        math.cos(state.phi) * (np.cos(r * tau) - np.cos(tau))
        - math.sin(state.phi) * (np.sin(r * tau) / r - np.sin(tau))
    )


def phase_integral(theta, tau):
    """int_0^tau e^{i theta s} ds = tau e^{i theta tau / 2} sinc(theta tau / 2).

    Entire in theta; at theta = 0 it reduces exactly to the secular tau.
    """
    theta = np.asarray(theta, dtype=float)
    tau = np.asarray(tau, dtype=float)
    x = 0.5 * theta * tau
    return tau * np.exp(1j * x) * np.sinc(x / np.pi)


def _drive_coefficients(dp: DimensionlessParams, state: QubitState, zeta_x, zeta_y, eom_sign: str):
    """Template coefficients (w0, D_minus, D_plus); zetas may be arrays."""
    g, r, n = dp.g, dp.r, dp.n_qubits
    eta = n * state.eta_f
    rt_n = math.sqrt(n)
    zx = np.asarray(zeta_x, dtype=float) * rt_n
    zy = np.asarray(zeta_y, dtype=float) * rt_n
    eiphi = complex(math.cos(state.phi), math.sin(state.phi))
    if eom_sign == "eq37":
        coef = 1j * g * (1.0 - r) / (2.0 * r)
        d_plus = coef * (eta * eiphi + (zx + 1j * zy))
        d_minus = coef * (eta / eiphi + (zx - 1j * zy))
        return -r, d_minus, d_plus
    if eom_sign == "eq35":
        d_minus = -1j * g * eta / eiphi + np.zeros_like(zx, dtype=complex)
        d_plus = g * (zx + 1j * zy)
        return r, d_minus, d_plus
    if eom_sign == "canonical":
        d_minus = -2j * g * eta / eiphi - g * (zy + 1j * zx)
        d_plus = np.zeros_like(zx, dtype=complex)
        return -r, d_minus, d_plus
    raise InvalidParameterError(f"unknown eom_sign {eom_sign!r}")


def _closed_form_batch(dp, state, zetas: np.ndarray, z0: complex, tau: np.ndarray, eom_sign: str) -> np.ndarray:
    """Exact trajectories for a batch of draws; returns complex (n, len(tau))."""
    w0, d_minus, d_plus = _drive_coefficients(dp, state, zetas[:, 0], zetas[:, 1], eom_sign)
    rot = np.exp(1j * w0 * tau)
    phi_minus = phase_integral(-1.0 - w0, tau)
    phi_plus = phase_integral(1.0 - w0, tau)
    d_minus = np.atleast_1d(d_minus)[:, None]
    d_plus = np.atleast_1d(d_plus)[:, None]
    return rot * (z0 + d_minus * phi_minus + d_plus * phi_plus)


def solve_trajectory_closed_form(
    dp: DimensionlessParams,
    state: QubitState,
    noise: NoiseRealization,
    config: SimConfig,
    eom_sign: str = DEFAULT_EOM,
    index: int | None = None,
) -> Trajectory:
    """Exact solution of the linear system for one noise draw.

    Superposition of the free rotation at |r| and particular responses at
    the drive frequency 1; uniformly valid through r = 1, where the eq35
    noise response grows secularly.
    """
    _check_eom(eom_sign)
    tau = time_grid(dp.T, config.dt)
    z0 = complex(config.q_init, config.p_init)
    z = _closed_form_batch(dp, state, noise.zetas[None, :], z0, tau, eom_sign)[0]
    return Trajectory(tau=tau, q=z.real, p=z.imag, seed=config.seed, index=index,
                      solver="closed_form", eom_sign=eom_sign)


def zero_noise_mean(dp: DimensionlessParams, state: QubitState, tau, eom_sign: str = DEFAULT_EOM) -> np.ndarray:
    """Deterministic (zero-draw, zero-IC) q on an arbitrary grid for any convention.

    Equals `mean_closed_form` under eq37; under the other conventions it is
    the ensemble mean implied by their force terms.
    """
    _check_eom(eom_sign)
    tau = np.asarray(tau, dtype=float)
    z = _closed_form_batch(dp, state, np.zeros((1, 2)), 0j, tau, eom_sign)[0]
    return z.real


def response_basis(dp: DimensionlessParams, tau, eom_sign: str = DEFAULT_EOM) -> np.ndarray:
    """Zero-initial-condition q response to four unit inputs; shape (4, len(tau)).

    Rows: the deterministic drive per unit n g eta_f at phi = 0 and at
    phi = pi/2, then the unit draws zeta_x and zeta_y.  Under every
    convention the mean is n g eta_f (cos(phi) row 0 + sin(phi) row 1) and
    a draw adds zeta_x row 2 + zeta_y row 3, built from the same template
    as every trajectory, so the reconstruction fits invert exactly the
    dynamics that produced the data.
    """
    _check_eom(eom_sign)
    if dp.g <= 0.0:
        raise InvalidParameterError("no response to the qubit at g = 0")
    tau = np.asarray(tau, dtype=float)
    # eta_f = 1/2 at the equator; the pole state p = 0 carries no drive
    drive = [_closed_form_batch(dp, QubitState(0.5, phi), np.zeros((1, 2)), 0j, tau, eom_sign)[0].real
             for phi in (0.0, 0.5 * math.pi)]
    noise = _closed_form_batch(dp, QubitState(0.0), np.eye(2), 0j, tau, eom_sign).real
    return np.vstack([np.array(drive) / (0.5 * dp.g * dp.n_qubits), noise])


def _rhs(dp, state, zetas, tau, q, p, eom_sign):
    """First-order right-hand side, vectorised over a batch axis."""
    g, r, n = dp.g, dp.r, dp.n_qubits
    eta = n * state.eta_f
    rt_n = math.sqrt(n)
    zx, zy = zetas[..., 0], zetas[..., 1]
    c, s = np.cos(tau), np.sin(tau)
    lam_q = rt_n * (-zx * c + zy * s)
    lam_p = rt_n * (zx * s + zy * c)
    cf = np.cos(tau + state.phi)
    sf = np.sin(tau + state.phi)
    if eom_sign == "eq37":
        dq = r * p
        dp_ = -r * q + (g * (1.0 - r) / r) * (eta * cf - lam_q)
        return dq, dp_
    if eom_sign == "eq35":
        dq = -r * p - g * (eta * sf + lam_q)
        dp_ = r * q - g * (eta * cf - lam_p)
        return dq, dp_
    # canonical
    dq = r * p - g * (2.0 * eta * sf + lam_p)
    dp_ = -r * q + g * (lam_q - 2.0 * eta * cf)
    return dq, dp_


def _rk4_batch(dp, state, zetas: np.ndarray, z0: complex, tau: np.ndarray, eom_sign: str):
    """Classical RK4 with exact noise evaluation at stage times; (n, N) arrays."""
    n = zetas.shape[0]
    N = tau.size
    dt = float(tau[1] - tau[0])
    q = np.full(n, z0.real)
    p = np.full(n, z0.imag)
    Q = np.empty((n, N))
    P = np.empty((n, N))
    Q[:, 0], P[:, 0] = q, p
    for i in range(N - 1):
        t = tau[i]
        k1q, k1p = _rhs(dp, state, zetas, t, q, p, eom_sign)
        k2q, k2p = _rhs(dp, state, zetas, t + 0.5 * dt, q + 0.5 * dt * k1q, p + 0.5 * dt * k1p, eom_sign)
        k3q, k3p = _rhs(dp, state, zetas, t + 0.5 * dt, q + 0.5 * dt * k2q, p + 0.5 * dt * k2p, eom_sign)
        k4q, k4p = _rhs(dp, state, zetas, t + dt, q + dt * k3q, p + dt * k3p, eom_sign)
        q = q + (dt / 6.0) * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
        p = p + (dt / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        Q[:, i + 1], P[:, i + 1] = q, p
    return Q, P


def integrate_rk4(
    dp: DimensionlessParams,
    state: QubitState,
    noise: NoiseRealization,
    config: SimConfig,
    eom_sign: str = DEFAULT_EOM,
    index: int | None = None,
) -> Trajectory:
    """Fourth-order integration of the first-order system for one draw."""
    _check_eom(eom_sign)
    config.check_step(dp.r)
    tau = time_grid(dp.T, config.dt)
    Q, P = _rk4_batch(dp, state, noise.zetas[None, :], complex(config.q_init, config.p_init), tau, eom_sign)
    if not (np.all(np.isfinite(Q)) and np.all(np.isfinite(P))):
        raise FloatingPointError(f"non-finite trajectory (index={index})")
    return Trajectory(tau=tau, q=Q[0], p=P[0], seed=config.seed, index=index,
                      solver="rk4", eom_sign=eom_sign)


def welch_psd(trajectories, segment_length: int, overlap: float = 0.5, dt: float = 1.0):
    """Hann-windowed averaged periodogram of mean-removed rows.

    Returns (omega, psd): one-sided, power per unit rescaled *angular*
    frequency, so a unit-amplitude tone at angular frequency w integrates
    to 1/2 around its peak.  Rows of `trajectories` are averaged.
    """
    data = np.atleast_2d(np.asarray(trajectories, dtype=float))
    if not isinstance(segment_length, numbers.Integral) or segment_length < 2:
        raise InvalidParameterError(f"segment_length must be an integer >= 2 (got {segment_length!r})")
    if segment_length > data.shape[-1]:
        raise InvalidParameterError("segment_length exceeds the trajectory length")
    if not (0.0 <= overlap <= 0.9):
        raise InvalidParameterError("overlap must lie in [0, 0.9]")
    if not (math.isfinite(dt) and dt > 0.0):
        raise InvalidParameterError(f"dt must be finite and > 0 (got {dt!r})")
    freq, psd = _signal.welch(data, 1.0 / dt, segment_length, int(overlap * segment_length))
    psd = psd.mean(axis=0)
    # cycles -> angular frequency, conserving integrated power
    return 2.0 * math.pi * freq, psd / (2.0 * math.pi)


def _batch_edges(n_traj: int, n_batches: int) -> np.ndarray:
    n_batches = max(1, min(n_batches, n_traj))
    return np.linspace(0, n_traj, n_batches + 1).astype(int)


def _merge_moments(a, b):
    """Pooled (count, mean, centred scatter) of two disjoint batches of draws.

    Chan, Golub & LeVeque (1983): the scatters add plus a rank-one term in
    the difference of the means, so no sum of squares is ever cancelled.
    """
    na, ma, sa = a
    nb, mb, sb = b
    n = na + nb
    delta = mb - ma
    return n, ma + delta * (nb / n), sa + sb + np.outer(delta, delta) * (na * nb / n)


def _pooled_moments(parts):
    """Pairwise (tree-order) merge of per-batch moments."""
    if len(parts) == 1:
        return parts[0]
    half = len(parts) // 2
    return _merge_moments(_pooled_moments(parts[:half]), _pooled_moments(parts[half:]))


def run_ensemble(
    dp: DimensionlessParams,
    state: QubitState,
    config: SimConfig,
    eom_sign: str = DEFAULT_EOM,
    solver: str = "closed_form",
    coarse_points: int = 16,
    n_batches: int = 20,
    compute_psd: bool = True,
    psd_segment: int | None = None,
    psd_overlap: float = 0.5,
) -> EnsembleStats:
    """Monte Carlo statistics over independent noise draws, from their moments.

    Under every convention and both solvers a trajectory is affine in its
    draw: q_i = B0 + zeta_x_i Bx + zeta_y_i By, and likewise p.  Three basis
    solves give B; each fixed index batch keeps only the count, mean and
    centred 2x2 scatter of its draws, and batches are merged pairwise.  Every
    statistic is then a contraction with B: mean = x_bar . B, variance and
    covariances b^T Sigma b.  The mean Welch periodogram is a quadratic form
    in M = mean(x x^T) with x = (1, zeta_x, zeta_y), so it is three
    periodograms of the rows l_k^T B, where M = sum_k l_k l_k^T.  Memory is
    O(grid) at any n_traj.  Draw i uses the stream derived from (seed, i)
    (see `sample_zetas`), so a fixed seed gives the same bits whatever the
    batch edges.
    """
    _check_eom(eom_sign)
    if solver not in ("closed_form", "rk4"):
        raise InvalidParameterError(f"unknown solver {solver!r}")
    if config.n_traj < 2:
        raise InvalidParameterError("ensemble needs n_traj >= 2")
    if solver == "rk4":
        config.check_step(dp.r)

    tau = time_grid(dp.T, config.dt)
    N = tau.size
    n = config.n_traj
    coarse_idx = np.unique(np.linspace(0, N - 1, min(coarse_points, N)).astype(int))
    edges = _batch_edges(n, n_batches)

    if compute_psd:
        seg = psd_segment if psd_segment is not None else N
        if seg > N:
            raise InvalidParameterError("psd_segment exceeds the grid length")

    # rows: the trajectory at zeta = 0, then the responses to the unit draws
    unit = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    z0 = complex(config.q_init, config.p_init)
    if solver == "closed_form":
        Z = _closed_form_batch(dp, state, unit, z0, tau, eom_sign)
        Q, P = Z.real, Z.imag
    else:
        Q, P = _rk4_batch(dp, state, unit, z0, tau, eom_sign)
    if not (np.all(np.isfinite(Q)) and np.all(np.isfinite(P))):
        raise FloatingPointError("non-finite basis trajectory")
    Q[1:] -= Q[0]
    P[1:] -= P[0]

    batches = []
    for i0, i1 in zip(edges[:-1], edges[1:]):
        zetas = sample_zetas(state, config.seed, range(int(i0), int(i1)))
        mean = zetas.mean(axis=0)
        dev = zetas - mean
        batches.append((int(i1 - i0), mean, dev.T @ dev))
    _, mu, scatter = _pooled_moments(batches)
    sigma = scatter / (n - 1)

    x_bar = np.concatenate(([1.0], mu))
    b = Q[1:]
    bc = b[:, coarse_idx]
    batch_counts = np.diff(edges)
    batch_mean_q = Q[0] + np.array([m for _, m, _ in batches]) @ b
    batch_cov = np.array([bc.T @ (s / max(c - 1, 1)) @ bc for c, _, s in batches])

    psd_freq = psd_vals = None
    if compute_psd:
        M = np.outer(x_bar, x_bar)
        M[1:, 1:] += scatter / n
        # M is singular where the draws are (p = 1/2), so clip rounding below zero
        lam, V = np.linalg.eigh(M)
        rows = (V * np.sqrt(np.clip(lam, 0.0, None))).T @ Q
        psd_freq, psd_vals = welch_psd(rows, seg, psd_overlap, config.dt)
        psd_vals = 3.0 * psd_vals  # welch_psd averages its rows; M is their sum

    return EnsembleStats(
        tau=tau, mean_q=x_bar @ Q, mean_p=x_bar @ P,
        var_q=np.maximum(((sigma @ b) * b).sum(axis=0), 0.0),
        coarse_tau=tau[coarse_idx], cov_qq=bc.T @ sigma @ bc,
        batch_counts=batch_counts, batch_mean_q=batch_mean_q, batch_cov_qq=batch_cov,
        psd_freq=psd_freq, psd=psd_vals,
        n_traj=n, seed=config.seed, eom_sign=eom_sign, solver=solver,
    )
