"""Solvers for the oscillator's trajectories, ensemble Monte Carlo, and spectral estimators.

Every supported equation-of-motion convention is linear with drives at
rescaled frequency 1 (the qubit frame), so one complex template covers all
of them exactly:

    dz/dtau = i w0 z + D_minus e^{-i tau} + D_plus e^{+i tau},  z = q + i p

with per-trajectory constant coefficients, linear in four unit inputs:
(A_c, A_s) = n g eta_f (cos(phi), sin(phi)) and the draws (zeta_x, zeta_y).
So a convention is w0 plus one 4x2 map K to (D_minus, D_plus), and a
trajectory is its rotated initial condition e^{i w0 tau} z0 plus (u K) times
two tone factors, u its four inputs.  The tone of the drive e^{-+i tau} is
the free rotation times its phase integral,

    e^{i w0 tau} int_0^tau e^{i theta s} ds = tau e^{i (w0 -+ 1) tau/2} sinc(theta tau/2),
    theta = -+1 - w0,

one exponential and one sinc per tone.  The sinc keeps it uniform through
the resonance |w0| = 1, where it degenerates smoothly into the secular
tau * e^{i tau} growth.  K times the tones gives the four response rows
(`response_basis`).  `_rhs`, RK4 and `mean_closed_form` stay independent of
the map, as its cross-checks.
`solve_trajectory` is the one solve, one row per draw of an (n, 2) block:
grid, start (q_init, p_init), solver from `SOLVERS`, RK4 step budget and
finite check.  `run_ensemble` passes it three basis draws, so under both
solvers an ensemble is three basis rows and the moments of its draws, kept
as an `EnsembleStats` record whose mean, (co)variances and `psd(segment)`
are contractions of the two.  The reconstruction fits have no free-motion
column: they need a start at rest.

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
from .noise import sample_zetas

EOM_CONVENTIONS = ("eq37", "eq35", "canonical")
DEFAULT_EOM = "eq37"
SOLVERS = ("closed_form", "rk4")

RESONANCE_EPS = 1e-6

# points of the coarse sub-grid that keeps the two-time covariance
_COARSE_POINTS = 16
# fractional overlap of the Welch segments
_PSD_OVERLAP = 0.5
# RK4 steps solved per block of the affine scan; bounds its scratch memory
_RK4_BLOCK = 2048


class ResonanceError(ValueError):
    """Raised where a closed form degenerates at r = 1."""


@dataclass(frozen=True)
class EnsembleStats:
    """An ensemble as its basis rows and the moments of its draws.

    Draw i's trajectory is q_i = Q[0] + zeta_x_i Q[1] + zeta_y_i Q[2],
    likewise p with P.  Each fixed index batch keeps the count, mean and
    centred 2x2 scatter of its draws.  Every statistic is a contraction of the two: the
    mean x_bar . Q with x_bar = (1, mean zeta), (co)variances b^T Sigma b
    with b = Q[1:].  The two-time covariance is on a coarse sub-grid, pooled
    and per batch; the `ensemble` summary reports the pooled one, and no fit
    reads either, since the fits map the draws' moments directly.  `dp` is
    the dynamics the rows were solved at, so a fit needs no more than the record.
    """

    tau: np.ndarray
    Q: np.ndarray  # (3, N): q at zeta = 0, then the responses to the unit draws
    P: np.ndarray  # (3, N): the same for p
    batch_counts: np.ndarray  # (B,)
    batch_means: np.ndarray  # (B, 2)
    batch_scatters: np.ndarray  # (B, 2, 2)
    dt: float
    seed: int
    eom_sign: str
    solver: str
    dp: DimensionlessParams

    @property
    def n_traj(self) -> int:
        return int(self.batch_counts.sum())

    def _moments(self):
        """x_bar and the pooled scatter: within-batch scatters plus the between-batch
        spread of the means, so no sum of squares is cancelled."""
        mu = self.batch_counts @ self.batch_means / self.n_traj
        between = self.batch_means - mu
        scatter = self.batch_scatters.sum(axis=0) + (self.batch_counts[:, None] * between).T @ between
        return np.concatenate(([1.0], mu)), scatter

    @property
    def _coarse_idx(self) -> np.ndarray:
        N = self.tau.size
        return np.unique(np.linspace(0, N - 1, min(_COARSE_POINTS, N)).astype(int))

    @property
    def mean_q(self) -> np.ndarray:
        return self._moments()[0] @ self.Q

    @property
    def mean_p(self) -> np.ndarray:
        return self._moments()[0] @ self.P

    @property
    def draw_mean(self) -> np.ndarray:
        """The draws' pooled mean (2,)."""
        return self._moments()[0][1:]

    @property
    def draw_cov(self) -> np.ndarray:
        """M = scatter / (n - 1), the draws' pooled sample covariance (2, 2)."""
        return self._moments()[1] / (self.n_traj - 1)

    @property
    def batch_draw_cov(self) -> np.ndarray:
        """Each batch's scatter over (count - 1), (B, 2, 2); NaN for a batch of one draw,
        which carries no covariance."""
        dof = (self.batch_counts - 1)[:, None, None]
        return np.divide(self.batch_scatters, dof, out=np.full(self.batch_scatters.shape, np.nan),
                         where=dof > 0)

    @property
    def var_q(self) -> np.ndarray:
        b = self.Q[1:]
        return np.maximum(((self.draw_cov @ b) * b).sum(axis=0), 0.0)

    @property
    def coarse_tau(self) -> np.ndarray:
        return self.tau[self._coarse_idx]

    @property
    def cov_qq(self) -> np.ndarray:
        bc = self.Q[1:, self._coarse_idx]
        return bc.T @ self.draw_cov @ bc

    @property
    def batch_mean_q(self) -> np.ndarray:
        return self.Q[0] + self.batch_means @ self.Q[1:]  # (B, N)

    @property
    def batch_cov_qq(self) -> np.ndarray:
        bc = self.Q[1:, self._coarse_idx]
        return bc.T @ self.batch_draw_cov @ bc

    def psd(self, segment: int | None = None):
        """(omega, psd): the mean Welch PSD of q over `segment` points (default: the grid).
        The mean periodogram is a quadratic form in M = mean(x x^T), so it is three
        periodograms of the rows l_k^T Q, where M = sum_k l_k l_k^T."""
        x_bar, scatter = self._moments()
        M = np.outer(x_bar, x_bar)
        M[1:, 1:] += scatter / self.n_traj
        # M is singular where the draws are (p = 1/2), so clip rounding below zero
        lam, V = np.linalg.eigh(M)
        rows = (V * np.sqrt(np.clip(lam, 0.0, None))).T @ self.Q
        omega, psd = welch_psd(rows, self.tau.size if segment is None else segment, _PSD_OVERLAP, self.dt)
        return omega, 3.0 * psd  # welch_psd averages its rows; M is their sum


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
            "mean closed form degenerates at r = 1; use solve_trajectory, "
            "whose sinc-form particular integral covers the secular case"
        )
    tau = np.asarray(tau, dtype=float)
    r = dp.r
    amp = dp.n_qubits * dp.g * state.eta_f / (1.0 + r)
    return amp * (
        math.cos(state.phi) * (np.cos(r * tau) - np.cos(tau))
        - math.sin(state.phi) * (np.sin(r * tau) / r - np.sin(tau))
    )


def _input_map(dp: DimensionlessParams, eom_sign: str):
    """Free frequency w0 and the 4x2 map K from the unit inputs to (D_minus, D_plus).

    The inputs are A_c and A_s, with A = n g eta_f (cos(phi), sin(phi)), then
    the draws zeta_x and zeta_y (the noise carries g sqrt(n)).
    """
    r = dp.r
    gn = dp.g * math.sqrt(dp.n_qubits)
    if eom_sign == "eq37":
        c = 1j * (1.0 - r) / (2.0 * r)
        drive = np.array([[c, c], [-1j * c, 1j * c]])
        return -r, np.vstack([drive, gn * drive])
    if eom_sign == "eq35":
        return r, np.array([[-1j, 0.0], [-1.0, 0.0], [0.0, gn], [0.0, 1j * gn]])
    if eom_sign == "canonical":
        return -r, np.array([[-2j, 0.0], [-2.0, 0.0], [-1j * gn, 0.0], [-gn, 0.0]])
    raise InvalidParameterError(f"unknown eom_sign {eom_sign!r}")


def _tones(dp: DimensionlessParams, tau: np.ndarray, eom_sign: str):
    """Free frequency w0, the input map K and the two tones, (2, len(tau)).

    Tone k is the free rotation times the phase integral of its drive,
    e^{i w0 tau} int_0^tau e^{i theta s} ds = tau e^{i (w0 + s_k) tau/2} sinc(theta tau/2)
    with s_k = -1, +1 and theta = s_k - w0: one exponential and one sinc.
    """
    w0, K = _input_map(dp, eom_sign)
    s, half = np.array([[-1.0], [1.0]]), 0.5 * tau
    return w0, K, tau * np.exp(1j * (w0 + s) * half) * np.sinc((s - w0) * half / math.pi)


def _response_rows(dp: DimensionlessParams, tau: np.ndarray, eom_sign: str) -> np.ndarray:
    """Zero-IC responses z to the unit inputs, K @ tones; complex (4, len(tau))."""
    _, K, tones = _tones(dp, tau, eom_sign)
    return K @ tones


def _closed_form_batch(dp, state, zetas: np.ndarray, z0: complex, tau: np.ndarray, eom_sign: str) -> np.ndarray:
    """Exact trajectories e^{i w0 tau} z0 + (u K) tones, u = (A_c, A_s, zeta_x, zeta_y) per draw;
    complex (n, len(tau)).  The inputs meet K before the tones, so the grid is touched once."""
    w0, K, tones = _tones(dp, tau, eom_sign)
    amp = dp.n_qubits * dp.g * state.eta_f
    drive = np.broadcast_to([amp * math.cos(state.phi), amp * math.sin(state.phi)], (zetas.shape[0], 2))
    Z = (np.hstack([drive, zetas]) @ K) @ tones
    if z0 != 0:
        Z += z0 * np.exp(1j * w0 * tau)
    return Z


def solve_trajectory(dp: DimensionlessParams, state: QubitState, zetas: np.ndarray, config: SimConfig,
                     eom_sign: str = DEFAULT_EOM, solver: str = "closed_form"):
    """(tau, Q, P): the grid `time_grid(dp.T, config.dt)` and the (n, N) q and p rows
    of the draws `zetas`, shape (n, 2) as `sample_zetas` returns them, from (q_init, p_init).

    ``closed_form`` is the exact solution, uniformly valid through r = 1,
    where the eq35 noise response grows secularly; ``rk4`` integrates the
    first-order system independently, within the step budget of
    `SimConfig.check_step`.  The one place that checks `zetas`, `eom_sign`
    and `solver`, and refuses a non-finite row.
    """
    _check_eom(eom_sign)
    if solver not in SOLVERS:
        raise InvalidParameterError(f"unknown solver {solver!r}; choose from {SOLVERS}")
    zetas = np.asarray(zetas, dtype=float)
    if zetas.ndim != 2 or zetas.shape[1] != 2 or zetas.shape[0] < 1:
        raise InvalidParameterError(f"zetas must have shape (n >= 1, 2), got {zetas.shape}")
    tau = time_grid(dp.T, config.dt)
    z0 = complex(config.q_init, config.p_init)
    if solver == "rk4":
        config.check_step(dp.r)
        Q, P = _rk4_batch(dp, state, zetas, z0, tau, eom_sign)
    else:
        Z = _closed_form_batch(dp, state, zetas, z0, tau, eom_sign)
        Q, P = Z.real, Z.imag
    if not (np.all(np.isfinite(Q)) and np.all(np.isfinite(P))):
        raise FloatingPointError(f"non-finite {solver} trajectory")
    return tau, Q, P


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

    Rows: the unit inputs A_c and A_s of the deterministic drive, then the
    unit draws zeta_x and zeta_y.  Under every convention the mean is
    A_c row 0 + A_s row 1 and a draw adds zeta_x row 2 + zeta_y row 3.
    They are the rows every closed-form trajectory is built from, so the
    reconstruction fits invert exactly the dynamics that produced the data.
    """
    _check_eom(eom_sign)
    if dp.g <= 0.0:
        raise InvalidParameterError("no response to the qubit at g = 0")
    return _response_rows(dp, np.asarray(tau, dtype=float), eom_sign).real


def _rhs(dp, state, zetas, trig, q, p, eom_sign):
    """First-order right-hand side at the stage times whose (cos tau, sin tau) is `trig`,
    vectorised over a batch axis."""
    g, r, n = dp.g, dp.r, dp.n_qubits
    eta = n * state.eta_f
    rt_n = math.sqrt(n)
    zx, zy = zetas[..., 0], zetas[..., 1]
    c, s = trig
    lam_q = rt_n * (-zx * c + zy * s)
    lam_p = rt_n * (zx * s + zy * c)
    # cos(tau + phi) and sin(tau + phi) by angle addition, so no stage makes a trig call
    cos_phi, sin_phi = math.cos(state.phi), math.sin(state.phi)
    cf = c * cos_phi - s * sin_phi
    sf = s * cos_phi + c * sin_phi
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
    """Classical RK4 with exact noise evaluation at stage times; (n, N) arrays.

    The free part is a rotation, dz/dtau = i w0 z + F(tau), so one step is
    z <- m z + c_k with m the RK4 stability polynomial of i w0 h and c_k the
    step taken from z = 0.  The recurrence is solved in time blocks as
    z_j = m^j (z_start + sum_{k<j} c_k m^{-(k+1)}); w0 and c come from
    `_rhs`, never from `_input_map`.
    """
    n = zetas.shape[0]
    N = tau.size
    h = float(tau[1] - tau[0])
    # the dp response to z = 1 less that to z = 0
    w0 = (_rhs(dp, state, np.zeros(2), (1.0, 0.0), 1.0, 0.0, eom_sign)[1]
          - _rhs(dp, state, np.zeros(2), (1.0, 0.0), 0.0, 0.0, eom_sign)[1])
    # log m for m = 1 + x + x^2/2 + x^3/6 + x^4/24, x = i y, y = w0 h, from
    # |m|^2 = 1 - y^6/72 + y^8/576 and arg m: m itself is rounded by ~eps,
    # which m^N would carry as N eps
    y = w0 * h
    log_m = complex(0.5 * math.log1p(y**6 * (y * y / 576.0 - 1.0 / 72.0)),
                    math.atan2(y - y**3 / 6.0, 1.0 - y * y / 2.0 + y**4 / 24.0))
    powers = np.exp(np.arange(1, min(_RK4_BLOCK, N - 1) + 1) * log_m)
    zetas = zetas[:, None, :]
    Q = np.empty((n, N))
    P = np.empty((n, N))
    Q[:, 0], P[:, 0] = z0.real, z0.imag
    z = np.full((n, 1), z0)
    for i0 in range(0, N - 1, _RK4_BLOCK):
        t = tau[i0:min(i0 + _RK4_BLOCK, N - 1) + 1]  # the block's grid points, its last step's end included
        steps = t.size - 1
        # one trig pair per distinct stage time: k1 and k4 on the grid, k2 and k3 at the midpoints
        cos_t, sin_t = np.cos(t), np.sin(t)
        mid = t[:-1] + 0.5 * h
        trig_mid = (np.cos(mid), np.sin(mid))
        k1q, k1p = _rhs(dp, state, zetas, (cos_t[:-1], sin_t[:-1]), 0.0, 0.0, eom_sign)
        k2q, k2p = _rhs(dp, state, zetas, trig_mid, 0.5 * h * k1q, 0.5 * h * k1p, eom_sign)
        k3q, k3p = _rhs(dp, state, zetas, trig_mid, 0.5 * h * k2q, 0.5 * h * k2p, eom_sign)
        k4q, k4p = _rhs(dp, state, zetas, (cos_t[1:], sin_t[1:]), h * k3q, h * k3p, eom_sign)
        c = (h / 6.0) * ((k1q + 2.0 * k2q + 2.0 * k3q + k4q) + 1j * (k1p + 2.0 * k2p + 2.0 * k3p + k4p))
        mj = powers[:steps]
        z = mj * (z + np.cumsum(c / mj, axis=1))
        Q[:, i0 + 1:i0 + 1 + steps], P[:, i0 + 1:i0 + 1 + steps] = z.real, z.imag
        z = z[:, -1:]  # carried into the next block
    return Q, P


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


def run_ensemble(
    dp: DimensionlessParams,
    state: QubitState,
    config: SimConfig,
    eom_sign: str = DEFAULT_EOM,
    solver: str = "closed_form",
    n_batches: int = 20,
) -> EnsembleStats:
    """Monte Carlo ensemble over independent noise draws, kept as `EnsembleStats`.

    Three basis solves give the rows Q and P; each fixed index batch of
    draws is reduced to its count, mean and centred 2x2 scatter, on the two
    contiguous component rows `sample_zetas(...).T`: a pairwise-summed mean
    per row, then one 2x2 Gram of the centred rows.  Memory is O(grid) at any
    n_traj.  Draw i uses the stream derived from (seed, i)
    (see `sample_zetas`), so a fixed seed gives the same bits whatever the
    batch edges.
    """
    if config.n_traj < 2:
        raise InvalidParameterError("ensemble needs n_traj >= 2")
    if not isinstance(n_batches, numbers.Integral) or n_batches < 1:
        raise InvalidParameterError(f"n_batches must be an integer >= 1 (got {n_batches!r})")
    edges = np.linspace(0, config.n_traj, min(n_batches, config.n_traj) + 1).astype(int)

    # rows: the trajectory at zeta = 0, then the responses to the unit draws
    tau, Q, P = solve_trajectory(dp, state, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), config,
                                 eom_sign, solver)
    Q[1:] -= Q[0]
    P[1:] -= P[0]

    counts = np.diff(edges)
    means = np.empty((counts.size, 2))
    scatters = np.empty((counts.size, 2, 2))
    for k, (i0, i1) in enumerate(zip(edges[:-1], edges[1:])):
        rows = sample_zetas(state, config.seed, range(int(i0), int(i1))).T
        means[k] = rows.mean(axis=1)
        dev = rows - means[k][:, None]
        scatters[k] = dev @ dev.T
    return EnsembleStats(tau=tau, Q=Q, P=P, batch_counts=counts, batch_means=means,
                         batch_scatters=scatters, dt=config.dt, seed=config.seed,
                         eom_sign=eom_sign, solver=solver, dp=dp)
