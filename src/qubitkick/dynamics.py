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

and since each tone's sinc argument is the other tone's half-frequency, the
two tones take one cos/sin pair each (`_tones`).  The sinc keeps it uniform
through the resonance |w0| = 1, where it degenerates smoothly into the
secular tau * e^{i tau} growth.  K times the tones gives every response
row; the q responses to the two drive inputs are `response_basis`.  `_rhs`,
RK4 and `mean_closed_form` stay independent of the map, as its cross-checks.
`solve_trajectory` is the one solve of explicit draws, one row per draw of an
(n, 2) block: grid, start (q_init, p_init), solver from `SOLVERS`, RK4 step
budget and finite check.  `run_ensemble` takes the tones once and keeps the
rows an ensemble is made of (`_record_rows`): the q responses to the unit
drive inputs, which the mean fit reads, the trajectory at zeta = 0 and the
responses to the unit draws, each row K times the tones with no difference
taken.  An ensemble is those rows and the moments of its draws, kept as an
`EnsembleStats` record whose mean, (co)variances and `psd(segment)` are
contractions of the two.  Those moments are sufficient, so the draws are
never made: `noise.sample_moments` draws each batch's mean and scatter from
their exact law, and an ensemble of any size costs O(grid + batches).  The
reconstruction fits have no free-motion column: they need a start at rest.

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

For n qubits the force scales by n and the noise by sqrt(n), at leading
order in g only: the exact collective coupling adds a relative correction
proportional to (n - 1) g^2, measured against a dense exact model at 2.3% in
<q> and 3.8% in var q at g = 0.02, n = 2.  `quantum.compare_classical_quantum`
refuses n_qubits != 1, so nothing here checks n > 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import spectral as _signal  # kept under this name: bench/tracing.py wraps _signal.welch
from .core import DimensionlessParams, InvalidParameterError, QubitState, SimConfig, _require_count, _require_positive
# `simulate` draws through this module's `sample_zetas`, which bench/tracing.py counts
from .noise import sample_moments, sample_zetas

EOM_CONVENTIONS = ("eq37", "eq35", "canonical")
DEFAULT_EOM = "eq37"
SOLVERS = ("closed_form", "rk4")

RESONANCE_EPS = 1e-6

# points of the coarse sub-grid that keeps the two-time covariance
_COARSE_POINTS = 16
# batches of every ensemble; their spread gives the reconstruction's error bars
_N_BATCHES = 20
# elements (rows x steps) per block of the RK4 affine scan; bounds its scratch memory
_RK4_BLOCK_ELEMENTS = 1 << 12


class ResonanceError(ValueError):
    """Raised where a closed form degenerates at r = 1."""


@dataclass(frozen=True)
class EnsembleStats:
    """An ensemble as its basis rows and the moments of its draws.

    Draw i's trajectory is q_i = Q[0] + zeta_x_i Q[1] + zeta_y_i Q[2],
    likewise p with P.  Q[1:] and P[1:] are the responses to the unit draws
    themselves, and Q[0], P[0] the drive inputs on the drive responses plus
    the free rotation of the start.  D holds the q responses to the unit
    drive inputs (A_c, A_s), the design the mean fit reads; a record from
    `run_ensemble` has D = `response_basis(dp, tau, eom_sign)` bit for bit.
    Each batch keeps the count, mean and centred 2x2 scatter of its draws;
    `run_ensemble` samples these from their exact law (`noise.sample_moments`)
    without making the draws, and a record that holds the moments of explicit
    draws obeys the same contractions.  Every statistic is a contraction of the two: the
    mean x_bar . Q with x_bar = (1, mean zeta), (co)variances b^T Sigma b
    with b = Q[1:].  The pooled two-time covariance is on a coarse sub-grid
    for the `ensemble` summary; no fit reads it, since the fits map the
    draws' moments directly.  The rows are exact (closed form), and `dp` is
    the dynamics they were solved at, so a fit needs no more than the record.
    The record holds read-only views of its arrays, so the pooled moments,
    taken once, cannot go stale.
    """

    tau: np.ndarray
    Q: np.ndarray  # (3, N): q at zeta = 0, then the responses to the unit draws
    P: np.ndarray  # (3, N): the same for p
    D: np.ndarray  # (2, N): q responses to the unit drive inputs A_c, A_s
    batch_counts: np.ndarray  # (B,)
    batch_means: np.ndarray  # (B, 2)
    batch_scatters: np.ndarray  # (B, 2, 2)
    dt: float
    eom_sign: str
    dp: DimensionlessParams

    def __post_init__(self):
        for name in ("tau", "Q", "P", "D", "batch_counts", "batch_means", "batch_scatters"):
            view = np.asarray(getattr(self, name)).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    @property
    def n_traj(self) -> int:
        return int(self.batch_counts.sum())

    @functools.cached_property
    def _moments(self):
        """x_bar and the pooled scatter: within-batch scatters plus the between-batch
        spread of the means, so no sum of squares is cancelled."""
        mu = self.batch_counts @ self.batch_means / self.n_traj
        between = self.batch_means - mu
        scatter = self.batch_scatters.sum(axis=0) + (self.batch_counts[:, None] * between).T @ between
        x_bar = np.concatenate(([1.0], mu))
        x_bar.flags.writeable = scatter.flags.writeable = False
        return x_bar, scatter

    @functools.cached_property
    def _coarse_idx(self) -> np.ndarray:
        N = self.tau.size
        return np.unique(np.linspace(0, N - 1, min(_COARSE_POINTS, N)).astype(int))

    @property
    def mean_q(self) -> np.ndarray:
        return self._moments[0] @ self.Q

    @property
    def mean_p(self) -> np.ndarray:
        return self._moments[0] @ self.P

    @property
    def draw_mean(self) -> np.ndarray:
        """The draws' pooled mean (2,)."""
        return self._moments[0][1:]

    @property
    def draw_cov(self) -> np.ndarray:
        """M = scatter / (n - 1), the draws' pooled sample covariance (2, 2)."""
        return self._moments[1] / (self.n_traj - 1)

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

    def psd(self, segment: int | None = None):
        """(omega, psd): the mean Welch PSD of q over `segment` points (default: the grid).
        The mean periodogram is a quadratic form in M = mean(x x^T), so it is three
        periodograms of the rows l_k^T Q, where M = sum_k l_k l_k^T."""
        x_bar, scatter = self._moments
        M = np.outer(x_bar, x_bar)
        M[1:, 1:] += scatter / self.n_traj
        # M is singular where the draws are (p = 1/2), so clip rounding below zero
        lam, V = np.linalg.eigh(M)
        rows = (V * np.sqrt(np.clip(lam, 0.0, None))).T @ self.Q
        omega, psd = welch_psd(rows, self.tau.size if segment is None else segment, self.dt)
        return omega, 3.0 * psd  # welch_psd averages its rows; M is their sum


def time_grid(T: float, dt: float) -> np.ndarray:
    """Uniform grid covering [0, T] with exact spacing dt (T rounded to a step)."""
    n_steps = max(1, int(round(T / dt)))
    return np.linspace(0.0, n_steps * dt, n_steps + 1)


def _check_eom(eom_sign: str) -> str:
    if eom_sign not in EOM_CONVENTIONS:
        raise InvalidParameterError(f"unknown eom_sign {eom_sign!r}; choose from {EOM_CONVENTIONS}")
    return eom_sign


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
    # canonical
    return -r, np.array([[-2j, 0.0], [-2.0, 0.0], [-1j * gn, 0.0], [-gn, 0.0]])


def _tones(dp: DimensionlessParams, tau: np.ndarray, eom_sign: str):
    """Free frequency w0, the input map K and the two tones, complex (2, len(tau)).

    Tone k is the free rotation times the phase integral of its drive,
    e^{i w0 tau} int_0^tau e^{i theta s} ds = e^{i a_k tau} sin(b_k tau)/b_k
    with s_k = -1, +1, a_k = (w0 + s_k)/2 and b_k = (s_k - w0)/2.  Since
    b_- = -a_+ and b_+ = -a_-, each tone's factor is the other tone's sine
    over its half-frequency (tau where that is exactly 0), so the two tones
    take one cos/sin pair each, in real arithmetic.
    """
    w0, K = _input_map(dp, eom_sign)
    a = (0.5 * (w0 - 1.0), 0.5 * (w0 + 1.0))
    tones = np.empty((2, tau.size), dtype=complex)
    for tone, a_k in zip(tones, a):
        arg = a_k * tau
        np.cos(arg, out=tone.real)
        np.sin(arg, out=tone.imag)
    # tone k's factor is the other tone's sine over the other's half-frequency
    factors = [tau if a_k == 0.0 else tone.imag / a_k for tone, a_k in zip(tones, a)]
    for tone, factor in zip(tones, reversed(factors)):
        tone.real *= factor
        tone.imag *= factor
    return w0, K, tones


def _drive_inputs(dp: DimensionlessParams, state: QubitState) -> list[float]:
    """The drive's unit-input coefficients (A_c, A_s) = n g eta_f (cos(phi), sin(phi))."""
    amp = dp.n_qubits * dp.g * state.eta_f
    return [amp * math.cos(state.phi), amp * math.sin(state.phi)]


def _closed_form_batch(dp, state, zetas: np.ndarray, z0: complex, tau: np.ndarray, eom_sign: str) -> np.ndarray:
    """Exact trajectories e^{i w0 tau} z0 + (u K) tones, u = (A_c, A_s, zeta_x, zeta_y) per draw;
    complex (n, len(tau)).  The inputs meet K before the tones, so the grid is touched once."""
    w0, K, tones = _tones(dp, tau, eom_sign)
    drive = np.broadcast_to(_drive_inputs(dp, state), (zetas.shape[0], 2))
    Z = (np.hstack([drive, zetas]) @ K) @ tones
    if z0 != 0:
        Z += z0 * np.exp(1j * w0 * tau)
    return Z


def _drive_rows(K: np.ndarray, tones: np.ndarray) -> np.ndarray:
    """Re(K[:2] tones), real (2, N), in real arithmetic on the parts of the (2, N) tones:
    the q responses to the unit drive inputs of `response_basis` and of every record."""
    return K[:2].real @ tones.real - K[:2].imag @ tones.imag


def _record_rows(K: np.ndarray, tones: np.ndarray, drive) -> tuple[np.ndarray, np.ndarray]:
    """(`_drive_rows`, Z) on the grid of the (2, N) tones, Z complex (3, N): the zero-IC
    responses to the inputs `drive` = (A_c, A_s) and to the unit draws zeta_x, zeta_y."""
    return _drive_rows(K, tones), np.vstack([np.asarray(drive) @ K[:2], K[2:]]) @ tones


def solve_trajectory(dp: DimensionlessParams, state: QubitState, zetas: np.ndarray, config: SimConfig,
                     eom_sign: str = DEFAULT_EOM, solver: str = "closed_form"):
    """(tau, Q, P): the grid `time_grid(dp.T, config.dt)` and the (n, N) q and p rows
    of the draws `zetas`, shape (n, 2) as `sample_zetas` returns them, from (q_init, p_init).

    ``closed_form`` is the exact solution, uniformly valid through r = 1,
    where the eq35 noise response grows secularly; ``rk4`` integrates the
    first-order system independently, within the step budget of
    `SimConfig.check_step`.  The one place that checks `zetas`, `eom_sign`
    and `solver`, and refuses a non-finite row.

    A start (q_init, p_init) of amplitude alpha != 0 rotates freely at r: the
    model leaves out the dispersive pull chi (1 - 2p), chi = 2 g^2/(1 - r), of
    the exact dynamics, whose error grows as g alpha T/(1 - r) against the
    drive's g eta_f.  Against the exact mean at g 0.01, r 0.5, p 0.3, T 40 the
    excess is 0.0044 at alpha = 0.5 and 0.106 at alpha = 8.
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


def response_basis(dp: DimensionlessParams, tau, eom_sign: str = DEFAULT_EOM) -> np.ndarray:
    """Zero-initial-condition q responses to the unit drive inputs A_c, A_s; real (2, len(tau)).

    Under every convention the mean is A_c row 0 + A_s row 1, the rows every
    closed-form trajectory is built from, so the mean fits invert exactly the
    dynamics that produced the data.  The rows hold no g, so g = 0 gives those
    of any coupling; they equal an `EnsembleStats` record's D bit for bit.
    A `tau` that is not a finite 1-D grid is refused.
    """
    _check_eom(eom_sign)
    tau = np.asarray(tau, dtype=float)
    if tau.ndim != 1 or not np.isfinite(tau).all():
        raise InvalidParameterError(f"tau must be a finite 1-D grid, got shape {tau.shape} "
                                    f"with {tau.size - np.count_nonzero(np.isfinite(tau))} non-finite values")
    _, K, tones = _tones(dp, tau, eom_sign)
    return _drive_rows(K, tones)


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


def _rk4_block_steps(n: int) -> int:
    """RK4 steps per block of the affine scan for n rows: `_RK4_BLOCK_ELEMENTS` // n, at least 1."""
    return max(1, _RK4_BLOCK_ELEMENTS // n)


def _rk4_batch(dp, state, zetas: np.ndarray, z0: complex, tau: np.ndarray, eom_sign: str):
    """Classical RK4 with exact noise evaluation at stage times; (n, N) arrays.

    The free part is a rotation, dz/dtau = i w0 z + F(tau), so with x = i w0 h
    the stages from z = 0 are k1 = F(t), k2 = F(t + h/2) + (x/2) k1,
    k3 = F(t + h/2) + (x/2) k2 and k4 = F(t + h) + x k3, and one step is
    z <- m z + c with m the RK4 stability polynomial of x and

        c = (h/6) [(1 + x + x^2/2 + x^3/4) F(t) + (4 + 2x + x^2/2) F(t + h/2) + F(t + h)].

    F is `_rhs` at z = 0, evaluated once per distinct stage time: on the
    block's grid points and at its midpoints, whose (cos, sin) follow from
    the grid's by angle addition.  The recurrence is solved in blocks of
    `_rk4_block_steps(n)` steps as z_j = m^j (z_start + sum_{k<j} c_k m^{-(k+1)}).
    w0 and F come from `_rhs`, never from `_input_map`.
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
    x = 1j * y
    w_grid = (h / 6.0) * (1.0 + x + x * x / 2.0 + x**3 / 4.0)
    w_mid = (h / 6.0) * (4.0 + 2.0 * x + x * x / 2.0)
    cos_half, sin_half = math.cos(0.5 * h), math.sin(0.5 * h)
    block = _rk4_block_steps(n)
    powers = np.exp(np.arange(1, min(block, N - 1) + 1) * log_m)
    inv_powers = 1.0 / powers
    zetas = zetas[:, None, :]
    Q = np.empty((n, N))
    P = np.empty((n, N))
    Q[:, 0], P[:, 0] = z0.real, z0.imag
    z = np.full((n, 1), z0)
    for i0 in range(0, N - 1, block):
        t = tau[i0:min(i0 + block, N - 1) + 1]  # the block's grid points, its last step's end included
        steps = t.size - 1
        cos_t, sin_t = np.cos(t), np.sin(t)
        trig_mid = (cos_t[:-1] * cos_half - sin_t[:-1] * sin_half,
                    sin_t[:-1] * cos_half + cos_t[:-1] * sin_half)
        fq, fp = _rhs(dp, state, zetas, (cos_t, sin_t), 0.0, 0.0, eom_sign)
        f_grid = fq + 1j * fp
        c = w_grid * f_grid[:, :-1]
        c += (h / 6.0) * f_grid[:, 1:]
        fq, fp = _rhs(dp, state, zetas, trig_mid, 0.0, 0.0, eom_sign)
        c += w_mid * (fq + 1j * fp)
        c *= inv_powers[:steps]
        np.cumsum(c, axis=1, out=c)
        c += z
        c *= powers[:steps]
        Q[:, i0 + 1:i0 + 1 + steps], P[:, i0 + 1:i0 + 1 + steps] = c.real, c.imag
        z = c[:, -1:]  # carried into the next block
    return Q, P


def welch_psd(trajectories, segment_length: int, dt: float):
    """Hann-windowed averaged periodogram of mean-removed rows.

    Segments of `segment_length` points overlap by half, segment_length // 2.
    Returns (omega, psd): one-sided, power per unit rescaled *angular*
    frequency, so a unit-amplitude tone at angular frequency w integrates
    to 1/2 around its peak.  Rows of `trajectories` are averaged.
    """
    data = np.atleast_2d(np.asarray(trajectories, dtype=float))
    if data.ndim != 2 or data.shape[0] == 0:
        raise InvalidParameterError(f"trajectories must be one row or a 2-D array of rows, got shape {data.shape}")
    segment_length = _require_count("segment_length", segment_length, 2)
    if segment_length > data.shape[-1]:
        raise InvalidParameterError("segment_length exceeds the trajectory length")
    _require_positive("dt", dt)
    freq, psd = _signal.welch(data, 1.0 / dt, segment_length, segment_length // 2)
    psd = psd.mean(axis=0)
    # cycles -> angular frequency, conserving integrated power
    return 2.0 * math.pi * freq, psd / (2.0 * math.pi)


def run_ensemble(
    dp: DimensionlessParams,
    state: QubitState,
    config: SimConfig,
    eom_sign: str = DEFAULT_EOM,
) -> EnsembleStats:
    """Monte Carlo ensemble over independent noise draws, kept as `EnsembleStats`.

    One `_tones` call on the grid `time_grid(dp.T, config.dt)` gives every row
    of the record (`_record_rows`): the drive rows D, the responses Q[1:] and
    P[1:] to the unit draws, and the trajectory at zeta = 0, the drive inputs
    on the drive responses plus the free rotation of (q_init, p_init).  A
    non-finite row is refused with `FloatingPointError`.  The n_traj draws
    are split into `_N_BATCHES` batches of near-equal size (one draw each
    below that many), and `sample_moments` draws each batch's mean and
    centred 2x2 scatter from their exact joint law.  The draws themselves
    are never made, so cost and memory are O(grid + batches) at any n_traj,
    and `simulate`'s single draw is no member of any ensemble.  The seed and
    the batch edges fix the bits, so a fixed seed gives the same record on
    every run and at any CLI `--threads`; the edges are part of the law, not
    a memory chunking.
    """
    _check_eom(eom_sign)
    n, n_batches = config.n_traj, min(_N_BATCHES, config.n_traj)
    if not 2 <= n <= np.iinfo(np.int64).max:
        raise InvalidParameterError(f"ensemble needs 2 <= n_traj <= 2**63 - 1 (int64 counts), got {n}")
    # edges floor(k n / B) in exact integers; float edges would lose draws above 2**53
    edges = np.array([k * n // n_batches for k in range(n_batches + 1)])

    tau = time_grid(dp.T, config.dt)
    w0, K, tones = _tones(dp, tau, eom_sign)
    D, Z = _record_rows(K, tones, _drive_inputs(dp, state))
    z0 = complex(config.q_init, config.p_init)
    if z0 != 0:
        Z[0] += z0 * np.exp(1j * w0 * tau)
    if not (np.all(np.isfinite(D)) and np.all(np.isfinite(Z))):
        raise FloatingPointError("non-finite ensemble rows")

    counts = np.diff(edges)
    means, scatters = sample_moments(state, config.seed, counts)
    return EnsembleStats(tau=tau, Q=Z.real, P=Z.imag, D=D, batch_counts=counts, batch_means=means,
                         batch_scatters=scatters, dt=config.dt, eom_sign=eom_sign, dp=dp)
