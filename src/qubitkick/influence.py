"""Forward/backward path functionals and the qubit-trace phases they induce.

Tracing the two-level system out of a doubled (forward/backward) path
integral leaves an overlap <psi| U(X) U(X')^dag |psi>, where U depends on
the oscillator path only through three scalar functionals per path.  This
module computes those functionals by quadrature, evaluates the weak-coupling
phases of the overlap, and provides a brute-force time-ordered propagator of
paths sampled on a uniform grid of at least 2 points, so the expansion can be
checked against the exact product.  Each substep is an SU(2) rotation about
an axis in the x-y plane, kept as a real unit quaternion; one pairwise scan
of quaternion products, later factors on the left, covers every substep and
every coupling of a g ladder at once.  So a convergence check interpolates
each path once, whatever the number of couplings it fits a slope to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import InvalidParameterError, QubitState, _require_count
from .noise import zeta_factor

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY2 = np.eye(2, dtype=complex)


def _samples(name: str, values, n: int) -> np.ndarray:
    """`values` as a float array of shape (n,), n >= 2, every sample finite; refused by `name`."""
    if callable(values):
        raise InvalidParameterError(f"{name} must be an array of samples, not a callable")
    if n < 2:
        raise InvalidParameterError(f"{name} needs at least 2 samples, got {n}")
    values = np.asarray(values, dtype=float)
    if values.shape != (n,):
        raise InvalidParameterError(f"{name} must be a 1-D array of {n} samples, got shape {values.shape}")
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise InvalidParameterError(f"{name} must be finite, got {values[bad[0]]} at index {bad[0]}")
    return values


@dataclass(frozen=True)
class PathPair:
    """Forward (q, p) and backward (q_b, p_b) paths sampled on one uniform grid of n >= 2
    points from tau = 0, running forward, the grid `qubit_propagator_exact` interpolates
    them on; every sample is finite."""

    tau: np.ndarray
    q: np.ndarray
    p: np.ndarray
    q_b: np.ndarray
    p_b: np.ndarray

    def __post_init__(self):
        n = np.size(self.tau)
        for name in ("tau", "q", "p", "q_b", "p_b"):
            object.__setattr__(self, name, _samples(name, getattr(self, name), n))
        if self.tau[0] != 0.0:
            raise InvalidParameterError(f"tau must start at 0, got tau[0] = {self.tau[0]}")
        steps = np.diff(self.tau)
        if not steps[0] > 0.0:
            raise InvalidParameterError(f"tau must run forward, got tau[1] = {self.tau[1]}")
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
            raise InvalidParameterError("tau grid must be uniform")


@dataclass(frozen=True)
class PathFunctionals:
    """Integrated drive components for both paths and their combinations."""

    F_x: float
    F_y: float
    F_z: float
    Fp_x: float
    Fp_y: float
    Fp_z: float
    W_x: float
    W_y: float
    W_z: float


@dataclass(frozen=True)
class InfluencePhases:
    """Weak-coupling exponents of the qubit-trace overlap.

    `fluctuation_exponent` is the (non-positive) real part of log F; the
    overlap magnitude is exp(fluctuation_exponent).  `force_phase` is the
    first-order imaginary part responsible for the deterministic force;
    `dissipative_phase` is the second-order imaginary part.  The dissipative
    part is diagnostic only and never fed into the trajectory dynamics.
    """

    fluctuation_exponent: float
    force_phase: float
    dissipative_phase: float


def _rotated(c: np.ndarray, s: np.ndarray, q: np.ndarray, p: np.ndarray):
    """(q c - p s, q s + p c): the drive pair where cos(tau) = c and sin(tau) = s."""
    return q * c - p * s, q * s + p * c


def _cumtrapz(f: np.ndarray, dt: float) -> np.ndarray:
    out = np.empty_like(f)
    out[0] = 0.0
    np.cumsum((f[1:] + f[:-1]) * (0.5 * dt), out=out[1:])
    return out


def _single_path_functionals(dt: float, f_x: np.ndarray, f_y: np.ndarray):
    F_x = float(np.trapezoid(f_x, dx=dt))
    F_y = float(np.trapezoid(f_y, dx=dt))
    # ordered double integral of f_x(t) f_y(t') - f_x(t') f_y(t): running
    # inner trapezoid, then an outer trapezoid (second-order accurate)
    I_x = _cumtrapz(f_x, dt)
    I_y = _cumtrapz(f_y, dt)
    F_z = float(np.trapezoid(f_x * I_y - f_y * I_x, dx=dt))
    return F_x, F_y, F_z


def path_functionals(pair: PathPair) -> PathFunctionals:
    """Quadrature evaluation of the six path functionals and the W combinations.

    W_z pairs the ordered double integrals as (F_z - F'_z); that relative
    sign is fixed by the exact operator product U(X) U(X')^dag, which the
    convergence checks below validate to third order in g.
    """
    dt = float(pair.tau[1] - pair.tau[0])
    trig = np.cos(pair.tau), np.sin(pair.tau)  # one pair for both paths
    F_x, F_y, F_z = _single_path_functionals(dt, *_rotated(*trig, pair.q, pair.p))
    Fp_x, Fp_y, Fp_z = _single_path_functionals(dt, *_rotated(*trig, pair.q_b, pair.p_b))
    W_x = Fp_x - F_x
    W_y = F_y - Fp_y
    W_z = F_z - Fp_z + 2.0 * Fp_x * F_y - Fp_x * Fp_y - F_x * F_y
    return PathFunctionals(F_x, F_y, F_z, Fp_x, Fp_y, Fp_z, W_x, W_y, W_z)


def influence_phases(f: PathFunctionals, state: QubitState, g: float, n_qubits: int = 1) -> InfluencePhases:
    """Evaluate the weak-coupling phases for n identical non-interacting qubits.

    The fluctuation exponent is -g^2 n W^T Sigma W / 2, with W = (W_x, W_y) and
    Sigma the draws' covariance, taken as |L^T W|^2, L = `zeta_factor(state)`.
    """
    p, phi = state.p, state.phi
    lw = zeta_factor(state).T @ (f.W_x, f.W_y)
    fluct = -0.5 * g * g * (lw @ lw) * n_qubits
    linear = 2.0 * g * state.eta_f * (f.W_x * math.cos(phi) + f.W_y * math.sin(phi)) * n_qubits
    dissip = g * g * (1.0 - 2.0 * p) * (f.W_z - f.W_x * f.W_y) * n_qubits
    return InfluencePhases(fluctuation_exponent=fluct, force_phase=linear, dissipative_phase=dissip)


def pauli_exponential(coef: float, sigma: np.ndarray) -> np.ndarray:
    """exp(i coef sigma) for a Pauli matrix sigma."""
    return math.cos(coef) * IDENTITY2 + 1j * math.sin(coef) * sigma


def _quaternion_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a b of quaternion arrays stacked on axis 0 as (w, x, y, z)."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.stack([aw * bw - ax * bx - ay * by - az * bz,
                     aw * bx + ax * bw + ay * bz - az * by,
                     aw * by - ax * bz + ay * bw + az * bx,
                     aw * bz + ax * by - ay * bx + az * bw])


def qubit_propagator_exact(q, p, T: float, g, substeps: int) -> np.ndarray:
    """Time-ordered product of per-step rotations generated by g (f_x sx - f_y sy).

    `q` and `p` are 1-D arrays of one length n >= 2, the path's samples on
    the uniform grid of n points over [0, T], linearly interpolated to the
    substep midpoints; `substeps` must be at least the n - 1 grid intervals.
    A callable, a path of another shape or a non-finite sample is refused by
    name, the sample by its index too.  A T that is negative or not finite is
    refused; T = 0 gives the identity.  `g` is a finite scalar, giving one
    (2, 2) propagator, or a finite 1-D ladder, giving (len(g), 2, 2): the
    path is interpolated once for the whole ladder.

    Substep k is exp(-i (a_x sx + a_y sy)), the real unit quaternion
    (cos theta, sinc theta a_x, sinc theta a_y, 0) with theta = |a|, since
    w I - i (x sx + y sy + z sz) multiplies as the quaternion (w, x, y, z).
    The substeps, padded once with identities to a power of two (at least
    2), are reduced pairwise with later factors on the left.  The result is
    unitary to rounding because each factor is an exact rotation.
    """
    substeps = _require_count("substeps", substeps, 1)
    if not (math.isfinite(T) and T >= 0.0):
        raise InvalidParameterError(f"T must be finite and >= 0, got {T}")
    g = np.asarray(g, dtype=float)
    if g.ndim > 1 or not np.isfinite(g).all():
        raise InvalidParameterError(f"g must be a finite scalar or 1-D ladder, got {g.tolist()}")
    q = _samples("q", q, np.size(q))
    p = _samples("p", p, q.size)
    if substeps < q.size - 1:
        raise InvalidParameterError("substeps must be >= the number of grid intervals")
    h = T / substeps
    t_mid = (np.arange(substeps) + 0.5) * h
    grid = np.linspace(0.0, T, q.size)
    f_x, f_y = _rotated(np.cos(t_mid), np.sin(t_mid), np.interp(t_mid, grid, q), np.interp(t_mid, grid, p))
    a_x = np.multiply.outer(g * h, f_x)
    a_y = np.multiply.outer(-g * h, f_y)
    theta = np.multiply.outer(np.abs(g) * h, np.hypot(f_x, f_y))
    sinc = np.divide(np.sin(theta), theta, out=np.ones_like(theta), where=theta > 0.0)
    # (w, x, y, z = 0) of each factor, (4, *g.shape, 2^k), k >= 1: the tail past `substeps` stays the identity
    quat = np.zeros((4, *g.shape, 1 << max(1, (substeps - 1).bit_length())))
    quat[0] = 1.0
    quat[0, ..., :substeps] = np.cos(theta)
    quat[1, ..., :substeps] = sinc * a_x
    quat[2, ..., :substeps] = sinc * a_y
    while quat.shape[-1] > 1:
        quat = _quaternion_product(quat[..., 1::2], quat[..., 0::2])
    w, x, y, z = quat[..., 0]
    U = np.empty((*g.shape, 2, 2), dtype=complex)
    U[..., 0, 0] = w - 1j * z
    U[..., 0, 1] = -y - 1j * x
    U[..., 1, 0] = y - 1j * x
    U[..., 1, 1] = w + 1j * z
    return U


def _check_g_values(g_values) -> np.ndarray:
    g = np.asarray(sorted(g_values, reverse=True), dtype=float)
    if g.size < 3:
        raise InvalidParameterError("need at least 3 coupling values for a slope fit")
    if not np.all((g > 0.0) & (g <= 0.2)):  # NaN fails both bounds
        raise InvalidParameterError(f"coupling values must lie in (0, 0.2], got {g.tolist()}")
    return g


def bch_product(f: PathFunctionals, g: float) -> np.ndarray:
    """Second-order split e^{igW_x sx} e^{igW_y sy} e^{ig^2 W_z sz}."""
    return (
        pauli_exponential(g * f.W_x, SIGMA_X)
        @ pauli_exponential(g * f.W_y, SIGMA_Y)
        @ pauli_exponential(g * g * f.W_z, SIGMA_Z)
    )


def _against_exact(pair: PathPair, g_values, error) -> dict:
    """`error(g, f, exact)` at each checked g, and its log-log slope.

    exact = U(X) U(X')^dag, from one ladder call per path for all the g, each
    with one substep per interval of the pair's grid.
    """
    g_values = _check_g_values(g_values)
    substeps = pair.tau.size - 1
    f = path_functionals(pair)
    T = float(pair.tau[-1])
    U_f = qubit_propagator_exact(pair.q, pair.p, T, g_values, substeps)
    U_b = qubit_propagator_exact(pair.q_b, pair.p_b, T, g_values, substeps)
    exact = U_f @ U_b.conj().transpose(0, 2, 1)
    errors = [error(g, f, U) for g, U in zip(g_values, exact)]
    return {
        "g": g_values.tolist(),
        "error": errors,
        "slope": float(np.polyfit(np.log(g_values), np.log(errors), 1)[0]),
    }


def verify_bch(pair: PathPair, g_values) -> dict:
    """Frobenius error of the split product against U(X) U(X')^dag across g.

    The exact product takes one propagator substep per interval of the
    pair's grid.  Returns {"g": [...], "error": [...], "slope": float}; the
    slope of the log-log fit should approach 3 (third-order remainder).
    """
    return _against_exact(pair, g_values,
                          lambda g, f, exact: float(np.linalg.norm(exact - bch_product(f, g))))


def verify_influence_expansion(pair: PathPair, state: QubitState, g_values) -> dict:
    """Error of exp(fluctuation + i force phases) against the exact overlap.

    The exact overlap is <psi| U(X) U(X')^dag |psi>, the same operator
    ordering the split product approximates, with one propagator substep per
    interval of the pair's grid; the remainder is O(g^3).
    """
    psi = np.array(state.amplitudes(), dtype=complex)

    def error(g, f, exact):
        ph = influence_phases(f, state, g)
        approx = np.exp(ph.fluctuation_exponent + 1j * (ph.force_phase + ph.dissipative_phase))
        return abs(complex(psi.conj() @ exact @ psi) - approx)

    return _against_exact(pair, g_values, error)
