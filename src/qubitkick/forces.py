"""Dimensional force scales, platform presets, and Bloch-sphere intensity maps.

All qubit-induced forces carry a single characteristic scale
f0_char = hbar Omega / (4 sqrt(2) q0); restoring dimensions to the
dimensionless dynamics gives

    m x'' + m omega_o^2 x = f(t) + xi_q(t) + xi_p(t)
    f(t)  = f0_char (1-r)/r eta_f cos(omega_q t + phi)
    xi_q  = f0_char lambda_q(omega_q t)
    xi_p  = (f0_char / omega_o) d lambda_p / dt

with r = omega_o / omega_q.  The preset table collects three published
platforms (trapped ion, levitated nanodiamond, piezoelectric resonator)
together with the force magnitudes quoted for them, used as a regression
check at `TABLE_TOLERANCE` (two significant figures).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import TWO_PI, HBAR, PhysicalParams, QubitState, _require_count
from .noise import noise_map

# omega_q == omega_o makes the deterministic-force scale vanish
DEGENERATE_EPS = 1e-12


@dataclass(frozen=True)
class ForceBudget:
    """Force magnitudes in newtons for one platform."""

    f0_char: float
    f0: float
    xi_q0: float
    xi_p0: float
    degenerate: bool = False


@dataclass(frozen=True)
class Platform:
    """Preset SI parameters plus the published force magnitudes (N)."""

    params: PhysicalParams
    printed_f0: float | None
    printed_xi_q0: float
    printed_xi_p0: float


# relative error up to which a computed force matches its published value
TABLE_TOLERANCE = 0.05

PLATFORMS = {
    "ion": Platform(
        params=PhysicalParams(mass=1.5e-26, omega_o=TWO_PI * 1.1e7,
                              omega_q=TWO_PI * 1.2e9, Omega=TWO_PI * 5.0e5),
        printed_f0=9.1e-19, printed_xi_q0=8.3e-21, printed_xi_p0=9.2e-19,
    ),
    "nanodiamond": Platform(
        params=PhysicalParams(mass=5.5e-17, omega_o=TWO_PI * 5.0e5,
                              omega_q=TWO_PI * 2.5e5, Omega=TWO_PI * 5.2e4),
        printed_f0=5.5e-18, printed_xi_q0=1.1e-17, printed_xi_p0=5.5e-18,
    ),
    "piezo": Platform(
        params=PhysicalParams(mass=1.6e-8, omega_o=TWO_PI * 1.2e7,
                              omega_q=TWO_PI * 1.2e7, Omega=TWO_PI * 1.6e6),
        printed_f0=None, printed_xi_q0=2.8e-11, printed_xi_p0=2.8e-11,
    ),
}


def characteristic_force(pp: PhysicalParams) -> float:
    """f0_char = hbar Omega / (4 sqrt(2) q0) in newtons."""
    return HBAR * pp.Omega / (4.0 * math.sqrt(2.0) * pp.q0)


def force_magnitudes(pp: PhysicalParams) -> ForceBudget:
    """Order-of-magnitude budget: f0 = f0_char |omega_q/omega_o - 1|, etc.

    f0 is reported as an absolute value; when the two frequencies coincide
    it vanishes identically and the budget is flagged degenerate.
    """
    f0c = characteristic_force(pp)
    ratio = pp.omega_q / pp.omega_o
    degenerate = abs(ratio - 1.0) < DEGENERATE_EPS
    return ForceBudget(
        f0_char=f0c,
        f0=f0c * abs(ratio - 1.0),
        xi_q0=f0c,
        xi_p0=f0c * ratio,
        degenerate=degenerate,
    )


def dimensional_forces(t, state: QubitState, pp: PhysicalParams, zetas) -> dict:
    """Instantaneous SI forces at laboratory time t (scalar or array) for one
    draw `zetas` = (zeta_x, zeta_y).

    The momentum-noise force uses the exact analytic derivative
    d lambda_p/d tau = -lambda_q, never a finite difference.
    """
    t = np.asarray(t, dtype=float)
    tau = pp.omega_q * t
    r = pp.omega_o / pp.omega_q
    f0c = characteristic_force(pp)
    f = f0c * ((1.0 - r) / r) * state.eta_f * np.cos(tau + state.phi)
    lam_q = noise_map(tau)[..., 0, :] @ np.asarray(zetas, dtype=float)
    xi_q = f0c * lam_q
    # d lambda_p/dt = omega_q * d lambda_p/dtau, and f0c/omega_o * omega_q = f0c/r
    xi_p = -(f0c / r) * lam_q
    return {"f": f, "xi_q": xi_q, "xi_p": xi_p}


def table_comparison() -> list[dict]:
    """Computed-vs-published rows for every platform and force magnitude."""
    rows = []
    for name, plat in PLATFORMS.items():
        budget = force_magnitudes(plat.params)
        entries = [
            ("f0", budget.f0 if not budget.degenerate else None, plat.printed_f0),
            ("xi_q0", budget.xi_q0, plat.printed_xi_q0),
            ("xi_p0", budget.xi_p0, plat.printed_xi_p0),
        ]
        for quantity, computed, printed in entries:
            degenerate = printed is None or computed is None
            rows.append({
                "platform": name, "quantity": quantity, "computed": computed, "printed": printed,
                "rel_error": None if degenerate else abs(computed - printed) / printed,
                "degenerate": degenerate,
            })
    return rows


@dataclass(frozen=True)
class BlochMap:
    """State-dependent intensity factors over the Bloch sphere.

    theta is the polar angle with p = sin^2(theta/2), the population of |1>,
    so theta = 0 is the pole |0>, the upper level of
    `quantum.build_hamiltonian`, and theta = pi the lower level |1>; both
    fields are independent of the azimuth, which only shifts the phase of the
    forces.
    """

    theta: np.ndarray
    phi: np.ndarray
    eta_f: np.ndarray
    eta_st: np.ndarray


# coarsest (theta, phi) grid `bloch_map` accepts
MIN_BLOCH_RESOLUTION = 8


def bloch_map(resolution: int = 64) -> BlochMap:
    """eta_f and eta_st on a (theta, phi) grid of the given resolution."""
    resolution = _require_count("resolution", resolution, MIN_BLOCH_RESOLUTION)
    theta = np.linspace(0.0, math.pi, resolution)
    phi = np.linspace(0.0, TWO_PI, resolution, endpoint=False)
    th_grid, ph_grid = np.meshgrid(theta, phi, indexing="ij")
    p = np.sin(th_grid / 2.0) ** 2
    eta_f = np.sqrt(p * (1.0 - p))
    eta_st = np.sqrt((1.0 - p) ** 2 + p**2)
    return BlochMap(theta=th_grid, phi=ph_grid, eta_f=eta_f, eta_st=eta_st)
