"""Correctness gates on the CLI's outputs.

Each `check_*` takes parsed outputs and returns a list of failure messages,
empty when the output passes.  Reference values are computed here from the
printed formulas, not taken from the program under test.  `GATES` maps a
gate name to a loader that reads a command's output files and runs its
check.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

RECONSTRUCT_REL_ETA = 0.05     # acceptance-7 bounds
RECONSTRUCT_PHI_RAD = 0.05
RECONSTRUCT_P_ABS = 0.05
ENSEMBLE_MAX_Z = 5.0
ORACLE_MIN_EXPONENT = 1.7
SLOPE_MIN = 2.7
SIMULATE_MAX_DIFF = 1e-8


def eta_f(p: float) -> float:
    return math.sqrt(p * (1.0 - p))


def mean_closed_form(tau, g: float, r: float, p: float, phi: float) -> np.ndarray:
    """g eta_f/(1+r) [cos(phi)(cos r tau - cos tau) - sin(phi)(sin(r tau)/r - sin tau)]."""
    tau = np.asarray(tau, dtype=float)
    amp = g * eta_f(p) / (1.0 + r)
    return amp * (math.cos(phi) * (np.cos(r * tau) - np.cos(tau))
                  - math.sin(phi) * (np.sin(r * tau) / r - np.sin(tau)))


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def check_exit(label: str, rc) -> list[str]:
    return [] if rc == 0 else [f"{label}: exit code {rc}"]


def check_reconstruct(data: dict, p: float, phi: float) -> list[str]:
    fails = []
    truth = eta_f(p)
    est = data.get("eta_f_hat")
    if not (_finite(est) and abs(est - truth) / truth <= RECONSTRUCT_REL_ETA):
        fails.append(f"reconstruct: eta_f_hat {est} vs {truth:.4f} beyond {RECONSTRUCT_REL_ETA:.0%}")
    phi_hat = data.get("phi_hat")
    dphi = abs(math.remainder(phi_hat - phi, 2.0 * math.pi)) if _finite(phi_hat) else math.nan
    if not dphi <= RECONSTRUCT_PHI_RAD:
        fails.append(f"reconstruct: phi_hat {phi_hat} vs {phi} off by {dphi:.3g} rad")
    branches = data.get("p_branches") or []
    want = sorted((p, 1.0 - p))
    if not (len(branches) == 2 and all(_finite(b) for b in branches)
            and all(abs(b - w) <= RECONSTRUCT_P_ABS for b, w in zip(sorted(branches), want))):
        fails.append(f"reconstruct: p_branches {branches} vs {want} beyond {RECONSTRUCT_P_ABS}")
    se = data.get("eta_f_stderr")
    if not (_finite(se) and se > 0.0):
        fails.append(f"reconstruct: eta_f_stderr {se} not finite and positive")
    return fails


def check_ensemble(tau, mean_q, var_q, n_traj: int, freq, psd,
                   g: float, r: float, p: float, phi: float) -> list[str]:
    fails = []
    tau, mean_q, var_q = (np.asarray(a, dtype=float) for a in (tau, mean_q, var_q))
    later = tau > 0.0
    stderr = np.sqrt(var_q[later] / n_traj)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.abs(mean_q[later] - mean_closed_form(tau[later], g, r, p, phi)) / stderr
    worst = float(np.max(z)) if z.size else math.nan
    if not worst <= ENSEMBLE_MAX_Z:  # NaN fails too
        fails.append(f"ensemble: mean {worst:.3g} standard errors from the closed form "
                     f"(limit {ENSEMBLE_MAX_Z})")
    freq, psd = np.asarray(freq, dtype=float), np.asarray(psd, dtype=float)
    if psd.size < 2 or not np.all(np.isfinite(psd)) or np.any(psd < 0.0):
        fails.append("ensemble: PSD not finite and non-negative")
    else:
        peak = float(freq[int(np.argmax(psd))])
        if not abs(peak - r) <= freq[1] - freq[0]:
            fails.append(f"ensemble: PSD peak at omega {peak:.4f}, not within one bin of r = {r}")
    return fails


def check_oracle(data: dict) -> list[str]:
    preferred = data.get("preferred_sign_convention")
    exponent = data.get("conventions", {}).get("canonical", {}).get("scaling_exponent")
    fails = []
    if preferred != "canonical":
        fails.append(f"verify oracle: preferred convention {preferred!r}, expected 'canonical'")
    if not (_finite(exponent) and exponent >= ORACLE_MIN_EXPONENT):
        fails.append(f"verify oracle: canonical exponent {exponent} below {ORACLE_MIN_EXPONENT}")
    return fails


def check_slope(label: str, data: dict) -> list[str]:
    slope = data.get("slope")
    if _finite(slope) and slope >= SLOPE_MIN:
        return []
    return [f"{label}: convergence slope {slope} below {SLOPE_MIN}"]


def check_simulate_pair(rk4: np.ndarray, closed: np.ndarray) -> list[str]:
    """Rows (tau, q, p) of the RK4 and closed-form `simulate` outputs."""
    if rk4.shape != closed.shape or not np.array_equal(rk4[:, 0], closed[:, 0]):
        return [f"simulate: grids differ ({rk4.shape} vs {closed.shape})"]
    diff = float(np.max(np.abs(rk4[:, 1:] - closed[:, 1:])))
    if diff <= SIMULATE_MAX_DIFF:
        return []
    return [f"simulate: RK4 and closed form differ by {diff:.3g} (limit {SIMULATE_MAX_DIFF})"]


# --- loaders -----------------------------------------------------------------

def _json_data(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["data"]


def _csv(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _reconstruct(directory: str, cfg: dict) -> list[str]:
    return check_reconstruct(_json_data(os.path.join(directory, "reconstruct.json")),
                             cfg["p"], cfg["phi"])


def _ensemble(directory: str, cfg: dict) -> list[str]:
    stats = _csv(os.path.join(directory, "ensemble.csv"))
    spectrum = _csv(os.path.join(directory, "psd.csv"))
    r = cfg["omega_o_hz"] / cfg["omega_q_hz"]
    return check_ensemble(stats[:, 0], stats[:, 1], stats[:, 3], cfg["n_traj"],
                          spectrum[:, 0], spectrum[:, 1],
                          cfg["g_override"], r, cfg["p"], cfg["phi"])


def _oracle(directory: str, cfg: dict) -> list[str]:
    return check_oracle(_json_data(os.path.join(directory, "oracle.json")))


def _bch(directory: str, cfg: dict) -> list[str]:
    return check_slope("verify bch", _json_data(os.path.join(directory, "bch.json")))


def _influence(directory: str, cfg: dict) -> list[str]:
    return check_slope("verify influence", _json_data(os.path.join(directory, "influence.json")))


def _simulate(directory: str, cfg: dict) -> list[str]:
    return check_simulate_pair(_csv(os.path.join(directory, "sim_rk4.csv")),
                               _csv(os.path.join(directory, "sim_cf.csv")))


GATES = {
    "reconstruct": _reconstruct,
    "ensemble": _ensemble,
    "oracle": _oracle,
    "bch": _bch,
    "influence": _influence,
    "simulate": _simulate,
}
