"""Read the qubit's state back out of the classical motion.

Two classical channels carry the state: the mean response gives
sqrt(p(1-p)) and the phase phi (up to the p <-> 1-p degeneracy that
first-order dynamics cannot break), and the tau+tau' mode of the two-time
covariance independently gives 2p(1-p) and 2 phi.  The stationary covariance
amplitude estimates (1-p)^2 + p^2, tied to the mean channel by the identity
eta_st^2 = 1 - 2 eta_f^2.
"""

import math

from qubitkick import DimensionlessParams, QubitState, SimConfig, run_ensemble
from qubitkick.reconstruct import reconstruct_from_stats


def phase(value: float, stderr: float) -> str:
    # a phase withheld as indeterminate comes back NaN
    return "indeterminate" if math.isnan(value) else f"{value:.4f} +- {stderr:.4f}"


dp = DimensionlessParams(g=0.05, r=0.5, T=40.0)
truth = QubitState(p=0.3, phi=1.0)
config = SimConfig(dt=0.02, n_traj=100_000, seed=777)

print(f"truth: p = {truth.p}, phi = {truth.phi}  ->  eta_f = {truth.eta_f:.4f}, eta_st = {truth.eta_st:.4f}")
stats = run_ensemble(dp, truth, config)
result = reconstruct_from_stats(stats)

print(f"\nmean channel:")
print(f"   eta_f = {result.eta_f_hat:.4f} +- {result.eta_f_stderr:.4f}")
print(f"   phi   = {phase(result.phi_hat, result.phi_stderr)}")
print(f"   population branches {{p, 1-p}} = "
      f"{result.p_branches[0]:.4f} / {result.p_branches[1]:.4f}")

ns = result.diagnostics["nonstationary"]
print(f"\ncovariance channel:")
print(f"   tau+tau' amplitude = {ns['amplitude_hat']:.4f} +- {ns['amplitude_stderr']:.4f}"
      f"   (2p(1-p) = {2 * truth.p * (1 - truth.p):.4f})")
print(f"   phase              = {phase(ns['phase_hat'], ns['phase_stderr'])}   (2 phi = {2 * truth.phi:.4f})")
print(f"   stationary weight  = {ns['eta_st_sq_hat']:.4f}   (eta_st^2 = {truth.eta_st**2:.4f})")

identity_gap = abs(ns["eta_st_sq_hat"] - (1.0 - 2.0 * result.eta_f_hat**2))
print(f"\nconsistency eta_st^2 = 1 - 2 eta_f^2 holds within {identity_gap:.4f}")
print("the p <-> 1-p branch pair is fundamental: every first-order observable")
print("is symmetric under it, so only the unordered pair is identifiable.")
