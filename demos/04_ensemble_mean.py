"""Monte Carlo trajectories against the closed-form mean response.

The qubit drives the oscillator at the qubit frequency with amplitude
proportional to sqrt(p(1-p)).  Ten thousand noisy trajectories, each solved
exactly from its two-Gaussian noise draw, average to the closed-form mean
within the central-limit band.  The Welch spectrum of the driven motion
shows both the free tone at r and the drive tone at 1.
"""

import numpy as np

from qubitkick import DimensionlessParams, QubitState, SimConfig, mean_closed_form, run_ensemble

dp = DimensionlessParams(g=0.05, r=0.5, T=40.0)
state = QubitState(p=0.3, phi=np.pi / 3)
config = SimConfig(dt=0.02, n_traj=10_000, seed=20260809)

stats = run_ensemble(dp, state, config)
model = mean_closed_form(dp, state, stats.tau)
stderr = np.sqrt(stats.var_q / stats.n_traj)
z = np.abs(stats.mean_q[1:] - model[1:]) / stderr[1:]

print(f"trajectories            : {stats.n_traj}")
print(f"max |mean - closed form|: {np.max(np.abs(stats.mean_q - model)):.2e}")
print(f"worst CLT z-score       : {np.max(z):.2f}   (pointwise 3-sigma band)")

# spectral view needs a longer record to resolve the two tones
dp_long = DimensionlessParams(g=dp.g, r=dp.r, T=400.0)
long_stats = run_ensemble(dp_long, state, SimConfig(dt=0.02, n_traj=200, seed=4))
omega, psd = long_stats.psd(8192)
peak_order = np.argsort(psd)[::-1]
tones = []
for idx in peak_order:
    w = omega[idx]
    if all(abs(w - t) > 0.2 for t in tones):
        tones.append(round(float(w), 3))
    if len(tones) == 2:
        break
print(f"dominant spectral tones : {sorted(tones)}   (free tone r = {dp.r}, drive tone 1.0)")

print("\nSample of the mean response (tau, ensemble, closed form):")
for i in range(0, stats.tau.size, stats.tau.size // 8):
    print(f"   {stats.tau[i]:6.2f}   {stats.mean_q[i]:+.5f}   {model[i]:+.5f}")
