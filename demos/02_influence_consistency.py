"""Check the weak-coupling expansion against brute force.

Tracing the qubit out of the doubled path integral leaves an overlap
<psi| U(X) U(X')^dag |psi> between path-dependent unitaries.  To second
order in the coupling, that overlap is exp of three phases built from six
path functionals.  Here we draw random smooth forward/backward paths,
evaluate the exact overlap with a finely time-ordered 2x2 propagator
product, and watch the expansion error fall off as g^3.
"""

import numpy as np

from qubitkick import PathPair, QubitState, verify_bch, verify_influence_expansion

rng = np.random.default_rng(12)
tau = np.linspace(0.0, 2 * np.pi, 4001)


def trig_path():
    c = rng.normal(scale=0.5, size=5)
    return c[0] + c[1] * np.cos(tau) + c[2] * np.sin(tau) + c[3] * np.cos(2 * tau) + c[4] * np.sin(2 * tau)


pair = PathPair(tau=tau, q=trig_path(), p=trig_path(), q_b=trig_path(), p_b=trig_path())
state = QubitState(p=0.3, phi=1.0)
g_values = (0.1, 0.05, 0.025, 0.0125)

bch = verify_bch(pair, g_values)
print("split product  e^{igW_x sx} e^{igW_y sy} e^{ig^2 W_z sz}  vs exact U(X) U(X')^dag")
for g, err in zip(bch["g"], bch["error"]):
    print(f"   g = {g:<7} Frobenius error = {err:.3e}")
print(f"   log-log slope = {bch['slope']:.2f}   (third-order remainder -> 3)")

infl = verify_influence_expansion(pair, state, g_values)
print("\nexp(fluctuation + i force phases) vs the exact overlap")
for g, err in zip(infl["g"], infl["error"]):
    print(f"   g = {g:<7} |error| = {err:.3e}")
print(f"   log-log slope = {infl['slope']:.2f}")
