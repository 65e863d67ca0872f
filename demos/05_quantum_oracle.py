"""Which classical equations does the exact quantum dynamics endorse?

The coupling conserves the excitation count, so from the oscillator ground
state the exact state lives on two number levels and is solved exactly by a
dense eigendecomposition.  Comparing the exact <q(tau)> against the candidate
classical means shows the 'canonical' convention (canonical free rotation,
full first-order force amplitude 2 g eta_f) converging at second order in g,
while both printed first-order conventions disagree already at first order.
This is the adjudication the trajectory module's `eom_sign` flag records.
"""

from qubitkick import DimensionlessParams, QubitState, SimConfig, compare_classical_quantum

dp = DimensionlessParams(g=0.04, r=0.5, T=20.0)
state = QubitState(p=0.5, phi=0.0)

report = compare_classical_quantum(dp, state, SimConfig(dt=0.02))

print(f"couplings swept: {report['g_values']}")
for conv, entry in report["conventions"].items():
    errs = "  ".join(f"{e:.2e}" for e in entry["max_error"])
    print(f"   {conv:<10} max|<q>_exact - mean|: {errs}   exponent {entry['scaling_exponent']:.2f}")
print(f"\noracle verdict          : {report['preferred_sign_convention']}")
print(f"closer printed variant  : {report['preferred_among_printed_pair']}")
print(f"variance (raw / vacuum-subtracted): "
      f"{report['var_q_comparison']['max_var_q_raw']:.4f} / "
      f"{report['var_q_comparison']['max_var_q_vacuum_subtracted']:.4f}")
