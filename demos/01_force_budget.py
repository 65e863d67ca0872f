"""How large are the qubit-induced forces on real platforms?

Walks the three built-in presets (trapped ion, levitated nanodiamond,
piezoelectric resonator), derives the characteristic force scale
hbar*Omega/(4 sqrt(2) q0) from each platform's mass and frequencies, and
compares the resulting deterministic and stochastic force magnitudes with
the values published for these systems.  Everything lands in the zepto- to
atto-newton range except the piezo device, whose much larger mass is offset
by a strong coupling.
"""

from qubitkick import PLATFORMS, derive_dimensionless, force_magnitudes

for name, plat in PLATFORMS.items():
    pp = plat.params
    dp = derive_dimensionless(pp, T_si=1e-6)
    budget = force_magnitudes(pp, platform=name)
    print(f"== {name}")
    print(f"   zero-point spread q0     : {pp.q0:.3e} m")
    print(f"   reduced coupling g       : {dp.g:.3e}   frequency ratio r: {dp.r:.3e}")
    print(f"   characteristic force     : {budget.f0_char:.3e} N")
    if budget.degenerate:
        print("   deterministic scale f0   : degenerate (oscillator resonant with the qubit)")
    else:
        print(f"   deterministic scale f0   : {budget.f0:.3e} N   (published {plat.printed_f0:.1e})")
    print(f"   position-noise scale     : {budget.xi_q0:.3e} N   (published {plat.printed_xi_q0:.1e})")
    print(f"   momentum-noise scale     : {budget.xi_p0:.3e} N   (published {plat.printed_xi_p0:.1e})")
    print()

print("The same table is available from the command line: `qubitkick table1`.")
