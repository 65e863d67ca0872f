"""Qubit-induced forces on a classical oscillator.

A single two-level system exchanging quanta with a mechanical mode leaves
state-dependent fingerprints on the mode's classical motion: a deterministic
drive proportional to sqrt(p(1-p)) and a correlated Gaussian noise pair
whose non-stationary component exists only for superposition states.  This
package simulates those dynamics, validates them against an exact truncated
quantum model, and inverts ensemble statistics back into the qubit state.

Importing the package imports none of its modules.  A package-level name is
read from its module in `_EXPORTS` when it is asked for (PEP 562), so
`from qubitkick import run_ensemble` loads `core`, `noise`, `spectral` and
`dynamics` and not the quantum oracle or the reconstruction, and
`qubitkick.quantum` loads that module on first access.
"""

import sys

__version__ = "0.1.0"

# each package-level name -> the module that defines it
_EXPORTS = {name: module for module, names in {
    "core": ("HBAR", "DimensionlessParams", "InvalidParameterError", "PhysicalParams", "QubitState",
             "RunSetup", "SimConfig", "TruncationError", "WeakCouplingWarning",
             "derive_dimensionless", "load_config"),
    "dynamics": ("DEFAULT_EOM", "EOM_CONVENTIONS", "EnsembleStats", "ResonanceError",
                 "mean_closed_form", "run_ensemble", "solve_trajectory", "welch_psd"),
    "forces": ("PLATFORMS", "BlochMap", "ForceBudget", "bloch_map", "characteristic_force",
               "force_magnitudes", "table_comparison"),
    "influence": ("InfluencePhases", "PathFunctionals", "PathPair", "influence_phases",
                  "path_functionals", "qubit_propagator_exact", "verify_bch",
                  "verify_influence_expansion"),
    "noise": ("empirical_covariance_from_zetas", "kernel_rank_check", "noise_map", "sample_zetas"),
    "quantum": ("build_hamiltonian", "compare_classical_quantum", "evolve_expectations",
                "ground_initial_state"),
    "reconstruct": ("ReconstructionResult", "estimate_nonstationary", "fit_mean",
                    "reconstruct_from_stats", "recover_state"),
}.items() for name in names}
_MODULES = frozenset(_EXPORTS.values()) | {"cli", "spectral"}

__all__ = sorted(_EXPORTS)


def _module(name):
    # __import__ takes the interpreter's own import path, which `-X importtime` reports;
    # importlib.import_module would bypass it
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name):
    if name in _EXPORTS:
        return getattr(_module(_EXPORTS[name]), name)
    if name in _MODULES:
        return _module(name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS})
