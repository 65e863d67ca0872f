"""Qubit-induced forces on a classical oscillator.

A single two-level system exchanging quanta with a mechanical mode leaves
state-dependent fingerprints on the mode's classical motion: a deterministic
drive proportional to sqrt(p(1-p)) and a correlated Gaussian noise pair
whose non-stationary component exists only for superposition states.  This
package simulates those dynamics, validates them against an exact truncated
quantum model, and inverts ensemble statistics back into the qubit state.
"""

from .core import (
    HBAR,
    DimensionlessParams,
    InvalidParameterError,
    PhysicalParams,
    QubitState,
    RunSetup,
    SimConfig,
    WeakCouplingWarning,
    derive_dimensionless,
    load_config,
)
from .dynamics import (
    DEFAULT_EOM,
    EOM_CONVENTIONS,
    EnsembleStats,
    ResonanceError,
    mean_closed_form,
    run_ensemble,
    solve_trajectory,
    welch_psd,
)
from .forces import (
    PLATFORMS,
    BlochMap,
    ForceBudget,
    bloch_map,
    characteristic_force,
    dimensional_forces,
    force_magnitudes,
    table_comparison,
)
from .influence import (
    InfluencePhases,
    PathFunctionals,
    PathPair,
    influence_phases,
    path_functionals,
    qubit_propagator_exact,
    verify_bch,
    verify_influence_expansion,
)
from .noise import (
    empirical_covariance_from_zetas,
    kernel_matrix,
    kernel_rank_check,
    noise_map,
    sample_zetas,
)
from .quantum import (
    TruncationError,
    build_hamiltonian,
    compare_classical_quantum,
    evolve_expectations,
    ground_initial_state,
)
from .reconstruct import (
    ReconstructionResult,
    estimate_nonstationary,
    fit_mean,
    reconstruct_from_stats,
    recover_state,
)

__version__ = "0.1.0"
