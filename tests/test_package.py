"""The package namespace and what a CLI start imports.

`qubitkick/__init__.py` resolves its names on first use and `cli` imports a
module only in the handlers that call it, so a fresh interpreter that builds
the parser and loads a config holds the modules below and no others, and
`simulate` and `ensemble` leave the oracle, the influence functional, the force
tables and the reconstruction unloaded.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qubitkick
from qubitkick import core

SRC = Path(__file__).resolve().parents[1] / "src"

STARTUP = {"qubitkick", "qubitkick.cli", "qubitkick.core", "qubitkick.dynamics", "qubitkick.noise",
           "qubitkick.spectral"}
DEFERRED = {"qubitkick.forces", "qubitkick.influence", "qubitkick.quantum", "qubitkick.reconstruct"}

# every package-level name, by the module that defines it
EXPORTS = {
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
}

PROBE = """
import json, sys
from qubitkick import cli, core

def loaded():
    return sorted(m for m in sys.modules if m == "qubitkick" or m.startswith("qubitkick."))

cfg, out = sys.argv[1], sys.argv[2]
cli.build_parser()
core.load_config(cfg)
seen = {"startup": loaded()}
for command in ("simulate", "ensemble"):
    rc = cli.main([command, "--config", cfg, "--out", f"{out}/{command}.csv"])
    seen[command] = [rc, loaded()]
import qubitkick
seen["name"] = [qubitkick.verify_bch.__module__, loaded()]
seen["module"] = [qubitkick.reconstruct.__name__, loaded()]
print(json.dumps(seen))
"""


def test_cli_start_imports_only_what_its_command_runs(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("omega_o_hz = 0.5\nomega_q_hz = 1.0\ng_override = 0.05\nT = 4.0\ndt = 0.05\n"
                   "n_traj = 200\n", encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", PROBE, str(cfg), str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert set(seen["startup"]) == STARTUP
    for command in ("simulate", "ensemble"):
        rc, modules = seen[command]
        assert rc == 0, proc.stderr
        assert not DEFERRED & set(modules), command
    # a package-level name and a module attribute each load their own module alone
    before = set(modules)
    for key, module in (("name", "qubitkick.influence"), ("module", "qubitkick.reconstruct")):
        resolved, modules = seen[key]
        assert resolved == module
        assert set(modules) - before == {module}
        before = set(modules)


def test_every_name_resolves_to_its_module_attribute():
    assert sorted(qubitkick.__all__) == sorted(n for names in EXPORTS.values() for n in names)
    listed = dir(qubitkick)
    for module_name, names in EXPORTS.items():
        module = importlib.import_module(f"qubitkick.{module_name}")
        for name in names:
            assert getattr(qubitkick, name) is getattr(module, name), name
            assert name in listed, name


@pytest.mark.parametrize("name", ("no_such_name", "kernel_matrix", "dimensional_forces"))
def test_unknown_and_test_only_names_refused(name):
    # kernel_matrix and dimensional_forces stay in noise and forces, off the package
    with pytest.raises(AttributeError, match=name):
        getattr(qubitkick, name)
    assert name not in qubitkick.__all__
    with pytest.raises(ImportError):
        exec(f"from qubitkick import {name}", {})


def test_exit_one_errors_live_in_core():
    from qubitkick import quantum, reconstruct

    assert reconstruct.DegenerateBasisError is core.DegenerateBasisError
    assert reconstruct.UndersampledError is core.UndersampledError
    assert quantum.TruncationError is core.TruncationError
