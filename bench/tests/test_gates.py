"""Each correctness gate passes a good result and trips on a corrupted one.

Run with `python3 -m pytest bench/tests`.
"""

import math

import numpy as np
import pytest

import gates
from workloads import WORKLOADS, argv, write_configs

G, R, P, PHI = 0.05, 0.5, 0.3, 1.0
N_TRAJ = 10_000


def _only(fails, prefix):
    assert len(fails) == 1 and fails[0].startswith(prefix), fails


# --- reconstruct ---------------------------------------------------------------

GOOD_STATE = {"eta_f_hat": math.sqrt(0.21) * 1.01, "eta_f_stderr": 0.002, "phi_hat": PHI - 0.01,
              "p_branches": [0.31, 0.69]}


def test_reconstruct_passes_good_result_and_wrapped_phase():
    assert gates.check_reconstruct(GOOD_STATE, P, PHI) == []
    assert gates.check_reconstruct(dict(GOOD_STATE, phi_hat=PHI - 2 * math.pi), P, PHI) == []


@pytest.mark.parametrize("field,value,prefix", [
    ("eta_f_hat", math.sqrt(0.21) * 1.06, "reconstruct: eta_f_hat"),
    ("eta_f_hat", None, "reconstruct: eta_f_hat"),
    ("phi_hat", PHI + 0.06, "reconstruct: phi_hat"),
    ("p_branches", [0.36, 0.64], "reconstruct: p_branches"),
    ("p_branches", [0.3], "reconstruct: p_branches"),
    ("eta_f_stderr", None, "reconstruct: eta_f_stderr"),
    ("eta_f_stderr", float("nan"), "reconstruct: eta_f_stderr"),
    ("eta_f_stderr", 0.0, "reconstruct: eta_f_stderr"),
])
def test_reconstruct_gate_trips(field, value, prefix):
    _only(gates.check_reconstruct(dict(GOOD_STATE, **{field: value}), P, PHI), prefix)


# --- ensemble -------------------------------------------------------------------

def _good_ensemble():
    tau = np.linspace(0.0, 200.0, 10_001)
    var_q = np.full(tau.size, 1e-4)
    stderr = np.sqrt(var_q / N_TRAJ)
    mean_q = gates.mean_closed_form(tau, G, R, P, PHI) + 2.0 * stderr * np.sin(3.0 * tau)
    freq = 2.0 * math.pi * np.fft.rfftfreq(tau.size, d=0.02)
    psd = 1.0 / (1.0 + ((freq - R) / 0.02) ** 2)
    return tau, mean_q, var_q, freq, psd


def _check_ensemble(tau, mean_q, var_q, freq, psd):
    return gates.check_ensemble(tau, mean_q, var_q, N_TRAJ, freq, psd, G, R, P, PHI)


def test_ensemble_passes_good_result():
    assert _check_ensemble(*_good_ensemble()) == []


def test_ensemble_mean_gate_trips_on_one_bad_point():
    tau, mean_q, var_q, freq, psd = _good_ensemble()
    mean_q[5000] = gates.mean_closed_form(tau[5000], G, R, P, PHI) + 5.5 * math.sqrt(var_q[5000] / N_TRAJ)
    _only(_check_ensemble(tau, mean_q, var_q, freq, psd), "ensemble: mean")


def test_ensemble_mean_gate_trips_on_nan():
    tau, mean_q, var_q, freq, psd = _good_ensemble()
    mean_q[10] = float("nan")
    _only(_check_ensemble(tau, mean_q, var_q, freq, psd), "ensemble: mean")


@pytest.mark.parametrize("bad", [-1e-3, float("nan"), float("inf")])
def test_ensemble_psd_gate_trips_on_invalid_value(bad):
    tau, mean_q, var_q, freq, psd = _good_ensemble()
    psd[100] = bad
    _only(_check_ensemble(tau, mean_q, var_q, freq, psd), "ensemble: PSD not finite")


def test_ensemble_psd_gate_trips_on_moved_peak():
    tau, mean_q, var_q, freq, psd = _good_ensemble()
    psd = 1.0 / (1.0 + ((freq - 1.0) / 0.02) ** 2)
    _only(_check_ensemble(tau, mean_q, var_q, freq, psd), "ensemble: PSD peak")


# --- validate -------------------------------------------------------------------

GOOD_ORACLE = {"preferred_sign_convention": "canonical",
               "conventions": {"canonical": {"scaling_exponent": 3.01}}}


def test_oracle_gate():
    assert gates.check_oracle(GOOD_ORACLE) == []
    _only(gates.check_oracle(dict(GOOD_ORACLE, preferred_sign_convention="eq37")),
          "verify oracle: preferred")
    _only(gates.check_oracle(dict(GOOD_ORACLE, conventions={"canonical": {"scaling_exponent": 1.5}})),
          "verify oracle: canonical exponent")


@pytest.mark.parametrize("slope,ok", [(2.97, True), (2.7, True), (2.69, False), (None, False),
                                      (float("nan"), False)])
def test_slope_gate(slope, ok):
    assert (gates.check_slope("verify bch", {"slope": slope}) == []) is ok


def test_simulate_gate():
    tau = np.linspace(0.0, 1.0, 11)
    closed = np.column_stack([tau, np.sin(tau), np.cos(tau)])
    assert gates.check_simulate_pair(closed + [0.0, 1e-12, -1e-12], closed) == []
    _only(gates.check_simulate_pair(closed + [0.0, 1e-6, 0.0], closed), "simulate: RK4")
    _only(gates.check_simulate_pair(closed[:-1], closed), "simulate: grids differ")


def test_exit_gate():
    assert gates.check_exit("table1", 0) == []
    _only(gates.check_exit("table1", 1), "table1: exit code 1")
    _only(gates.check_exit("table1", "raised OSError: x"), "table1: exit code")


# --- loaders on real CLI output ---------------------------------------------------

def test_ensemble_loader_reads_cli_output(tmp_path):
    from qubitkick import cli

    workload = WORKLOADS["spectra-long"]
    write_configs(workload, str(tmp_path), seed=5, warm=True)
    assert cli.main(argv(workload.commands[0], str(tmp_path), 5)) == 0
    cfg = workload.config_values("spectra", 5, warm=True)
    assert gates.GATES["ensemble"](str(tmp_path), cfg) == []
    # the same files judged against the wrong state fail the mean gate
    assert gates.GATES["ensemble"](str(tmp_path), dict(cfg, phi=cfg["phi"] + 1.0))


def test_benchmark_json_matches_the_metrics_printed():
    import json
    import os

    import run
    import tracing

    with open(os.path.join(os.path.dirname(run.BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.LAYER_METRICS
