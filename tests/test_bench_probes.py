"""The benchmark's layer probes and command lines still name what the library defines.

`bench/tracing.py` traces a run by swapping module attributes of qubitkick
for wrappers, so a rename or a changed call signature in the library would
break `bench/run.py --trace 1` without failing any library test.  Likewise
the CLI must accept every command line of `bench/workloads.py`.  Both files
are loaded from their paths and only read.
"""

import contextlib
import importlib
import importlib.util
import io
import os
import sys
from pathlib import Path

import pytest

from qubitkick import cli, dynamics, influence, quantum
from qubitkick.core import DimensionlessParams, QubitState, SimConfig
from qubitkick.reconstruct import reconstruct_from_stats

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave bench/ as it is
    sys.modules[spec.name] = module  # @dataclass looks its module up there
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
        del sys.modules[spec.name]
    return module


@pytest.fixture(scope="module")
def tracing():
    return load_bench_module("tracing")


def test_cli_accepts_every_benchmark_argv(tmp_path):
    workloads = load_bench_module("workloads")
    parser = cli.build_parser()
    for workload in workloads.WORKLOADS.values():
        for command in workload.commands:
            argv = workloads.argv(command, str(tmp_path), 1)
            try:
                args = parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"{workload.name}/{command.label}: the CLI refuses {argv}")
            assert callable(args.handler), argv


def test_every_probe_names_a_library_attribute(tracing):
    for mod_name, attr, _, _ in tracing.PROBES:
        module = importlib.import_module(f"qubitkick.{mod_name}")
        assert callable(getattr(module, attr, None)), f"qubitkick.{mod_name}.{attr}"
    assert callable(dynamics._signal.welch)


def test_sampler_counter_accepts_simulate_calls(tracing, monkeypatch, tmp_path):
    # `simulate` draws through the dynamics global that the noise.sample_zetas probe wraps
    calls = []
    sampler = dynamics.sample_zetas

    def recording_sampler(*args, **kwargs):
        result = sampler(*args, **kwargs)
        calls.append(tracing._count_sample_zetas(args, kwargs, result, None))
        return result

    monkeypatch.setattr(dynamics, "sample_zetas", recording_sampler)
    assert cli.main(["simulate", "--out", str(tmp_path / "sim.csv")]) == 0
    assert len(calls) == 1
    assert sum(c["draws"] for c in calls) == 1


def test_psd_reaches_welch_through_the_module_global(tracing, monkeypatch):
    # the bench's dynamics.welch probe replaces dynamics._signal as below
    counted = []

    def recording(*args, **kwargs):
        result = welch(*args, **kwargs)
        counted.append(tracing._count_welch(args, kwargs, result, None))
        return result

    welch = dynamics._signal.welch
    monkeypatch.setattr(dynamics, "_signal", tracing._WelchModule(dynamics._signal, recording))
    stats = dynamics.run_ensemble(DimensionlessParams(g=0.05, r=0.5, T=5.0), QubitState(0.3, 1.0),
                                  SimConfig(dt=0.1, n_traj=50))
    assert counted == []
    stats.psd()
    assert counted == [{"rows": 3}]


def test_solver_counters_read_rows_and_grid(tracing, monkeypatch, tmp_path):
    # the counters read the draws from args[2] and the grid from args[4]
    counted = []
    for attr, counter in (("_closed_form_batch", tracing._count_closed_form),
                          ("_rk4_batch", tracing._count_rk4)):
        def recording(*args, _solve=getattr(dynamics, attr), _counter=counter, _attr=attr, **kwargs):
            result = _solve(*args, **kwargs)
            counted.append((_attr, _counter(args, kwargs, result, None), result))
            return result

        monkeypatch.setattr(dynamics, attr, recording)
    dp = DimensionlessParams(g=0.05, r=0.5, T=30.0)
    config = SimConfig(dt=0.05, n_traj=10_000)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("omega_o_hz = 0.5\nomega_q_hz = 1.0\ng_override = 0.05\np = 0.3\nphi = 1.0\n"
                   "T = 3.0\ndt = 0.01\n")
    # an ensemble solves in closed form; `simulate --solver` reaches both solvers
    reconstruct_from_stats(dynamics.run_ensemble(dp, QubitState(0.3, 1.0), config))
    for solver in ("closed_form", "rk4"):
        assert cli.main(["simulate", "--config", str(cfg), "--solver", solver,
                         "--out", str(tmp_path / f"{solver}.csv")]) == 0
    assert {attr for attr, _, _ in counted} == {"_closed_form_batch", "_rk4_batch"}
    for attr, counts, result in counted:
        if attr == "_closed_form_batch":
            assert counts["points"] == result.shape[0] * result.shape[1]
        else:
            rows, grid = result[0].shape
            assert counts["steps"] == rows * (grid - 1)


def test_propagator_counter_reads_substeps(tracing, monkeypatch):
    # the counter reads `substeps` from args[4] of the forward and the backward
    # call, each of which covers the whole g ladder at one substep per grid interval
    counted = []
    propagator = influence.qubit_propagator_exact

    def recording(*args, **kwargs):
        result = propagator(*args, **kwargs)
        counted.append((tracing._count_propagator(args, kwargs, result, None), result.shape))
        return result

    monkeypatch.setattr(influence, "qubit_propagator_exact", recording)
    pair = cli._random_path_pair(1, n_grid=201)
    g_values = (0.1, 0.05, 0.025)
    # verify_influence_expansion also takes the state whose overlap it checks
    for verify, state_args in ((influence.verify_bch, ()),
                               (influence.verify_influence_expansion, (QubitState(0.3, 1.0),))):
        counted.clear()
        verify(pair, *state_args, g_values)
        assert counted == [({"substeps": 200}, (len(g_values), 2, 2))] * 2


def test_oracle_counter_reads_dimension_and_grid(tracing, monkeypatch):
    # the validate workload's oracle config: one exact evolution per coupling,
    # each at dimension 8 over T / dt + 1 = 2001 output times
    counted = []
    evolve = quantum.evolve_expectations

    def recording(*args, **kwargs):
        result = evolve(*args, **kwargs)
        counted.append(tracing._count_evolve(args, kwargs, result, None))
        return result

    monkeypatch.setattr(quantum, "evolve_expectations", recording)
    quantum.compare_classical_quantum(DimensionlessParams(g=0.04, r=0.5, T=40.0), QubitState(0.5, 0.0),
                                      SimConfig(dt=0.02, n_fock=80))
    assert counted == [{"hilbert_dim": 8, "expect_macs": 4 * 2001 * 64}] * 3  # no truncation_retries


def test_write_counter_reads_every_written_size(tracing, monkeypatch, tmp_path):
    # the cli.write probe counts the text it is passed, so each CLI output must
    # reach _write_atomic as one str whose UTF-8 length is the file's size
    counted = []
    write = cli._write_atomic

    def recording(*args, **kwargs):
        write(*args, **kwargs)
        path = args[0] if args else kwargs["path"]
        counted.append((os.path.basename(path), tracing._count_text(args, kwargs, None, None)["out_bytes"],
                        os.path.getsize(path)))

    monkeypatch.setattr(cli, "_write_atomic", recording)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("omega_o_hz = 0.5\nomega_q_hz = 1.0\ng_override = 0.05\np = 0.3\nphi = 1.0\n"
                   "T = 30.0\ndt = 0.05\nn_traj = 400\nseed = 3\n")
    out = str(tmp_path) + os.sep
    commands = (
        ["simulate", "--config", str(cfg), "--out", out + "sim.csv"],
        ["ensemble", "--config", str(cfg), "--out", out + "ens.csv", "--psd-out", out + "psd.csv"],
        ["reconstruct", "--config", str(cfg), "--format", "json", "--out", out + "rec.json"],
        ["verify", "bch", "--format", "json", "--out", out + "bch.json"],
        ["table1", "--out", out + "table1.csv"],
    )
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, argv
    assert sorted(name for name, _, _ in counted) == sorted(
        ["sim.csv", "ens.csv", "ens.csv.summary.json", "psd.csv", "rec.json", "bch.json", "table1.csv"])
    for name, out_bytes, size in counted:
        assert out_bytes == size > 0, name
