"""The benchmark's layer probes still name what the library defines.

`bench/tracing.py` traces a run by swapping module attributes of qubitkick
for wrappers, so a rename or a changed call signature in the library would
break `bench/run.py --trace 1` without failing any library test.  The file
is loaded from its path and only read.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from qubitkick import dynamics
from qubitkick.core import DimensionlessParams, QubitState, SimConfig

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
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


def test_every_probe_names_a_library_attribute(tracing):
    for mod_name, attr, _, _ in tracing.PROBES:
        module = importlib.import_module(f"qubitkick.{mod_name}")
        assert callable(getattr(module, attr, None)), f"qubitkick.{mod_name}.{attr}"
    assert callable(dynamics._signal.welch)


def test_sampler_counter_accepts_run_ensemble_calls(tracing, monkeypatch):
    calls = []
    sampler = dynamics.sample_zetas

    def recording_sampler(*args, **kwargs):
        result = sampler(*args, **kwargs)
        calls.append(tracing._count_sample_zetas(args, kwargs, result, None))
        return result

    monkeypatch.setattr(dynamics, "sample_zetas", recording_sampler)
    config = SimConfig(dt=0.1, n_traj=50)
    dynamics.run_ensemble(DimensionlessParams(g=0.05, r=0.5, T=5.0), QubitState(0.3, 1.0), config,
                          n_batches=4, compute_psd=False)
    assert len(calls) == 4
    assert sum(c["draws"] for c in calls) == config.n_traj
