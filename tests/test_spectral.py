"""The numpy Welch estimator against the scipy reference it replaced."""

import subprocess
import sys

import numpy as np
import pytest

from qubitkick import spectral


@pytest.mark.parametrize("n", (4096, 5001))
@pytest.mark.parametrize("overlap", (0.0, 0.5, 0.9))
@pytest.mark.parametrize("nperseg", (256, 1001, 2001, 4096, None), ids=str)
def test_matches_scipy_welch(n, overlap, nperseg):
    signal = pytest.importorskip("scipy.signal")
    nperseg = n if nperseg is None else nperseg
    noverlap = int(overlap * nperseg)
    x = np.random.default_rng(n + nperseg).normal(0.3, 1.0, size=(3, n))
    for data in (x[0], x):
        freq, pxx = spectral.welch(data, 20.0, nperseg, noverlap)
        ref_freq, ref = signal.welch(data, fs=20.0, window="hann", nperseg=nperseg,
                                     noverlap=noverlap, detrend="constant", axis=-1)
        assert pxx.shape == ref.shape
        assert np.max(np.abs(freq - ref_freq)) <= 1e-12 * ref_freq[-1]
        assert np.max(np.abs(pxx - ref)) <= 1e-12 * np.max(ref)


def test_cli_import_leaves_scipy_unloaded():
    code = "import sys, qubitkick.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"
