"""Welch's averaged periodogram (Welch 1967, IEEE Trans. Audio Electroacoust. 15:70).

Only the configuration the library uses: a periodic Hann window, each
segment's mean removed, density scaling and a one-sided spectrum.  It
matches `scipy.signal.welch(x, fs, window="hann", nperseg=nperseg,
noverlap=noverlap, detrend="constant")`.
"""

from __future__ import annotations

import numpy as np


def welch(x, fs: float, nperseg: int, noverlap: int):
    """Per-row (freq, Pxx) along the last axis of `x`, in cycles per unit time.

    Segments of `nperseg` samples start every `nperseg - noverlap` samples;
    a tail too short for a whole segment is dropped.
    """
    x = np.asarray(x, dtype=float)
    starts = np.arange(0, x.shape[-1] - nperseg + 1, nperseg - noverlap)
    segments = np.lib.stride_tricks.sliding_window_view(x, nperseg, axis=-1)[..., starts, :]
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(nperseg) / nperseg)
    spec = np.fft.rfft((segments - segments.mean(axis=-1, keepdims=True)) * window, axis=-1)
    pxx = (spec.real**2 + spec.imag**2).mean(axis=-2) / (fs * np.sum(window**2))
    # one-sided: fold the negative frequencies, except DC and (even nperseg) Nyquist
    pxx[..., 1:(nperseg + 1) // 2] *= 2.0
    return np.fft.rfftfreq(nperseg, 1.0 / fs), pxx
