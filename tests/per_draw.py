"""The per-draw reference for `noise.sample_moments`: each batch's mean and
centred scatter reduced from explicit draws.

Batch b holds the next counts[b] draws of `sample_zetas(state, seed, ...)`,
from index 0.  Its mean is the pairwise-summed mean of each component row
and its scatter the 2x2 Gram of the centred rows.  Tests feed these moments
into a record with `dataclasses.replace(stats, batch_means=..., batch_scatters=...)`
to check every contraction against trajectories solved from the same draws,
and compare them with `sample_moments` in law.
"""

import numpy as np

from qubitkick.noise import sample_zetas


def per_draw_moments(state, seed, counts):
    """(means (B, 2), scatters (B, 2, 2)) of the draws, batch after batch."""
    edges = np.concatenate(([0], np.cumsum(counts)))
    rows = sample_zetas(state, seed, range(int(edges[-1]))).T
    means = np.empty((len(counts), 2))
    scatters = np.empty((len(counts), 2, 2))
    for k, (i0, i1) in enumerate(zip(edges[:-1], edges[1:])):
        means[k] = rows[:, i0:i1].mean(axis=1)
        dev = rows[:, i0:i1] - means[k][:, None]
        scatters[k] = dev @ dev.T
    return means, scatters
