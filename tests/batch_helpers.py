"""Whole arrays from the batch sampler, for tests that read them."""

import numpy as np

from bigjump.levy_sim import batch_integral_functionals


def batch_arrays(model, integrand, t, n, seed, grid_size=512, threads=1, running_sup=True):
    """``batch_integral_functionals``' endpoints and running sups (None when
    ``running_sup`` is off) of all ``n`` replicates: a reducer that copies each
    batch's values out of the sampler's scratch buffers, concatenated in batch
    order."""
    parts = batch_integral_functionals(
        model, integrand, t, n, seed,
        lambda endpoint, sup: (endpoint.copy(), None if sup is None else sup.copy()),
        grid_size=grid_size, threads=threads, running_sup=running_sup)
    endpoint = np.concatenate([e for e, _ in parts])
    return endpoint, np.concatenate([s for _, s in parts]) if running_sup else None
