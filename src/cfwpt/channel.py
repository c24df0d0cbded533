"""Per-block channel realizations and pilot-phase observations.

This is the Monte Carlo substrate the closed-form expressions are
validated against.  Sampling supports an optional leading batch axis, and
draw_estimates feeds both oracles MC_BATCH blocks at a time.
"""

from __future__ import annotations

import numpy as np

from .estimation import lmmse_estimate

MC_BATCH = 10_000   # blocks drawn per vectorized oracle step


def _crandn(rng, shape):
    # Two real normals per component, each scaled by sqrt(1/2), give a
    # unit-variance circularly symmetric complex sample.
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) \
        * np.sqrt(0.5)


def sample_realization(stats, rng, size=None):
    """Draw independent channel vectors g for every link.

    g is the LOS response rotated by a fresh uniform phase per link plus
    circularly symmetric scattering.  size=None gives shape (K, L, N);
    an integer prepends a batch axis.  Phases are i.i.d. across links
    and draws.
    """
    K, L, N = stats.gbar.shape
    lead = () if size is None else (size,)
    theta = rng.uniform(0.0, 2.0 * np.pi, lead + (K, L))
    scatter = _crandn(rng, lead + (K, L, N)) * np.sqrt(stats.beta)[..., None]
    return np.exp(1j * theta)[..., None] * stats.gbar + scatter


def sample_pilot_observation(g, stats, cfg, rng):
    """Despread pilot statistic per (k, l) for given channel draws g.

    Returns z with the same leading batch shape as g, then (K, L, N).
    Co-pilot users observe the identical statistic: the sum over their
    group plus one shared noise draw per (pilot, AP) pair.
    """
    L, N = g.shape[-2:]
    z_by_pilot = _crandn(rng, g.shape[:-3] + (cfg.tau_p, L, N)) \
        * np.sqrt(cfg.sigma2)
    scale = np.sqrt(cfg.rho_p * cfg.tau_p)
    for t in range(cfg.tau_p):
        group = g[..., stats.pilot_of == t, :, :]
        z_by_pilot[..., t, :, :] += scale * group.sum(axis=-3)
    return z_by_pilot[..., stats.pilot_of, :, :]


def draw_estimates(stats, cfg, mc_samples, rng):
    """Yield (g, ghat) batches of joint channel and estimate draws.

    Each batch of at most MC_BATCH blocks draws the realizations, then
    their pilot observations, from rng; a consumer that draws more
    (energy symbols) before asking for the next batch keeps that order.
    g and ghat have shape (batch, K, L, N).
    """
    done = 0
    while done < mc_samples:
        n = min(MC_BATCH, mc_samples - done)
        g = sample_realization(stats, rng, size=n)
        z = sample_pilot_observation(g, stats, cfg, rng)
        yield g, lmmse_estimate(z, stats, cfg)
        done += n


def mean_and_stderr(total, total_sq, mc_samples):
    """Sample mean and standard error from a sum and a sum of |.|^2.

    The variance is the total (real + imaginary) one, so |estimate -
    truth| / stderr is a proper z-score for complex entries too.
    """
    mean = total / mc_samples
    var = np.maximum(total_sq / mc_samples - np.abs(mean) ** 2, 0.0)
    return mean, np.sqrt(var / mc_samples)
