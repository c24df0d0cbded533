"""Per-block channel realizations and pilot-phase observations.

This is the Monte Carlo substrate the closed-form expressions are
validated against.  Sampling supports an optional batch axis, stored
last, and draw_estimates feeds both oracles MC_BATCH blocks at a time.
"""

from __future__ import annotations

import numpy as np

from .estimation import lmmse_estimate

MC_BATCH = 10_000   # blocks drawn per vectorized oracle step


def _crandn(rng, shape):
    # Unit-variance circularly symmetric normals: two real normals per
    # component scaled by sqrt(1/2), drawn (batch, ...), stored (..., batch).
    out = np.empty(shape[1:] + shape[:1], dtype=complex)
    for part in (out.real, out.imag):
        np.multiply(np.moveaxis(rng.standard_normal(shape), 0, -1),
                    np.sqrt(0.5), out=part)
    return out


def sample_realization(stats, rng, size=None):
    """Draw independent channel vectors g for every link.

    g is the LOS response rotated by a fresh uniform phase per link plus
    circularly symmetric scattering.  size=None gives shape (K, L, N);
    an integer prepends a batch axis, stored last.  Phases are i.i.d.
    across links and draws.
    """
    shape = (1 if size is None else size,) + stats.gbar.shape
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, shape[:3]))
    g = _crandn(rng, shape) * np.sqrt(stats.beta)[..., None, None]
    g += np.moveaxis(phase, 0, -1)[:, :, None] * stats.gbar[..., None]
    return g[..., 0] if size is None else np.moveaxis(g, -1, 0)


def sample_pilot_observation(g, stats, cfg, rng):
    """Despread pilot statistic per (k, l) for given channel draws g.

    Returns z with g's shape, then (K, L, N), any batch axes stored
    last.  Co-pilot users observe the identical statistic: the sum over
    their group plus one shared noise draw per (pilot, AP) pair.
    """
    gt = np.moveaxis(g.reshape((-1,) + g.shape[-3:]), 0, -1)
    z = _crandn(rng, (gt.shape[-1], cfg.tau_p) + g.shape[-2:]) * np.sqrt(cfg.sigma2)
    scale = np.sqrt(cfg.rho_p * cfg.tau_p)
    for t in range(cfg.tau_p):
        z[t] += scale * gt[stats.pilot_of == t].sum(axis=0)
    return np.moveaxis(z[stats.pilot_of], -1, 0).reshape(g.shape)


def draw_estimates(stats, cfg, mc_samples, rng):
    """Yield (g, ghat) batches of joint channel and estimate draws.

    Each batch of at most MC_BATCH blocks draws the realizations, then
    their pilot observations, from rng; a consumer that draws more
    (energy symbols) before asking for the next batch keeps that order.
    g and ghat have shape (batch, K, L, N), stored batch-last.
    """
    done = 0
    while done < mc_samples:
        n = min(MC_BATCH, mc_samples - done)
        g = sample_realization(stats, rng, size=n)
        yield g, lmmse_estimate(sample_pilot_observation(g, stats, cfg, rng),
                                stats, cfg)
        done += n


def mean_and_stderr(total, total_sq, mc_samples):
    """Sample mean and standard error from a sum and a sum of |.|^2.

    The variance is the total (real + imaginary) one, so |estimate -
    truth| / stderr is a proper z-score for complex entries too.
    """
    mean = total / mc_samples
    var = np.maximum(total_sq / mc_samples - np.abs(mean) ** 2, 0.0)
    return mean, np.sqrt(var / mc_samples)
