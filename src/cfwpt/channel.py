"""Per-block channel realizations and pilot-phase observations.

This is the Monte Carlo substrate the closed-form expressions are
validated against.  Every draw has shape (K, L, N, batch), the blocks
on the last axis.  draw_estimates draws and builds MC_BATCH blocks at a
time, and monte_carlo feeds each batch to every oracle.
"""

from __future__ import annotations

import numpy as np

from .estimation import lmmse_estimate

# Blocks drawn and built per oracle step.  It fixes the random stream,
# so every Monte Carlo answer depends on it, and it bounds the memory.
MC_BATCH = 2_500


def _crandn(rng, shape):
    # Unit-variance circularly symmetric normals: two real normals per
    # component scaled by sqrt(1/2), drawn (batch, ...), stored (..., batch).
    out = np.empty(shape[1:] + shape[:1], dtype=complex)
    for part in (out.real, out.imag):
        np.multiply(np.moveaxis(rng.standard_normal(shape), 0, -1),
                    np.sqrt(0.5), out=part)
    return out


def sample_realization(stats, rng, size):
    """Draw size independent channel vectors g per link, (K, L, N, size).

    g is the LOS response rotated by a fresh uniform phase per link plus
    circularly symmetric scattering.  Phases are i.i.d. across links and
    draws.
    """
    shape = (size,) + stats.gbar.shape
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, shape[:3]))
    g = _crandn(rng, shape) * np.sqrt(stats.beta)[..., None, None]
    g += np.moveaxis(phase, 0, -1)[:, :, None] * stats.gbar[..., None]
    return g


def sample_pilot_observation(g, stats, cfg, rng):
    """Despread pilot statistic per (k, l) for channel draws g, both
    (K, L, N, batch).  Co-pilot users observe the identical statistic:
    the sum over their group plus one shared noise draw per (pilot, AP)
    pair."""
    z = _crandn(rng, g.shape[-1:] + (cfg.tau_p,) + g.shape[1:3]) * np.sqrt(cfg.sigma2)
    scale = np.sqrt(cfg.rho_p * cfg.tau_p)
    for t in range(cfg.tau_p):
        z[t] += scale * g[stats.pilot_of == t].sum(axis=0)
    return z[stats.pilot_of]


def draw_estimates(stats, cfg, mc_samples, rng):
    """Yield (g, ghat) batches of joint channel and estimate draws.

    Each batch of at most MC_BATCH blocks draws the realizations, then
    their pilot observations, from rng.  g and ghat have shape
    (K, L, N, batch).
    """
    for done in range(0, mc_samples, MC_BATCH):
        g = sample_realization(stats, rng, size=min(MC_BATCH, mc_samples - done))
        yield g, lmmse_estimate(sample_pilot_observation(g, stats, cfg, rng),
                                stats, cfg)


def monte_carlo(stats, cfg, mc_samples, rng, *blocks):
    """One pass of draw_estimates, each batch fed to every block in turn.

    block(g, ghat_c, rng) takes g and conj(ghat), may draw more from rng
    (the energy symbols) before the next batch, and returns (sum, sum of
    |.|^2) pairs over the batch.  Returns, per block, the mean_and_stderr
    of each pair over all mc_samples draws.  Raises ValueError unless
    mc_samples >= 2, the fewest that give a standard error.
    """
    if mc_samples < 2:
        raise ValueError(f"mc_samples = {mc_samples} must be >= 2")
    per_batch = []
    for g, ghat in draw_estimates(stats, cfg, mc_samples, rng):
        ghat = ghat.conj()
        per_batch.append([block(g, ghat, rng) for block in blocks])
    return [[mean_and_stderr(*map(sum, zip(*pair)), mc_samples)
             for pair in zip(*parts)] for parts in zip(*per_batch)]


def mean_and_stderr(total, total_sq, mc_samples):
    """Sample mean and standard error from a sum and a sum of |.|^2.

    The variance is the total (real + imaginary) one, so |estimate -
    truth| / stderr is a proper z-score for complex entries too.
    """
    mean = total / mc_samples
    var = np.maximum(total_sq / mc_samples - np.abs(mean) ** 2, 0.0)
    return mean, np.sqrt(var / mc_samples)
