"""Per-block channel realizations and pilot-phase observations.

This is the Monte Carlo substrate the closed-form expressions are
validated against.  Every array built from the draws has shape
(K, L, N, blocks), the blocks on the last axis.  draw_estimates takes
the random numbers of MC_BATCH blocks at a time from the generator,
which fixes the random stream, and builds the channels, observations
and estimates MC_SLICE blocks at a time, which bounds the memory;
monte_carlo feeds each slice to every oracle.
"""

from __future__ import annotations

import numpy as np

from .estimation import lmmse_estimate

# Blocks per draw from the generator.  It fixes the random stream, so
# every Monte Carlo answer depends on it.
MC_BATCH = 10_000
# Blocks per oracle step.  Only the order of the sums over blocks
# depends on it; it bounds the arrays built from a batch's draws.
MC_SLICE = 2_500


def _normals(rng, shape):
    # Batch-first real, then imaginary, unit normals.
    return rng.standard_normal(shape), rng.standard_normal(shape)


def _draw_channel(stats, rng, n):
    """n blocks' channel draws, batch-first: the per-link LOS phases
    (n, K, L), then the scattering's normals, (n, K, L, N) each."""
    shape = (n,) + stats.gbar.shape
    return (rng.uniform(0.0, 2.0 * np.pi, shape[:3]), *_normals(rng, shape))


def _crandn(re, im):
    # Unit-variance circularly symmetric normals from batch-first real and
    # imaginary parts, scaled by sqrt(1/2) and stored (..., batch).
    out = np.empty(re.shape[1:] + re.shape[:1], dtype=complex)
    for part, x in ((out.real, re), (out.imag, im)):
        np.multiply(np.moveaxis(x, 0, -1), np.sqrt(0.5), out=part)
    return out


def _realization(stats, theta, re, im):
    g = _crandn(re, im) * np.sqrt(stats.beta)[..., None, None]
    g += np.moveaxis(np.exp(1j * theta), 0, -1)[:, :, None] * stats.gbar[..., None]
    return g


def _observation(g, stats, cfg, re, im):
    z = _crandn(re, im) * np.sqrt(cfg.sigma2)
    scale = np.sqrt(cfg.rho_p * cfg.tau_p)
    for t in range(cfg.tau_p):
        z[t] += scale * g[stats.pilot_of == t].sum(axis=0)
    return z[stats.pilot_of]


def sample_realization(stats, rng, size):
    """Draw size independent channel vectors g per link, (K, L, N, size).

    g is the LOS response rotated by a fresh uniform phase per link plus
    circularly symmetric scattering.  Phases are i.i.d. across links and
    draws.
    """
    return _realization(stats, *_draw_channel(stats, rng, size))


def sample_pilot_observation(g, stats, cfg, rng):
    """Despread pilot statistic per (k, l) for channel draws g, both
    (K, L, N, batch).  Co-pilot users observe the identical statistic:
    the sum over their group plus one shared noise draw per (pilot, AP)
    pair."""
    _, L, N, n = g.shape
    return _observation(g, stats, cfg, *_normals(rng, (n, cfg.tau_p, L, N)))


def draw_estimates(stats, cfg, mc_samples, rng):
    """Yield (g, ghat) slices of joint channel and estimate draws.

    Each batch of at most MC_BATCH blocks first draws all its random
    numbers from rng, in sample_realization's then
    sample_pilot_observation's order, and then yields them in slices of
    at most MC_SLICE blocks, so every block gets the values it would get
    from one batch-sized call of each.  g and ghat have shape
    (K, L, N, slice).
    """
    for done in range(0, mc_samples, MC_BATCH):
        yield from _slices(stats, cfg, min(MC_BATCH, mc_samples - done), rng)


def _slices(stats, cfg, n, rng):
    # One batch; its draws are freed when the last slice has been taken.
    _, L, N = stats.gbar.shape
    channel = _draw_channel(stats, rng, n)
    noise = _normals(rng, (n, cfg.tau_p, L, N))
    for s in range(0, n, MC_SLICE):
        part = slice(s, s + MC_SLICE)
        g = _realization(stats, *(x[part] for x in channel))
        yield g, lmmse_estimate(
            _observation(g, stats, cfg, *(x[part] for x in noise)), stats, cfg)


def monte_carlo(stats, cfg, mc_samples, rng, *blocks):
    """One pass of draw_estimates, each slice fed to every block in turn.

    block(g, ghat_c, rng) takes g and conj(ghat), may draw more from rng
    (the energy symbols) before the next slice, and returns (sum, sum of
    |.|^2) pairs over the slice.  Returns, per block, the mean_and_stderr
    of each pair over all mc_samples draws.  Raises ValueError unless
    mc_samples >= 2, the fewest that give a standard error.
    """
    if mc_samples < 2:
        raise ValueError(f"mc_samples = {mc_samples} must be >= 2")
    per_slice = []
    for g, ghat in draw_estimates(stats, cfg, mc_samples, rng):
        ghat = ghat.conj()
        per_slice.append([block(g, ghat, rng) for block in blocks])
    return [[mean_and_stderr(*map(sum, zip(*pair)), mc_samples)
             for pair in zip(*parts)] for parts in zip(*per_slice)]


def mean_and_stderr(total, total_sq, mc_samples):
    """Sample mean and standard error from a sum and a sum of |.|^2.

    The variance is the total (real + imaginary) one, so |estimate -
    truth| / stderr is a proper z-score for complex entries too.
    """
    mean = total / mc_samples
    var = np.maximum(total_sq / mc_samples - np.abs(mean) ** 2, 0.0)
    return mean, np.sqrt(var / mc_samples)
