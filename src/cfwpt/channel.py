"""Per-block channel realizations and pilot-phase observations.

This is the Monte Carlo substrate the closed-form expressions are
validated against.  Sampling supports an optional leading batch axis so
oracles can draw tens of thousands of blocks in one vectorized call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ChannelRealization:
    """One (or a batch of) coherence-block channel draws.

    g has shape (..., K, L, N): the LOS response rotated by a fresh
    uniform phase per link plus circularly symmetric scattering.
    theta keeps the drawn phases for test introspection.
    """

    g: np.ndarray
    theta: np.ndarray


def _crandn(rng, shape):
    # Two real normals per component, each scaled by sqrt(1/2), give a
    # unit-variance circularly symmetric complex sample.
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) \
        * np.sqrt(0.5)


def sample_realization(stats, rng, size=None):
    """Draw independent channel vectors for every link.

    size=None gives arrays shaped (K, L, N); an integer prepends a
    batch axis.  Phases are i.i.d. across links and draws.
    """
    K, L, N = stats.gbar.shape
    lead = () if size is None else (size,)
    theta = rng.uniform(0.0, 2.0 * np.pi, lead + (K, L))
    scatter = _crandn(rng, lead + (K, L, N)) * np.sqrt(stats.beta)[..., None]
    g = np.exp(1j * theta)[..., None] * stats.gbar + scatter
    return ChannelRealization(g=g, theta=theta)


def sample_pilot_observation(real, stats, cfg, rng):
    """Despread pilot statistic per (k, l) for given channel draws.

    Returns z with the same leading batch shape as real.g, then
    (K, L, N).  Co-pilot users observe the identical statistic: the sum
    over their group plus one shared noise draw per (pilot, AP) pair.
    """
    plan = stats.plan
    g = real.g
    batch = g.shape[:-3]
    K, L, N = g.shape[-3:]

    noise = _crandn(rng, batch + (cfg.tau_p, L, N)) * np.sqrt(cfg.sigma2)
    z_by_pilot = noise
    scale = np.sqrt(cfg.rho_p * cfg.tau_p)
    for t in range(cfg.tau_p):
        members = np.flatnonzero(plan.pilot_of == t)
        if members.size:
            z_by_pilot[..., t, :, :] += scale * g[..., members, :, :].sum(axis=-3)
    return z_by_pilot[..., plan.pilot_of, :, :]
