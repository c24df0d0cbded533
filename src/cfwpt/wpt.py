"""Downlink wireless power transfer accounting.

Each AP beamforms independent energy symbols with the conjugated
channel estimates (no inter-AP phase synchronization), so the average
energy harvested by a UE is a linear function of the power coefficients
p_il.  Its gradient dE_k/dp_il = mu tau_d E|ghat_il^H g_kl|^2 is the
same second moment as the table `second` of the decoding statistics,
so it is read off wit.lsfd_statistics rather than derived again.
Energy is accounted in W*samples; only energy ratios matter downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import monte_carlo


@dataclass(frozen=True)
class PowerAllocation:
    """Decision variables: AP energy coefficients and UE uplink powers."""

    p: np.ndarray     # (K, L), p[k, l] >= 0
    eta: np.ndarray   # (K,) uplink powers, >= 0


def harvested_energy_coefficients(se, cfg):
    """(K, K, L) table: entry [k, i, l] is dE_k / dp_il.

    E_k is linear in the power coefficients, so row k both evaluates
    the closed form (as a dot product with p) and supplies the energy
    constraint of UE k in the max-min LP.
    """
    # second[i, k, l] = E|ghat_il^H g_kl|^2.  A C-ordered copy: sums over
    # the transposed view would run in another order and move downstream
    # results in the last bits.
    return cfg.mu * cfg.tau_d * np.ascontiguousarray(se.second.transpose(1, 0, 2))


def harvested_energy(p, coef):
    """Closed-form average energy harvested by every UE, in W*samples.

    p is the (K, L) power-coefficient array and coef the table from
    harvested_energy_coefficients; returns the (K,) energies.
    """
    return np.einsum("kil,il->k", coef, np.asarray(p, dtype=float))


def energy_sums(p, cfg):
    """The energy oracle's block for channel.monte_carlo: draws the energy
    symbols s_il and sums mu tau_d |sum_il sqrt(p_il) ghat_il^H g_kl s_il|^2
    for all K UEs.  Harvester noise is neglected."""
    sqrt_p = np.sqrt(np.asarray(p, dtype=float))

    def block(g, ghat_c, rng):
        # Unit modulus, uniform phase: the least oracle variance.
        s = np.exp(2j * np.pi * rng.uniform(size=g.shape[-1:] + g.shape[:2]))
        # x[l] = sum_i sqrt(p_il) s_il conj(ghat_il): what AP l radiates.
        w = sqrt_p[..., None] * np.moveaxis(s, 0, -1)
        r = (g * (w[:, :, None] * ghat_c).sum(axis=0)).sum(axis=(1, 2))
        y = cfg.mu * cfg.tau_d * np.abs(r) ** 2
        return [(y.sum(axis=-1), (y ** 2).sum(axis=-1))]
    return block


def harvested_energy_oracle(p, stats, cfg, mc_samples, rng):
    """Monte Carlo (K,) harvested energies and their standard errors:
    energy_sums over joint (channel, pilot observation, energy symbol)
    draws, every UE on the same draws."""
    return monte_carlo(stats, cfg, mc_samples, rng, energy_sums(p, cfg))[0][0]
