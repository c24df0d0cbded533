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

from .channel import draw_estimates, mean_and_stderr


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


def harvested_energy_oracle(p, stats, cfg, mc_samples, rng):
    """Monte Carlo estimate of every UE's harvested energy, from one pass.

    Draws joint (channel, pilot observation, energy symbol) realizations
    and averages mu tau_d |sum_il sqrt(p_il) ghat_il^H g_kl s_il|^2 for
    all K UEs on the same draws.  Energy symbols are unit-modulus with
    uniform phase (zero mean, unit variance, minimal oracle variance).
    Harvester noise is neglected.

    Returns the (K,) estimates and their (K,) standard errors.
    """
    sqrt_p = np.sqrt(np.asarray(p, dtype=float))
    total = total_sq = 0.0
    for g, ghat in draw_estimates(stats, cfg, mc_samples, rng):
        s = np.exp(2j * np.pi * rng.uniform(size=g.shape[:3]))
        g, ghat = np.moveaxis(g, 0, -1), np.moveaxis(ghat, 0, -1)
        # x[l] = sum_i sqrt(p_il) s_il conj(ghat_il): what AP l radiates.
        w = sqrt_p[..., None] * np.moveaxis(s, 0, -1)
        r = (g * (w[:, :, None] * ghat.conj()).sum(axis=0)).sum(axis=(1, 2))
        y = cfg.mu * cfg.tau_d * np.abs(r) ** 2
        total += y.sum(axis=-1)
        total_sq += (y ** 2).sum(axis=-1)
    return mean_and_stderr(total, total_sq, mc_samples)
