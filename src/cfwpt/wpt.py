"""Downlink wireless power transfer accounting.

Each AP beamforms independent energy symbols with the conjugated
channel estimates (no inter-AP phase synchronization), so the average
energy harvested by a UE is a linear function of the power coefficients
p_il.  Its gradient dE_k/dp_il = mu tau_d E|ghat_il^H g_kl|^2 is the
same second moment as the diagonal C[i, k, l, l] of the decoding
statistics, so it is read off wit.lsfd_statistics rather than derived
again.  Energy is accounted in W*samples; only energy ratios matter
downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import sample_realization, sample_pilot_observation
from .estimation import lmmse_estimate


@dataclass(frozen=True)
class PowerAllocation:
    """Decision variables: AP energy coefficients and UE uplink powers."""

    p: np.ndarray     # (K, L), p[k, l] >= 0
    eta: np.ndarray   # (K,) uplink powers, >= 0


def ap_transmit_powers(p, cache):
    """Average transmit power of every AP: sum_k p_kl tr(Rhat_kl)."""
    return np.einsum("kl,kl->l", np.asarray(p, dtype=float), cache.tr_rhat)


def harvested_energy_coefficients(se, cfg):
    """(K, K, L) table: entry [k, i, l] is dE_k / dp_il.

    E_k is linear in the power coefficients, so row k both evaluates
    the closed form (as a dot product with p) and supplies the energy
    constraint of UE k in the max-min LP.
    """
    second = np.einsum("ikll->kil", se.C).real   # E|ghat_il^H g_kl|^2
    # A C-ordered copy: sums over the strided diagonal view would run in
    # another order and move downstream results in the last bits.
    return cfg.mu * cfg.tau_d * np.ascontiguousarray(second)


def harvested_energy(k, p, coef):
    """Closed-form average energy harvested by UE k, in W*samples.

    coef is the table from harvested_energy_coefficients.
    """
    return float(np.sum(np.asarray(p, dtype=float) * coef[k]))


def harvested_energy_oracle(k, p, cache, stats, cfg, mc_samples, rng,
                            batch=20_000):
    """Monte Carlo estimate of UE k's harvested energy.

    Draws joint (channel, pilot observation, energy symbol) realizations
    and averages mu tau_d |sum_il sqrt(p_il) ghat_il^H g_kl s_il|^2.
    Energy symbols are unit-modulus with uniform phase (zero mean, unit
    variance, minimal oracle variance).  Harvester noise is neglected.

    Returns (estimate, standard_error).
    """
    p = np.asarray(p, dtype=float)
    sqrt_p = np.sqrt(p)
    mu_tau = cfg.mu * cfg.tau_d

    total = 0.0
    total_sq = 0.0
    done = 0
    while done < mc_samples:
        n = min(batch, mc_samples - done)
        real = sample_realization(stats, rng, size=n)
        z = sample_pilot_observation(real, stats, cfg, rng)
        ghat = lmmse_estimate(z, cache, cfg)
        s = np.exp(2j * np.pi * rng.uniform(size=(n, cfg.K, cfg.L)))
        # inner[b, i, l] = ghat_il^H g_kl for draw b
        inner = np.einsum("biln,bln->bil", ghat.conj(), real.g[:, k])
        r = np.einsum("bil,il,bil->b", inner, sqrt_p, s)
        y = mu_tau * np.abs(r) ** 2
        total += float(y.sum())
        total_sq += float((y ** 2).sum())
        done += n

    mean = total / mc_samples
    var = max(total_sq / mc_samples - mean ** 2, 0.0)
    return mean, float(np.sqrt(var / mc_samples))
