"""Phase-unaware LMMSE channel estimation.

Because the per-block LOS phase is unknown at the APs, the estimator is
the best *linear* one built from second-order statistics only: the link
covariance R treats the LOS response as a zero-mean rank-one component.
Everything the downlink-energy and uplink-rate formulas need is
precomputed here once per scenario and reused.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import hermitian_inverse


@dataclass(frozen=True)
class EstimationCache:
    """Per-link matrices derived from the channel statistics.

    All arrays are indexed [k, l, ...].  psi_inv_r = Psi^-1 @ R, with
    Psi the despread-observation covariance shared by co-pilot users,
    shows up in every closed-form moment, so it is cached once;
    R @ Psi^-1 is its conjugate transpose.
    """

    R: np.ndarray          # (K, L, N, N) channel covariance
    Rhat: np.ndarray       # (K, L, N, N) estimate covariance
    tr_rhat: np.ndarray    # (K, L) real
    psi_inv_r: np.ndarray  # (K, L, N, N)


def build_cache(stats, cfg):
    """Build covariance and estimator matrices per link.

    R = gbar gbar^H + beta I;  Psi = rho_p tau_p * sum of co-pilot R's
    plus sigma^2 I;  Rhat = rho_p tau_p R Psi^-1 R.
    """
    K, L, N = stats.gbar.shape
    pilot_of = stats.plan.pilot_of
    rho_tau = cfg.rho_p * cfg.tau_p
    eye = np.eye(N, dtype=complex)

    R = (stats.gbar[:, :, :, None] * stats.gbar[:, :, None, :].conj()
         + stats.beta[:, :, None, None] * eye)

    # One Psi^-1 per (pilot, AP); index back per UE so co-pilot users
    # share bit-identical matrices.
    psi_inv_by_pilot = np.empty((cfg.tau_p, L, N, N), dtype=complex)
    for t in range(cfg.tau_p):
        members = np.flatnonzero(pilot_of == t)
        contrib = R[members].sum(axis=0) if members.size else np.zeros((L, N, N), complex)
        psi = rho_tau * contrib + cfg.sigma2 * eye
        for l in range(L):
            psi_inv_by_pilot[t, l] = hermitian_inverse(psi[l])

    psi_inv_r = np.einsum("klab,klbc->klac", psi_inv_by_pilot[pilot_of], R)
    Rhat = rho_tau * np.einsum("klab,klbc->klac", R, psi_inv_r)
    Rhat = 0.5 * (Rhat + Rhat.conj().swapaxes(-1, -2))
    tr_rhat = np.einsum("klaa->kl", Rhat).real

    return EstimationCache(R=R, Rhat=Rhat, tr_rhat=tr_rhat, psi_inv_r=psi_inv_r)


def lmmse_estimate(z, cache, cfg):
    """LMMSE channel estimate sqrt(rho_p tau_p) R Psi^-1 z per link.

    z has shape (..., K, L, N); leading axes are Monte Carlo batches.
    """
    scale = np.sqrt(cfg.rho_p * cfg.tau_p)
    # R Psi^-1 is the conjugate transpose of the cached Psi^-1 R.
    return scale * np.einsum("klba,...klb->...kla", cache.psi_inv_r.conj(), z)
