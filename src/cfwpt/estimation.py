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
    plus sigma^2 I;  Rhat = rho_p tau_p R Psi^-1 R.  Raises
    numpy.linalg.LinAlgError if some Psi is not positive definite.
    """
    N = stats.gbar.shape[-1]
    rho_tau = cfg.rho_p * cfg.tau_p
    eye = np.eye(N, dtype=complex)

    R = (stats.gbar[:, :, :, None] * stats.gbar[:, :, None, :].conj()
         + stats.beta[:, :, None, None] * eye)

    # One Psi per (pilot, AP).  The stacked Cholesky only checks that
    # each is positive definite; co-pilot users then share one inverse,
    # so they get bit-identical Psi^-1 R for identical R.
    psi = np.zeros((cfg.tau_p,) + R.shape[1:], dtype=complex)
    np.add.at(psi, stats.pilot_of, R)
    psi *= rho_tau
    psi += cfg.sigma2 * eye
    np.linalg.cholesky(psi)
    psi_inv_r = np.linalg.inv(psi)[stats.pilot_of] @ R

    Rhat = R @ psi_inv_r
    Rhat *= rho_tau
    Rhat += Rhat.conj().swapaxes(-1, -2)
    Rhat *= 0.5
    tr_rhat = np.einsum("klaa->kl", Rhat).real

    return EstimationCache(R=R, Rhat=Rhat, tr_rhat=tr_rhat, psi_inv_r=psi_inv_r)


def lmmse_estimate(z, cache, cfg):
    """LMMSE channel estimate sqrt(rho_p tau_p) R Psi^-1 z per link.

    z has shape (..., K, L, N); leading axes are Monte Carlo batches.
    """
    scale = np.sqrt(cfg.rho_p * cfg.tau_p)
    # R Psi^-1 is the conjugate transpose of the cached Psi^-1 R.
    return scale * np.einsum("klba,...klb->...kla", cache.psi_inv_r.conj(), z)
