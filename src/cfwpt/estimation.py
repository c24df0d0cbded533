"""Phase-unaware LMMSE channel estimation.

The per-block LOS phase is unknown at the APs, so the link covariance
R = gbar gbar^H + beta I treats the LOS response as a zero-mean rank-one
component.  One pilot's observation covariance at AP l is then
Psi = c I + rho_p tau_p U U^H, with U the LOS vectors of the pilot's
users and c = sigma^2 + rho_p tau_p sum beta, and the Woodbury identity
reduces every closed-form moment to K x K Gram matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EstimationCache:
    """Per-AP Gram factors of the closed forms; no array has an N axis.

    Arrays are indexed [k, m, l] or [k, l], with Psi_kl the observation
    covariance of UE k's pilot at AP l.  stats and cfg feed only Rhat.
    """

    gram: np.ndarray        # (K, K, L) gbar_kl^H gbar_ml
    cross: np.ndarray       # (K, K, L) gbar_ml^H Psi_kl^-1 gbar_kl
    own: np.ndarray         # (K, K, L) real, gbar_ml^H Psi_kl^-1 gbar_ml
    tr_psi_inv: np.ndarray  # (K, L) real, tr(Psi_kl^-1)
    tr_rhat: np.ndarray     # (K, L) real, tr(Rhat_kl)
    stats: object
    cfg: object

    @property
    def Rhat(self):
        """Dense (K, L, N, N) rho_p tau_p R Psi^-1 R, one pilot at a time."""
        R, psi = _dense_covariances(self.stats, self.cfg)
        for t, psi_t in enumerate(psi):
            group = self.stats.pilot_of == t
            R[group] = R[group] @ np.linalg.solve(psi_t, R[group])
        R *= self.cfg.rho_p * self.cfg.tau_p
        return R


def build_cache(stats, cfg):
    """Gram factors per link from one K x K Woodbury solve per (pilot, AP).

    With M a pilot's 0/1 member mask and H = Gbar^H Gbar at AP l, the
    solve is Y = A^-1 M H with A = c I + rho_p tau_p M H M; Psi^-1 U =
    U A^-1 gives gbar_m^H Psi^-1 gbar_k = conj(Y[k, m]) for members k.
    Raises numpy.linalg.LinAlgError unless every c > 0, which makes
    every Psi positive definite.
    """
    K, _, N = stats.gbar.shape
    rho_tau = cfg.rho_p * cfg.tau_p
    pilot_of, beta = stats.pilot_of, stats.beta
    member = (np.arange(cfg.tau_p)[:, None] == pilot_of).astype(float)
    c = cfg.sigma2 + rho_tau * (member @ beta)              # (tau_p, L)
    if not np.all(c > 0.0):
        raise np.linalg.LinAlgError(f"Psi not positive definite: c = {c.min()}")
    g = stats.gbar.transpose(1, 0, 2)
    gram = g.conj() @ g.transpose(0, 2, 1)                  # (L, K, K)
    mh = member[:, None, :, None] * gram                    # (tau_p, L, K, K)
    y = np.linalg.solve(rho_tau * mh * member[:, None, None, :]
                        + c[..., None, None] * np.eye(K), mh)
    # diag(H - rho_tau H M Y) / c and tr(Psi^-1) = (N - rho_tau tr Y) / c.
    own = (np.einsum("lmm->lm", gram).real - rho_tau * np.einsum(
        "tlim,tlim->tlm", mh.conj(), y).real) / c[..., None]
    tr_psi_inv = ((N - rho_tau * np.einsum("tlii->tl", y).real) / c)[pilot_of]
    cross = y[pilot_of, :, np.arange(K), :].conj().transpose(0, 2, 1)
    g_kk = np.einsum("kkl->kl", cross).real
    # tr(R Psi^-1 R) = g_kk (|gbar|^2 + 2 beta) + beta^2 tr(Psi^-1).
    tr_rhat = rho_tau * (g_kk * (np.einsum("lkk->kl", gram).real + 2.0 * beta)
                         + beta ** 2 * tr_psi_inv)
    return EstimationCache(
        gram=gram.transpose(1, 2, 0), cross=cross,
        own=own[pilot_of].transpose(0, 2, 1), tr_psi_inv=tr_psi_inv,
        tr_rhat=tr_rhat, stats=stats, cfg=cfg)


def _dense_covariances(stats, cfg):
    """R per link and Psi per (pilot, AP): (K, L, N, N) and (tau_p, L, N, N)."""
    eye = np.eye(stats.gbar.shape[-1], dtype=complex)
    R = (stats.gbar[..., :, None] * stats.gbar[..., None, :].conj()
         + stats.beta[..., None, None] * eye)
    psi = np.zeros((cfg.tau_p,) + R.shape[1:], dtype=complex)
    np.add.at(psi, stats.pilot_of, R)
    psi *= cfg.rho_p * cfg.tau_p
    psi += cfg.sigma2 * eye
    return R, psi


def lmmse_estimate(z, stats, cfg):
    """LMMSE channel estimate sqrt(rho_p tau_p) R Psi^-1 z per link.

    z has shape (..., K, L, N); leading axes are Monte Carlo batches.
    Dense N x N algebra for the Monte Carlo oracles only; R Psi^-1 is
    the conjugate transpose of Psi^-1 R.
    """
    R, psi = _dense_covariances(stats, cfg)
    psi_inv_r = np.linalg.inv(psi)[stats.pilot_of] @ R
    return np.sqrt(cfg.rho_p * cfg.tau_p) * np.einsum(
        "klba,...klb->...kla", psi_inv_r.conj(), z)
