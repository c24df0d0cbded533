"""Uplink spectral-efficiency machinery with central decoding weights.

Each AP correlates the received data signal with its local channel
estimate; the CPU then fuses the per-AP statistics with long-term
weights a_k.  Because only statistics are fused, the effective SINR is
a ratio of quadratic forms in a_k built from three long-term objects
per UE: the mean vector b_k, interference matrices C_kk' and the noise
diagonal D_k.  Those are computed here in closed form and, for
validation, estimated from joint Monte Carlo draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import sample_realization, sample_pilot_observation
from .estimation import lmmse_estimate


@dataclass(frozen=True)
class SEStatistics:
    """Long-term decoding statistics per UE.

    b[k, l]       = E{ghat_kl^H g_kl}, real and non-negative.
    C[k, m, l, l'] = E{ghat_kl^H g_ml g_ml'^H ghat_kl'}, Hermitian PSD
                    in (l, l'); zero off the diagonal unless m shares
                    UE k's pilot.
    D[k, l]       = sigma^2 tr(Rhat_kl), the effective noise weights.
    """

    b: np.ndarray   # (K, L) real
    C: np.ndarray   # (K, K, L, L) complex
    D: np.ndarray   # (K, L) real


def lsfd_statistics(cache, stats, cfg):
    """Closed-form b, C, D from the estimation cache."""
    K, L, N = stats.gbar.shape
    rho_tau = cfg.rho_p * cfg.tau_p
    gbar = stats.gbar
    beta = stats.beta
    m_mat = cache.psi_inv_r                       # Psi^-1 R per (k, l)

    tr_m = np.einsum("klaa->kl", m_mat).real      # tr(Psi_kl^-1 R_kl)
    quad = np.einsum("mla,klab,mlb->kml", gbar.conj(), m_mat, gbar)
    quad_self = np.einsum("kkl->kl", quad)        # gbar_kl^H M_kl gbar_kl

    b = rho_tau * (quad_self.real + beta * tr_m)

    # Same-AP products E{ghat_kl^H g_ml g_ml^H ghat_kl} for all pairs.
    tr_rhat_r = np.einsum("klab,mlba->kml", cache.Rhat, cache.R).real

    pilot_of = stats.plan.pilot_of
    copilot = pilot_of[:, None] == pilot_of[None, :]
    mask = copilot.astype(float)

    # Cross-AP correlation survives only through the shared pilot: the
    # factors separate per AP as u and its conjugate.
    u = quad + beta[None, :, :] * tr_m[:, None, :]          # (K, K, L)
    C = (rho_tau ** 2) * (u[:, :, :, None] * u[:, :, None, :].conj()) \
        * mask[:, :, None, None]

    # Same-AP second moments E|ghat_kl^H g_ml|^2; scaled by mu tau_d
    # they are the harvested-energy coefficients (wpt reads them here).
    diag = tr_rhat_r + (rho_tau ** 2) * mask[:, :, None] * (
        2.0 * beta[None, :, :] * tr_m[:, None, :] * quad.real
        + beta[None, :, :] ** 2 * tr_m[:, None, :] ** 2
    )
    idx = np.arange(L)
    C[:, :, idx, idx] = diag

    D = cfg.sigma2 * cache.tr_rhat
    return SEStatistics(b=b, C=C, D=D)


def sinr(k, a, eta, se):
    """Effective uplink SINR of UE k under weights a and powers eta.

    a is the full (K, L) complex weight array; only row k enters.
    """
    ak = np.asarray(a)[k]
    eta = np.asarray(eta, dtype=float)
    interference = np.einsum("m,mij->ij", eta, se.C[k])
    quad = np.einsum("i,ij,j->", ak.conj(), interference, ak).real
    signal = eta[k] * np.abs(np.vdot(ak, se.b[k])) ** 2
    noise = float((np.abs(ak) ** 2) @ se.D[k])
    denom = quad - signal + noise
    if denom <= 0.0:
        raise ValueError(f"SINR denominator {denom} <= 0 for UE {k}: "
                         "invalid statistics or weights")
    return signal / denom


def spectral_efficiency(sinr_value, cfg):
    """Ergodic-style SE in bits/s/Hz, prelog tau_u / tau_c."""
    return (cfg.tau_u / cfg.tau_c) * np.log2(1.0 + sinr_value)


@dataclass(frozen=True)
class SEOracleEstimates:
    b: np.ndarray      # (K, L) complex sample mean
    b_se: np.ndarray   # (K, L) real standard error
    C: np.ndarray      # (K, K, L, L) complex sample mean
    C_se: np.ndarray   # (K, K, L, L) real
    D: np.ndarray      # (K, L) real sample mean
    D_se: np.ndarray   # (K, L) real


def se_statistics_oracle(cache, stats, cfg, mc_samples, rng,
                         batch=10_000):
    """Monte Carlo estimate of b, C, D from their defining moments.

    Draws joint (channel, estimate) realizations and averages
    ghat_kl^H g_kl, the per-AP products ghat_kl^H g_ml g_ml'^H ghat_kl'
    and sigma^2 ||ghat_kl||^2.  Standard errors use the total (real +
    imaginary) sample variance, so |estimate - closed_form| / se is a
    proper z-score for complex entries too.
    """
    K, L, _ = stats.gbar.shape
    b_sum = np.zeros((K, L), dtype=complex)
    b_sq = np.zeros((K, L))
    c_sum = np.zeros((K, K, L, L), dtype=complex)
    c_sq = np.zeros((K, K, L, L))
    d_sum = np.zeros((K, L))
    d_sq = np.zeros((K, L))

    done = 0
    kk = np.arange(K)
    while done < mc_samples:
        n = min(batch, mc_samples - done)
        real = sample_realization(stats, rng, size=n)
        z = sample_pilot_observation(real, stats, cfg, rng)
        ghat = lmmse_estimate(z, cache, cfg)

        x = np.einsum("bkln,bmln->bkml", ghat.conj(), real.g)
        y_b = x[:, kk, kk, :]
        v = x[:, :, :, :, None] * x[:, :, :, None, :].conj()
        y_d = cfg.sigma2 * np.einsum("bkln,bkln->bkl", ghat, ghat.conj()).real

        b_sum += y_b.sum(axis=0)
        b_sq += (np.abs(y_b) ** 2).sum(axis=0)
        c_sum += v.sum(axis=0)
        c_sq += (np.abs(v) ** 2).sum(axis=0)
        d_sum += y_d.sum(axis=0)
        d_sq += (y_d ** 2).sum(axis=0)
        done += n

    def _finish(s, sq):
        mean = s / mc_samples
        var = np.maximum(sq / mc_samples - np.abs(mean) ** 2, 0.0)
        return mean, np.sqrt(var / mc_samples)

    b_est, b_se = _finish(b_sum, b_sq)
    c_est, c_se = _finish(c_sum, c_sq)
    d_est, d_se = _finish(d_sum, d_sq)
    return SEOracleEstimates(b=b_est, b_se=b_se, C=c_est, C_se=c_se,
                             D=d_est.real, D_se=d_se)
