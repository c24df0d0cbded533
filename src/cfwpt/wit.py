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

from .channel import draw_estimates, mean_and_stderr


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
    # quad[k, m, l] = gbar_ml^H M_kl gbar_ml, with M_kl gbar_ml for all
    # m from one batched product.
    quad = np.einsum("mla,klam->kml", gbar.conj(),
                     m_mat @ gbar.transpose(1, 2, 0))
    quad_self = np.einsum("kkl->kl", quad)        # gbar_kl^H M_kl gbar_kl

    b = rho_tau * (quad_self.real + beta * tr_m)

    # tr(Rhat_kl R_ml) for all pairs.  R is Hermitian, so this is
    # Re sum_ab Rhat_kl[a, b] conj(R_ml[a, b]): a real dot product of the
    # float views, batched over APs with no copy of R.
    rhat_f = cache.Rhat.view(float).reshape(K, L, 2 * N * N)
    r_f = cache.R.view(float).reshape(K, L, 2 * N * N)
    tr_rhat_r = (rhat_f.transpose(1, 0, 2) @ r_f.transpose(1, 2, 0)) \
        .transpose(1, 2, 0)                                   # (K, K, L)

    pilot_of = stats.pilot_of
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


def sinr_terms(a, se):
    """The quadratic forms of every UE's SINR under the weights a.

    a is the (K, L) complex weight array, row k decoding UE k.  Returns
    (gain, cross, noise): gain[k] = |a_k^H b_k|^2, cross[k, m] =
    a_k^H C_km a_k and noise[k] = sum_l |a_kl|^2 D_kl, so that
    SINR_k = eta_k gain_k / (sum_m eta_m cross_km - eta_k gain_k + noise_k).
    """
    K, L = se.b.shape
    a = np.asarray(a, dtype=complex)
    # cross[k, m] from two batched products per UE.
    c_a = (se.C.reshape(K, K * L, L) @ a[:, :, None]).reshape(K, K, L)
    cross = (c_a @ a.conj()[:, :, None])[..., 0].real
    gain = np.abs(np.einsum("kl,kl->k", a.conj(), se.b + 0j)) ** 2
    noise = np.einsum("kl,kl->k", np.abs(a) ** 2, se.D)
    return gain, cross, noise


def sinr(a, eta, se):
    """(K,) effective uplink SINRs under weights a and powers eta."""
    eta = np.asarray(eta, dtype=float)
    gain, cross, noise = sinr_terms(a, se)
    signal = eta * gain
    denom = cross @ eta - signal + noise
    bad = np.flatnonzero(denom <= 0.0)
    if bad.size:
        raise ValueError(f"SINR denominator {denom[bad[0]]} <= 0 for UE "
                         f"{bad[0]}: invalid statistics or weights")
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


def se_statistics_oracle(cache, stats, cfg, mc_samples, rng):
    """Monte Carlo estimate of b, C, D from their defining moments.

    Draws joint (channel, estimate) realizations and averages
    ghat_kl^H g_kl, the per-AP products ghat_kl^H g_ml g_ml'^H ghat_kl'
    and sigma^2 ||ghat_kl||^2, each with the standard error of
    channel.mean_and_stderr.
    """
    K, L, _ = stats.gbar.shape
    b_sum = np.zeros((K, L), dtype=complex)
    b_sq = np.zeros((K, L))
    c_sum = np.zeros((K, K, L, L), dtype=complex)
    c_sq = np.zeros((K, K, L, L))
    d_sum = np.zeros((K, L))
    d_sq = np.zeros((K, L))

    kk = np.arange(K)
    for g, ghat in draw_estimates(stats, cache, cfg, mc_samples, rng):
        x = np.einsum("bkln,bmln->bkml", ghat.conj(), g)
        y_b = x[:, kk, kk, :]
        y_d = cfg.sigma2 * np.einsum("bkln,bkln->bkl", ghat, ghat.conj()).real
        # Sums over the draws of x_l conj(x_l') and |x_l|^2 |x_l'|^2 as
        # batched (L, batch) @ (batch, L) products, draws on the last axis.
        xt = np.ascontiguousarray(np.moveaxis(x, 0, -1))
        x_sq = np.abs(xt) ** 2

        b_sum += y_b.sum(axis=0)
        b_sq += (np.abs(y_b) ** 2).sum(axis=0)
        c_sum += xt @ xt.conj().swapaxes(-1, -2)
        c_sq += x_sq @ x_sq.swapaxes(-1, -2)
        d_sum += y_d.sum(axis=0)
        d_sq += (y_d ** 2).sum(axis=0)

    b_est, b_se = mean_and_stderr(b_sum, b_sq, mc_samples)
    c_est, c_se = mean_and_stderr(c_sum, c_sq, mc_samples)
    d_est, d_se = mean_and_stderr(d_sum, d_sq, mc_samples)
    return SEOracleEstimates(b=b_est, b_se=b_se, C=c_est, C_se=c_se,
                             D=d_est, D_se=d_se)
