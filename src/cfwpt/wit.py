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

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import monte_carlo


@dataclass(frozen=True)
class SEStatistics:
    """Long-term decoding statistics per UE, with C kept in factors.

    b[k, l]         = E{ghat_kl^H g_kl}, real and non-negative.
    second[k, m, l] = E|ghat_kl^H g_ml|^2, the same-AP second moments.
    u[k, m, l]      = the co-pilot factor, zero unless m shares k's pilot.
    D[k, l]         = sigma^2 tr(Rhat_kl), the effective noise weights.

    Cross-AP correlation survives only through a shared pilot, so
    C_km = E{ghat_k^H g_m g_m^H ghat_k} is u_km u_km^H with its diagonal
    set to second_km.  The solver's per-drop constants same_ap = second -
    |u|^2 (C_km's diagonal past u u^H), b_complex = b + 0j and copilots
    are formed once, on first use.
    """

    b: np.ndarray        # (K, L) real
    second: np.ndarray   # (K, K, L) real
    u: np.ndarray        # (K, K, L) complex
    D: np.ndarray        # (K, L) real

    same_ap = cached_property(lambda self: self.second - np.abs(self.u) ** 2)
    b_complex = cached_property(lambda self: self.b + 0j)

    @cached_property
    def copilots(self):
        """(pick, v, v_conj): w[pick] takes from row k of a (K, K) array
        the g entries at k's co-pilots m (u_km != 0), filled up with zero
        columns of u_k; v = u[pick], (K, g, L)."""
        nonzero = np.any(self.u != 0.0, axis=2)
        count = nonzero.sum(axis=1, keepdims=True)
        take = nonzero | (np.cumsum(~nonzero, axis=1) <= count.max() - count)
        pick = tuple(i.reshape(len(take), -1) for i in np.nonzero(take))
        return pick, self.u[pick], self.u[pick].conj()

    @property
    def C(self):
        """Dense (K, K, L, L) C_km, built on demand for validation."""
        C = self.u[..., :, None] * self.u[..., None, :].conj()
        idx = np.arange(self.b.shape[1])
        C[:, :, idx, idx] = self.second
        return C


def lsfd_statistics(cache, stats, cfg):
    """Closed-form SEStatistics as elementwise (K, K, L) terms of the cache's
    Gram factors, with R_k = gbar_k gbar_k^H + beta_k I and Psi = Psi_kl."""
    rho_tau = cfg.rho_p * cfg.tau_p
    b, own = cache.tr_rhat, cache.own
    beta_k, beta_m = stats.beta[:, None, :], stats.beta[None, :, :]
    g_kk = np.einsum("kkl->kl", cache.cross).real[:, None, :]
    hg = cache.gram * cache.cross       # (gbar_k^H gbar_m) gbar_m^H Psi^-1 gbar_k
    tr_m = g_kk + beta_k * cache.tr_psi_inv[:, None, :]    # tr(Psi^-1 R_k)
    quad = hg + beta_k * own                  # gbar_m^H Psi^-1 R_k gbar_m
    u = quad + beta_m * tr_m                  # tr(Psi^-1 R_k R_m)
    # tr(Rhat_k R_m) = rho_tau v^H Psi^-1 v + beta_m b_k, v = R_k gbar_m.
    tr_rhat_r = rho_tau * (np.abs(cache.gram) ** 2 * g_kk + 2.0 * beta_k
                           * hg.real + beta_k ** 2 * own) + beta_m * b[:, None]
    copilot = (stats.pilot_of[:, None] == stats.pilot_of)[..., None]
    # Scaled by mu tau_d, second is also the harvested-energy table.
    second = tr_rhat_r + (rho_tau ** 2) * copilot * (
        2.0 * beta_m * tr_m * quad.real + beta_m ** 2 * tr_m ** 2)
    return SEStatistics(b=b, second=second, u=rho_tau * copilot * u,
                        D=cfg.sigma2 * b)


def sinr_terms(a, se):
    """The quadratic forms of every UE's SINR under the weights a.

    a is the (K, L) complex weight array, row k decoding UE k.  Returns
    (gain, cross, noise): gain[k] = |a_k^H b_k|^2, cross[k, m] =
    a_k^H C_km a_k and noise[k] = sum_l |a_kl|^2 D_kl, so that
    SINR_k = eta_k gain_k / (sum_m eta_m cross_km - eta_k gain_k + noise_k).
    """
    a = np.asarray(a, dtype=complex)
    # cross[k, m] = sum_l (second - |u|^2)_kml |a_kl|^2 + |u_km^H a_k|^2.
    same_ap = se.same_ap @ (np.abs(a) ** 2)[:, :, None]
    cross = (same_ap + np.abs(se.u @ a.conj()[:, :, None]) ** 2)[..., 0]
    gain = np.abs(np.einsum("kl,kl->k", a.conj(), se.b_complex)) ** 2
    noise = np.einsum("kl,kl->k", np.abs(a) ** 2, se.D)
    return gain, cross, noise


def sinr(terms, eta):
    """(K,) effective uplink SINRs under powers eta, from the sinr_terms
    of the weights."""
    gain, cross, noise = terms
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


# Sample means shaped as SEStatistics' b, C (both complex) and D, each
# followed by its real standard errors.
SEOracleEstimates = namedtuple("SEOracleEstimates", "b b_se C C_se D D_se")


def se_sums(cfg):
    """The SE oracle's per-block step, for channel.monte_carlo: the
    block's (sum, sum of |.|^2) pairs of ghat_kl^H g_kl, the per-AP
    products ghat_kl^H g_ml g_ml'^H ghat_kl' and sigma^2 ||ghat_kl||^2."""
    def block(g, ghat_c, rng):
        # xt[k, m, l] = ghat_kl^H g_ml, draws last; the sums of x_l x_l'^*
        # and |x_l|^2 |x_l'|^2 are (L, b) @ (b, L) products.
        xt = ghat_c[:, None, :, 0] * g[None, :, :, 0]
        for n in range(1, g.shape[2]):
            xt += ghat_c[:, None, :, n] * g[None, :, :, n]
        y_b = np.diagonal(xt).transpose(2, 0, 1)            # x_kk
        y_d = cfg.sigma2 * (ghat_c.real ** 2 + ghat_c.imag ** 2).sum(axis=2)
        c = xt @ xt.conj().swapaxes(-1, -2)
        x_sq = np.abs(xt) ** 2
        return [(y_b.sum(axis=-1), (np.abs(y_b) ** 2).sum(axis=-1)),
                (c, x_sq @ x_sq.swapaxes(-1, -2)),
                (y_d.sum(axis=-1), (y_d ** 2).sum(axis=-1))]
    return block


def se_statistics_oracle(stats, cfg, mc_samples, rng):
    """Monte Carlo estimate of b, C, D from their defining moments:
    se_sums over joint (channel, estimate) draws, each with the standard
    error of channel.mean_and_stderr."""
    [(b, C, D)] = monte_carlo(stats, cfg, mc_samples, rng, se_sums(cfg))
    return SEOracleEstimates(*b, *C, *D)
