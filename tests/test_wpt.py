import numpy as np
import pytest

from cfwpt.channel import MC_BATCH, sample_pilot_observation, sample_realization
from cfwpt.estimation import build_cache, lmmse_estimate
from cfwpt.wit import lsfd_statistics
from cfwpt.wpt import (
    harvested_energy,
    harvested_energy_coefficients,
    harvested_energy_oracle,
)

from test_estimation import _scalar_setup
from helpers import (
    ap_transmit_powers,
    dense_covariance,
    direct_rhat,
    synthetic_stats,
)


def _closed_forms(cfg, stats):
    """Estimation cache and the (K, K, L) energy coefficient table."""
    cache = build_cache(stats, cfg)
    se = lsfd_statistics(cache, stats, cfg)
    return cache, harvested_energy_coefficients(se, cfg)


def test_scalar_closed_form():
    """Unit link: coefficient collapses to mu tau_d * 4."""
    cfg, stats = _scalar_setup()
    cache, coef = _closed_forms(cfg, stats)
    p = np.array([[0.7]])
    want = cfg.mu * cfg.tau_d * 4.0 * 0.7
    assert harvested_energy(p, coef) == pytest.approx([want])


def test_energy_linear_in_power():
    cfg, stats = synthetic_stats(L=2, K=4, N=3, tau_p=2, seed=41)
    cache, coef = _closed_forms(cfg, stats)
    rng = np.random.default_rng(0)
    p1 = rng.uniform(0.0, 1.0, size=(4, 2))
    p2 = rng.uniform(0.0, 1.0, size=(4, 2))
    e1 = harvested_energy(p1, coef)
    e2 = harvested_energy(p2, coef)
    both = harvested_energy(p1 + 3.0 * p2, coef)
    assert e1.shape == (4,)
    assert np.allclose(both, e1 + 3.0 * e2, rtol=1e-12, atol=0.0)
    assert np.all(e1 > 0.0)
    for k in range(4):
        assert e1[k] == pytest.approx(np.sum(p1 * coef[k]), rel=1e-12)


def test_coefficients_nonnegative_and_copilot_structure():
    cfg, stats = synthetic_stats(L=2, K=4, N=3, tau_p=2, seed=42)
    cache, table = _closed_forms(cfg, stats)
    pilot_of = stats.pilot_of
    mu_tau = cfg.mu * cfg.tau_d
    assert table.shape == (4, 4, 2)
    R, rhat = dense_covariance(stats), direct_rhat(stats, cfg)
    for k in range(4):
        coeff = table[k]
        assert np.all(coeff > 0.0)
        base = mu_tau * np.einsum("ilab,lba->il", rhat, R[k]).real
        for i in range(4):
            if pilot_of[i] == pilot_of[k]:
                # Beam alignment through the shared pilot adds energy.
                assert np.all(coeff[i] > base[i] * (1.0 + 1e-12))
            else:
                assert np.allclose(coeff[i], base[i], rtol=1e-12)


def test_orthogonal_pilots_leave_only_matched_filter_terms():
    cfg, stats = synthetic_stats(L=2, K=3, N=2, tau_p=3, seed=43)
    cache, table = _closed_forms(cfg, stats)
    mu_tau = cfg.mu * cfg.tau_d
    k = 1
    coeff = table[k]
    base = mu_tau * np.einsum("ilab,lba->il", direct_rhat(stats, cfg),
                              dense_covariance(stats)[k]).real
    others = [i for i in range(3) if i != k]
    assert np.allclose(coeff[others], base[others], rtol=1e-12)
    assert np.all(coeff[k] > base[k])


def test_ap_transmit_power_definition():
    """sum_k p_kl tr(Rhat_kl) is the mean power AP l radiates when it
    beamforms unit-modulus energy symbols along the conjugate estimates."""
    cfg, stats = synthetic_stats(L=3, K=4, N=2, tau_p=2, seed=44)
    cache = build_cache(stats, cfg)
    p = np.random.default_rng(1).uniform(size=(4, 3))
    rng = np.random.default_rng(5)
    n = 40_000
    g = sample_realization(stats, rng, size=n)
    ghat = lmmse_estimate(sample_pilot_observation(g, stats, cfg, rng),
                          stats, cfg)
    s = np.exp(2j * np.pi * rng.uniform(size=(n, 4, 3)))
    x = np.einsum("kl,bkln,bkl->bln", np.sqrt(p), ghat.conj(), s)
    radiated = np.sum(np.abs(x) ** 2, axis=2)           # (n, L)
    want = ap_transmit_powers(p, cache)
    err = radiated.std(axis=0) / np.sqrt(n)
    assert np.all(np.abs(radiated.mean(axis=0) - want) <= 4.0 * err)


def test_oracle_agrees_with_closed_form():
    cfg, stats = synthetic_stats(L=2, K=3, N=2, tau_p=2, seed=46)
    cache, coef = _closed_forms(cfg, stats)
    p = np.random.default_rng(2).uniform(0.2, 1.0, size=(3, 2))
    est, se = harvested_energy_oracle(p, stats, cfg, mc_samples=30_000,
                                      rng=np.random.default_rng(3))
    closed = harvested_energy(p, coef)
    assert est.shape == se.shape == (3,)
    assert np.all(np.abs(est - closed) <= 4.0 * se), (closed, est, se)


def test_oracle_zero_power_is_exact():
    cfg, stats = synthetic_stats(L=1, K=2, N=2, tau_p=1, seed=47)
    cache, coef = _closed_forms(cfg, stats)
    p = np.zeros((2, 1))
    est, se = harvested_energy_oracle(p, stats, cfg,
                                      mc_samples=100, rng=np.random.default_rng(4))
    assert np.all(est == 0.0) and np.all(se == 0.0)
    assert np.all(harvested_energy(p, coef) == 0.0)


def _per_ue_energy_reference(p, stats, cfg, mc_samples, rng):
    """The energy oracle written out one UE at a time on shared draws.

    Per batch: realizations, pilot observations, energy-symbol phases,
    then mu tau_d |sum_il sqrt(p_il) ghat_il^H g_kl s_il|^2 for each k.
    """
    K, L = p.shape
    total = np.zeros(K)
    total_sq = np.zeros(K)
    done = 0
    while done < mc_samples:
        n = min(MC_BATCH, mc_samples - done)
        g = sample_realization(stats, rng, size=n)
        z = sample_pilot_observation(g, stats, cfg, rng)
        ghat = lmmse_estimate(z, stats, cfg)
        s = np.exp(2j * np.pi * rng.uniform(size=(n, K, L)))
        for k in range(K):
            inner = np.einsum("biln,bln->bil", ghat.conj(), g[:, k])
            r = np.einsum("bil,il,bil->b", inner, np.sqrt(p), s)
            y = cfg.mu * cfg.tau_d * np.abs(r) ** 2
            total[k] += y.sum()
            total_sq[k] += (y ** 2).sum()
        done += n
    mean = total / mc_samples
    return mean, np.sqrt((total_sq / mc_samples - mean ** 2) / mc_samples)


def test_oracle_matches_per_ue_reference():
    """One pass over the draws gives every UE's per-UE estimate."""
    cfg, stats = synthetic_stats(L=2, K=4, N=3, tau_p=2, seed=48)
    p = np.random.default_rng(6).uniform(0.2, 1.0, size=(4, 2))
    samples = 2 * MC_BATCH + 500   # a short last batch as well
    got = harvested_energy_oracle(p, stats, cfg, samples,
                                  np.random.default_rng(7))
    want = _per_ue_energy_reference(p, stats, cfg, samples,
                                    np.random.default_rng(7))
    np.testing.assert_allclose(got[0], want[0], rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(got[1], want[1], rtol=1e-12, atol=0.0)
