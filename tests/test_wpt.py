import numpy as np
import pytest

from cfwpt.estimation import build_cache
from cfwpt.wit import lsfd_statistics
from cfwpt.wpt import (
    ap_transmit_powers,
    harvested_energy,
    harvested_energy_coefficients,
    harvested_energy_oracle,
)

from test_estimation import _scalar_setup
from helpers import synthetic_stats


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
    assert harvested_energy(0, p, coef) == pytest.approx(want)


def test_energy_linear_in_power():
    cfg, stats = synthetic_stats(L=2, K=4, N=3, tau_p=2, seed=41)
    cache, coef = _closed_forms(cfg, stats)
    rng = np.random.default_rng(0)
    p1 = rng.uniform(0.0, 1.0, size=(4, 2))
    p2 = rng.uniform(0.0, 1.0, size=(4, 2))
    for k in range(4):
        e1 = harvested_energy(k, p1, coef)
        e2 = harvested_energy(k, p2, coef)
        both = harvested_energy(k, p1 + 3.0 * p2, coef)
        assert both == pytest.approx(e1 + 3.0 * e2, rel=1e-12)
        assert e1 > 0.0


def test_coefficients_nonnegative_and_copilot_structure():
    cfg, stats = synthetic_stats(L=2, K=4, N=3, tau_p=2, seed=42)
    cache, table = _closed_forms(cfg, stats)
    pilot_of = stats.plan.pilot_of
    mu_tau = cfg.mu * cfg.tau_d
    assert table.shape == (4, 4, 2)
    for k in range(4):
        coeff = table[k]
        assert np.all(coeff > 0.0)
        base = mu_tau * np.einsum("ilab,lba->il", cache.Rhat, cache.R[k]).real
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
    base = mu_tau * np.einsum("ilab,lba->il", cache.Rhat, cache.R[k]).real
    others = [i for i in range(3) if i != k]
    assert np.allclose(coeff[others], base[others], rtol=1e-12)
    assert np.all(coeff[k] > base[k])


def test_ap_transmit_power_definition():
    cfg, stats = synthetic_stats(L=3, K=4, N=2, tau_p=2, seed=44)
    cache = build_cache(stats, cfg)
    p = np.random.default_rng(1).uniform(size=(4, 3))
    manual = [(p[:, l] * cache.tr_rhat[:, l]).sum() for l in range(3)]
    assert np.allclose(ap_transmit_powers(p, cache), manual)


def test_oracle_agrees_with_closed_form():
    cfg, stats = synthetic_stats(L=2, K=3, N=2, tau_p=2, seed=46)
    cache, coef = _closed_forms(cfg, stats)
    p = np.random.default_rng(2).uniform(0.2, 1.0, size=(3, 2))
    rng = np.random.default_rng(3)
    for k in range(3):
        closed = harvested_energy(k, p, coef)
        est, se = harvested_energy_oracle(k, p, cache, stats, cfg,
                                          mc_samples=30_000, rng=rng)
        assert abs(est - closed) <= 4.0 * se, (k, closed, est, se)


def test_oracle_zero_power_is_exact():
    cfg, stats = synthetic_stats(L=1, K=2, N=2, tau_p=1, seed=47)
    cache, coef = _closed_forms(cfg, stats)
    p = np.zeros((2, 1))
    est, se = harvested_energy_oracle(0, p, cache, stats, cfg,
                                      mc_samples=100, rng=np.random.default_rng(4))
    assert est == 0.0 and se == 0.0
    assert harvested_energy(0, p, coef) == 0.0
