import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cfwpt.config import ScenarioConfig
from cfwpt.estimation import build_cache, lmmse_estimate
from cfwpt.geometry import ChannelStatistics, assign_pilots

from helpers import direct_rhat, rebuilt_psi, synthetic_stats


def test_round_robin_assignment():
    cfg = ScenarioConfig(K=5, tau_p=2, tau_d=25, tau_u=173)
    assert assign_pilots(cfg).tolist() == [0, 1, 0, 1, 0]


def test_orthogonal_when_enough_pilots():
    cfg = ScenarioConfig(K=4, tau_p=5)
    assert assign_pilots(cfg).tolist() == [0, 1, 2, 3]


def _scalar_setup():
    """Single link with unit LOS and unit scattering: R = 2."""
    cfg = ScenarioConfig(L=1, K=1, N=1,
                         tau_p=1, tau_d=25, tau_u=174,
                         rho_p=1.0, sigma2=1.0)
    stats = ChannelStatistics(
        beta=np.array([[1.0]]),
        gbar=np.array([[[1.0 + 0.0j]]]),
        beta_tot=np.array([[2.0]]),
        pilot_of=assign_pilots(cfg),
    )
    return cfg, stats


def test_scalar_chain():
    cfg, stats = _scalar_setup()
    cache = build_cache(stats, cfg)
    assert cache.R[0, 0, 0, 0] == pytest.approx(2.0)
    assert cache.psi_inv_r[0, 0, 0, 0] == pytest.approx(2.0 / 3.0)   # Psi = 3
    assert cache.Rhat[0, 0, 0, 0] == pytest.approx(4.0 / 3.0)
    assert (cache.R - cache.Rhat)[0, 0, 0, 0] == pytest.approx(2.0 / 3.0)
    assert cache.tr_rhat[0, 0] == pytest.approx(4.0 / 3.0)
    z = np.full((1, 1, 1), 3.0 + 0.0j)
    ghat = lmmse_estimate(z, cache, cfg)
    assert ghat[0, 0, 0] == pytest.approx(2.0)


def test_estimate_linearity():
    cfg, stats = synthetic_stats(L=2, K=3, N=2, tau_p=2, seed=21)
    cache = build_cache(stats, cfg)
    rng = np.random.default_rng(0)
    z1 = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
    z2 = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
    lhs = lmmse_estimate(z1 + 2.0 * z2, cache, cfg)
    rhs = lmmse_estimate(z1, cache, cfg) + 2.0 * lmmse_estimate(z2, cache, cfg)
    assert np.allclose(lhs, rhs)


def test_estimate_batch_axis():
    cfg, stats = synthetic_stats(L=2, K=3, N=2, tau_p=2, seed=22)
    cache = build_cache(stats, cfg)
    rng = np.random.default_rng(1)
    z = rng.standard_normal((5, 3, 2, 2)) + 1j * rng.standard_normal((5, 3, 2, 2))
    batched = lmmse_estimate(z, cache, cfg)
    assert batched.shape == (5, 3, 2, 2)
    assert np.allclose(batched[2], lmmse_estimate(z[2], cache, cfg))


def test_estimate_matches_direct_formula():
    cfg, stats = synthetic_stats(L=2, K=4, N=3, tau_p=2, seed=23)
    cache = build_cache(stats, cfg)
    rng = np.random.default_rng(2)
    z = rng.standard_normal((4, 2, 3)) + 1j * rng.standard_normal((4, 2, 3))
    ghat = lmmse_estimate(z, cache, cfg)
    scale = np.sqrt(cfg.rho_p * cfg.tau_p)
    psi = rebuilt_psi(cache, stats, cfg)
    for k in range(4):
        for l in range(2):
            direct = scale * cache.R[k, l] @ np.linalg.solve(psi[k, l], z[k, l])
            assert np.allclose(ghat[k, l], direct, atol=1e-12)


def test_cache_decomposition_and_symmetry():
    cfg, stats = synthetic_stats(L=3, K=5, N=4, tau_p=2, seed=24)
    cache = build_cache(stats, cfg)
    assert np.allclose(cache.Rhat, direct_rhat(cache, stats, cfg), atol=1e-10)
    herm = lambda m: np.allclose(m, m.conj().swapaxes(-1, -2), atol=1e-12)
    assert herm(cache.R) and herm(cache.Rhat)
    assert np.all(cache.tr_rhat > 0)


def test_copilot_users_share_psi_exactly():
    """UEs 0 and 2 (pilot 0) and UE 1 (pilot 1) get identical link
    statistics, so Psi^-1 R can differ between them only through Psi."""
    cfg, stats = synthetic_stats(L=2, K=4, N=3, tau_p=2, seed=25)
    beta, gbar = stats.beta.copy(), stats.gbar.copy()
    beta[[1, 2]] = beta[0]
    gbar[[1, 2]] = gbar[0]
    stats = dataclasses.replace(stats, beta=beta, gbar=gbar)
    cache = build_cache(stats, cfg)
    assert np.array_equal(cache.psi_inv_r[0], cache.psi_inv_r[2])
    assert not np.allclose(cache.psi_inv_r[0], cache.psi_inv_r[1]), \
        "different pilots should see different observation covariances"


def test_psi_includes_all_copilot_covariances():
    cfg, stats = synthetic_stats(L=2, K=4, N=2, tau_p=2, seed=26)
    cache = build_cache(stats, cfg)
    rho_tau = cfg.rho_p * cfg.tau_p
    k = 0
    expected = cfg.sigma2 * np.eye(2) + rho_tau * (cache.R[0] + cache.R[2])
    # The cached Psi^-1 R must invert exactly this Psi.
    assert np.allclose(expected @ cache.psi_inv_r[k], cache.R[k], atol=1e-12)


def test_error_covariance_psd():
    cfg, stats = synthetic_stats(L=2, K=6, N=4, tau_p=3, seed=27)
    cache = build_cache(stats, cfg)
    for k in range(6):
        for l in range(2):
            w = np.linalg.eigvalsh(cache.R[k, l] - cache.Rhat[k, l])
            assert w.min() >= -1e-10 * max(w.max(), 1.0)


def test_build_cache_rejects_not_positive_definite():
    """A negative scattering power makes one Psi indefinite; the stacked
    Cholesky factorization must fail loudly."""
    cfg, stats = synthetic_stats(L=2, K=3, N=2, tau_p=2, seed=28)
    beta = stats.beta.copy()
    beta[1, 0] = -1e3
    with pytest.raises(np.linalg.LinAlgError):
        build_cache(dataclasses.replace(stats, beta=beta), cfg)


@given(st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=5),
       st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=1000))
def test_cache_identity_property(L, K, N, seed):
    tau_p = 1 + seed % min(K, 3)
    cfg, stats = synthetic_stats(L=L, K=K, N=N, tau_p=tau_p, seed=seed)
    cache = build_cache(stats, cfg)
    scale = np.abs(cache.R).max()
    assert np.allclose(cache.Rhat, direct_rhat(cache, stats, cfg),
                       rtol=0.0, atol=1e-10 * scale)
    assert np.all(cache.tr_rhat > 0)
