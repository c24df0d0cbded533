import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cfwpt.cli import _setup_rng
from cfwpt.config import ScenarioConfig, load_config
from cfwpt.estimation import build_cache, lmmse_estimate
from cfwpt.geometry import (
    ChannelStatistics,
    assign_pilots,
    draw_link_statistics,
    place_network,
)
from cfwpt.wit import lsfd_statistics

from helpers import (
    dense_cache,
    dense_covariance,
    dense_lsfd,
    direct_rhat,
    einsum_lmmse_estimate,
    pilot_layouts,
    rebuilt_psi,
    synthetic_stats,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


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
        pilot_of=assign_pilots(cfg),
    )
    return cfg, stats


def test_scalar_chain():
    cfg, stats = _scalar_setup()
    cache = build_cache(stats, cfg)
    R = dense_covariance(stats)
    assert R[0, 0, 0, 0] == pytest.approx(2.0)
    # Psi = 3: gbar^H Psi^-1 gbar = tr(Psi^-1) = 1/3.
    assert cache.gram[0, 0, 0] == pytest.approx(1.0)
    assert cache.cross[0, 0, 0] == pytest.approx(1.0 / 3.0)
    assert cache.own[0, 0, 0] == pytest.approx(1.0 / 3.0)
    assert cache.tr_psi_inv[0, 0] == pytest.approx(1.0 / 3.0)
    assert cache.Rhat[0, 0, 0, 0] == pytest.approx(4.0 / 3.0)
    assert (R - cache.Rhat)[0, 0, 0, 0] == pytest.approx(2.0 / 3.0)
    assert cache.tr_rhat[0, 0] == pytest.approx(4.0 / 3.0)
    z = np.full((1, 1, 1, 1), 3.0 + 0.0j)
    ghat = lmmse_estimate(z, stats, cfg)
    assert ghat[0, 0, 0, 0] == pytest.approx(2.0)


def test_estimate_linearity():
    cfg, stats = synthetic_stats(L=2, K=3, N=2, tau_p=2, seed=21)
    rng = np.random.default_rng(0)
    shape = (3, 2, 2, 1)
    z1 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    z2 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    lhs = lmmse_estimate(z1 + 2.0 * z2, stats, cfg)
    rhs = lmmse_estimate(z1, stats, cfg) + 2.0 * lmmse_estimate(z2, stats, cfg)
    assert np.allclose(lhs, rhs)


def test_estimate_batch_axis():
    cfg, stats = synthetic_stats(L=2, K=3, N=2, tau_p=2, seed=22)
    rng = np.random.default_rng(1)
    z = rng.standard_normal((3, 2, 2, 5)) + 1j * rng.standard_normal((3, 2, 2, 5))
    batched = lmmse_estimate(z, stats, cfg)
    assert batched.shape == (3, 2, 2, 5)
    assert np.allclose(batched[..., 2:3], lmmse_estimate(z[..., 2:3], stats, cfg))


def test_estimate_matches_batch_first_einsum():
    """A C-ordered (K, L, N, batch) z against the batch-first einsum."""
    cfg, stats = synthetic_stats(L=2, K=5, N=3, tau_p=2, seed=24)
    rng = np.random.default_rng(3)
    z = rng.standard_normal((5, 2, 3, 24)) \
        + 1j * rng.standard_normal((5, 2, 3, 24))
    ghat = lmmse_estimate(z, stats, cfg)
    assert ghat.shape == z.shape
    want = einsum_lmmse_estimate(np.moveaxis(z, -1, 0), stats, cfg)
    np.testing.assert_allclose(ghat, np.moveaxis(want, 0, -1),
                               rtol=1e-12, atol=0)


def test_estimate_matches_direct_formula():
    cfg, stats = synthetic_stats(L=2, K=4, N=3, tau_p=2, seed=23)
    rng = np.random.default_rng(2)
    shape = (4, 2, 3, 1)
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ghat = lmmse_estimate(z, stats, cfg)
    scale = np.sqrt(cfg.rho_p * cfg.tau_p)
    R = dense_covariance(stats)
    psi = rebuilt_psi(stats, cfg)
    for k in range(4):
        for l in range(2):
            direct = scale * R[k, l] @ np.linalg.solve(psi[k, l], z[k, l])
            assert np.allclose(ghat[k, l], direct, atol=1e-12)


def test_cache_decomposition_and_symmetry():
    cfg, stats = synthetic_stats(L=3, K=5, N=4, tau_p=2, seed=24)
    cache = build_cache(stats, cfg)
    assert np.allclose(cache.Rhat, direct_rhat(stats, cfg), atol=1e-10)
    herm = lambda m: np.allclose(m, m.conj().swapaxes(-1, -2), atol=1e-12)
    assert herm(dense_covariance(stats)) and herm(cache.Rhat)
    assert np.all(cache.tr_rhat > 0)


def test_copilot_users_share_psi_exactly():
    """UEs 0 and 2 (pilot 0) and UE 1 (pilot 1) get identical link
    statistics, so their factors can differ only through Psi: co-pilot
    users read the very same per-pilot tr(Psi^-1) and diag(Gbar^H
    Psi^-1 Gbar)."""
    cfg, stats = synthetic_stats(L=2, K=4, N=3, tau_p=2, seed=25)
    beta, gbar = stats.beta.copy(), stats.gbar.copy()
    beta[[1, 2]] = beta[0]
    gbar[[1, 2]] = gbar[0]
    stats = dataclasses.replace(stats, beta=beta, gbar=gbar)
    cache = build_cache(stats, cfg)
    assert np.array_equal(cache.tr_psi_inv[0], cache.tr_psi_inv[2])
    assert np.array_equal(cache.own[0], cache.own[2])
    assert np.allclose(cache.cross[0], cache.cross[2], rtol=1e-12, atol=0.0)
    assert not np.allclose(cache.tr_psi_inv[0], cache.tr_psi_inv[1]), \
        "different pilots should see different observation covariances"


def test_psi_includes_all_copilot_covariances():
    cfg, stats = synthetic_stats(L=2, K=4, N=2, tau_p=2, seed=26)
    cache = build_cache(stats, cfg)
    rho_tau = cfg.rho_p * cfg.tau_p
    k = 0
    R = dense_covariance(stats)
    expected = cfg.sigma2 * np.eye(2) + rho_tau * (R[0] + R[2])
    # The cached factors of UE k must invert exactly this Psi.
    inv = np.linalg.inv(expected)
    want = np.einsum("mla,lab,lb->ml", stats.gbar.conj(), inv, stats.gbar[k])
    assert np.allclose(cache.cross[k], want, atol=1e-12)
    assert np.allclose(cache.tr_psi_inv[k],
                       np.einsum("laa->l", inv).real, atol=1e-12)


def test_error_covariance_psd():
    cfg, stats = synthetic_stats(L=2, K=6, N=4, tau_p=3, seed=27)
    cache = build_cache(stats, cfg)
    R = dense_covariance(stats)
    for k in range(6):
        for l in range(2):
            w = np.linalg.eigvalsh(R[k, l] - cache.Rhat[k, l])
            assert w.min() >= -1e-10 * max(w.max(), 1.0)


@pytest.mark.parametrize("layout", list(pilot_layouts()))
def test_cache_matches_dense_oracle_on_every_pilot_layout(layout):
    """The per-pilot blocks, ghost padding included, give every cache
    field of the N x N oracle."""
    cfg, stats = pilot_layouts()[layout]
    cache = build_cache(stats, cfg)
    for name, want in dense_cache(stats, cfg).items():
        gap = np.max(np.abs(getattr(cache, name) - want))
        assert gap <= 1e-10 * np.max(np.abs(want)), name


def test_large_network_cross_matches_dense_oracle_per_slice():
    """Drop 2 of configs/large_network.cfg at seed 1 (L = 64, K = 40):
    every slice cross[k, :, l] matches the N x N oracle to 1e-12 of its
    largest entry.  Its smallest entries sit far below that scale, for
    example cross[22, 23, 38] at 7e-7 of its slice's largest, so their
    own relative error reflects rounding at the slice's scale."""
    cfg, prop = load_config(CONFIGS / "large_network.cfg")
    rng, _ = _setup_rng(1, 2)
    stats = draw_link_statistics(place_network(cfg, rng), prop, cfg, rng)
    cross = build_cache(stats, cfg).cross
    want = dense_cache(stats, cfg)["cross"]
    scale = np.abs(want).max(axis=1, keepdims=True)
    assert np.abs(want[22, 23, 38]) < 1e-6 * scale[22, 0, 38]
    assert np.all(np.abs(cross - want) <= 1e-12 * scale)


def test_build_cache_rejects_not_positive_definite():
    """A negative scattering power makes one Psi's scaled identity part
    c = sigma^2 + rho_p tau_p sum beta negative; the cache must fail
    loudly."""
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
    scale = np.abs(dense_covariance(stats)).max()
    assert np.allclose(cache.Rhat, direct_rhat(stats, cfg),
                       rtol=0.0, atol=1e-10 * scale)
    assert np.all(cache.tr_rhat > 0)


def test_cache_size_independent_of_antennas():
    """The Gram factors hold no N axis: a 64-antenna cache is as large
    as a 2-antenna one."""
    def cache_bytes(N):
        cfg, stats = synthetic_stats(L=3, K=5, N=N, tau_p=2, seed=29)
        cache = build_cache(stats, cfg)
        return sum(v.nbytes for v in vars(cache).values()
                   if isinstance(v, np.ndarray))
    assert cache_bytes(2) == cache_bytes(64)


def _reference_drops(seed=1, setups=8):
    cfg, prop = load_config(CONFIGS / "reference.cfg")
    for i in range(setups):
        rng, _ = _setup_rng(seed, i)
        yield cfg, draw_link_statistics(place_network(cfg, rng), prop, cfg, rng)


def test_gram_closed_forms_match_dense_reference():
    """b, C, D and tr(Rhat) from the Gram factors against dense N x N
    algebra, on the reference drop (seed 1, 8 setups) whose
    rho_p tau_p ||gbar||^2 / c is largest, where Woodbury cancels most."""
    def worst_ratio(cfg, stats):
        member = np.arange(cfg.tau_p)[:, None] == stats.pilot_of
        c = cfg.sigma2 + cfg.rho_p * cfg.tau_p * (member @ stats.beta)
        norm2 = np.sum(np.abs(stats.gbar) ** 2, axis=-1)
        return np.max(cfg.rho_p * cfg.tau_p * norm2 / c[stats.pilot_of])

    cfg, stats = max(_reference_drops(), key=lambda d: worst_ratio(*d))
    assert worst_ratio(cfg, stats) > 100.0
    cache = build_cache(stats, cfg)
    se = lsfd_statistics(cache, stats, cfg)
    b, C, D = dense_lsfd(stats, cfg)
    tr_rhat = np.einsum("klaa->kl", direct_rhat(stats, cfg)).real
    for got, want in ((se.b, b), (se.C, C), (se.D, D),
                      (cache.tr_rhat, tr_rhat)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
