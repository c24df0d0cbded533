import numpy as np

from cfwpt.channel import (
    MC_BATCH,
    draw_estimates,
    mean_and_stderr,
    sample_pilot_observation,
    sample_realization,
)
from cfwpt.estimation import build_cache, lmmse_estimate

from helpers import rebuilt_psi, synthetic_stats


def test_realization_shapes():
    cfg, stats = synthetic_stats(L=2, K=3, N=4, tau_p=2, seed=31)
    g = sample_realization(stats, np.random.default_rng(0))
    assert g.shape == (3, 2, 4)
    batched = sample_realization(stats, np.random.default_rng(0), size=7)
    assert batched.shape == (7, 3, 2, 4)


def test_phase_range_and_determinism():
    cfg, stats = synthetic_stats(L=2, K=3, N=2, tau_p=2, seed=32)
    a = sample_realization(stats, np.random.default_rng(5), size=100)
    b = sample_realization(stats, np.random.default_rng(5), size=100)
    assert np.array_equal(a, b)


def test_channel_moments_match_statistics():
    cfg, stats = synthetic_stats(L=1, K=2, N=2, tau_p=1, seed=33)
    n = 40_000
    g = sample_realization(stats, np.random.default_rng(6), size=n)
    # Random phase kills the mean even on LOS links.
    mean = g.mean(axis=0)
    assert np.abs(mean).max() < 0.05
    # Covariance of link (0, 0) approaches gbar gbar^H + beta I.
    g00 = g[:, 0, 0, :]
    emp = g00.conj()[:, :, None] * g00[:, None, :]
    emp = emp.mean(axis=0).conj()
    want = (stats.gbar[0, 0][:, None] * stats.gbar[0, 0][None, :].conj()
            + stats.beta[0, 0] * np.eye(2))
    assert np.abs(emp - want).max() < 0.1 * np.abs(want).max()


def test_copilot_observations_identical():
    cfg, stats = synthetic_stats(L=2, K=4, N=3, tau_p=2, seed=34)
    g = sample_realization(stats, np.random.default_rng(7), size=5)
    z = sample_pilot_observation(g, stats, cfg, np.random.default_rng(8))
    pilot_of = stats.pilot_of
    for k in range(4):
        for i in np.flatnonzero(pilot_of == pilot_of[k]):
            assert np.array_equal(z[..., k, :, :], z[..., i, :, :])
    assert not np.allclose(z[..., 0, :, :], z[..., 1, :, :])


def test_observation_covariance_matches_psi():
    cfg, stats = synthetic_stats(L=1, K=3, N=2, tau_p=2, seed=36)
    psi = rebuilt_psi(stats, cfg)[0, 0]
    n = 40_000
    rng = np.random.default_rng(11)
    g = sample_realization(stats, rng, size=n)
    z = sample_pilot_observation(g, stats, cfg, rng)
    z0 = z[:, 0, 0, :]
    emp = (z0.conj()[:, :, None] * z0[:, None, :]).mean(axis=0).conj()
    assert np.abs(z0.mean(axis=0)).max() < 0.05 * np.sqrt(np.abs(psi).max())
    assert np.abs(emp - psi).max() < 0.05 * np.abs(psi).max()


def test_estimate_covariance_matches_rhat():
    """End-to-end: E{ghat ghat^H} from joint draws approaches Rhat."""
    cfg, stats = synthetic_stats(L=2, K=4, N=2, tau_p=2, seed=37)
    cache = build_cache(stats, cfg)
    n = 60_000
    rng = np.random.default_rng(12)
    g = sample_realization(stats, rng, size=n)
    z = sample_pilot_observation(g, stats, cfg, rng)
    ghat = lmmse_estimate(z, stats, cfg)
    h = ghat[:, 1, 0, :]
    emp = (h[:, :, None] * h.conj()[:, None, :]).mean(axis=0)
    want = cache.Rhat[1, 0]
    assert np.abs(emp - want).max() < 0.05 * np.abs(want).max()


def test_draw_estimates_batches_and_order():
    """Batches of MC_BATCH blocks plus a short last one, each drawn as
    realization, then pilot observation, then the LMMSE estimate."""
    cfg, stats = synthetic_stats(L=1, K=2, N=2, tau_p=1, seed=35)
    batches = list(draw_estimates(stats, cfg, MC_BATCH + 3,
                                  np.random.default_rng(9)))
    assert [g.shape[0] for g, _ in batches] == [MC_BATCH, 3]
    rng = np.random.default_rng(9)
    g = sample_realization(stats, rng, size=MC_BATCH)
    z = sample_pilot_observation(g, stats, cfg, rng)
    assert np.array_equal(batches[0][0], g)
    assert np.array_equal(batches[0][1], lmmse_estimate(z, stats, cfg))


def test_mean_and_stderr_total_variance():
    """Complex samples: the variance adds the real and imaginary parts."""
    y = np.array([1.0 + 1.0j, -1.0 + 1.0j, 1.0 - 1.0j, -1.0 - 1.0j])
    mean, err = mean_and_stderr(y.sum(), (np.abs(y) ** 2).sum(), y.size)
    assert mean == 0.0
    assert err == np.sqrt(2.0 / 4)
