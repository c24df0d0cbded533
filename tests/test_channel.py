import numpy as np

from cfwpt.channel import sample_pilot_observation, sample_realization
from cfwpt.estimation import build_cache, lmmse_estimate

from helpers import rebuilt_psi, synthetic_stats


def test_realization_shapes():
    cfg, stats = synthetic_stats(L=2, K=3, N=4, tau_p=2, seed=31)
    real = sample_realization(stats, np.random.default_rng(0))
    assert real.g.shape == (3, 2, 4)
    assert real.theta.shape == (3, 2)
    batched = sample_realization(stats, np.random.default_rng(0), size=7)
    assert batched.g.shape == (7, 3, 2, 4)


def test_phase_range_and_determinism():
    cfg, stats = synthetic_stats(L=2, K=3, N=2, tau_p=2, seed=32)
    a = sample_realization(stats, np.random.default_rng(5), size=100)
    b = sample_realization(stats, np.random.default_rng(5), size=100)
    assert np.array_equal(a.g, b.g)
    assert a.theta.min() >= 0.0 and a.theta.max() < 2.0 * np.pi


def test_channel_moments_match_statistics():
    cfg, stats = synthetic_stats(L=1, K=2, N=2, tau_p=1, seed=33)
    n = 40_000
    real = sample_realization(stats, np.random.default_rng(6), size=n)
    # Random phase kills the mean even on LOS links.
    mean = real.g.mean(axis=0)
    assert np.abs(mean).max() < 0.05
    # Covariance of link (0, 0) approaches gbar gbar^H + beta I.
    g00 = real.g[:, 0, 0, :]
    emp = g00.conj()[:, :, None] * g00[:, None, :]
    emp = emp.mean(axis=0).conj()
    want = (stats.gbar[0, 0][:, None] * stats.gbar[0, 0][None, :].conj()
            + stats.beta[0, 0] * np.eye(2))
    assert np.abs(emp - want).max() < 0.1 * np.abs(want).max()


def test_copilot_observations_identical():
    cfg, stats = synthetic_stats(L=2, K=4, N=3, tau_p=2, seed=34)
    real = sample_realization(stats, np.random.default_rng(7), size=5)
    z = sample_pilot_observation(real, stats, cfg, np.random.default_rng(8))
    pilot_of = stats.plan.pilot_of
    for k in range(4):
        for i in np.flatnonzero(pilot_of == pilot_of[k]):
            assert np.array_equal(z[..., k, :, :], z[..., i, :, :])
    assert not np.allclose(z[..., 0, :, :], z[..., 1, :, :])


def test_observation_covariance_matches_psi():
    cfg, stats = synthetic_stats(L=1, K=3, N=2, tau_p=2, seed=36)
    cache = build_cache(stats, cfg)
    psi = rebuilt_psi(cache, stats, cfg)[0, 0]
    n = 40_000
    rng = np.random.default_rng(11)
    real = sample_realization(stats, rng, size=n)
    z = sample_pilot_observation(real, stats, cfg, rng)
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
    real = sample_realization(stats, rng, size=n)
    z = sample_pilot_observation(real, stats, cfg, rng)
    ghat = lmmse_estimate(z, cache, cfg)
    h = ghat[:, 1, 0, :]
    emp = (h[:, :, None] * h.conj()[:, None, :]).mean(axis=0)
    want = cache.Rhat[1, 0]
    assert np.abs(emp - want).max() < 0.05 * np.abs(want).max()
