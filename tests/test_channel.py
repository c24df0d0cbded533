import numpy as np
import pytest

from cfwpt.channel import (
    MC_BATCH,
    draw_estimates,
    mean_and_stderr,
    sample_pilot_observation,
    sample_realization,
)
from cfwpt.estimation import build_cache, lmmse_estimate
from cfwpt.wit import se_statistics_oracle
from cfwpt.wpt import harvested_energy_oracle

from helpers import einsum_lmmse_estimate, rebuilt_psi, synthetic_stats


def test_realization_shapes():
    cfg, stats = synthetic_stats(L=2, K=3, N=4, tau_p=2, seed=31)
    g = sample_realization(stats, np.random.default_rng(0), size=1)
    assert g.shape == (3, 2, 4, 1)
    batched = sample_realization(stats, np.random.default_rng(0), size=7)
    assert batched.shape == (3, 2, 4, 7)


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
    mean = g.mean(axis=-1)
    assert np.abs(mean).max() < 0.05
    # Covariance of link (0, 0) approaches gbar gbar^H + beta I.
    g00 = g[0, 0]
    emp = g00.conj()[:, None] * g00[None, :]
    emp = emp.mean(axis=-1).conj()
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
            assert np.array_equal(z[k], z[i])
    assert not np.allclose(z[0], z[1])


def test_observation_covariance_matches_psi():
    cfg, stats = synthetic_stats(L=1, K=3, N=2, tau_p=2, seed=36)
    psi = rebuilt_psi(stats, cfg)[0, 0]
    n = 40_000
    rng = np.random.default_rng(11)
    g = sample_realization(stats, rng, size=n)
    z = sample_pilot_observation(g, stats, cfg, rng)
    z0 = z[0, 0]
    emp = (z0.conj()[:, None] * z0[None, :]).mean(axis=-1).conj()
    assert np.abs(z0.mean(axis=-1)).max() < 0.05 * np.sqrt(np.abs(psi).max())
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
    h = ghat[1, 0]
    emp = (h[:, None] * h.conj()[None, :]).mean(axis=-1)
    want = cache.Rhat[1, 0]
    assert np.abs(emp - want).max() < 0.05 * np.abs(want).max()


def test_draw_estimates_batches_and_order():
    """Batches of MC_BATCH blocks plus a short last one, each drawn as
    realization, then pilot observation, then the LMMSE estimate."""
    cfg, stats = synthetic_stats(L=1, K=2, N=2, tau_p=1, seed=35)
    batches = list(draw_estimates(stats, cfg, MC_BATCH + 3,
                                  np.random.default_rng(9)))
    assert [g.shape[-1] for g, _ in batches] == [MC_BATCH, 3]
    rng = np.random.default_rng(9)
    g = sample_realization(stats, rng, size=MC_BATCH)
    z = sample_pilot_observation(g, stats, cfg, rng)
    assert np.array_equal(batches[0][0], g)
    assert np.array_equal(batches[0][1], lmmse_estimate(z, stats, cfg))


def _written_out_draws(stats, cfg, n, rng):
    """One batch of the draw stream, written out batch-first.

    The per-link phases, the scattering's real then imaginary normals,
    then the shared per-pilot noise, each drawn for a (n, ...) shape;
    returns the realizations g and the per-UE pilot observations z,
    both (n, K, L, N).
    """
    K, L, N = stats.gbar.shape
    theta = rng.uniform(0.0, 2.0 * np.pi, (n, K, L))
    shape = (n, K, L, N)
    scatter = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) \
        * np.sqrt(0.5)
    g = np.exp(1j * theta)[..., None] * stats.gbar \
        + scatter * np.sqrt(stats.beta)[..., None]
    shape = (n, cfg.tau_p, L, N)
    z = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) \
        * np.sqrt(0.5) * np.sqrt(cfg.sigma2)
    for t in range(cfg.tau_p):
        z[:, t] += np.sqrt(cfg.rho_p * cfg.tau_p) \
            * g[:, stats.pilot_of == t].sum(axis=1)
    return g, z[:, stats.pilot_of]


@pytest.mark.parametrize("size", [1, 7])
def test_draw_stream_matches_written_out_formula(size):
    """sample_realization and sample_pilot_observation give exactly the
    written-out draws, and leave the generator at the same point."""
    cfg, stats = synthetic_stats(L=2, K=5, N=3, tau_p=2, seed=38)
    rng, ref = np.random.default_rng(13), np.random.default_rng(13)
    g = sample_realization(stats, rng, size=size)
    z = sample_pilot_observation(g, stats, cfg, rng)
    want_g, want_z = _written_out_draws(stats, cfg, size, ref)
    assert np.array_equal(g, np.moveaxis(want_g, 0, -1))
    assert np.array_equal(z, np.moveaxis(want_z, 0, -1))
    assert rng.standard_normal() == ref.standard_normal()


def test_draw_estimates_stream_matches_written_out_formula():
    """Every batch of draw_estimates, the short last one too, holds the
    written-out draws, and its estimates match the batch-first einsum."""
    cfg, stats = synthetic_stats(L=2, K=5, N=3, tau_p=2, seed=39)
    ref = np.random.default_rng(14)
    sizes = []
    for g, ghat in draw_estimates(stats, cfg, MC_BATCH + 3,
                                  np.random.default_rng(14)):
        want_g, want_z = _written_out_draws(stats, cfg, g.shape[-1], ref)
        assert np.array_equal(g, np.moveaxis(want_g, 0, -1))
        want_ghat = einsum_lmmse_estimate(want_z, stats, cfg)
        np.testing.assert_allclose(ghat, np.moveaxis(want_ghat, 0, -1),
                                   rtol=1e-12, atol=0)
        sizes.append(g.shape[-1])
    assert sizes == [MC_BATCH, 3]


def test_mean_and_stderr_total_variance():
    """Complex samples: the variance adds the real and imaginary parts."""
    y = np.array([1.0 + 1.0j, -1.0 + 1.0j, 1.0 - 1.0j, -1.0 - 1.0j])
    mean, err = mean_and_stderr(y.sum(), (np.abs(y) ** 2).sum(), y.size)
    assert mean == 0.0
    assert err == np.sqrt(2.0 / 4)


@pytest.mark.parametrize("mc_samples", [0, 1])
def test_oracles_need_two_samples(mc_samples):
    """Fewer than two draws give no standard error: both standalone
    oracles raise a ValueError that names the count."""
    cfg, stats = synthetic_stats(L=2, K=3, N=2, tau_p=2, seed=40)
    p = np.ones((3, 2))
    with pytest.raises(ValueError, match=f"mc_samples = {mc_samples} "):
        harvested_energy_oracle(p, stats, cfg, mc_samples,
                                np.random.default_rng(15))
    with pytest.raises(ValueError, match=f"mc_samples = {mc_samples} "):
        se_statistics_oracle(stats, cfg, mc_samples, np.random.default_rng(15))
