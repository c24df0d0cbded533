import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from cfwpt.channel import MC_BATCH, draw_estimates, mean_and_stderr
from cfwpt.estimation import build_cache
from cfwpt.wit import (SEStatistics, lsfd_statistics, se_statistics_oracle,
                       se_sums, sinr, sinr_terms, spectral_efficiency)

from test_estimation import _scalar_setup
from helpers import (
    dense_covariance,
    dense_psi_inv_r,
    einsum_se_oracle,
    synthetic_stats,
    written_out_draws,
)


def _instance(seed=51, **kw):
    params = dict(L=2, K=4, N=3, tau_p=2)
    params.update(kw)
    cfg, stats = synthetic_stats(**params, seed=seed)
    cache = build_cache(stats, cfg)
    se = lsfd_statistics(cache, stats, cfg)
    return cfg, stats, cache, se


def test_scalar_statistics():
    cfg, stats = _scalar_setup()
    cache = build_cache(stats, cfg)
    se = lsfd_statistics(cache, stats, cfg)
    assert se.b[0, 0] == pytest.approx(4.0 / 3.0)
    assert se.D[0, 0] == pytest.approx(cfg.sigma2 * 4.0 / 3.0)
    # Single user, single AP: C is the second moment of ghat^H g.
    # E|ghat^H g|^2 = tr(Rhat R) + rho tau (2 beta T Re q + beta^2 T^2)
    # with T = q = 2/3: 8/3 + 8/9 + 4/9 = 4.
    assert se.C[0, 0, 0, 0] == pytest.approx(4.0)


def test_b_equals_trace_of_rhat():
    """Signal mean coincides with tr(Rhat): both are rho tau tr(Psi^-1 R R)."""
    cfg, stats, cache, se = _instance(seed=52)
    assert np.allclose(se.b, cache.tr_rhat, rtol=1e-10)
    rho_tau = cfg.rho_p * cfg.tau_p
    m_mat, R = dense_psi_inv_r(stats, cfg), dense_covariance(stats)
    direct = np.empty_like(se.b)
    for k in range(cfg.K):
        for l in range(cfg.L):
            direct[k, l] = rho_tau * np.trace(m_mat[k, l] @ R[k, l]).real
    assert np.allclose(se.b, direct, rtol=1e-10)


def test_statistics_size_linear_in_aps():
    """No stored array has two AP axes: quadrupling L quadruples the bytes."""
    def nbytes(L):
        se = _instance(L=L, K=5, N=3, tau_p=2)[3]
        return sum(getattr(se, f.name).nbytes for f in fields(se))
    assert nbytes(16) == 4 * nbytes(4)


def test_c_hermitian_and_psd_on_diagonal_block():
    cfg, stats, cache, se = _instance(seed=53)
    for k in range(cfg.K):
        for m in range(cfg.K):
            blk = se.C[k, m]
            assert np.allclose(blk, blk.conj().T, atol=1e-12)
        w = np.linalg.eigvalsh(se.C[k, k])
        assert w.min() >= -1e-10 * w.max()


def test_noncopilot_cross_ap_terms_vanish():
    cfg, stats, cache, se = _instance(seed=54)
    pilot_of = stats.pilot_of
    off = ~np.eye(cfg.L, dtype=bool)
    for k in range(cfg.K):
        for m in range(cfg.K):
            if pilot_of[k] != pilot_of[m]:
                assert np.all(se.C[k, m][off] == 0.0)


def test_d_is_noise_weighted_estimate_energy():
    cfg, stats, cache, se = _instance(seed=55)
    assert np.allclose(se.D, cfg.sigma2 * cache.tr_rhat, rtol=1e-12)


def test_diagonal_dominates_signal():
    """Var{.} >= 0: the self block minus b b^H must stay PSD."""
    cfg, stats, cache, se = _instance(seed=56)
    for k in range(cfg.K):
        m = se.C[k, k] - np.outer(se.b[k], se.b[k].conj())
        w = np.linalg.eigvalsh(m)
        assert w.min() >= -1e-9 * max(w.max(), 1.0)


def test_sinr_scale_invariant_in_weights():
    cfg, stats, cache, se = _instance(seed=57)
    rng = np.random.default_rng(0)
    a = rng.standard_normal((cfg.K, cfg.L)) + 1j * rng.standard_normal((cfg.K, cfg.L))
    eta = rng.uniform(0.1, 1.0, size=cfg.K)
    base = sinr(sinr_terms(a, se), eta)
    scaled = sinr(sinr_terms(a * (3.0 - 4.0j), se), eta)
    assert base.shape == (cfg.K,)
    assert np.allclose(scaled, base, rtol=1e-12, atol=0.0)
    assert np.all(base > 0.0)


def test_sinr_matches_per_ue_quadratic_forms():
    """Row k of the stacked SINR is UE k's ratio of quadratic forms."""
    cfg, stats, cache, se = _instance(seed=62)
    rng = np.random.default_rng(3)
    a = rng.standard_normal((cfg.K, cfg.L)) + 1j * rng.standard_normal((cfg.K, cfg.L))
    eta = rng.uniform(0.1, 1.0, size=cfg.K)
    got = sinr(sinr_terms(a, se), eta)
    for k in range(cfg.K):
        interference = sum(eta[m] * se.C[k, m] for m in range(cfg.K))
        signal = eta[k] * abs(np.vdot(a[k], se.b[k])) ** 2
        total = np.vdot(a[k], interference @ a[k]).real \
            + np.sum(np.abs(a[k]) ** 2 * se.D[k])
        assert got[k] == pytest.approx(signal / (total - signal), rel=1e-12)


def test_sinr_zero_power():
    cfg, stats, cache, se = _instance(seed=58)
    a = np.ones((cfg.K, cfg.L), dtype=complex)
    eta = np.ones(cfg.K)
    eta[1] = 0.0
    assert sinr(sinr_terms(a, se), eta)[1] == 0.0


def test_sinr_rejects_nonpositive_denominator():
    cfg, stats, cache, se = _instance(seed=59)
    bad = SEStatistics(b=se.b, second=0.0 * se.second, u=0.0 * se.u,
                       D=0.0 * se.D)
    a = np.ones((cfg.K, cfg.L), dtype=complex)
    with pytest.raises(ValueError, match="denominator"):
        sinr(sinr_terms(a, bad), np.ones(cfg.K))


def test_spectral_efficiency_prelog():
    cfg, stats, cache, se = _instance(seed=60)
    assert spectral_efficiency(1.0, cfg) == pytest.approx(cfg.tau_u / cfg.tau_c)
    assert spectral_efficiency(0.0, cfg) == 0.0
    arr = spectral_efficiency(np.array([0.0, 3.0]), cfg)
    assert arr.shape == (2,)
    assert arr[1] == pytest.approx(2.0 * cfg.tau_u / cfg.tau_c)


def test_monte_carlo_oracle_agrees():
    cfg, stats, cache, se = _instance(seed=61, L=2, K=3, N=2)
    est = se_statistics_oracle(stats, cfg,
                               mc_samples=40_000, rng=np.random.default_rng(1))
    for name, closed, mean, err in (
        ("b", se.b.astype(complex), est.b, est.b_se),
        ("C", se.C, est.C, est.C_se),
        ("D", se.D.astype(complex), est.D.astype(complex), est.D_se),
    ):
        diff = np.abs(mean - closed)
        ok = diff <= 4.0 * err + 1e-12
        assert ok.all(), (name, diff.max(), err.max())


def test_oracle_c_moments_match_explicit_products():
    """C's batched sums equal the explicit (batch, K, K, L, L) products."""
    cfg, stats, cache, se = _instance(seed=62, L=3, K=3, N=2)
    samples = MC_BATCH + 700
    est = se_statistics_oracle(stats, cfg, samples,
                               np.random.default_rng(8))
    c_sum = 0.0
    c_sq = 0.0
    for g, ghat in draw_estimates(stats, cfg, samples,
                                  np.random.default_rng(8)):
        x = np.einsum("klnb,mlnb->bkml", ghat.conj(), g)
        v = x[:, :, :, :, None] * x[:, :, :, None, :].conj()
        c_sum += v.sum(axis=0)
        c_sq += (np.abs(v) ** 2).sum(axis=0)
    mean, err = mean_and_stderr(c_sum, c_sq, samples)
    np.testing.assert_allclose(est.C, mean, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(est.C_se, err, rtol=1e-12, atol=0.0)


def test_oracle_matches_batch_first_einsum_reference():
    """The batch-last contractions equal the batch-first einsum sums on
    the same draws, with pilot sharing, N = 3 and a short last batch."""
    cfg, stats, cache, se = _instance(seed=63, L=2, K=5, N=3)
    samples = MC_BATCH + 700
    est = se_statistics_oracle(stats, cfg, samples, np.random.default_rng(9))
    want = einsum_se_oracle(stats, cfg, samples, np.random.default_rng(9))
    got = (est.b, est.b_se, est.C, est.C_se, est.D, est.D_se)
    for name, mine, ref in zip(("b", "b_se", "C", "C_se", "D", "D_se"),
                               got, want):
        np.testing.assert_allclose(mine, ref, rtol=1e-12, atol=0, err_msg=name)


def _broadcast_se_sums(cfg, g, ghat_c):
    """se_sums' block as one (K, K, L, batch) broadcast over all UE pairs,
    with the same per-element operations and per-matrix products."""
    xt = ghat_c[:, None, :, 0] * g[None, :, :, 0]
    for n in range(1, g.shape[2]):
        xt += ghat_c[:, None, :, n] * g[None, :, :, n]
    y_b = np.diagonal(xt).transpose(2, 0, 1)
    y_d = cfg.sigma2 * (ghat_c.real ** 2 + ghat_c.imag ** 2).sum(axis=2)
    x_sq = np.abs(xt) ** 2
    return [(y_b.sum(axis=-1), (np.abs(y_b) ** 2).sum(axis=-1)),
            (xt @ xt.conj().swapaxes(-1, -2), x_sq @ x_sq.swapaxes(-1, -2)),
            (y_d.sum(axis=-1), (y_d ** 2).sum(axis=-1))]


def test_se_sums_bitwise_equal_to_broadcast_block():
    """The per-UE rows give exactly the broadcast block's sums on every
    batch, with pilot sharing, K > N and a short last batch; each batch
    is the written-out draws."""
    cfg, stats, cache, se = _instance(seed=64, L=2, K=5, N=3)
    block = se_sums(cfg)
    ref = np.random.default_rng(10)
    sizes = []
    for g, ghat in draw_estimates(stats, cfg, 4 * MC_BATCH + 700,
                                  np.random.default_rng(10)):
        ghat_c = ghat.conj()
        sizes.append(g.shape[-1])
        for got, want in zip(block(g, ghat_c, None),
                             _broadcast_se_sums(cfg, g, ghat_c)):
            for mine, ref_sum in zip(got, want):
                assert mine.dtype == ref_sum.dtype
                assert np.array_equal(mine, ref_sum)
        want_g, _ = written_out_draws(stats, cfg, g.shape[-1], ref)
        assert np.array_equal(g, np.moveaxis(want_g, 0, -1))
    assert sizes == [MC_BATCH] * 4 + [700]


def test_se_sums_memory_independent_of_ue_pairs():
    """One block allocates less than 3 batch-sized draw arrays at K = 12,
    N = 2: no (K, K, L, batch) array, which alone would be K / N = 6 of
    them.  The batch is the first MC_BATCH written-out draws."""
    cfg, stats = synthetic_stats(L=2, K=12, N=2, tau_p=4, seed=65)
    g, ghat = next(draw_estimates(stats, cfg, 4 * MC_BATCH,
                                  np.random.default_rng(11)))
    want, _ = written_out_draws(stats, cfg, MC_BATCH, np.random.default_rng(11))
    assert g.shape[-1] == MC_BATCH
    assert np.array_equal(g, np.moveaxis(want, 0, -1))
    ghat_c = ghat.conj()
    block = se_sums(cfg)
    tracemalloc.start()
    try:
        block(g, ghat_c, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * g.nbytes, peak / g.nbytes
