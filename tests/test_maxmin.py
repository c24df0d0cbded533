import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cfwpt.cli import build_drop
from cfwpt.config import load_config, with_overrides
from cfwpt.estimation import build_cache
from cfwpt.lp import lp_feasible
from cfwpt.maxmin import (
    build_feasibility_lp,
    energy_coefficient_table,
    fpc_baseline,
    optimal_lsfd,
    solve_maxmin,
    upper_bound_tmax,
)
from cfwpt.wit import lsfd_statistics, sinr, spectral_efficiency
from cfwpt.wpt import harvested_energy

from helpers import ap_transmit_powers, synthetic_stats

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _instance(seed=71, **kw):
    params = dict(L=2, K=3, N=2, tau_p=2)
    params.update(kw)
    cfg, stats = synthetic_stats(**params, seed=seed)
    cache = build_cache(stats, cfg)
    se = lsfd_statistics(cache, stats, cfg)
    return cfg, stats, cache, se


def test_energy_table_stacks_per_ue_gradients():
    """Row k is dE_k/dp, written out per UE from the cache: the
    matched-filter energy tr(Rhat_il R_kl), plus beam-alignment terms
    from the transmitters that share UE k's pilot."""
    cfg, stats, cache, se = _instance()
    table = energy_coefficient_table(se, cfg)
    assert table.shape == (3, 3, 2)
    rho_tau = cfg.rho_p * cfg.tau_p
    pilot_of = stats.pilot_of
    tr_m = np.einsum("ilaa->il", cache.psi_inv_r).real
    for k in range(3):
        base = np.einsum("ilab,lba->il", cache.Rhat, cache.R[k]).real
        quad = np.einsum("la,ilab,lb->il", stats.gbar[k].conj(),
                         cache.psi_inv_r, stats.gbar[k]).real
        bt = stats.beta[k] * tr_m
        copilot = (pilot_of == pilot_of[k])[:, None]
        want = cfg.mu * cfg.tau_d * (
            base + rho_tau ** 2 * copilot * (2.0 * bt * quad + bt ** 2))
        assert np.allclose(table[k], want, rtol=1e-12, atol=0.0)


def test_lp_layout():
    cfg, stats, cache, se = _instance()
    K, L = 3, 2
    a = np.ones((K, L), dtype=complex)
    table = energy_coefficient_table(se, cfg)
    lp = build_feasibility_lp(0.3, a, se, cache, table, cfg)
    assert lp.A.shape == (2 * K + L, K * L + K)
    assert lp.n == K * L + K
    # AP power rows touch only the p block, one column stride apart.
    for l in range(L):
        row = lp.A[K + l]
        assert np.allclose(row[l:K * L:L], cache.tr_rhat[:, l])
        assert np.all(row[K * L:] == 0.0)
        mask = np.ones(K * L, dtype=bool)
        mask[l:K * L:L] = False
        assert np.all(row[:K * L][mask] == 0.0)
    assert np.allclose(lp.b[K:K + L], cfg.rho_d)
    # Energy rows: tau_u on own eta, negated coefficients on p.
    for k in range(K):
        row = lp.A[K + L + k]
        assert row[K * L + k] == cfg.tau_u
        assert np.allclose(row[:K * L], -table[k].ravel())
    assert np.allclose(lp.b[K + L:], -cfg.tau_p * cfg.rho_p)


def test_lp_zero_target_needs_pilot_energy():
    """At t = 0 the SINR rows relax but pilots must still be paid for."""
    cfg, stats, cache, se = _instance()
    K, L = 3, 2
    a = np.ones((K, L), dtype=complex)
    table = energy_coefficient_table(se, cfg)
    lp = build_feasibility_lp(0.0, a, se, cache, table, cfg)
    assert np.all(lp.A[:K, :K * L] == 0.0)
    assert np.all(lp.b[:K] == 0.0)
    x = lp_feasible(lp)
    assert x is not None
    p = x[:K * L].reshape(K, L)
    earned = harvested_energy(p, table)
    spent = cfg.tau_u * x[K * L:] + cfg.tau_p * cfg.rho_p
    assert np.all(spent <= earned + 1e-9 * np.maximum(earned, 1.0))
    assert np.all(ap_transmit_powers(p, cache) <= cfg.rho_d + 1e-9)


def test_feasible_probe_certifies_target():
    """A feasible probe re-certifies at least its target after reweighting."""
    cfg, stats, cache, se = _instance(seed=72)
    K, L = 3, 2
    res = solve_maxmin(stats, cache, se, cfg, eps=1e-3)
    assert res.status == "solved" and res.t_star > 0.0
    t = 0.9 * res.t_star
    table = energy_coefficient_table(se, cfg)
    x = lp_feasible(build_feasibility_lp(t, res.weights, se, cache, table, cfg))
    assert x is not None, "solver's own optimum must stay feasible below t_star"
    eta = x[K * L:]
    a_new = optimal_lsfd(eta, se)
    worst = sinr(a_new, eta, se).min()
    assert worst >= t - 1e-6


def test_single_user_feasibility_threshold():
    cfg, stats, cache, se = _instance(seed=73, K=1, L=2, N=2, tau_p=1)
    bound = upper_bound_tmax(se, cache, stats, cfg)
    assert bound > 0.0
    table = energy_coefficient_table(se, cfg)
    p = cfg.rho_d / cache.tr_rhat[0]
    energy = harvested_energy(p[None, :], table)[0]
    eta = np.array([max(0.0, (energy - cfg.tau_p * cfg.rho_p) / cfg.tau_u)])
    a = optimal_lsfd(eta, se)
    below = build_feasibility_lp(0.95 * bound, a, se, cache, table, cfg)
    above = build_feasibility_lp(1.05 * bound, a, se, cache, table, cfg)
    assert lp_feasible(below) is not None
    assert lp_feasible(above) is None


def test_optimal_lsfd_zero_power_reduces_to_noise_whitening():
    cfg, stats, cache, se = _instance(seed=74)
    a = optimal_lsfd(np.zeros(3), se)
    assert np.allclose(a, se.b / se.D, atol=1e-12)
    assert np.all(sinr(a, np.zeros(3), se) == 0.0)


def _lsfd_residual(a, eta, se):
    """Relative residual of (sum_m eta_m C_km + diag D_k) a_k = b_k per UE."""
    m = np.einsum("m,kmlw->klw", eta, se.C) \
        + se.D[:, :, None] * np.eye(se.D.shape[1])
    lhs = np.einsum("klw,kw->kl", m, a)
    return np.linalg.norm(lhs - se.b, axis=1) / np.linalg.norm(se.b, axis=1)


@pytest.mark.parametrize("L", [1, 2, 8, 64])
def test_optimal_lsfd_residual(L):
    cfg, stats, cache, se = _instance(seed=90 + L, L=L, N=1)
    eta = np.random.default_rng(L).uniform(0.1, 1.0, size=3)
    assert np.all(_lsfd_residual(optimal_lsfd(eta, se), eta, se) <= 1e-10)


@given(st.integers(min_value=1, max_value=6),
       st.integers(min_value=1, max_value=5),
       st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=10_000))
def test_optimal_lsfd_residual_property(L, K, N, seed):
    """Every one of the K stacked systems is solved, whatever K, L."""
    cfg, stats, cache, se = _instance(seed=seed, L=L, K=K, N=N,
                                      tau_p=1 + seed % K)
    eta = np.random.default_rng(seed).uniform(0.0, 2.0, size=K)
    assert np.all(_lsfd_residual(optimal_lsfd(eta, se), eta, se) <= 1e-10)


def test_optimal_lsfd_rejects_not_positive_definite():
    cfg, stats, cache, se = _instance(seed=87)
    D = se.D.copy()
    D[1, 0] = -1e6
    with pytest.raises(np.linalg.LinAlgError):
        optimal_lsfd(np.full(3, 0.5), dataclasses.replace(se, D=D))


def test_optimal_lsfd_single_ap_is_positive_scalar():
    cfg, stats, cache, se = _instance(seed=75, L=1)
    a = optimal_lsfd(np.full(3, 0.5), se)
    assert a.shape == (3, 1)
    assert np.all(np.abs(a.imag) <= 1e-15 * np.abs(a.real))
    assert np.all(a.real > 0.0)


def test_optimal_lsfd_matches_rank_one_deflated_form():
    cfg, stats, cache, se = _instance(seed=76)
    eta = np.random.default_rng(0).uniform(0.1, 1.0, size=3)
    a = optimal_lsfd(eta, se)
    for k in range(3):
        m = np.einsum("m,mlw->lw", eta, se.C[k]) + np.diag(se.D[k])
        m_defl = m - eta[k] * np.outer(se.b[k], se.b[k].conj())
        alt = np.linalg.solve(m_defl, se.b[k].astype(complex))
        # Same direction (weights matter only up to complex scale) and
        # therefore the same SINR.
        lhs = np.abs(np.vdot(a[k], alt)) ** 2
        rhs = np.vdot(a[k], a[k]).real * np.vdot(alt, alt).real
        assert lhs == pytest.approx(rhs, rel=1e-8)
        a_alt = a.copy()
        a_alt[k] = alt
        assert sinr(a_alt, eta, se)[k] == pytest.approx(
            sinr(a, eta, se)[k], rel=1e-9)


def test_optimal_lsfd_dominates_random_weights():
    cfg, stats, cache, se = _instance(seed=77)
    rng = np.random.default_rng(1)
    eta = rng.uniform(0.1, 1.0, size=3)
    a = optimal_lsfd(eta, se)
    best = sinr(a, eta, se)[1]
    for _ in range(500):
        trial = a.copy()
        trial[1] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert sinr(trial, eta, se)[1] <= best * (1.0 + 1e-9)


def test_optimal_lsfd_stationarity():
    cfg, stats, cache, se = _instance(seed=78)
    rng = np.random.default_rng(2)
    eta = rng.uniform(0.1, 1.0, size=3)
    a = optimal_lsfd(eta, se)
    base = sinr(a, eta, se)[2]
    norm = np.linalg.norm(a[2])
    for _ in range(50):
        delta = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        delta *= 1e-3 * norm / np.linalg.norm(delta)
        trial = a.copy()
        trial[2] = a[2] + delta
        assert sinr(trial, eta, se)[2] <= base * (1.0 + 1e-5)


def test_upper_bound_zero_when_pilot_unaffordable():
    cfg, stats, cache, se = _instance(seed=79, rho_p=1e6)
    assert upper_bound_tmax(se, cache, stats, cfg) == 0.0
    res = solve_maxmin(stats, cache, se, cfg)
    assert res.status == "infeasible_at_zero"
    assert res.t_star == 0.0
    assert np.all(res.per_ue_se == 0.0)
    assert np.all(res.allocation.p == 0.0) and np.all(res.allocation.eta == 0.0)
    assert res.trace == ()


def _isolation_bound(se, cache, cfg):
    """The isolation bound written out UE by UE: UE k alone gets every
    AP's full budget (one-hot p), its weights come from its own linear
    solve, and its SINR is the scalar ratio of quadratic forms."""
    K, L = cache.tr_rhat.shape
    table = energy_coefficient_table(se, cfg)
    worst = np.inf
    for k in range(K):
        p = np.zeros((K, L))
        p[k] = cfg.rho_d / cache.tr_rhat[k]
        energy = np.sum(p * table[k])
        eta = max(0.0, (energy - cfg.tau_p * cfg.rho_p) / cfg.tau_u)
        m = eta * se.C[k, k] + np.diag(se.D[k])
        a = np.linalg.solve(m, se.b[k] + 0j)
        signal = eta * abs(np.vdot(a, se.b[k])) ** 2
        worst = min(worst, signal / (np.vdot(a, m @ a).real - signal))
    return worst


def test_upper_bound_matches_per_ue_isolation_bound():
    cfg, stats, cache, se = _instance(seed=88, K=5, L=3, N=2, tau_p=2)
    want = _isolation_bound(se, cache, cfg)
    assert want > 0.0
    assert upper_bound_tmax(se, cache, stats, cfg) == pytest.approx(want, rel=1e-12)


def test_upper_bound_matches_per_ue_isolation_bound_on_reference_drop():
    cfg, prop = load_config(CONFIGS / "reference.cfg")
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(0,)))
    stats, cache, se = build_drop(cfg, prop, rng)
    want = _isolation_bound(se, cache, cfg)
    assert want > 0.0
    assert upper_bound_tmax(se, cache, stats, cfg) == pytest.approx(want, rel=1e-12)


def test_upper_bound_monotone_in_ap_budget():
    cfg, stats, cache, se = _instance(seed=80)
    low = upper_bound_tmax(se, cache, stats, cfg)
    rich = with_overrides(cfg, rho_d=2.0 * cfg.rho_d)
    high = upper_bound_tmax(se, cache, stats, rich)
    assert high >= low - 1e-12


def test_solver_certificates_and_trace():
    cfg, stats, cache, se = _instance(seed=81)
    res = solve_maxmin(stats, cache, se, cfg, eps=1e-3)
    assert res.status == "solved"
    assert not res.cap_hit
    assert res.t_star > 0.0
    assert len(res.trace) >= 1
    # Certified levels never regress along the trace.
    levels = [e[2] for e in res.trace if e[2] is not None]
    assert all(y >= x for x, y in zip(levels, levels[1:]))
    for entry in res.trace:
        assert len(entry) == 3 and entry[0] >= 0.0
    # The reported optimum is the certified minimum SINR.
    assert res.t_star == pytest.approx(res.per_ue_sinr.min())
    assert np.allclose(res.per_ue_se,
                       spectral_efficiency(res.per_ue_sinr, cfg))
    # Hard constraints hold at the returned allocation.
    assert np.all(ap_transmit_powers(res.allocation.p, cache)
                  <= cfg.rho_d + 1e-9)
    table = energy_coefficient_table(se, cfg)
    earned = harvested_energy(res.allocation.p, table)
    spent = cfg.tau_u * res.allocation.eta + cfg.tau_p * cfg.rho_p
    assert np.all(spent <= earned + 1e-9 * np.maximum(earned, 1.0))
    # Weights are the optimal ones for the returned powers.
    redo = optimal_lsfd(res.allocation.eta, se)
    assert np.allclose(sinr(redo, res.allocation.eta, se), res.per_ue_sinr,
                       rtol=1e-9, atol=0.0)


def test_solver_beats_fixed_baseline():
    cfg, stats, cache, se = _instance(seed=82)
    res = solve_maxmin(stats, cache, se, cfg, eps=1e-4)
    fpc = fpc_baseline(stats, cache, se, cfg)
    assert res.per_ue_se.min() >= fpc.per_ue_se.min() - 1e-9


def test_solver_wide_eps_falls_back_to_zero_probe():
    """eps above the achievable SINR pins the answer inside [0, eps)."""
    cfg, stats, cache, se = _instance(seed=83)
    res = solve_maxmin(stats, cache, se, cfg, eps=1e9)
    assert res.status == "solved"
    assert res.trace[0][0] == 0.0 and res.trace[0][1] is True
    assert res.t_star >= 0.0


def test_solver_iteration_cap():
    cfg, stats, cache, se = _instance(seed=84)
    res = solve_maxmin(stats, cache, se, cfg, eps=1e-12, max_iters=1)
    assert res.cap_hit is True
    assert res.status == "solved"
    assert res.t_star >= 0.0


def test_fpc_baseline_uses_full_ap_budget():
    cfg, stats, cache, se = _instance(seed=85)
    fpc = fpc_baseline(stats, cache, se, cfg)
    assert np.allclose(ap_transmit_powers(fpc.allocation.p, cache),
                       cfg.rho_d, rtol=1e-12)
    assert fpc.status == "solved" and fpc.trace == ()
    assert np.all(fpc.allocation.p > 0.0)
    assert fpc.t_star == pytest.approx(fpc.per_ue_sinr.min())


def test_fpc_single_user_gets_everything():
    cfg, stats, cache, se = _instance(seed=86, K=1, tau_p=1)
    fpc = fpc_baseline(stats, cache, se, cfg)
    assert np.allclose(fpc.allocation.p, cfg.rho_d / cache.tr_rhat, rtol=1e-12)
