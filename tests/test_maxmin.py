import dataclasses
import functools
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cfwpt.cli import _setup_rng, build_drop
from cfwpt.config import ScenarioConfig, load_config
from cfwpt.estimation import build_cache
from cfwpt.geometry import PropagationModel
from cfwpt.lp import FeasibilityLP, lp_feasible
from cfwpt import maxmin
from cfwpt.maxmin import (
    CUT_RTOL,
    ENERGY_MARGIN,
    build_feasibility_lp,
    energy_coefficient_table,
    fpc_baseline,
    minimum_uplink_powers,
    optimal_lsfd,
    solve_maxmin,
    upper_bound_tmax,
)
from cfwpt.wit import lsfd_statistics, sinr, sinr_terms, spectral_efficiency
from cfwpt.wpt import harvested_energy

from helpers import (
    ap_transmit_powers,
    dense_covariance,
    dense_psi_inv_r,
    direct_rhat,
    least_powers,
    oracle_feasible,
    sequential_bisection,
    synthetic_stats,
)

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"


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
    m_mat = dense_psi_inv_r(stats, cfg)
    R, rhat = dense_covariance(stats), direct_rhat(stats, cfg)
    tr_m = np.einsum("ilaa->il", m_mat).real
    for k in range(3):
        base = np.einsum("ilab,lba->il", rhat, R[k]).real
        quad = np.einsum("la,ilab,lb->il", stats.gbar[k].conj(),
                         m_mat, stats.gbar[k]).real
        bt = stats.beta[k] * tr_m
        copilot = (pilot_of == pilot_of[k])[:, None]
        want = cfg.mu * cfg.tau_d * (
            base + rho_tau ** 2 * copilot * (2.0 * bt * quad + bt ** 2))
        assert np.allclose(table[k], want, rtol=1e-12, atol=0.0)


def _posed_b(t, terms, cfg):
    """The b an _EnergyLP probe at t poses, or None if no uplink powers
    reach t: the negated energy need with its margin, then the unit AP
    budgets (test_lp_layout checks that the probe poses exactly this)."""
    eta = least_powers(t, terms)
    if eta is None:
        return None
    need = (1.0 + ENERGY_MARGIN) * (cfg.tau_p * cfg.rho_p + cfg.tau_u * eta)
    return np.concatenate([-need, np.ones(cfg.L)])


def test_lp_layout(monkeypatch):
    cfg, stats, cache, se = _instance()
    K, L = 3, 2
    table = energy_coefficient_table(se, cfg)
    A = build_feasibility_lp(cache, table, cfg)
    assert A.shape == (K + L, K * L)
    # Energy rows: dE_k/dq_il = coef[k, i, l] rho_d / tr(Rhat_il), negated.
    for k in range(K):
        want = table[k] * cfg.rho_d / cache.tr_rhat
        assert np.allclose(A[k], -want.ravel(), rtol=1e-14, atol=0.0)
    # AP rows: unit entries on AP l's shares only, one stride L apart.
    for l in range(L):
        row = A[K + l]
        assert np.all(row[l::L] == 1.0)
        mask = np.ones(K * L, dtype=bool)
        mask[l::L] = False
        assert np.all(row[mask] == 0.0)
    # Every probe poses these rows, against the negated need with its
    # margin and the unit AP budgets; only b depends on t.
    posed = []

    def spy(lp, b):
        posed.append((lp, b))
        return lp_feasible(lp, b)

    monkeypatch.setattr(maxmin, "lp_feasible", spy)
    energy_lp = maxmin._EnergyLP(cache, table, cfg)
    terms = sinr_terms(np.ones((K, L), dtype=complex), se)
    for t in (0.0, 1e-3, 2e-3):
        eta, = minimum_uplink_powers([t], terms)
        energy_lp.run([t], terms)
        lp, b = posed[-1]
        assert lp is energy_lp.lp
        assert np.array_equal(lp.A, A)
        need = cfg.tau_p * cfg.rho_p + cfg.tau_u * eta
        assert np.allclose(b[:K], -(1.0 + ENERGY_MARGIN) * need,
                           rtol=1e-15, atol=0.0)
        assert np.all(b[K:] == 1.0)
        assert np.array_equal(b, _posed_b(t, terms, cfg))
    assert len(posed) == 3


def test_lp_zero_target_needs_pilot_energy():
    """At t = 0 no uplink power is needed but pilots must still be paid."""
    cfg, stats, cache, se = _instance()
    terms = sinr_terms(np.ones((3, 2), dtype=complex), se)
    assert np.array_equal(minimum_uplink_powers([0.0], terms)[0], np.zeros(3))
    table = energy_coefficient_table(se, cfg)
    i, alloc = maxmin._EnergyLP(cache, table, cfg).run([0.0], terms)
    assert i == 0 and np.array_equal(alloc.eta, np.zeros(3))
    earned = harvested_energy(alloc.p, table)
    assert np.all(cfg.tau_p * cfg.rho_p <= earned * (1.0 + 1e-12))
    assert np.all(ap_transmit_powers(alloc.p, cache)
                  <= cfg.rho_d * (1.0 + 1e-9))


def test_feasible_probe_certifies_target():
    """A feasible probe re-certifies at least its target after reweighting."""
    cfg, stats, cache, se = _instance(seed=72)
    res = solve_maxmin(stats, cache, se, cfg, eps=1e-3)
    assert res.status == "solved" and res.t_star > 0.0
    t = 0.9 * res.t_star
    terms = sinr_terms(res.weights, se)
    eta, = minimum_uplink_powers([t], terms)
    assert eta is not None
    table = energy_coefficient_table(se, cfg)
    i, alloc = maxmin._EnergyLP(cache, table, cfg).run([t], terms)
    assert i == 0, "solver's own optimum must stay feasible below t_star"
    assert np.array_equal(alloc.eta, eta)
    earned = harvested_energy(alloc.p, table)
    assert np.all(cfg.tau_u * eta + cfg.tau_p * cfg.rho_p <= earned)
    a_new = optimal_lsfd(eta, se)
    worst = sinr(sinr_terms(a_new, se), eta).min()
    assert worst >= t - 1e-6


def _probe_feasible(t, a, se, cache, table, cfg):
    energy_lp = maxmin._EnergyLP(cache, table, cfg)
    return energy_lp.run([t], sinr_terms(a, se))[1] is not None


def test_single_user_feasibility_threshold():
    cfg, stats, cache, se = _instance(seed=73, K=1, L=2, N=2, tau_p=1)
    bound = upper_bound_tmax(se, cache, stats, cfg)
    assert bound > 0.0
    table = energy_coefficient_table(se, cfg)
    p = cfg.rho_d / cache.tr_rhat[0]
    energy = harvested_energy(p[None, :], table)[0]
    eta = np.array([max(0.0, (energy - cfg.tau_p * cfg.rho_p) / cfg.tau_u)])
    a = optimal_lsfd(eta, se)
    assert _probe_feasible(0.95 * bound, a, se, cache, table, cfg)
    assert not _probe_feasible(1.05 * bound, a, se, cache, table, cfg)


def _sinr_terms(a, se):
    """cross[k, m] = a_k^H C_km a_k, gain_k = |a_k^H b_k|^2 and
    noise_k = sum_l |a_kl|^2 D_kl, written out UE by UE."""
    K = se.b.shape[0]
    cross = np.array([[np.vdot(a[k], se.C[k, m] @ a[k]).real
                       for m in range(K)] for k in range(K)])
    gain = np.array([abs(np.vdot(a[k], se.b[k])) ** 2 for k in range(K)])
    noise = np.array([np.sum(np.abs(a[k]) ** 2 * se.D[k]) for k in range(K)])
    return cross, gain, noise


def test_minimum_uplink_powers_solve_the_sinr_equalities():
    cfg, stats, cache, se = _instance(seed=89, K=4, L=3, N=2, tau_p=2)
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    t = 0.05
    eta, = minimum_uplink_powers([t], sinr_terms(a, se))
    assert eta is not None and np.all(eta > 0.0)
    cross, gain, noise = _sinr_terms(a, se)
    B = np.diag((1.0 + t) * gain) - t * cross
    assert np.all(B[~np.eye(4, dtype=bool)] <= 0.0), "B must be a Z-matrix"
    resid = np.linalg.norm(B @ eta - t * noise) / np.linalg.norm(t * noise)
    assert resid <= 1e-12
    # Every UE sits exactly at the target, and lowering any one power
    # drops that UE below it: no smaller eta reaches t.
    assert np.allclose(sinr(sinr_terms(a, se), eta), t, rtol=1e-10, atol=0.0)
    for k in range(4):
        lower = eta.copy()
        lower[k] *= 1.0 - 1e-6
        assert sinr(sinr_terms(a, se), lower)[k] < t


def test_minimum_uplink_powers_zero_target():
    cfg, stats, cache, se = _instance(seed=90)
    a = np.ones((3, 2), dtype=complex)
    assert np.array_equal(minimum_uplink_powers([0.0], sinr_terms(a, se))[0],
                          np.zeros(3))


def test_minimum_uplink_powers_none_above_single_user_bound():
    """Alone, a UE's SINR under fixed weights rises with eta towards
    gain / (cross - gain) and never reaches it; no eta does past it."""
    cfg, stats, cache, se = _instance(seed=91, K=1, L=2, N=2, tau_p=1)
    a = np.array([[1.0 + 0.5j, -0.3 + 1.0j]])
    cross, gain, noise = _sinr_terms(a, se)
    limit = gain[0] / (cross[0, 0] - gain[0])
    assert np.isfinite(limit) and limit > 0.0
    below, above = minimum_uplink_powers([0.99 * limit, 1.01 * limit],
                                         sinr_terms(a, se))
    assert below is not None
    assert sinr(sinr_terms(a, se), below)[0] == pytest.approx(0.99 * limit,
                                                              rel=1e-10)
    assert above is None


def test_stacked_least_powers_match_per_target_solves():
    """Each target of the stacked solve gets the bits of its own K x K
    solve, None where that gives None, and zeros at t = 0."""
    cfg, stats, cache, se = _instance(seed=89, K=4, L=3, N=2, tau_p=2)
    rng = np.random.default_rng(6)
    a = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    terms = sinr_terms(a, se)
    ts = [0.0, 1e-3, 0.01, 0.05, 0.2, 1.0, 5.0, 50.0, 0.03]
    got = minimum_uplink_powers(ts, terms)
    want = [least_powers(t, terms) for t in ts]
    assert len(got) == len(ts)
    assert any(w is None for w in want)
    assert sum(w is not None for w in want) > 2
    for g, w in zip(got, want):
        assert (g is None) == (w is None)
        if w is not None:
            assert g.tobytes() == w.tobytes()
    assert np.array_equal(got[0], np.zeros(4))


def test_stacked_least_powers_survive_a_singular_target():
    """B(t) = diag((1 + t) gain) - t cross is singular at t = 1/2 here;
    the stacked solve falls back to per-target solves and gives None
    for that target alone, not an error for the stack."""
    terms = (np.ones(2), np.array([[2.0, 1.0], [1.0, 2.0]]), np.ones(2))
    B = np.diag(1.5 * terms[0]) - 0.5 * terms[1]
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(B, 0.5 * terms[2])
    ts = [0.25, 0.5, 0.0, 0.75]
    got = minimum_uplink_powers(ts, terms)
    assert got[0].tobytes() == least_powers(0.25, terms).tobytes()
    assert got[1] is None and got[3] is None
    assert np.array_equal(got[2], np.zeros(2))
    assert minimum_uplink_powers([0.5], terms) == [None]


def test_optimal_lsfd_zero_power_reduces_to_noise_whitening():
    cfg, stats, cache, se = _instance(seed=74)
    a = optimal_lsfd(np.zeros(3), se)
    assert np.allclose(a, se.b / se.D, atol=1e-12)
    assert np.all(sinr(sinr_terms(a, se), np.zeros(3)) == 0.0)


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
        assert sinr(sinr_terms(a_alt, se), eta)[k] == pytest.approx(
            sinr(sinr_terms(a, se), eta)[k], rel=1e-9)


def test_optimal_lsfd_dominates_random_weights():
    cfg, stats, cache, se = _instance(seed=77)
    rng = np.random.default_rng(1)
    eta = rng.uniform(0.1, 1.0, size=3)
    a = optimal_lsfd(eta, se)
    best = sinr(sinr_terms(a, se), eta)[1]
    for _ in range(500):
        trial = a.copy()
        trial[1] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert sinr(sinr_terms(trial, se), eta)[1] <= best * (1.0 + 1e-9)


def test_optimal_lsfd_stationarity():
    cfg, stats, cache, se = _instance(seed=78)
    rng = np.random.default_rng(2)
    eta = rng.uniform(0.1, 1.0, size=3)
    a = optimal_lsfd(eta, se)
    base = sinr(sinr_terms(a, se), eta)[2]
    norm = np.linalg.norm(a[2])
    for _ in range(50):
        delta = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        delta *= 1e-3 * norm / np.linalg.norm(delta)
        trial = a.copy()
        trial[2] = a[2] + delta
        assert sinr(sinr_terms(trial, se), eta)[2] <= base * (1.0 + 1e-5)


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
    rich = dataclasses.replace(cfg, rho_d=2.0 * cfg.rho_d)
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
    assert np.allclose(sinr(sinr_terms(redo, se), res.allocation.eta),
                       res.per_ue_sinr, rtol=1e-9, atol=0.0)


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


def test_solver_iteration_cap(monkeypatch):
    cfg, stats, cache, se = _instance(seed=84)
    monkeypatch.setattr(maxmin, "MAX_PROBES", 1)
    res = solve_maxmin(stats, cache, se, cfg, eps=1e-12)
    assert res.cap_hit is True
    assert sum(t > 0.0 for t, _, _ in res.trace) == 1
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


def _budget_shortfall(res, cache, se, cfg):
    """Largest relative excess over the AP budgets and the energy needs."""
    alloc = res.allocation
    ap = ap_transmit_powers(alloc.p, cache) / cfg.rho_d - 1.0
    need = cfg.tau_u * alloc.eta + cfg.tau_p * cfg.rho_p
    earned = harvested_energy(alloc.p, energy_coefficient_table(se, cfg))
    return float(ap.max()), float(np.max((need - earned) / need))


@given(st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=4),
       st.data())
def test_solved_results_are_certified_property(L, K, N, data):
    """On small random drops every solved result meets the AP budgets
    and pays its pilot and uplink energy from its harvest, each feasible
    probe certifies at least its target, and the SE is the SINR's."""
    tau_p = data.draw(st.integers(min_value=1, max_value=K), label="tau_p")
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1),
                     label="seed")
    cfg = ScenarioConfig(L=L, K=K, N=N, tau_p=tau_p, tau_u=175 - tau_p,
                         rho_d=1.0)
    stats, cache, se = build_drop(cfg, PropagationModel(),
                                  np.random.default_rng(seed))
    res = solve_maxmin(stats, cache, se, cfg, eps=1e-4)
    assert res.status in ("solved", "infeasible_at_zero")
    if res.status != "solved":
        return
    ap, energy = _budget_shortfall(res, cache, se, cfg)
    assert ap <= 1e-12 and energy <= 1e-12
    for t, feasible, certified in res.trace:
        if feasible:
            assert certified >= t * (1.0 - 1e-9)
    assert np.array_equal(res.per_ue_se,
                          spectral_efficiency(res.per_ue_sinr, cfg))


@pytest.mark.parametrize("seed, drop, zero", [(1908044596, 2, False),
                                              (81740114, 3, True)])
def test_solved_allocations_meet_both_budgets(seed, drop, zero):
    """Two large-array drops on which a solve once came back `solved`
    with a UE harvesting up to 1% less than it spends.  The second one
    can only pay its pilots (pilot margin 1.0019), so it is solved at
    t* = 0."""
    cfg, prop = load_config(ROOT / "perfbench" / "large_array.cfg")
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(drop,)))
    stats, cache, se = build_drop(cfg, prop, rng)
    res = solve_maxmin(stats, cache, se, cfg)
    assert res.status == "solved"
    assert (res.t_star == 0.0) == zero
    ap, energy = _budget_shortfall(res, cache, se, cfg)
    assert ap <= 1e-12 and energy <= 1e-12


def test_tight_pilot_margin_setup_is_solved():
    """Setup 28 of criterion 4 pays its pilots with a margin of 1.0072; a
    phase-I vertex right on the energy boundary once lost it to rounding."""
    cfg = ScenarioConfig(L=4, K=4, N=4, tau_p=2,
                         tau_d=25, tau_u=173)
    rng = np.random.default_rng(np.random.SeedSequence(424242, spawn_key=(28,)))
    stats, cache, se = build_drop(cfg, PropagationModel(), rng)
    res = solve_maxmin(stats, cache, se, cfg, eps=1e-4)
    assert res.status == "solved"
    ap, energy = _budget_shortfall(res, cache, se, cfg)
    assert ap <= 1e-12 and energy <= 1e-12


def _reference_drop_0():
    cfg, prop = load_config(CONFIGS / "reference.cfg")
    return cfg, 1e-2, build_drop(cfg, prop, _setup_rng(1, 0)[0])


def _criterion_8_many_small_aps_drop(i):
    cfg = ScenarioConfig(K=8, tau_p=4, tau_d=25, tau_u=171, L=16, N=4,
                         rho_d=4.0 / 16)
    rng = np.random.default_rng(np.random.SeedSequence(777, spawn_key=(i,)))
    return cfg, 1e-4, build_drop(cfg, PropagationModel(), rng)


def _large_network_drop_0():
    cfg, prop = load_config(CONFIGS / "large_network.cfg")
    return cfg, 1e-2, build_drop(cfg, prop, _setup_rng(1, 0)[0])


@pytest.mark.parametrize("make", [
    _reference_drop_0,
    functools.partial(_criterion_8_many_small_aps_drop, 6),
    _large_network_drop_0,
    functools.partial(_criterion_8_many_small_aps_drop, 0),
], ids=["reference-seed-1-drop-0", "criterion-8-many-small-aps-drop-6",
        "large-network-seed-1-drop-0", "criterion-8-many-small-aps-drop-0"])
def test_runs_retrace_the_sequential_bisection(make):
    """The bisection's runs, one per weight vector, take the path of the
    plain loop that solves, cuts and poses one target at a time: the
    same trace, t*, LP calls and pivots, exactly.  On criterion 8's drop
    0 a cut made within a run settles later targets of the same run."""
    cfg, eps, (stats, cache, se) = make()
    res = solve_maxmin(stats, cache, se, cfg, eps=eps)
    trace, t_star, lp_calls, lp_pivots = sequential_bisection(
        stats, cache, se, cfg, eps)
    assert res.status == "solved" and len(trace) > 10
    assert res.trace == trace
    assert res.t_star == t_star
    assert (res.lp_calls, res.lp_pivots) == (lp_calls, lp_pivots)


def _spy_probes(monkeypatch):
    """Record every probe of an _EnergyLP.run that reaches its t with some
    uplink powers as (energy_lp, b posed, settled by a cut, cuts stored
    before it, whether its LP verdict made a cut, allocation returned).
    A run probes its targets in order up to the first feasible one; the
    b of each LP call it makes must be the next probe's posed b."""
    calls = []
    run = maxmin._EnergyLP.run

    def spy(self, ts, terms):
        lp, posed, start = maxmin.lp_feasible, [], len(self.cut_h)

        def lp_spy(problem, b):
            posed.append((b, len(self.cut_h)))
            return lp(problem, b)

        maxmin.lp_feasible = lp_spy
        try:
            i, alloc = run(self, ts, terms)
        finally:
            maxmin.lp_feasible = lp
        counts = [n for _, n in posed] + [len(self.cut_h)]
        k, cuts = 0, start
        for j, t in enumerate(ts[:i + 1]):
            b = _posed_b(t, terms, self.cfg)
            if b is None:
                continue
            by_cut = k == len(posed) or not np.array_equal(posed[k][0], b)
            made_cut = not by_cut and counts[k + 1] > counts[k]
            calls.append((self, b, by_cut, cuts, made_cut,
                          alloc if j == i else None))
            if not by_cut:
                k += 1
                cuts = counts[k]
        assert k == len(posed)
        return i, alloc

    monkeypatch.setattr(maxmin._EnergyLP, "run", spy)
    return calls


@pytest.mark.parametrize("make", [_reference_drop_0,
                                  functools.partial(
                                      _criterion_8_many_small_aps_drop, 6)],
                         ids=["reference-seed-1-drop-0",
                              "criterion-8-many-small-aps-drop-6"])
def test_warm_verdicts_match_cold_solves(make, monkeypatch):
    """Every probe of a drop gets the verdict a cold solve from the slack
    basis gives: the LP calls posed on the carried basis, and the probes
    an energy cut settles without an LP call.  The carried basis saves
    most of the pivots."""
    cfg, eps, (stats, cache, se) = make()
    posed = []

    def spy(lp, b):
        x = lp_feasible(lp, b)
        posed.append((lp.A, b, x is not None))
        return x

    monkeypatch.setattr(maxmin, "lp_feasible", spy)
    calls = _spy_probes(monkeypatch)
    res = solve_maxmin(stats, cache, se, cfg, eps=eps)
    assert res.status == "solved" and len(res.trace) > 20
    assert res.lp_calls == len(posed)
    cold_pivots = 0
    for A, b, warm_verdict in posed:
        cold = FeasibilityLP(A)
        assert (lp_feasible(cold, b) is not None) == warm_verdict
        cold_pivots += cold.pivots
    assert res.lp_pivots < cold_pivots / 2
    settled = [(e.lp.A, b) for e, b, by_cut, *_ in calls if by_cut]
    assert settled
    for A, b in settled:
        assert lp_feasible(FeasibilityLP(A), b) is None


def _exact_cut_excess(y, need, energy):
    """y . need - h(y), h(y) = sum_l max(0, max_i (sum_k y_k E_k)_il), in
    exact rational arithmetic from the floats y, need and the energy
    rows E (K, K*L)."""
    K, KL = energy.shape
    y = [Fraction(v) for v in y]
    g = [sum(yk * Fraction(e) for yk, e in zip(y, energy[:, j]))
         for j in range(KL)]
    h = sum(max([Fraction(0)] + g[l::KL // K]) for l in range(KL // K))
    return sum(yk * Fraction(v) for yk, v in zip(y, need)) - h


def test_energy_cuts_are_exact(monkeypatch):
    """On 20 small random drops, each cut rules out the probe whose LP
    verdict made it, and each probe a cut settles returns no allocation
    and is infeasible by the exact rational oracle, every cut that fired
    holding in exact arithmetic as well."""
    cfg = ScenarioConfig(L=3, K=3, N=4, tau_p=2, tau_d=25, tau_u=173,
                         rho_d=1.0)
    calls = _spy_probes(monkeypatch)
    for i in range(20):
        rng = np.random.default_rng(np.random.SeedSequence(2718,
                                                           spawn_key=(i,)))
        stats, cache, se = build_drop(cfg, PropagationModel(), rng)
        solve_maxmin(stats, cache, se, cfg, eps=1e-4)
    settled = 0
    for energy_lp, b, by_cut, before, made_cut, alloc in calls:
        need = -b[:cfg.K]
        if not by_cut:
            if made_cut:
                assert alloc is None
                y, h = energy_lp.cut_y[before], energy_lp.cut_h[before]
                assert y @ need > (1.0 + CUT_RTOL) * h
                assert _exact_cut_excess(y, need, energy_lp.energy) > 0
            continue
        settled += 1
        assert alloc is None
        fired = [y for y, h in zip(energy_lp.cut_y[:before],
                                   energy_lp.cut_h[:before])
                 if y @ need > (1.0 + CUT_RTOL) * h]
        assert fired
        for y in fired:
            assert _exact_cut_excess(y, need, energy_lp.energy) > 0
        assert not oracle_feasible(energy_lp.lp.A, b)
    assert settled > 100


def test_non_finite_certificate_fails_loudly(monkeypatch):
    cfg, stats, cache, se = _instance(seed=92)
    monkeypatch.setattr(maxmin, "sinr", lambda terms, eta: np.full(3, np.nan))
    with pytest.raises(ValueError, match="not finite"):
        solve_maxmin(stats, cache, se, cfg)
    with pytest.raises(ValueError, match="not finite"):
        fpc_baseline(stats, cache, se, cfg)


def _reference_seed_2_drop_6():
    cfg, prop = load_config(CONFIGS / "reference.cfg")
    return cfg, build_drop(cfg, prop, _setup_rng(2, 6)[0])


def test_reference_seed_2_drop_6_is_solved():
    """Setup 6 of configs/reference.cfg at seed 2 once ended in
    SimplexIterationError: see the first-probe test below."""
    cfg, (stats, cache, se) = _reference_seed_2_drop_6()
    res = solve_maxmin(stats, cache, se, cfg)
    assert res.status == "solved" and not res.cap_hit
    ap, energy = _budget_shortfall(res, cache, se, cfg)
    assert ap <= 1e-12 and energy <= 1e-12


def test_reference_seed_2_drop_6_first_probe_is_certified():
    """The drop's first probe (t = t_max / 2, uniform weights) is a cold
    LP of 36 rows and 320 variables.  A pivot on an entry of 1.6e-10 of
    its row of B^-1, drift rather than a true entry, once left a
    singular basis; confirming it fell back to the slack basis and the
    same pivots replayed up to the pivot cap.  Now the verdict is
    infeasible and energy_lp.lp.farkas is a Farkas certificate, up to
    rounding of 1e-12 relative to the sums in y A."""
    cfg, (stats, cache, se) = _reference_seed_2_drop_6()
    energy_lp = maxmin._EnergyLP(cache, energy_coefficient_table(se, cfg), cfg)
    terms = sinr_terms(np.ones((cfg.K, cfg.L), dtype=complex), se)
    t = 0.5 * upper_bound_tmax(se, cache, stats, cfg)
    assert energy_lp.run([t], terms)[1] is None and energy_lp.lp_calls == 1
    y, A = energy_lp.lp.farkas, energy_lp.lp.A
    b = _posed_b(t, terms, cfg)
    assert A.shape == (36, 320)
    assert np.all(y >= 0.0)
    assert np.all(y @ A >= -1e-12 * (y @ np.abs(A)))
    assert y @ b < 0.0


def test_large_network_drop_is_solved():
    """Drop 0 of configs/large_network.cfg at seed 1 (L=64, K=40, an LP
    of 2560 variables and 104 rows) solves within the pivot cap, where
    degenerate rows once counted as infeasible made the simplex cycle."""
    cfg, prop = load_config(CONFIGS / "large_network.cfg")
    stats, cache, se = build_drop(cfg, prop, _setup_rng(1, 0)[0])
    res = solve_maxmin(stats, cache, se, cfg)
    assert res.status == "solved"
    assert res.t_star == pytest.approx(4.039092, rel=1e-6)
    ap, energy = _budget_shortfall(res, cache, se, cfg)
    assert ap <= 1e-12 and energy <= 1e-12
