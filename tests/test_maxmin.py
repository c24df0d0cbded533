import dataclasses
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cfwpt.cli import _setup_rng, build_drop
from cfwpt.config import ScenarioConfig, load_config
from cfwpt.estimation import build_cache
from cfwpt.geometry import PropagationModel
from cfwpt.lp import LPProblem, WarmStart, lp_feasible
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
from cfwpt.wit import lsfd_statistics, sinr, spectral_efficiency
from cfwpt.wpt import harvested_energy

from helpers import (
    ap_transmit_powers,
    dense_covariance,
    dense_psi_inv_r,
    direct_rhat,
    oracle_feasible,
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


def test_lp_layout():
    cfg, stats, cache, se = _instance()
    K, L = 3, 2
    eta = np.array([0.1, 0.2, 0.3])
    table = energy_coefficient_table(se, cfg)
    lp = build_feasibility_lp(eta, cache, table, cfg)
    assert lp.A.shape == (K + L, K * L)
    # Energy rows: dE_k/dq_il = coef[k, i, l] rho_d / tr(Rhat_il), negated,
    # against the negated need with its margin.  A does not depend on eta.
    for k in range(K):
        need = cfg.tau_p * cfg.rho_p + cfg.tau_u * eta[k]
        want = table[k] * cfg.rho_d / cache.tr_rhat
        assert np.allclose(lp.A[k], -want.ravel(), rtol=1e-14, atol=0.0)
        assert lp.b[k] == pytest.approx(-(1.0 + ENERGY_MARGIN) * need,
                                        rel=1e-15)
    other = build_feasibility_lp(2.0 * eta, cache, table, cfg)
    assert np.array_equal(other.A, lp.A)
    # AP rows: unit entries on AP l's shares only, one stride L apart.
    for l in range(L):
        row = lp.A[K + l]
        assert np.all(row[l::L] == 1.0)
        mask = np.ones(K * L, dtype=bool)
        mask[l::L] = False
        assert np.all(row[mask] == 0.0)
    assert np.all(lp.b[K:] == 1.0)


def _powers(q, cache, cfg):
    """Budget shares q (flat, i*L + l) back to power coefficients p."""
    return q.reshape(cache.tr_rhat.shape) * cfg.rho_d / cache.tr_rhat


def test_lp_zero_target_needs_pilot_energy():
    """At t = 0 no uplink power is needed but pilots must still be paid."""
    cfg, stats, cache, se = _instance()
    a = np.ones((3, 2), dtype=complex)
    eta = minimum_uplink_powers(0.0, a, se)
    assert np.array_equal(eta, np.zeros(3))
    table = energy_coefficient_table(se, cfg)
    q = lp_feasible(build_feasibility_lp(eta, cache, table, cfg))
    assert q is not None
    p = _powers(q, cache, cfg)
    earned = harvested_energy(p, table)
    assert np.all(cfg.tau_p * cfg.rho_p <= earned * (1.0 + 1e-12))
    assert np.all(ap_transmit_powers(p, cache) <= cfg.rho_d * (1.0 + 1e-9))


def test_feasible_probe_certifies_target():
    """A feasible probe re-certifies at least its target after reweighting."""
    cfg, stats, cache, se = _instance(seed=72)
    res = solve_maxmin(stats, cache, se, cfg, eps=1e-3)
    assert res.status == "solved" and res.t_star > 0.0
    t = 0.9 * res.t_star
    eta = minimum_uplink_powers(t, res.weights, se)
    assert eta is not None
    table = energy_coefficient_table(se, cfg)
    q = lp_feasible(build_feasibility_lp(eta, cache, table, cfg))
    assert q is not None, "solver's own optimum must stay feasible below t_star"
    earned = harvested_energy(_powers(q, cache, cfg), table)
    assert np.all(cfg.tau_u * eta + cfg.tau_p * cfg.rho_p <= earned)
    a_new = optimal_lsfd(eta, se)
    worst = sinr(a_new, eta, se).min()
    assert worst >= t - 1e-6


def _probe_feasible(t, a, se, cache, table, cfg):
    eta = minimum_uplink_powers(t, a, se)
    if eta is None:
        return False
    return lp_feasible(build_feasibility_lp(eta, cache, table, cfg)) is not None


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
    eta = minimum_uplink_powers(t, a, se)
    assert eta is not None and np.all(eta > 0.0)
    cross, gain, noise = _sinr_terms(a, se)
    B = np.diag((1.0 + t) * gain) - t * cross
    assert np.all(B[~np.eye(4, dtype=bool)] <= 0.0), "B must be a Z-matrix"
    resid = np.linalg.norm(B @ eta - t * noise) / np.linalg.norm(t * noise)
    assert resid <= 1e-12
    # Every UE sits exactly at the target, and lowering any one power
    # drops that UE below it: no smaller eta reaches t.
    assert np.allclose(sinr(a, eta, se), t, rtol=1e-10, atol=0.0)
    for k in range(4):
        lower = eta.copy()
        lower[k] *= 1.0 - 1e-6
        assert sinr(a, lower, se)[k] < t


def test_minimum_uplink_powers_zero_target():
    cfg, stats, cache, se = _instance(seed=90)
    a = np.ones((3, 2), dtype=complex)
    assert np.array_equal(minimum_uplink_powers(0.0, a, se), np.zeros(3))


def test_minimum_uplink_powers_none_above_single_user_bound():
    """Alone, a UE's SINR under fixed weights rises with eta towards
    gain / (cross - gain) and never reaches it; no eta does past it."""
    cfg, stats, cache, se = _instance(seed=91, K=1, L=2, N=2, tau_p=1)
    a = np.array([[1.0 + 0.5j, -0.3 + 1.0j]])
    cross, gain, noise = _sinr_terms(a, se)
    limit = gain[0] / (cross[0, 0] - gain[0])
    assert np.isfinite(limit) and limit > 0.0
    below = minimum_uplink_powers(0.99 * limit, a, se)
    assert below is not None
    assert sinr(a, below, se)[0] == pytest.approx(0.99 * limit, rel=1e-10)
    assert minimum_uplink_powers(1.01 * limit, a, se) is None


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


def _budget_shortfall(res, cache, se, cfg):
    """Largest relative excess over the AP budgets and the energy needs."""
    alloc = res.allocation
    ap = ap_transmit_powers(alloc.p, cache) / cfg.rho_d - 1.0
    need = cfg.tau_u * alloc.eta + cfg.tau_p * cfg.rho_p
    earned = harvested_energy(alloc.p, energy_coefficient_table(se, cfg))
    return float(ap.max()), float(np.max((need - earned) / need))


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


def _criterion_8_many_small_aps_drop_6():
    cfg = ScenarioConfig(K=8, tau_p=4, tau_d=25, tau_u=171, L=16, N=4,
                         rho_d=4.0 / 16)
    rng = np.random.default_rng(np.random.SeedSequence(777, spawn_key=(6,)))
    return cfg, 1e-4, build_drop(cfg, PropagationModel(), rng)


def _spy_shares(monkeypatch):
    """Record every _EnergyLP.shares call as (energy_lp, b, settled by a
    cut, cuts stored before the call, shares returned)."""
    calls = []
    shares = maxmin._EnergyLP.shares

    def spy(self, b):
        lp_calls, cuts = self.lp_calls, len(self.cuts)
        q = shares(self, b)
        calls.append((self, b.copy(), self.lp_calls == lp_calls, cuts, q))
        return q

    monkeypatch.setattr(maxmin._EnergyLP, "shares", spy)
    return calls


@pytest.mark.parametrize("make", [_reference_drop_0,
                                  _criterion_8_many_small_aps_drop_6],
                         ids=["reference-seed-1-drop-0",
                              "criterion-8-many-small-aps-drop-6"])
def test_warm_verdicts_match_cold_solves(make, monkeypatch):
    """Every probe of a drop gets the verdict a cold solve from the slack
    basis gives: the LP calls posed on the carried basis, and the probes
    an energy cut settles without an LP call.  The carried basis saves
    most of the pivots."""
    cfg, eps, (stats, cache, se) = make()
    posed = []

    def spy(lp, **kwargs):
        x = lp_feasible(lp, **kwargs)
        posed.append((lp, x is not None))
        return x

    monkeypatch.setattr(maxmin, "lp_feasible", spy)
    calls = _spy_shares(monkeypatch)
    res = solve_maxmin(stats, cache, se, cfg, eps=eps)
    assert res.status == "solved" and len(res.trace) > 20
    assert res.lp_calls == len(posed)
    cold_pivots = 0
    for lp, warm_verdict in posed:
        cold = WarmStart()
        assert (lp_feasible(lp, warm=cold) is not None) == warm_verdict
        cold_pivots += cold.pivots
    assert res.lp_pivots < cold_pivots / 2
    settled = [LPProblem(A=e.A, b=b) for e, b, by_cut, _, _ in calls if by_cut]
    assert settled
    for lp in settled:
        assert lp_feasible(lp, warm=WarmStart()) is None


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
    verdict made it, and each probe a cut settles is infeasible by the
    exact rational oracle, every cut that fired holding in exact
    arithmetic as well."""
    cfg = ScenarioConfig(L=3, K=3, N=4, tau_p=2, tau_d=25, tau_u=173,
                         rho_d=1.0)
    calls = _spy_shares(monkeypatch)
    for i in range(20):
        rng = np.random.default_rng(np.random.SeedSequence(2718,
                                                           spawn_key=(i,)))
        stats, cache, se = build_drop(cfg, PropagationModel(), rng)
        solve_maxmin(stats, cache, se, cfg, eps=1e-4)
    settled = 0
    for energy_lp, b, by_cut, before, q in calls:
        need = -b[:cfg.K]
        if not by_cut:
            if q is None:
                y, h = energy_lp.cuts[before]
                assert y @ need > (1.0 + CUT_RTOL) * h
                assert _exact_cut_excess(y, need, energy_lp.energy) > 0
            continue
        settled += 1
        assert q is None
        fired = [y for y, h in energy_lp.cuts[:before]
                 if y @ need > (1.0 + CUT_RTOL) * h]
        assert fired
        for y in fired:
            assert _exact_cut_excess(y, need, energy_lp.energy) > 0
        assert not oracle_feasible(energy_lp.A, b)
    assert settled > 100


def test_non_finite_certificate_fails_loudly(monkeypatch):
    cfg, stats, cache, se = _instance(seed=92)
    monkeypatch.setattr(maxmin, "sinr", lambda a, eta, se: np.full(3, np.nan))
    with pytest.raises(ValueError, match="not finite"):
        solve_maxmin(stats, cache, se, cfg)


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
