"""End-to-end acceptance gates for the whole package.

Nine independent criteria: closed forms against Monte Carlo oracles,
exact algebraic identities, optimizer soundness and fairness trends,
LP correctness against an exact rational oracle, the AP-density scale
trend, and CLI determinism.  Each test prints one PASS/FAIL line
(visible with -s, or in the captured output on failure) and then
asserts, so a red run still shows every criterion's verdict.

All randomness is seeded; the seeds were chosen once and frozen after
checking the statistical gates had comfortable margins.  A genuine
formula error moves the z-scores by orders of magnitude, far beyond
any seed-to-seed wiggle.
"""

from dataclasses import replace

import numpy as np
import pytest

from cfwpt.cli import build_drop, run_optimize
from cfwpt.config import ScenarioConfig, load_config
from cfwpt.estimation import build_cache
from cfwpt.geometry import PropagationModel
from cfwpt.lp import FeasibilityLP, lp_feasible
from cfwpt.maxmin import fpc_baseline, optimal_lsfd, solve_maxmin
from cfwpt.wit import lsfd_statistics, se_statistics_oracle, sinr, sinr_terms
from cfwpt.wpt import (
    harvested_energy,
    harvested_energy_coefficients,
    harvested_energy_oracle,
)

from helpers import (
    ap_transmit_powers,
    dense_covariance,
    dense_psi_inv_r,
    direct_rhat,
    oracle_feasible,
    random_int_lp,
    synthetic_stats,
)

MC_SAMPLES = 200_000

# (L, N, K, tau_p): small mixed-sharing instances, orthogonal pilots at
# both ends of the list, contamination in between.
ORACLE_GRID = [
    (1, 1, 1, 1),
    (2, 1, 2, 1),
    (1, 2, 2, 2),
    (2, 2, 4, 2),
    (2, 4, 4, 1),
    (1, 4, 4, 2),
    (2, 2, 2, 1),
    (2, 4, 2, 2),
    (1, 2, 4, 3),
    (2, 4, 4, 4),
]


def _report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"[{tag}] criterion {num}: {name}{suffix}")
    assert ok, f"criterion {num} failed: {name}{suffix}"


def _grid_instances(master_seed):
    ss = np.random.SeedSequence(master_seed)
    seeds = ss.generate_state(len(ORACLE_GRID))
    for idx, (L, N, K, tau_p) in enumerate(ORACLE_GRID):
        cfg, stats = synthetic_stats(L=L, K=K, N=N, tau_p=tau_p,
                                     seed=int(seeds[idx]))
        cache = build_cache(stats, cfg)
        yield idx, cfg, stats, cache


def test_criterion_1_harvested_energy_oracle():
    worst = 0.0
    for idx, cfg, stats, cache in _grid_instances(master_seed=101):
        K = cfg.K
        p = cfg.rho_d / (K * cache.tr_rhat)
        coef = harvested_energy_coefficients(
            lsfd_statistics(cache, stats, cfg), cfg)
        rng = np.random.default_rng(np.random.SeedSequence(202, spawn_key=(idx,)))
        est, se = harvested_energy_oracle(p, stats, cfg, MC_SAMPLES, rng)
        z = np.abs(est - harvested_energy(p, coef)) / se
        worst = max(worst, float(z.max()))
    _report(1, "harvested energy closed form vs Monte Carlo",
            worst <= 3.0, f"max|z| = {worst:.3f} over 10 instances")


def test_criterion_2_decoding_statistics_oracle():
    worst = 0.0
    structure_ok = True
    for idx, cfg, stats, cache in _grid_instances(master_seed=101):
        se = lsfd_statistics(cache, stats, cfg)
        rng = np.random.default_rng(np.random.SeedSequence(616, spawn_key=(idx,)))
        est = se_statistics_oracle(stats, cfg, MC_SAMPLES, rng)

        def zmax(closed, mean, err):
            diff = np.abs(np.asarray(closed, dtype=complex) - mean)
            z = np.where(err > 0, diff / np.where(err > 0, err, 1.0),
                         np.where(diff == 0, 0.0, np.inf))
            return float(z.max())

        worst = max(worst, zmax(se.b, est.b, est.b_se),
                    zmax(se.C, est.C, est.C_se),
                    zmax(se.D, est.D, est.D_se))
        # Cross-AP entries of C must be exactly zero without a shared
        # pilot (and the Monte Carlo side is covered by the z gate).
        pilot_of = stats.pilot_of
        off = ~np.eye(cfg.L, dtype=bool)
        for k in range(cfg.K):
            for m in range(cfg.K):
                if pilot_of[k] != pilot_of[m]:
                    structure_ok = structure_ok and np.all(se.C[k, m][off] == 0.0)
    _report(2, "decoding statistics closed forms vs Monte Carlo",
            worst <= 3.0 and structure_ok,
            f"max|z| = {worst:.3f}, zero structure {'ok' if structure_ok else 'BROKEN'}")


def test_criterion_3_exact_identities():
    ss = np.random.SeedSequence(404)
    seeds = ss.generate_state(100)
    links = 0
    worst_split = 0.0
    worst_b = 0.0
    for i in range(100):
        N = 1 + i % 4
        tau_p = 1 + i % 5
        cfg, stats = synthetic_stats(L=2, K=5, N=N, tau_p=tau_p,
                                     seed=int(seeds[i]))
        cache = build_cache(stats, cfg)
        se = lsfd_statistics(cache, stats, cfg)
        # R and Psi rebuilt densely from the statistics.
        R = dense_covariance(stats)
        gap = cache.Rhat - direct_rhat(stats, cfg)
        split = (np.linalg.norm(gap, axis=(2, 3))
                 / np.linalg.norm(R, axis=(2, 3)))
        worst_split = max(worst_split, float(split.max()))
        # b from the Gram factors against rho_p tau_p tr(Psi^-1 R R).
        direct = cfg.rho_p * cfg.tau_p * np.einsum(
            "klab,klba->kl", dense_psi_inv_r(stats, cfg), R).real
        worst_b = max(worst_b, float(np.max(np.abs(se.b - direct)
                                            / np.abs(direct))))
        links += cfg.K * cfg.L
    ok = links >= 1000 and worst_split <= 1e-10 and worst_b <= 1e-10
    _report(3, "estimate split and signal-mean identities",
            ok, f"{links} links, split {worst_split:.2e}, b {worst_b:.2e}")


@pytest.fixture(scope="module")
def optimizer_sweep():
    cfg = ScenarioConfig(L=4, K=4, N=4, tau_p=2,
                         tau_d=25, tau_u=173)
    prop = PropagationModel()
    out = []
    for i in range(50):
        rng = np.random.default_rng(np.random.SeedSequence(424242, spawn_key=(i,)))
        stats, cache, se = build_drop(cfg, prop, rng)
        res = solve_maxmin(stats, cache, se, cfg, eps=1e-4)
        fpc = fpc_baseline(stats, cache, se, cfg)
        out.append((cfg, stats, cache, se, res, fpc))
    return out


def test_criterion_4_optimizer_soundness(optimizer_sweep):
    solved = 0
    ok = True
    notes = []
    for cfg, stats, cache, se, res, fpc in optimizer_sweep:
        if res.cap_hit:
            ok = False
            notes.append("iteration cap hit")
        levels = [e[2] for e in res.trace if e[2] is not None]
        if not all(y >= x for x, y in zip(levels, levels[1:])):
            ok = False
            notes.append("trace regressed")
        if res.status != "solved":
            continue
        solved += 1
        coef = harvested_energy_coefficients(se, cfg)
        alloc = res.allocation
        a = optimal_lsfd(alloc.eta, se)
        worst_sinr = sinr(sinr_terms(a, se), alloc.eta).min()
        if worst_sinr < res.t_star - 1e-6:
            ok = False
            notes.append(f"SINR certificate broken ({worst_sinr} < {res.t_star})")
        if np.any(ap_transmit_powers(alloc.p, cache) > cfg.rho_d + 1e-9):
            ok = False
            notes.append("AP budget exceeded")
        if np.any(alloc.p < 0.0) or np.any(alloc.eta < 0.0):
            ok = False
            notes.append("negative power")
        earned = harvested_energy(alloc.p, coef)
        spent = cfg.tau_u * alloc.eta + cfg.tau_p * cfg.rho_p
        for k in np.flatnonzero(spent > earned + 1e-9 * earned):
            ok = False
            notes.append(f"energy budget exceeded for UE {k}")
    detail = f"{solved}/50 solved" + ("; " + "; ".join(sorted(set(notes)))
                                      if notes else "")
    _report(4, "optimizer certificates on 50 setups", ok, detail)


def test_criterion_5_fairness_dominance(optimizer_sweep):
    wins = 0
    total = 0
    gains = []
    for cfg, stats, cache, se, res, fpc in optimizer_sweep:
        if res.status != "solved":
            continue
        total += 1
        mmf = float(res.per_ue_se.min())
        base = float(fpc.per_ue_se.min())
        wins += mmf >= base
        gains.append(mmf - base)
    frac = wins / total
    mean_gain = float(np.mean(gains))
    ok = frac >= 0.95 and mean_gain > 0.0
    _report(5, "max-min fairness beats the fixed baseline", ok,
            f"{wins}/{total} wins ({100 * frac:.1f}%), mean gain {mean_gain:.2e}")


def test_criterion_6_weight_optimality():
    rng0 = np.random.default_rng(99)
    worst_gap = 0.0      # random-search excess over the optimum
    worst_formula = 0.0  # closed-form mismatch
    for _ in range(20):
        L = int(rng0.integers(1, 5))
        N = int(rng0.integers(1, 4))
        K = int(rng0.integers(1, 5))
        tau_p = int(rng0.integers(1, K + 1))
        cfg, stats = synthetic_stats(L=L, K=K, N=N, tau_p=tau_p,
                                     seed=int(rng0.integers(2 ** 31)))
        cache = build_cache(stats, cfg)
        se = lsfd_statistics(cache, stats, cfg)
        eta = rng0.uniform(0.0, 1.0, size=K)
        a_opt = optimal_lsfd(eta, se)
        sinr_opt = sinr(sinr_terms(a_opt, se), eta)
        for k in range(K):
            m = np.einsum("m,mlw->lw", eta, se.C[k]) + np.diag(se.D[k])
            q = float(np.vdot(se.b[k].astype(complex),
                              np.linalg.solve(m, se.b[k] + 0j)).real)
            s_formula = eta[k] * q / (1.0 - eta[k] * q)
            s_opt = sinr_opt[k]
            if s_formula > 0.0:
                worst_formula = max(worst_formula,
                                    abs(s_opt - s_formula) / s_formula)
            w = rng0.standard_normal((10_000, L)) \
                + 1j * rng0.standard_normal((10_000, L))
            w /= np.linalg.norm(w, axis=1, keepdims=True)
            inner = w.conj() @ se.b[k].astype(complex)
            quad = np.einsum("nl,lw,nw->n", w.conj(), m, w).real
            sig = eta[k] * np.abs(inner) ** 2
            s_rand = float(np.max(sig / (quad - sig)))
            if s_rand > 0.0:
                worst_gap = max(worst_gap, (s_rand - s_opt) / s_rand)
    ok = worst_gap <= 1e-9 and worst_formula <= 1e-8
    _report(6, "optimal weights dominate random search", ok,
            f"best random excess {worst_gap:.1e}, formula gap {worst_formula:.1e}")


def test_criterion_7_lp_against_exact_oracle():
    rng = np.random.default_rng(31415)
    agree = 0
    for _ in range(100):
        A, b = random_int_lp(rng)
        got = lp_feasible(FeasibilityLP(A), b) is not None
        agree += got == oracle_feasible(A, b)
    _report(7, "simplex verdicts match the rational oracle",
            agree == 100, f"{agree}/100 agree")


def test_criterion_8_ap_density_trend():
    base = ScenarioConfig(K=8, tau_p=4, tau_d=25, tau_u=171)
    arms = {
        "many small APs": replace(base, L=16, N=4, rho_d=4.0 / 16),
        "few large APs": replace(base, L=4, N=16, rho_d=4.0 / 4),
    }
    prop = PropagationModel()
    medians = {}
    for name, cfg in arms.items():
        mins = []
        for i in range(30):
            rng = np.random.default_rng(np.random.SeedSequence(777, spawn_key=(i,)))
            stats, cache, se = build_drop(cfg, prop, rng)
            res = solve_maxmin(stats, cache, se, cfg, eps=1e-4)
            mins.append(float(res.per_ue_se.min()))
        medians[name] = float(np.median(mins))
    many, few = medians["many small APs"], medians["few large APs"]
    _report(8, "denser AP deployment lifts the median worst-case SE",
            many > few, f"median min-SE {many:.4f} vs {few:.4f} bits/s/Hz")


def test_criterion_9_cli_determinism(tmp_path):
    configs = __import__("pathlib").Path(__file__).resolve().parents[1] / "configs"
    cfg, prop = load_config(configs / "small_demo.cfg")
    run_optimize(cfg, prop, setups=3, seed=cfg.seed, out_dir=tmp_path / "a")
    run_optimize(cfg, prop, setups=3, seed=cfg.seed, out_dir=tmp_path / "b")
    same = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in ("se_per_ue.csv", "min_se_per_setup.csv")
    )
    _report(9, "repeated sweeps are byte-identical", same,
            "se_per_ue.csv and min_se_per_setup.csv compared")
