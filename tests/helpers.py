"""Shared test fixtures: synthetic statistics, dense and batch-first
Monte Carlo references, an exact LP oracle and a one-target-at-a-time
bisection."""

import dataclasses
import itertools
from fractions import Fraction

import numpy as np

from cfwpt.channel import (
    MC_BATCH,
    mean_and_stderr,
    sample_pilot_observation,
    sample_realization,
)
from cfwpt import maxmin
from cfwpt.config import ScenarioConfig
from cfwpt.geometry import ChannelStatistics, assign_pilots
from cfwpt.lp import FeasibilityLP, lp_feasible
from cfwpt.wit import sinr_terms
from cfwpt.wpt import PowerAllocation, harvested_energy


def synthetic_stats(L, K, N, tau_p, seed, **overrides):
    """Random channel statistics with O(1) scales.

    Keeps Monte Carlo variance and LP conditioning benign so unit
    tests exercise formulas rather than floating-point extremes.
    The radio constants can be overridden per test.
    """
    rng = np.random.default_rng(seed)
    params = dict(L=L, K=K, N=N, tau_p=tau_p, tau_d=25,
                  tau_u=200 - tau_p - 25,
                  rho_p=0.5, rho_d=2.0, sigma2=0.3, mu=0.8)
    params.update(overrides)
    cfg = ScenarioConfig(**params)
    beta = rng.uniform(0.1, 2.0, size=(K, L))
    gbar = (rng.standard_normal((K, L, N))
            + 1j * rng.standard_normal((K, L, N))) * 0.7
    stats = ChannelStatistics(beta=beta, gbar=gbar, pilot_of=assign_pilots(cfg))
    return cfg, stats


def pilot_layouts():
    """{name: (cfg, stats)} for the pilot layouts that no shipped config
    has (every one has K divisible by tau_p): a last pilot with fewer
    UEs, a pilot that no UE uses, one pilot for all K UEs, and one
    pilot per UE."""
    cfg, stats = synthetic_stats(L=3, K=5, N=3, tau_p=3, seed=32)
    unused = dataclasses.replace(stats, pilot_of=np.array([0, 2, 0, 2, 2]))
    return {
        "K % tau_p != 0": synthetic_stats(L=3, K=7, N=3, tau_p=3, seed=31),
        "unused pilot": (cfg, unused),
        "tau_p = 1": synthetic_stats(L=3, K=5, N=3, tau_p=1, seed=33),
        "tau_p = K": synthetic_stats(L=3, K=5, N=3, tau_p=5, seed=34),
    }


# Dense per-link references, rebuilt from the statistics with N x N
# matrices and independently of the estimation code.

def dense_covariance(stats):
    """Channel covariance R = gbar gbar^H + beta I per link, (K, L, N, N)."""
    N = stats.gbar.shape[-1]
    return (stats.gbar[..., :, None] * stats.gbar[..., None, :].conj()
            + stats.beta[..., None, None] * np.eye(N))


def rebuilt_psi(stats, cfg):
    """Despread-observation covariance Psi per (k, l), (K, L, N, N).

    rho_p tau_p times the sum of co-pilot covariances plus sigma^2 I.
    """
    pilot_of = stats.pilot_of
    copilot = (pilot_of[:, None] == pilot_of[None, :]).astype(float)
    N = stats.gbar.shape[-1]
    return (cfg.rho_p * cfg.tau_p
            * np.einsum("km,mlab->klab", copilot, dense_covariance(stats))
            + cfg.sigma2 * np.eye(N))


def dense_psi_inv_r(stats, cfg):
    """Psi^-1 R per link, via np.linalg.solve."""
    return np.linalg.solve(rebuilt_psi(stats, cfg), dense_covariance(stats))


def direct_rhat(stats, cfg):
    """rho_p tau_p R Psi^-1 R per link."""
    return (cfg.rho_p * cfg.tau_p * dense_covariance(stats)
            @ dense_psi_inv_r(stats, cfg))


def dense_cache(stats, cfg):
    """{field: array} of estimation.EstimationCache from the N x N Psi:
    gram gbar_kl^H gbar_ml, cross gbar_ml^H Psi_kl^-1 gbar_kl, own
    gbar_ml^H Psi_kl^-1 gbar_ml, tr_psi_inv and tr_rhat."""
    g = stats.gbar
    psi_inv = np.linalg.inv(rebuilt_psi(stats, cfg))
    return {
        "gram": np.einsum("kla,mla->kml", g.conj(), g),
        "cross": np.einsum("mla,klab,klb->kml", g.conj(), psi_inv, g),
        "own": np.einsum("mla,klab,mlb->kml", g.conj(), psi_inv, g).real,
        "tr_psi_inv": np.einsum("klaa->kl", psi_inv).real,
        "tr_rhat": np.einsum("klaa->kl", direct_rhat(stats, cfg)).real,
    }


def dense_lsfd(stats, cfg):
    """(b, C, D) of the LSFD closed forms from the dense matrices.

    b = tr(Rhat); C from u[k, m, l] = tr(Psi_kl^-1 R_kl R_ml) on
    co-pilot pairs, with the same-AP second moments
    tr(Rhat_kl R_ml) + (rho_p tau_p)^2 [co-pilot] (2 beta_ml T Re q
    + beta_ml^2 T^2) on its diagonal, T = tr(Psi_kl^-1 R_kl) and
    q = gbar_ml^H Psi_kl^-1 R_kl gbar_ml; D = sigma^2 tr(Rhat).
    """
    rho_tau = cfg.rho_p * cfg.tau_p
    R = dense_covariance(stats)
    m_mat = dense_psi_inv_r(stats, cfg)
    rhat = rho_tau * R @ m_mat
    b = np.einsum("klaa->kl", rhat).real
    tr_m = np.einsum("klaa->kl", m_mat).real
    quad = np.einsum("mla,klab,mlb->kml", stats.gbar.conj(), m_mat, stats.gbar)
    beta_m = stats.beta[None, :, :]
    u = quad + beta_m * tr_m[:, None, :]
    copilot = stats.pilot_of[:, None] == stats.pilot_of[None, :]
    mask = rho_tau ** 2 * copilot[:, :, None]
    C = mask[..., None] * u[..., :, None] * u[..., None, :].conj()
    idx = np.arange(stats.gbar.shape[1])
    C[:, :, idx, idx] = np.einsum("klab,mlba->kml", rhat, R).real + mask * (
        2.0 * beta_m * tr_m[:, None, :] * quad.real
        + beta_m ** 2 * tr_m[:, None, :] ** 2)
    return b, C, cfg.sigma2 * b


def ap_transmit_powers(p, cache):
    """Average transmit power of every AP: sum_k p_kl tr(Rhat_kl)."""
    return np.einsum("kl,kl->l", np.asarray(p, dtype=float), cache.tr_rhat)


# The Monte Carlo contractions in batch-first einsum form, (batch, K, L, N)
# with the draws on the leading axis.  The package draws and contracts
# (K, L, N, batch); these are the references it is checked against.

def einsum_lmmse_estimate(z, stats, cfg):
    """sqrt(rho_p tau_p) R Psi^-1 z per link, one einsum over (..., K, L, N)."""
    return np.sqrt(cfg.rho_p * cfg.tau_p) * np.einsum(
        "klba,...klb->...kla", dense_psi_inv_r(stats, cfg).conj(), z)


def einsum_x(ghat, g):
    """x[b, k, m, l] = ghat_kl^H g_ml for every draw b."""
    return np.einsum("bkln,bmln->bkml", ghat.conj(), g)


def einsum_batches(stats, cfg, mc_samples, rng):
    """(g, ghat) batches from the package's draws and einsum_lmmse_estimate,
    both moved to batch-first (batch, K, L, N)."""
    done = 0
    while done < mc_samples:
        n = min(MC_BATCH, mc_samples - done)
        g = sample_realization(stats, rng, size=n)
        z = sample_pilot_observation(g, stats, cfg, rng)
        yield (np.moveaxis(g, -1, 0),
               einsum_lmmse_estimate(np.moveaxis(z, -1, 0), stats, cfg))
        done += n


def einsum_se_oracle(stats, cfg, mc_samples, rng):
    """se_statistics_oracle's (b, b_se, C, C_se, D, D_se) from einsum_x."""
    K, L, _ = stats.gbar.shape
    kk = np.arange(K)
    b_sum, b_sq = 0.0, 0.0
    c_sum, c_sq = 0.0, 0.0
    d_sum, d_sq = 0.0, 0.0
    for g, ghat in einsum_batches(stats, cfg, mc_samples, rng):
        xt = einsum_x(ghat, g).transpose(1, 2, 3, 0)     # (K, K, L, batch)
        y_b = xt[kk, kk]
        y_d = cfg.sigma2 * np.einsum("bkln,bkln->bkl", ghat, ghat.conj()).real
        x_sq = np.abs(xt) ** 2
        b_sum += y_b.sum(axis=-1)
        b_sq += (np.abs(y_b) ** 2).sum(axis=-1)
        c_sum += xt @ xt.conj().swapaxes(-1, -2)
        c_sq += x_sq @ x_sq.swapaxes(-1, -2)
        d_sum += y_d.sum(axis=0)
        d_sq += (y_d ** 2).sum(axis=0)
    return (mean_and_stderr(b_sum, b_sq, mc_samples)
            + mean_and_stderr(c_sum, c_sq, mc_samples)
            + mean_and_stderr(d_sum, d_sq, mc_samples))


def einsum_energy_oracle(p, stats, cfg, mc_samples, rng):
    """harvested_energy_oracle's (mean, stderr), contracted batch-first."""
    sqrt_p = np.sqrt(p)
    total = total_sq = 0.0
    for g, ghat in einsum_batches(stats, cfg, mc_samples, rng):
        n, K, L, _ = g.shape
        s = np.exp(2j * np.pi * rng.uniform(size=(n, K, L)))
        x = np.einsum("bil,biln->bln", sqrt_p * s, ghat.conj())
        r = (g.reshape(n, K, -1) @ x.reshape(n, -1, 1))[..., 0]
        y = cfg.mu * cfg.tau_d * np.abs(r) ** 2
        total += y.sum(axis=0)
        total_sq += (y ** 2).sum(axis=0)
    return mean_and_stderr(total, total_sq, mc_samples)


def least_powers(t, terms):
    """The least uplink powers that reach SINR t under the weights whose
    sinr_terms are terms, from one K x K solve of B eta = t noise with
    B = diag((1 + t) gain) - t cross; None if B is singular or eta is
    not positive.  The per-target reference for
    maxmin.minimum_uplink_powers."""
    gain, cross, noise = terms
    if t == 0.0:
        return np.zeros_like(gain)
    B = -t * cross
    B[np.diag_indices_from(B)] += (1.0 + t) * gain
    try:
        eta = np.linalg.solve(B, t * noise)
    except np.linalg.LinAlgError:
        return None
    return eta if np.all(eta > 0.0) else None


def sequential_bisection(stats, cache, se, cfg, eps):
    """(trace, t*, LP calls, LP pivots) of maxmin.solve_maxmin's bisection,
    probed one target at a time: per target one least_powers solve, a
    test of the need against each energy cut in turn, and at most one
    LP call on the carried basis.  The first call starts from the crash
    basis: energy row k on q_kl* (index k L + l*), l* the AP whose beam
    to UE k gives k the most energy per budget share, and the budget
    rows on their slacks.  Each weight vector's rungs are the halvings
    of the bracket toward t_min; after a weight vector whose first rung
    held, each rung below the midpoint is first tried at its mirror
    image t_min + t_max - t, the mirrors highest first, all rungs
    within MAX_PROBES."""
    coef = maxmin.energy_coefficient_table(se, cfg)
    scale = cfg.rho_d / cache.tr_rhat
    K, L = cfg.K, cfg.L
    best_ap = [int(np.argmax(coef[k, k] * scale[k])) for k in range(K)]
    start = [k * L + best_ap[k] for k in range(K)] + [K * L + K + l
                                                      for l in range(L)]
    lp = FeasibilityLP(maxmin.build_feasibility_lp(cache, coef, cfg), start)
    energy = -lp.A[:cfg.K]
    pilot = cfg.tau_p * cfg.rho_p
    cuts, lp_calls = [], 0

    def probe(t, terms):
        nonlocal lp_calls
        eta = least_powers(t, terms)
        if eta is None:
            return None
        need = (1.0 + maxmin.ENERGY_MARGIN) * (pilot + cfg.tau_u * eta)
        if any(y @ need > (1.0 + maxmin.CUT_RTOL) * h for y, h in cuts):
            return None
        lp_calls += 1
        b = np.concatenate([-need, np.ones(cfg.L)])
        q = lp_feasible(lp, b)
        if q is None:
            y = np.maximum(lp.farkas[:cfg.K], 0.0)
            g = (y @ energy).reshape(cfg.K, -1).max(axis=0)
            cuts.append((y, np.maximum(g, 0.0).sum()))
            return None
        q = q.reshape(scale.shape)
        p = q / np.maximum(1.0, q.sum(axis=0)) * scale
        spare = harvested_energy(p, coef) - pilot
        if np.any(spare < 0.0):
            return None
        return PowerAllocation(p=p, eta=np.minimum(eta, spare / cfg.tau_u))

    terms = sinr_terms(np.ones_like(se.b, dtype=complex), se)
    trace, best = [], None
    t_upper = maxmin.upper_bound_tmax(se, cache, stats, cfg)
    t_min, t_max = 0.0, t_upper
    first_held = False
    while t_max - t_min > eps and len(trace) < maxmin.MAX_PROBES:
        room = maxmin.MAX_PROBES - len(trace)
        rungs = [0.5 * (t_min + t_max)]
        while rungs[-1] - t_min > eps and len(rungs) < room:
            rungs.append(0.5 * (t_min + rungs[-1]))
        if first_held:
            mirrors = [t_min + t_max - t for t in rungs[1:]]
            rungs = (mirrors[::-1] + rungs)[:room]
        for j, t in enumerate(rungs):
            alloc = probe(t, terms)
            if alloc is not None:
                break
            trace.append((t, False, None))
        first_held = alloc is not None and j == 0
        if alloc is None:
            t_max = t
            continue
        cert, terms = maxmin._certify(alloc, se, cfg)
        t_star = cert.t_star
        best = t_star if best is None else max(best, t_star)
        trace.append((t, True, best))
        if t_star > t_min + 1e-9 * max(1.0, t_min):
            t_min, t_max = t_star, t_upper
        else:
            t_min, t_max = max(t_min, t_star), t
    if best is None and t_max > 0.0:
        alloc = probe(0.0, terms)
        if alloc is not None:
            best = maxmin._certify(alloc, se, cfg)[0].t_star
        trace.append((0.0, best is not None, best))
    return tuple(trace), 0.0 if best is None else best, lp_calls, lp.pivots


def _exact_solve(rows, rhs):
    """Solve a square integer system exactly: (z, d) with x = z / d,
    z a list of ints and d > 0 an int; None if singular.

    Fraction-free (Bareiss) elimination keeps every intermediate an
    integer.  d is |det|, so by Cramer's rule every d * x_i is an
    integer and the back-substitution divides exactly.
    """
    n = len(rows)
    m = [[int(v) for v in r] + [int(v)] for r, v in zip(rows, rhs)]
    prev = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        for r in range(col + 1, n):
            for c in range(col + 1, n + 1):
                m[r][c] = (m[r][c] * m[col][col] - m[r][col] * m[col][c]) // prev
            m[r][col] = 0
        prev = m[col][col]
    z = [0] * n
    for i in range(n - 1, -1, -1):
        s = prev * m[i][n] - sum(m[i][j] * z[j] for j in range(i + 1, n))
        z[i] = s // m[i][i]
    if prev < 0:
        return [-v for v in z], -prev
    return z, prev


def oracle_feasible(A, b):
    """Exact feasibility verdict for {Ax <= b, x >= 0}.

    Primal phase I in rational arithmetic: a slack per row, one
    artificial per row with b_i < 0 (that row negated), and the sum of
    the artificials minimized by the tableau simplex under Bland's rule,
    which terminates in exact arithmetic.  Feasible iff the minimum is 0.
    """
    A = np.asarray(A, dtype=float)
    m, n = A.shape
    neg = [i for i in range(m) if b[i] < 0]
    width = n + m + len(neg)
    tab, basis = [], list(range(n, n + m))
    for i in range(m):
        sign = -1 if b[i] < 0 else 1
        row = ([Fraction(sign * float(v)) for v in A[i]]
               + [Fraction(0)] * (width - n) + [Fraction(sign * float(b[i]))])
        row[n + i] = Fraction(sign)
        tab.append(row)
    for k, i in enumerate(neg):
        tab[i][n + m + k] = Fraction(1)
        basis[i] = n + m + k
    # Reduced costs of the artificials' sum, and minus its value last.
    cost = [Fraction(int(j >= n + m)) for j in range(width)] + [Fraction(0)]
    for i in neg:
        cost = [c - v for c, v in zip(cost, tab[i])]
    while True:
        enter = next((j for j in range(width) if cost[j] < 0), None)
        if enter is None:
            return cost[-1] == 0
        rows = [i for i in range(m) if tab[i][enter] > 0]
        leave = min(rows, key=lambda i: (tab[i][-1] / tab[i][enter], basis[i]))
        piv = tab[leave][enter]
        tab[leave] = [v / piv for v in tab[leave]]
        for row in tab + [cost]:
            if row is not tab[leave] and row[enter] != 0:
                f = row[enter]
                row[:] = [v - f * w for v, w in zip(row, tab[leave])]
        basis[leave] = enter


def lp_stream(seed):
    """Endless (A, b) float draws of small integer LPs, trial t of kind
    t % 3: dense entries in -3..3, sparse +-1 entries, or the max-min
    feasibility LP's shape (need rows -G x <= -need over K*L budget
    shares, one unit budget row per AP).  The zeros in b make many of
    them degenerate."""
    rng = np.random.default_rng(seed)
    for t in itertools.count():
        if t % 3 == 0:
            n, m = rng.integers(1, 30), rng.integers(1, 40)
            A = rng.integers(-3, 4, size=(m, n))
            b = rng.integers(-3, 4, size=m)
        elif t % 3 == 1:
            n, m = rng.integers(1, 40), rng.integers(1, 40)
            A = rng.choice([-1., 0., 0., 0., 1.], size=(m, n))
            b = rng.choice([-1., 0., 0., 1.], size=m)
        else:
            K, L = rng.integers(1, 12), rng.integers(1, 12)
            G = rng.integers(0, 4, size=(K, K * L))
            need = rng.integers(0, 4, size=K)
            A = np.vstack([-G, np.tile(np.eye(L), K)])
            b = np.concatenate([-need, np.ones(L)])
        yield A.astype(float), b.astype(float)


def random_int_lp(rng, max_vars=8, max_rows=12):
    """Small random integer LP within the oracle's tractable range."""
    n = int(rng.integers(1, max_vars + 1))
    m = int(rng.integers(1, max_rows + 1))
    A = rng.integers(-3, 4, size=(m, n)).astype(float)
    b = rng.integers(-3, 4, size=m).astype(float)
    return A, b
