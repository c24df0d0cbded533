"""Shared test fixtures: synthetic statistics and an exact LP oracle."""

import functools
import itertools
from fractions import Fraction

import numpy as np

from cfwpt.config import ScenarioConfig
from cfwpt.geometry import ChannelStatistics, assign_pilots


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


def _exact_solve(rows, rhs):
    """Solve a square integer system exactly; None if singular.

    Fraction-free forward elimination on Python ints keeps this fast
    enough for exhaustive vertex enumeration; back-substitution
    switches to Fractions.
    """
    n = len(rows)
    m = [list(r) + [v] for r, v in zip(rows, rhs)]
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
    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        s = Fraction(m[i][n]) - sum(Fraction(m[i][j]) * x[j]
                                    for j in range(i + 1, n))
        x[i] = s / m[i][i]
    return x

def oracle_feasible(A, b):
    """Exact feasibility verdict for {Ax <= b, x >= 0}.

    Stacks the nonnegativity rows and enumerates every potential
    vertex (n-subset of rows) in rational arithmetic.  The region
    lives inside the nonnegative orthant, so it is pointed and a
    nonempty region always contains a vertex.  Verdicts are cached, so
    tests that check several pricing rules on the same integer draws
    enumerate each draw once.
    """
    A = np.asarray(A)
    return _oracle_verdict(tuple(tuple(int(v) for v in row) for row in A),
                           tuple(int(v) for v in b), A.shape[1])


@functools.cache
def _oracle_verdict(A, b, n):
    m = len(A)
    rows = [list(row) for row in A]
    rhs = list(b)
    for i in range(n):
        rows.append([-1 if j == i else 0 for j in range(n)])
        rhs.append(0)
    if all(v >= 0 for v in rhs[:m]):
        return True
    for subset in itertools.combinations(range(len(rows)), n):
        x = _exact_solve([rows[i] for i in subset], [rhs[i] for i in subset])
        if x is None:
            continue
        if all(v >= 0 for v in x) and all(
                sum(rows[i][j] * x[j] for j in range(n)) <= rhs[i]
                for i in range(m)):
            return True
    return False


def random_int_lp(rng, max_vars=8, max_rows=12):
    """Small random integer LP within the oracle's tractable range."""
    n = int(rng.integers(1, max_vars + 1))
    m = int(rng.integers(1, max_rows + 1))
    A = rng.integers(-3, 4, size=(m, n)).astype(float)
    b = rng.integers(-3, 4, size=m).astype(float)
    return A, b
