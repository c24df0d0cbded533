"""Max-min fair joint power control and decoding-weight selection.

Alternates between an LP feasibility test over the downlink powers
p_il and uplink powers eta_k (fixed weights), and the closed-form
optimal fusion weights (fixed powers), bracketing the best worst-case
SINR t by bisection with bracket doubling after every certified step.

LP variable layout, relied on by tests: x = [p, eta] with p flattened
row-major, so p_il sits at index i*L + l and eta_k at K*L + k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .lp import LPProblem, lp_feasible
from .wit import sinr, spectral_efficiency
from .wpt import PowerAllocation, harvested_energy
# The energy table, also bound under its maxmin name, which perfbench's
# per-layer timing traces.
from .wpt import harvested_energy_coefficients as energy_coefficient_table


@dataclass(frozen=True)
class MaxMinResult:
    """Outcome of one max-min solve (or of the fixed baseline).

    trace holds one (t tried, feasible, certified min-SINR or None)
    tuple per iteration.  status is "solved" or "infeasible_at_zero";
    the latter means not even t = 0 admits a feasible power allocation,
    i.e. some UE cannot cover its pilot energy.  cap_hit reports that
    the iteration guard stopped the loop before the bracket closed.
    """

    t_star: float
    allocation: PowerAllocation
    weights: np.ndarray      # (K, L) complex
    per_ue_sinr: np.ndarray  # (K,)
    per_ue_se: np.ndarray    # (K,) bits/s/Hz
    trace: tuple
    status: str
    cap_hit: bool = False


def _empty_result(K, L, trace, status):
    alloc = PowerAllocation(p=np.zeros((K, L)), eta=np.zeros(K))
    return MaxMinResult(
        t_star=0.0,
        allocation=alloc,
        weights=np.ones((K, L), dtype=complex),
        per_ue_sinr=np.zeros(K),
        per_ue_se=np.zeros(K),
        trace=tuple(trace),
        status=status,
    )


def build_feasibility_lp(t, a, se, cache, energy_coef, cfg):
    """Inequality system whose feasibility means min-SINR t is reachable.

    Rows: per UE k, the SINR target linearized in eta (weights fixed);
    per AP l, the radiated-power budget; per UE k, harvested energy
    covering pilot plus uplink spending.  energy_coef is the (K, K, L)
    table from energy_coefficient_table.
    """
    K, L = cache.tr_rhat.shape
    n = K * L + K
    A = np.zeros((2 * K + L, n))
    rhs = np.zeros(2 * K + L)

    a = np.asarray(a, dtype=complex)
    cross = np.einsum("kl,kmlw,kw->km", a.conj(), se.C, a).real   # (K, K)
    gain = np.abs(np.einsum("kl,kl->k", a.conj(), se.b + 0j)) ** 2
    noise = np.einsum("kl,kl->k", np.abs(a) ** 2, se.D)

    # t * sum_m eta_m cross[k, m] - (1 + t) * eta_k gain[k] <= -t * noise[k]
    A[:K, K * L:] = t * cross
    A[np.arange(K), K * L + np.arange(K)] -= (1.0 + t) * gain
    rhs[:K] = -t * noise

    # sum_k p_kl tr(Rhat_kl) <= rho_d at each AP
    for l in range(L):
        A[K + l, l:K * L:L] = cache.tr_rhat[:, l]
    rhs[K:K + L] = cfg.rho_d

    # tau_u eta_k - sum_il coef[k, i, l] p_il <= -tau_p rho_p
    A[K + L:, :K * L] = -energy_coef.reshape(K, K * L)
    A[K + L + np.arange(K), K * L + np.arange(K)] = cfg.tau_u
    rhs[K + L:] = -(cfg.tau_p * cfg.rho_p)

    return LPProblem(A=A, b=rhs)


def optimal_lsfd(eta, se):
    """SINR-maximizing fusion weights a_k = (sum_m eta_m C_km + D_k)^-1 b_k.

    Raises numpy.linalg.LinAlgError if some system is not positive
    definite.
    """
    interference = np.einsum("m,kmlw->klw", np.asarray(eta, dtype=float), se.C)
    return _decoding_weights(interference, se)


def _decoding_weights(interference, se):
    """Solve (interference_k + diag D_k) a_k = b_k for every UE k.

    One stacked Cholesky call over the K systems; interference is
    overwritten.
    """
    idx = np.arange(se.D.shape[1])
    interference[:, idx, idx] += se.D
    factor = cho_factor(interference, overwrite_a=True, check_finite=False)[0]
    return cho_solve((factor, False), se.b[..., None] + 0j,
                     check_finite=False)[..., 0]


def upper_bound_tmax(se, cache, stats, cfg):
    """Worst per-UE SINR when each UE alone gets every AP's full budget.

    In isolation the SINR of a UE is only higher than in any shared
    allocation, so the minimum over UEs brackets the max-min optimum
    from above.  Zero means some UE cannot cover its pilot energy even
    under this most generous allocation.
    """
    K = se.b.shape[0]
    own = np.arange(K)
    coef = energy_coefficient_table(se, cfg)
    # UE k alone: p_kl = rho_d / tr(Rhat_kl), every other row of p zero.
    energy = np.sum(cfg.rho_d / cache.tr_rhat * coef[own, own], axis=1)
    eta = np.maximum(0.0, (energy - cfg.tau_p * cfg.rho_p) / cfg.tau_u)
    a = _decoding_weights(eta[:, None, None] * se.C[own, own], se)
    # With its optimal weights a_k^H b_k = a_k^H M_k a_k = q_k, so the
    # lone UE's SINR is eta_k q_k / (1 - eta_k q_k).
    q = np.einsum("kl,kl->k", a.conj(), se.b).real
    return float(np.min(eta * q / (1.0 - eta * q)))


def _certify(x, se, K, L):
    alloc = PowerAllocation(p=x[:K * L].reshape(K, L).copy(), eta=x[K * L:].copy())
    a = optimal_lsfd(alloc.eta, se)
    sinr_k = sinr(a, alloc.eta, se)
    return alloc, a, sinr_k, float(sinr_k.min())


def solve_maxmin(stats, cache, se, cfg, eps=1e-2, max_iters=200):
    """Alternating bisection for the max-min fair SINR problem.

    Each feasible probe is re-certified with refreshed optimal weights;
    the bracket becomes [t_star, 2 t_star] after every certified step
    (the doubling can re-open a closed bracket, which is why the best
    certified iterate is remembered and returned).  A probe the LP
    calls feasible but whose certified value does not advance the
    bracket closes it from above instead: with exact arithmetic that
    never happens (feasibility at t certifies at least t), but the
    float LP can report feasible marginally past the true limit, and
    re-opening on such probes would keep the loop alive forever.
    Stops once the bracket is narrower than eps or the guard trips.
    """
    K, L = cache.tr_rhat.shape
    coef = energy_coefficient_table(se, cfg)
    a = np.ones((K, L), dtype=complex)
    trace = []

    t_min = 0.0
    t_max = upper_bound_tmax(se, cache, stats, cfg)
    if t_max <= 0.0:
        return _empty_result(K, L, trace, "infeasible_at_zero")

    best = None
    cap_hit = False
    iters = 0
    while t_max - t_min > eps:
        if iters >= max_iters:
            cap_hit = True
            break
        iters += 1
        t = 0.5 * (t_min + t_max)
        x = lp_feasible(build_feasibility_lp(t, a, se, cache, coef, cfg))
        if x is None:
            trace.append((t, False, None))
            t_max = t
            continue
        alloc, a, sinr_k, t_star = _certify(x, se, K, L)
        if best is None or t_star > best[3]:
            best = (alloc, a, sinr_k, t_star)
        trace.append((t, True, best[3]))
        if t_star > t_min + 1e-9 * max(1.0, t_min):
            t_min = t_star
            t_max = 2.0 * t_star
        else:
            t_min = max(t_min, t_star)
            t_max = t

    if best is None:
        # Bracket collapsed without one certified point; a plain
        # feasibility check at t = 0 settles solvability.
        x = lp_feasible(build_feasibility_lp(0.0, a, se, cache, coef, cfg))
        if x is None:
            trace.append((0.0, False, None))
            return _empty_result(K, L, trace, "infeasible_at_zero")
        best = _certify(x, se, K, L)
        trace.append((0.0, True, best[3]))

    alloc, weights, sinr_k, t_star = best
    return MaxMinResult(
        t_star=t_star,
        allocation=alloc,
        weights=weights,
        per_ue_sinr=sinr_k,
        per_ue_se=spectral_efficiency(sinr_k, cfg),
        trace=tuple(trace),
        status="solved",
        cap_hit=cap_hit,
    )


def fpc_baseline(stats, cache, se, cfg):
    """Fixed heuristic: p_kl proportional to 1/sqrt(tr(Rhat_kl)).

    The per-AP scale c_l is set so each AP radiates exactly rho_d, and
    each UE spends whatever energy it harvests beyond the pilot cost.
    """
    root = np.sqrt(cache.tr_rhat)
    p = (cfg.rho_d / root.sum(axis=0))[None, :] / root
    coef = energy_coefficient_table(se, cfg)
    energy = harvested_energy(p, coef)
    eta = np.maximum(0.0, (energy - cfg.tau_p * cfg.rho_p) / cfg.tau_u)
    a = optimal_lsfd(eta, se)
    sinr_k = sinr(a, eta, se)
    return MaxMinResult(
        t_star=float(sinr_k.min()),
        allocation=PowerAllocation(p=p, eta=eta),
        weights=a,
        per_ue_sinr=sinr_k,
        per_ue_se=spectral_efficiency(sinr_k, cfg),
        trace=(),
        status="solved",
    )
