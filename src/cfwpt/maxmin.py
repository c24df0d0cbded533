"""Max-min fair joint power control and decoding-weight selection.

Alternates between a feasibility test over the downlink powers p_il
and uplink powers eta_k (fixed weights), and the closed-form optimal
fusion weights (fixed powers), bracketing the best worst-case SINR t by
bisection with bracket doubling after every certified step.

With the weights fixed, the least uplink powers that reach t come from
one linear solve (minimum_uplink_powers), so the LP only asks whether
the APs can deliver the energy those powers need.  Most probes are
settled before it runs.  Each infeasible verdict leaves a Farkas row y
(WarmStart.farkas) whose energy entries, clipped to y >= 0, make a cut:
with g = sum_k y_k E_k over the per-share energy rows E, every budget
split q >= 0 with sum_i q_il <= 1 has y . E q = sum_il g_il q_il <=
h(y) = sum_l max(0, max_i g_il).  So a need (margin included) with
y . need > h(y) is infeasible, an exact proof without LP tolerance that
holds whatever the weights, and its probe makes no LP call.  LP
variable layout, relied on by tests: x = q, AP l's budget share spent
on UE i, flattened row-major so q_il sits at index i*L + l.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lp import LPProblem, WarmStart, lp_feasible
from .wit import sinr, sinr_terms, spectral_efficiency
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
    bracket is the final [t_min, t_max] of the bisection, lp_calls the
    probes that reached the LP and lp_pivots their simplex pivots.
    """

    t_star: float
    allocation: PowerAllocation
    weights: np.ndarray      # (K, L) complex
    per_ue_sinr: np.ndarray  # (K,)
    per_ue_se: np.ndarray    # (K,) bits/s/Hz
    trace: tuple
    status: str
    cap_hit: bool = False
    bracket: tuple = (0.0, 0.0)
    lp_pivots: int = 0
    lp_calls: int = 0


def _result(best, K, L, trace, bracket, energy_lp, cfg, cap_hit=False):
    """The solve's outcome at best, a certified (alloc, weights, SINRs,
    t*); with best None, infeasible_at_zero and all-zero powers."""
    status = "solved" if best is not None else "infeasible_at_zero"
    if best is None:
        best = (PowerAllocation(p=np.zeros((K, L)), eta=np.zeros(K)),
                np.ones((K, L), dtype=complex), np.zeros(K), 0.0)
    alloc, weights, sinr_k, t_star = best
    return MaxMinResult(
        t_star=t_star, allocation=alloc, weights=weights, per_ue_sinr=sinr_k,
        per_ue_se=spectral_efficiency(sinr_k, cfg), trace=tuple(trace),
        status=status, cap_hit=cap_hit, bracket=bracket,
        lp_pivots=energy_lp.warm.pivots, lp_calls=energy_lp.lp_calls)


def minimum_uplink_powers(t, a, se):
    """Least uplink powers eta that give every UE an SINR of at least t.

    With the weights a fixed, SINR_k >= t reads B eta >= t noise, where
    B = diag((1 + t) gain) - t cross.  Every C_km is PSD, so cross >= 0
    and B is a Z-matrix.  A positive solution of B eta = t noise (noise
    > 0) makes B a nonsingular M-matrix, whose inverse is entrywise
    non-negative, so that eta is the least one reaching t (Yates'
    standard interference functions).  Otherwise no eta >= 0 reaches
    t, and None is returned.
    """
    return _least_powers(t, *sinr_terms(a, se))


def _least_powers(t, gain, cross, noise):
    if t == 0.0:
        return np.zeros_like(gain)
    B = -t * cross
    B[np.diag_indices_from(B)] += (1.0 + t) * gain
    try:
        eta = np.linalg.solve(B, t * noise)
    except np.linalg.LinAlgError:
        return None
    return eta if np.all(eta > 0.0) else None


# Relative margin on the energy rows.  Without it the phase-I vertex sits
# exactly on the energy boundary, and rounding in the certificate can
# leave a UE a few ulps short of its need on a feasible drop.
ENERGY_MARGIN = 1e-9


def build_feasibility_lp(eta, cache, energy_coef, cfg):
    """Inequality system whose feasibility means eta can be paid for.

    Variables: q_il = p_il tr(Rhat_il) / rho_d, the share of AP l's
    budget spent on UE i.  Rows 0..K-1: -E_k q <= -(1 + ENERGY_MARGIN)
    need_k, where E_k q is UE k's harvest and need_k = tau_p rho_p +
    tau_u eta_k.  Rows K..K+L-1: sum_i q_il <= 1 at each AP.  Only b
    depends on eta, so a solve builds A once and forms b per probe.
    energy_coef is the (K, K, L) table from energy_coefficient_table.
    """
    K, L = cache.tr_rhat.shape
    per_share = energy_coef * (cfg.rho_d / cache.tr_rhat)   # dE_k / dq_il
    A = np.vstack([-per_share.reshape(K, K * L), np.tile(np.eye(L), K)])
    return LPProblem(A=A, b=_feasibility_rhs(eta, L, cfg))


def _feasibility_rhs(eta, L, cfg):
    need = cfg.tau_p * cfg.rho_p + cfg.tau_u * np.asarray(eta, dtype=float)
    return np.concatenate([-(1.0 + ENERGY_MARGIN) * need, np.ones(L)])


# A cut rules a probe out only if y . need exceeds h(y) by this relative
# slack, far above the rounding of either sum.
CUT_RTOL = 1e-12


class _EnergyLP:
    """A drop's feasibility LP, its carried basis and its energy cuts
    (y, h(y)), one per infeasible LP verdict (module docstring)."""

    def __init__(self, lp, K):
        self.A, self.energy = lp.A, -lp.A[:K]
        self.warm, self.cuts, self.lp_calls = WarmStart(), [], 0

    def shares(self, b):
        """Budget shares q >= 0 with A q <= b, or None if there are none."""
        need = -b[:len(self.energy)]
        if any(y @ need > (1.0 + CUT_RTOL) * h for y, h in self.cuts):
            return None
        self.lp_calls += 1
        q = lp_feasible(LPProblem(A=self.A, b=b), warm=self.warm)
        if q is None:
            y = np.maximum(self.warm.farkas[:len(need)], 0.0)
            g = (y @ self.energy).reshape(len(y), -1).max(axis=0)
            self.cuts.append((y, np.maximum(g, 0.0).sum()))
        return q


def _probe(t, terms, cache, coef, cfg, energy_lp):
    """A power allocation that can pay for SINR t, or None.

    terms are sinr_terms of the current weights, formed once per weight
    vector.  energy_lp, an _EnergyLP, settles whether the APs can pay
    for the least uplink powers that reach t, by a cut or by its LP.
    The LP point is mapped back to powers with every AP budget clipped
    to at most rho_d, and the energy is re-evaluated in float: eta is
    capped at what the harvest covers after the pilot, and the probe
    fails if some UE cannot even pay for its pilot.  So the returned
    allocation meets both budgets by construction.
    """
    eta = _least_powers(t, *terms)
    if eta is None:
        return None
    b = _feasibility_rhs(eta, cache.tr_rhat.shape[1], cfg)
    q = energy_lp.shares(b)
    if q is None:
        return None
    q = q.reshape(cache.tr_rhat.shape)
    p = q / np.maximum(1.0, q.sum(axis=0)) * (cfg.rho_d / cache.tr_rhat)
    spare = harvested_energy(p, coef) - cfg.tau_p * cfg.rho_p
    if np.any(spare < 0.0):
        return None
    return PowerAllocation(p=p, eta=np.minimum(eta, spare / cfg.tau_u))


def optimal_lsfd(eta, se):
    """SINR-maximizing fusion weights a_k = (sum_m eta_m C_km + D_k)^-1 b_k.

    Raises numpy.linalg.LinAlgError if some system is not positive
    definite.
    """
    return _decoding_weights(np.broadcast_to(eta, se.second.shape[:2]), se)


def _decoding_weights(w, se):
    """Solve (sum_m w_km C_km + diag D_k) a_k = b_k for every UE k.

    The K matrices are formed from the factors of C: a batched product
    for the co-pilot rank-one terms plus a diagonal.  A stacked Cholesky
    checks that they are positive definite, then one stacked solve gives
    the weights.
    """
    M = (w[..., None] * se.u).swapaxes(1, 2) @ se.u.conj()
    idx = np.arange(se.D.shape[1])
    M[:, idx, idx] += (w[:, None, :] @ (se.second - np.abs(se.u) ** 2))[:, 0] + se.D
    np.linalg.cholesky(M)
    # The explicit trailing axis keeps b a stack of vectors under both
    # numpy 1.x and 2.x broadcasting rules.
    return np.linalg.solve(M, se.b[..., None] + 0j)[..., 0]


def upper_bound_tmax(se, cache, stats, cfg):
    """Worst per-UE SINR when each UE alone gets every AP's full budget.

    In isolation the SINR of a UE is only higher than in any shared
    allocation, so the minimum over UEs brackets the max-min optimum
    from above.  Zero means some UE cannot cover its pilot energy even
    under this most generous allocation.
    """
    coef = np.einsum("kkl->kl", energy_coefficient_table(se, cfg))
    # UE k alone: p_kl = rho_d / tr(Rhat_kl), every other row of p zero.
    energy = np.sum(cfg.rho_d / cache.tr_rhat * coef, axis=1)
    eta = np.maximum(0.0, (energy - cfg.tau_p * cfg.rho_p) / cfg.tau_u)
    a = _decoding_weights(np.diag(eta), se)
    # With its optimal weights a_k^H b_k = a_k^H M_k a_k = q_k, so the
    # lone UE's SINR is eta_k q_k / (1 - eta_k q_k).
    q = np.einsum("kl,kl->k", a.conj(), se.b).real
    return float(np.min(eta * q / (1.0 - eta * q)))


def _certify(alloc, se):
    """Optimal weights for alloc and the SINRs they give.

    Raises ValueError if the minimum SINR is not finite, so no solve is
    reported as solved without a finite certificate.
    """
    a = optimal_lsfd(alloc.eta, se)
    sinr_k = sinr(a, alloc.eta, se)
    t_star = float(sinr_k.min())
    if not np.isfinite(t_star):
        raise ValueError(f"certified minimum SINR {t_star} is not finite")
    return alloc, a, sinr_k, t_star


def solve_maxmin(stats, cache, se, cfg, eps=1e-2, max_iters=200):
    """Alternating bisection for the max-min fair SINR problem.

    Each feasible probe is re-certified with refreshed optimal weights;
    the bracket becomes [t_star, 2 t_star] after every certified step
    (the doubling can re-open a closed bracket, which is why the best
    certified iterate is remembered and returned).  A feasible probe
    whose certified value does not advance the bracket closes it from
    above instead: with exact arithmetic that never happens
    (feasibility at t certifies at least t), but in float the probe's
    uplink powers can fall marginally short of t once capped at the
    harvest, and re-opening on such probes would keep the loop alive
    forever.
    Stops once the bracket is narrower than eps or the guard trips.
    """
    K, L = cache.tr_rhat.shape
    coef = energy_coefficient_table(se, cfg)
    energy_lp = _EnergyLP(build_feasibility_lp(np.zeros(K), cache, coef, cfg),
                          K)
    terms = sinr_terms(np.ones((K, L), dtype=complex), se)
    trace = []

    t_min = 0.0
    t_max = upper_bound_tmax(se, cache, stats, cfg)
    if t_max <= 0.0:
        return _result(None, K, L, trace, (t_min, t_max), energy_lp, cfg)

    best = None
    cap_hit = False
    iters = 0
    while t_max - t_min > eps:
        if iters >= max_iters:
            cap_hit = True
            break
        iters += 1
        t = 0.5 * (t_min + t_max)
        alloc = _probe(t, terms, cache, coef, cfg, energy_lp)
        if alloc is None:
            trace.append((t, False, None))
            t_max = t
            continue
        alloc, a, sinr_k, t_star = _certify(alloc, se)
        terms = sinr_terms(a, se)
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
        alloc = _probe(0.0, terms, cache, coef, cfg, energy_lp)
        if alloc is None:
            trace.append((0.0, False, None))
            return _result(None, K, L, trace, (t_min, t_max), energy_lp, cfg)
        best = _certify(alloc, se)
        trace.append((0.0, True, best[3]))

    return _result(best, K, L, trace, (t_min, t_max), energy_lp, cfg, cap_hit)


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
