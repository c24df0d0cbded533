"""Max-min fair joint power control and decoding-weight selection.

Alternates between a feasibility test over the downlink powers p_il
and uplink powers eta_k (fixed weights), and the closed-form optimal
fusion weights (fixed powers), bracketing the best worst-case SINR t by
bisection, reset to [t*, upper_bound_tmax] after every certified step.
A run whose top target held makes the next also try the upper half of
the bracket, at the mirror images of its lower rungs (solve_maxmin).

With the weights fixed, the least uplink powers that reach t come from
a linear solve, so the LP only asks whether the APs can deliver the
energy those powers need.  One _EnergyLP per solve poses it on one
lp.FeasibilityLP, whose rows stay fixed while only the needs change, in
one run per weight vector: one stacked solve (minimum_uplink_powers)
gives the needs of the targets the bisection would try, and cuts settle
most before the LP runs, whose first call starts from a crash basis.
Each infeasible verdict leaves a Farkas row y (FeasibilityLP.farkas)
whose energy entries, clipped to y >= 0, make a cut: with g =
sum_k y_k E_k over the per-share energy rows E, every budget split
q >= 0 with sum_i q_il <= 1 has y . E q = sum_il g_il q_il <=
h(y) = sum_l max(0, max_i g_il).  So a need (margin included) with
y . need > h(y) is infeasible, an exact proof without LP tolerance that
holds whatever the weights, and its probe makes no LP call.  LP
variable layout, relied on by tests: x = q, AP l's budget share spent
on UE i, flattened row-major so q_il sits at index i*L + l.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .lp import FeasibilityLP, lp_feasible
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
    trace: tuple = ()
    status: str = "solved"
    cap_hit: bool = False
    bracket: tuple = (0.0, 0.0)
    lp_pivots: int = 0
    lp_calls: int = 0


def minimum_uplink_powers(ts, terms):
    """Least uplink powers eta that give every UE an SINR of at least t,
    for each target t in ts: one (K,) eta per t, or None where none does.

    terms = (gain, cross, noise) are the sinr_terms of the weights.
    SINR_k >= t reads B eta >= t noise, where B = diag((1 + t) gain) -
    t cross.  Every C_km is PSD, so cross >= 0 and B is a Z-matrix.  A
    positive solution of B eta = t noise (noise > 0) makes B a
    nonsingular M-matrix, whose inverse is entrywise non-negative, so
    that eta is the least one reaching t (Yates' standard interference
    functions).  Otherwise no eta >= 0 reaches t.  One stacked solve
    gives each t the bits of its own solve; if a singular B fails the
    stack, each t is solved alone.
    """
    gain, cross, noise = terms
    ts = np.asarray(ts, dtype=float)
    B = -ts[:, None, None] * cross
    idx = np.arange(gain.size)
    B[:, idx, idx] += (1.0 + ts)[:, None] * gain
    try:
        eta = np.linalg.solve(B, (ts[:, None] * noise)[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if ts.size > 1:
            return [e for t in ts for e in minimum_uplink_powers([t], terms)]
        eta = np.full((1, gain.size), np.nan)
    ok = np.all(eta > 0.0, axis=1)
    return [np.zeros_like(gain) if t == 0.0 else e if good else None
            for t, e, good in zip(ts, eta, ok)]


# Relative margin on the energy rows.  Without it the phase-I vertex sits
# exactly on the energy boundary, and rounding in the certificate can
# leave a UE a few ulps short of its need on a feasible drop.
ENERGY_MARGIN = 1e-9


def build_feasibility_lp(cache, energy_coef, cfg):
    """The rows A of the inequality system A q <= b whose feasibility
    means the APs can pay for the UEs' energy need.

    Variables: q_il = p_il tr(Rhat_il) / rho_d, the share of AP l's
    budget spent on UE i.  Rows 0..K-1: -E_k q <= -(1 + ENERGY_MARGIN)
    need_k, where E_k q is UE k's harvest and need_k = tau_p rho_p +
    tau_u eta_k.  Rows K..K+L-1: sum_i q_il <= 1 at each AP.  Only b
    depends on the uplink powers eta; _EnergyLP.run forms it.
    energy_coef is the (K, K, L) table from energy_coefficient_table.
    """
    K, L = cache.tr_rhat.shape
    per_share = energy_coef * (cfg.rho_d / cache.tr_rhat)   # dE_k / dq_il
    return np.vstack([-per_share.reshape(K, K * L), np.tile(np.eye(L), K)])


# A cut rules a probe out only if y . need exceeds h(y) by this relative
# slack, far above the rounding of either sum.
CUT_RTOL = 1e-12


class _EnergyLP:
    """One solve's feasibility probes: the LP (lp, rows laid out once,
    with its carried simplex basis), the energy cuts, one row y of cut_y
    and bound h(y) in cut_h per infeasible LP verdict (module
    docstring), and the count of LP calls."""

    def __init__(self, cache, coef, cfg):
        self.coef, self.cfg = coef, cfg
        self.scale = cfg.rho_d / cache.tr_rhat      # q_il -> p_il
        # Crash basis: energy row k on UE k's own beam at the AP where it
        # gives k the most energy per budget share; budget rows on slacks.
        K, L = self.scale.shape
        own = np.einsum("kkl->kl", coef) * self.scale
        start = np.arange(K) * L + own.argmax(axis=1)
        self.lp = FeasibilityLP(build_feasibility_lp(cache, coef, cfg),
                                np.append(start, K * L + K + np.arange(L)))
        self.cut_y, self.cut_h = np.empty((0, cfg.K)), np.empty(0)
        self.lp_calls = 0

    def run(self, ts, terms):
        """(i, alloc): the first target ts[i] the APs can pay for under
        the weights whose sinr_terms are terms, with a power allocation
        that does, or (len(ts), None) if they can pay for none.

        The least uplink powers reaching each t fix the UEs' energy
        needs, margin included.  The cuts test them all at once, the LP
        the first one left open, and each new cut the needs after it.
        A new cut that does not rule out its own verdict's need raises
        RuntimeError, so an unproved verdict fails the drop.  The LP
        point is mapped back to powers with every AP budget clipped to
        at most rho_d, and the energy is re-evaluated in float: eta is
        capped at what the harvest covers after the pilot, and the probe
        fails if some UE cannot even pay for its pilot.  So the returned
        allocation meets both budgets by construction.
        """
        cfg = self.cfg
        pilot = cfg.tau_p * cfg.rho_p
        etas = minimum_uplink_powers(ts, terms)
        reach = [i for i, eta in enumerate(etas) if eta is not None]
        eta = np.reshape([etas[i] for i in reach], (-1, cfg.K))
        need = (1.0 + ENERGY_MARGIN) * (pilot + cfg.tau_u * eta)
        cut = need @ self.cut_y.T > (1.0 + CUT_RTOL) * self.cut_h
        unsettled = ~cut.any(axis=1)
        for j, i in enumerate(reach):
            if not unsettled[j]:
                continue
            self.lp_calls += 1
            b = np.concatenate([-need[j], np.ones(cfg.L)])
            q = lp_feasible(self.lp, b)
            if q is None:
                y = np.maximum(self.lp.farkas[:cfg.K], 0.0)
                g = -(y @ self.lp.A[:cfg.K]).reshape(cfg.K, -1).min(axis=0)
                h = np.maximum(g, 0.0).sum()
                # The verdict is trusted only through its own cut: one that
                # does not rule out this need would lower t_max unproved.
                if not need[j] @ y > (1.0 + CUT_RTOL) * h:
                    raise RuntimeError(
                        f"infeasible LP verdict at t = {ts[i]:.6g} not proved "
                        f"by its Farkas row: y . need = {need[j] @ y:.6g}, "
                        f"h(y) = {h:.6g}")
                self.cut_y = np.vstack([self.cut_y, y])
                self.cut_h = np.append(self.cut_h, h)
                unsettled[j + 1:] &= need[j + 1:] @ y <= (1.0 + CUT_RTOL) * h
                continue
            q = q.reshape(self.scale.shape)
            p = q / np.maximum(1.0, q.sum(axis=0)) * self.scale
            spare = harvested_energy(p, self.coef) - pilot
            if not np.any(spare < 0.0):
                eta = np.minimum(etas[i], spare / cfg.tau_u)
                return i, PowerAllocation(p=p, eta=eta)
        return len(ts), None


def optimal_lsfd(eta, se):
    """SINR-maximizing fusion weights a_k = (sum_m eta_m C_km + D_k)^-1 b_k;
    raises numpy.linalg.LinAlgError if some system is not positive definite."""
    return _decoding_weights(np.broadcast_to(eta, se.second.shape[:2]), se)


def _decoding_weights(w, se):
    """Solve M_k a_k = b_k, M_k = sum_m w_km C_km + diag D_k, for every UE k by
    Woodbury, a_k = D^-1 b - D^-1 V W (I + V^H D^-1 V W)^-1 V^H D^-1 b,
    with V = u[pick] and W = diag(w[pick]) >= 0 (SEStatistics.copilots):
    a g x g solve.  LinAlgError unless d > 0, making M_k positive definite."""
    pick, v = se.copilots
    d = (w[:, None, :] @ se.same_ap)[:, 0] + se.D
    if not d.min() > 0.0:      # also catches NaN
        raise np.linalg.LinAlgError(f"LSFD diagonal min {d.min()} <= 0")
    vhd = v.conj() / d[:, None, :]                  # rows of V^H D^-1
    wv = w[pick][..., None] * v
    # A trailing axis keeps b a stack of vectors in numpy 1.x and 2.x.
    z = np.linalg.solve(vhd @ wv.swapaxes(1, 2) + np.eye(v.shape[1]),
                        vhd @ se.b[..., None])
    return (se.b - (z.swapaxes(1, 2) @ wv)[:, 0]) / d


def upper_bound_tmax(se, cache, stats, cfg):
    """Worst per-UE SINR when each UE harvests the most it can and
    transmits alone: every AP spends its whole budget on the beam that
    gives that UE the most energy per budget share (at low pilot SNR,
    maybe another UE's).  No feasible allocation does better, so the
    minimum over UEs bounds the max-min optimum from above; zero means
    some UE cannot cover its pilot energy even so."""
    per_share = energy_coefficient_table(se, cfg) * cfg.rho_d / cache.tr_rhat
    energy = per_share.max(axis=1).sum(axis=1)
    eta = np.maximum(0.0, (energy - cfg.tau_p * cfg.rho_p) / cfg.tau_u)
    a = _decoding_weights(np.diag(eta), se)
    # With its optimal weights a_k^H b_k = a_k^H M_k a_k = q_k, so the
    # lone UE's SINR is eta_k q_k / (1 - eta_k q_k).
    q = np.einsum("kl,kl->k", a.conj(), se.b).real
    return float(np.min(eta * q / (1.0 - eta * q)))


def _certify(alloc, se, cfg):
    """(result, terms): the solved MaxMinResult at alloc, with the
    optimal weights for alloc, the SINRs they give and their minimum,
    and the weights' sinr_terms, which the next probes reuse.

    Raises ValueError if the minimum SINR is not finite, so no solve is
    reported as solved without a finite certificate.
    """
    a = optimal_lsfd(alloc.eta, se)
    terms = sinr_terms(a, se)
    sinr_k = sinr(terms, alloc.eta)
    t_star = float(sinr_k.min())
    if not np.isfinite(t_star):
        raise ValueError(f"certified minimum SINR {t_star} is not finite")
    return MaxMinResult(t_star=t_star, allocation=alloc, weights=a,
                        per_ue_sinr=sinr_k,
                        per_ue_se=spectral_efficiency(sinr_k, cfg)), terms


# Iteration guard of the bisection; a solve that reaches it reports cap_hit.
MAX_PROBES = 200


def solve_maxmin(stats, cache, se, cfg, eps=1e-2):
    """Alternating bisection for the max-min fair SINR problem.

    Each run tries, under the current weights, the bracket's midpoint
    and its halvings toward t_min; the first feasible probe is
    re-certified with refreshed optimal weights, and the bracket becomes
    [t_star, upper_bound_tmax] (which can re-open a closed bracket, so
    the best certified iterate is remembered and returned).  If the
    last run's top target held, t* may lie in the upper half, so the
    run first tries the mirror t_min + t_max - t of each rung t below
    the midpoint, highest first; every rung counts toward MAX_PROBES.
    A feasible probe whose certified value does not advance the bracket
    closes it from above instead: with exact arithmetic that never
    happens (feasibility at t certifies at least t), but in float the
    probe's uplink powers can fall marginally short of t once capped at
    the harvest, and re-opening on such probes would keep the loop
    alive forever.  Stops once the bracket is narrower than eps or
    MAX_PROBES probes have run.
    """
    energy_lp = _EnergyLP(cache, energy_coefficient_table(se, cfg), cfg)
    terms = sinr_terms(np.ones_like(se.b, dtype=complex), se)
    trace = []

    t_upper = upper_bound_tmax(se, cache, stats, cfg)
    t_min, t_max = 0.0, t_upper
    best, i = None, None
    while t_max - t_min > eps and len(trace) < MAX_PROBES:
        ts = [0.5 * (t_min + t_max)]
        while ts[-1] - t_min > eps and len(trace) + len(ts) < MAX_PROBES:
            ts.append(0.5 * (t_min + ts[-1]))
        if i == 0:      # the last run's top target held: mirror rungs first
            ts = [t_min + t_max - t for t in ts[:0:-1]] + ts
            ts = ts[:MAX_PROBES - len(trace)]
        i, alloc = energy_lp.run(ts, terms)
        trace += [(t, False, None) for t in ts[:i]]
        if alloc is None:
            t_max = ts[-1]
            continue
        t = ts[i]
        cert, terms = _certify(alloc, se, cfg)
        t_star = cert.t_star
        if best is None or t_star > best.t_star:
            best = cert
        trace.append((t, True, best.t_star))
        if t_star > t_min + 1e-9 * max(1.0, t_min):
            t_min, t_max = t_star, t_upper
        else:
            t_min, t_max = max(t_min, t_star), t

    if best is None and t_max > 0.0:
        # Bracket collapsed without one certified point; a plain
        # feasibility check at t = 0 settles solvability.  t_max = 0
        # already says that some UE cannot pay its pilot.
        _, alloc = energy_lp.run([0.0], terms)
        if alloc is not None:
            best = _certify(alloc, se, cfg)[0]
        trace.append((0.0, best is not None,
                      None if best is None else best.t_star))
    if best is None:    # not even t = 0 is feasible: all-zero powers
        best = MaxMinResult(
            t_star=0.0,
            allocation=PowerAllocation(p=np.zeros((cfg.K, cfg.L)),
                                       eta=np.zeros(cfg.K)),
            weights=np.ones((cfg.K, cfg.L), dtype=complex),
            per_ue_sinr=np.zeros(cfg.K), per_ue_se=np.zeros(cfg.K),
            status="infeasible_at_zero")

    # The loop ends with the bracket open only at the iteration guard.
    return replace(best, trace=tuple(trace), bracket=(t_min, t_max),
                   cap_hit=t_max - t_min > eps, lp_pivots=energy_lp.lp.pivots,
                   lp_calls=energy_lp.lp_calls)


def fpc_baseline(stats, cache, se, cfg):
    """Fixed heuristic: p_kl proportional to 1/sqrt(tr(Rhat_kl)).

    The per-AP scale c_l is set so each AP radiates exactly rho_d, and
    each UE spends whatever energy it harvests beyond the pilot cost.
    """
    root = np.sqrt(cache.tr_rhat)
    p = (cfg.rho_d / root.sum(axis=0))[None, :] / root
    energy = harvested_energy(p, energy_coefficient_table(se, cfg))
    eta = np.maximum(0.0, (energy - cfg.tau_p * cfg.rho_p) / cfg.tau_u)
    return _certify(PowerAllocation(p=p, eta=eta), se, cfg)[0]
