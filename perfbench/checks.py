"""Correctness checks on cfwpt's outputs, written apart from the package.

Each check either recomputes a quantity with its own numpy expression
or tests a property the method must have.  A check returns a list of
failure messages; an empty list means it passed.  None of them compares
against stored output.
"""

from __future__ import annotations

import csv
import json
import math
import re

import numpy as np

SINR_RTOL = 1e-9       # own SINR expression vs per_ue_sinr
BUDGET_RTOL = 1e-6     # AP power and UE energy constraints
IDENTITY_RTOL = 1e-10  # D = sigma^2 b in the closed forms
Z_LIMIT = 3.0          # validate's own pass threshold


def likely(values, level=0.1):
    """The value that a share 1 - level of the values reach or exceed."""
    return float(np.quantile(np.asarray(values, dtype=float), level,
                             method="inverted_cdf"))


def own_sinr(a, eta, se):
    """Per-UE SINR from weights a (K, L), powers eta (K,) and (b, C, D)."""
    a = np.asarray(a, dtype=complex)
    signal = eta * np.abs(np.sum(a.conj() * se.b, axis=1)) ** 2
    interference = np.einsum("kl,kmlw,kw,m->k", a.conj(), se.C, a, eta).real
    noise = np.sum(np.abs(a) ** 2 * se.D, axis=1)
    return signal / (interference - signal + noise)


def energy_per_power(cfg, se):
    """(K, K, L) array: dE_k / dp_il = mu tau_d E|ghat_il^H g_kl|^2.

    That second moment is the diagonal C[i, k, l, l] of the decoding
    statistics, so this also ties wpt's closed form to wit's.
    """
    second = np.einsum("ikll->kil", se.C).real
    return cfg.mu * cfg.tau_d * second


def best_pilot_margin(cfg, cache, se):
    """max over AP budgets of min_k E_k / (tau_p rho_p), with eta = 0.

    Below 1 no allocation lets every UE pay for its pilot.  Variables
    are the budget shares q_il = p_il tr(Rhat_il) / rho_d, which keeps
    the LP well scaled.
    """
    # Imported here, not at the top: scipy.optimize adds about 20 MB,
    # which would count in peak_rss_mb on drops that never need it.
    import scipy.optimize

    K, L = se.b.shape
    tr_rhat = np.trace(cache.Rhat, axis1=-2, axis2=-1).real
    gain = energy_per_power(cfg, se) * (cfg.rho_d / tr_rhat)[None] \
        / (cfg.tau_p * cfg.rho_p)
    n = K * L
    # Variables [q, s]: maximize s subject to s <= gain_k . q for every
    # UE and sum_i q_il <= 1 for every AP.
    a_ub = np.zeros((K + L, n + 1))
    a_ub[:K, :n] = -gain.reshape(K, n)
    a_ub[:K, n] = 1.0
    for l in range(L):
        a_ub[K + l, l:n:L] = 1.0
    b_ub = np.concatenate([np.zeros(K), np.ones(L)])
    c = np.zeros(n + 1)
    c[n] = -1.0
    res = scipy.optimize.linprog(c, A_ub=a_ub, b_ub=b_ub, method="highs")
    if res.status != 0:
        raise RuntimeError(f"energy LP: {res.message}")
    return -res.fun


def check_drop(cfg, cache, se, mmf, fpc, eps, t_upper):
    """Checks on one drop's max-min result; returns (failures, record).

    A drop reported infeasible_at_zero passes when the benchmark's own
    LP confirms that no allocation within the AP budgets covers every
    UE's pilot energy.
    """
    fail = []
    record = {"status": mmf.status, "cap_hit": bool(mmf.cap_hit),
              "t_star": float(mmf.t_star), "probes": len(mmf.trace),
              "infeasible_probes": sum(1 for _, ok, _ in mmf.trace if not ok)}
    if mmf.status == "infeasible_at_zero":
        record["pilot_margin"] = margin = best_pilot_margin(cfg, cache, se)
        if margin > 1.0 + BUDGET_RTOL:
            fail.append(f"reported infeasible, but every pilot can be paid "
                        f"{margin:.6g} times over")
        return fail, record
    if mmf.status != "solved":
        fail.append(f"status {mmf.status}")
    if mmf.cap_hit:
        fail.append("iteration cap hit")
    if not np.all(np.isfinite(mmf.per_ue_se)):
        fail.append("non-finite SE")

    p, eta = mmf.allocation.p, mmf.allocation.eta
    sinr = own_sinr(mmf.weights, eta, se)
    if not np.allclose(sinr, mmf.per_ue_sinr, rtol=SINR_RTOL, atol=0.0):
        fail.append("per_ue_sinr differs from the recomputed SINR")
    se_bits = cfg.tau_u / cfg.tau_c * np.log2(1.0 + mmf.per_ue_sinr)
    if not np.allclose(se_bits, mmf.per_ue_se, rtol=1e-12, atol=0.0):
        fail.append("per_ue_se != tau_u/tau_c log2(1 + SINR)")

    tr_rhat = np.trace(cache.Rhat, axis1=-2, axis2=-1).real   # (K, L)
    ap_power = np.sum(p * tr_rhat, axis=0)
    if np.any(ap_power > cfg.rho_d * (1.0 + BUDGET_RTOL)):
        fail.append(f"AP budget exceeded: max {ap_power.max():.6g} W")

    energy = np.einsum("kil,il->k", energy_per_power(cfg, se), p)
    need = cfg.tau_p * cfg.rho_p + cfg.tau_u * eta
    if np.any(energy < need * (1.0 - BUDGET_RTOL)):
        fail.append("harvested energy below pilot plus uplink spending")

    fpc_min = float(fpc.per_ue_sinr.min())
    if not fpc_min - eps <= mmf.t_star <= t_upper * (1.0 + 1e-9):
        fail.append(f"t* = {mmf.t_star:.6g} outside "
                    f"[{fpc_min - eps:.6g}, {t_upper:.6g}]")
    record.update(fpc_min_sinr=fpc_min, t_upper=float(t_upper))
    return fail, record


def _rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


_LIKELY = re.compile(r"^(per-UE SE|min SE per setup), (MMF|FPC): "
                     r"90%-likely = (\S+) bits/s/Hz, "
                     r"95%-likely = (\S+) bits/s/Hz$")


def check_sweep_output(out_dir, setups, K, solved, cdf_text):
    """The optimize files against the checked drops, and cdf's levels.

    `solved` holds the per-UE MMF SE of every drop the benchmark checked,
    in setup order.  Returns (failures, per-UE MMF SE from the CSV).
    """
    fail = []
    manifest = json.loads((out_dir / "manifest.json").read_text())
    records = manifest["records"]
    if len(records) != setups or len(solved) != setups:
        return [f"{len(records)} records, {len(solved)} checked drops, "
                f"{setups} requested"], []
    for rec, se in zip(records, solved):
        if rec["se_mmf"] != [float(v) for v in se]:
            fail.append(f"setup {rec['setup_id']}: manifest SE differs from "
                        "the solver result")

    per_ue = {"MMF": [], "FPC": []}
    for row in _rows(out_dir / "se_per_ue.csv"):
        per_ue[row["scheme"]].append(float(row["se_bits_per_hz"]))
    min_se = {"MMF": [], "FPC": []}
    for row in _rows(out_dir / "min_se_per_setup.csv"):
        min_se[row["scheme"]].append(float(row["min_se"]))
    if len(per_ue["MMF"]) != setups * K or len(min_se["MMF"]) != setups:
        fail.append("CSV row counts do not match setups and UEs")

    found = {}
    for line in cdf_text.splitlines():
        m = _LIKELY.match(line.strip())
        if m:
            found[(m[1], m[2])] = (float(m[3]), float(m[4]))
    for label, table in (("per-UE SE", per_ue), ("min SE per setup", min_se)):
        for scheme, values in table.items():
            want = (likely(values, 0.1), likely(values, 0.05))
            got = found.get((label, scheme))
            if got is None or not all(math.isclose(g, w, rel_tol=1e-11)
                                      for g, w in zip(got, want)):
                fail.append(f"cdf {label} {scheme}: {got} != {want}")
    return fail, per_ue["MMF"]


_Z = re.compile(r"^(\S+)\s+max\|z\| = (\S+)\s+over (\d+) entries$")


def check_validate(rc, text, se, cfg):
    """Exit status, every max|z| within 3, and D = sigma^2 b."""
    fail = [] if rc == 0 else [f"validate exited {rc}"]
    z = {m[1]: float(m[2]) for m in map(_Z.match, text.splitlines()) if m}
    if sorted(z) != ["C", "D", "b", "harvested_energy"]:
        fail.append(f"validate reported {sorted(z)}")
    fail += [f"{name} max|z| = {v}" for name, v in z.items() if v > Z_LIMIT]
    if se is None:
        fail.append("no closed-form statistics captured")
    else:
        ref = cfg.sigma2 * se.b
        if np.max(np.abs(se.D - ref)) > IDENTITY_RTOL * np.max(np.abs(ref)):
            fail.append("D != sigma^2 b")
    return fail, z
