"""Antenna-density tradeoff at a fixed total antenna and power budget.

Holds L*N and the total downlink radiated power fixed while trading
many small APs against few large ones, then reports quantiles of the
worst-user SE across random drops.  Distributing antennas wins on both
energy delivery and decoding diversity, so the denser deployment should
dominate; this script quantifies by how much.
"""

import argparse
import sys
import pathlib
from dataclasses import replace

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from cfwpt.cli import _setup_rng, build_drop
from cfwpt.config import ScenarioConfig
from cfwpt.geometry import PropagationModel
from cfwpt.maxmin import solve_maxmin


def sweep_arm(cfg, prop, setups, seed, eps):
    mins = []
    solved = 0
    for i in range(setups):
        stats, cache, se = build_drop(cfg, prop, _setup_rng(seed, i)[0])
        res = solve_maxmin(stats, cache, se, cfg, eps=eps)
        solved += res.status == "solved"
        mins.append(float(res.per_ue_se.min()))
    return np.array(mins), solved


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--antennas", type=int, default=64,
                    help="total service antennas L*N")
    ap.add_argument("--power", type=float, default=4.0,
                    help="total downlink power in W, split evenly across APs")
    ap.add_argument("--splits", type=int, nargs="*", default=[4, 8, 16],
                    help="AP counts L to try (each must divide --antennas)")
    ap.add_argument("--setups", type=int, default=30)
    ap.add_argument("--seed", type=int, default=777)
    ap.add_argument("--eps", type=float, default=1e-4,
                    help="bisection gap for the inner solver")
    args = ap.parse_args()

    base = ScenarioConfig(K=8, tau_p=4, tau_d=25, tau_u=171)
    prop = PropagationModel()

    print(f"{'L':>4s} {'N':>4s} {'rho_d':>8s} {'solved':>7s} "
          f"{'median':>8s} {'p10':>8s} {'p90':>8s}   min-SE, bits/s/Hz")
    for L in args.splits:
        if args.antennas % L:
            print(f"{L:>4d}    skipped: {L} does not divide {args.antennas}")
            continue
        N = args.antennas // L
        cfg = replace(base, L=L, N=N, rho_d=args.power / L)
        mins, solved = sweep_arm(cfg, prop, args.setups, args.seed, args.eps)
        q10, q50, q90 = np.quantile(mins, [0.1, 0.5, 0.9])
        print(f"{L:>4d} {N:>4d} {cfg.rho_d:>8.4f} {solved:>4d}/{args.setups:<2d} "
              f"{q50:>8.4f} {q10:>8.4f} {q90:>8.4f}")


if __name__ == "__main__":
    main()
