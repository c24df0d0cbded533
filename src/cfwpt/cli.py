"""Batch front-end: setup sweeps, oracle validation, and CDF extraction.

Subcommands:
  optimize   run max-min and the fixed baseline over many random
             setups, writing per-UE and per-setup-minimum SE tables
  validate   compare every closed-form statistic against its Monte
             Carlo estimator on a small instance (exit 1 on |z| > 3)
  cdf        turn a sweep manifest into empirical CDF tables plus a
             90%/95%-likely summary

Exit codes: 0 success, 1 validation failure or a failed optimize setup
(recorded with status "error"; the others are still written), 2
usage/config error.  All outputs are a pure function of (config, seed):
reruns are byte-identical, and setup workers are gathered in index
order so --jobs never changes file contents.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .channel import monte_carlo
from .config import ConfigError, ScenarioConfig, load_config
from .estimation import build_cache
from .geometry import PropagationModel, draw_link_statistics, place_network
from .maxmin import fpc_baseline, solve_maxmin
from .wit import lsfd_statistics, se_sums
from .wpt import energy_sums, harvested_energy, harvested_energy_coefficients

MAX_VALIDATE_SIZE = 1024      # cap on L*N*K, which bounds validate's time and memory


def _fmt(v):
    return f"{float(v):.12g}"


def _setup_rng(seed, index):
    ss = np.random.SeedSequence(seed, spawn_key=(index,))
    token = int(ss.generate_state(1, np.uint64)[0])
    return np.random.default_rng(ss), token


def build_drop(cfg, prop, rng):
    """Draw one random network and its closed-form statistics.

    Returns (stats, cache, se): link statistics, estimation cache and
    LSFD statistics, drawn from rng in the same order by every caller.
    """
    geom = place_network(cfg, rng)
    stats = draw_link_statistics(geom, prop, cfg, rng)
    cache = build_cache(stats, cfg)
    return stats, cache, lsfd_statistics(cache, stats, cfg)


def _run_setup(task):
    cfg, prop, seed, index = task
    rng, token = _setup_rng(seed, index)
    try:
        stats, cache, se = build_drop(cfg, prop, rng)
        mmf = solve_maxmin(stats, cache, se, cfg)
        fpc = fpc_baseline(stats, cache, se, cfg)
    except Exception as exc:   # one failed setup must not end the sweep
        return {"setup_id": index, "setup_seed": token, "status": "error",
                "error": f"{type(exc).__name__}: {exc}"}
    return {
        "setup_id": index,
        "setup_seed": token,
        "status": mmf.status,
        "cap_hit": bool(mmf.cap_hit),
        "t_star": float(mmf.t_star),
        "probes": len(mmf.trace),
        "infeasible_probes": sum(1 for _, ok, _ in mmf.trace if not ok),
        "lp_calls": mmf.lp_calls,
        "lp_pivots": mmf.lp_pivots,
        "bracket": [float(v) for v in mmf.bracket],
        "se_mmf": [float(v) for v in mmf.per_ue_se],
        "se_fpc": [float(v) for v in fpc.per_ue_se],
    }


def run_optimize(cfg, prop, setups, seed, out_dir, jobs=1, config_label="<defaults>"):
    """Sweep random setups and write the SE tables plus a manifest; a
    setup that raises gets an error record and a line on stderr."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tasks = [(cfg, prop, seed, i) for i in range(setups)]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_run_setup, tasks))
    else:
        records = [_run_setup(t) for t in tasks]
    for rec in records:
        if rec["status"] == "error":
            print(f"error: setup {rec['setup_id']}: {rec['error']}",
                  file=sys.stderr)
    solved = [rec for rec in records if rec["status"] != "error"]

    with open(out / "se_per_ue.csv", "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["setup_id", "ue_id", "scheme", "se_bits_per_hz"])
        for rec in solved:
            for scheme, key in (("MMF", "se_mmf"), ("FPC", "se_fpc")):
                for ue, val in enumerate(rec[key]):
                    w.writerow([rec["setup_id"], ue, scheme, _fmt(val)])

    with open(out / "min_se_per_setup.csv", "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["setup_id", "scheme", "min_se"])
        for rec in solved:
            w.writerow([rec["setup_id"], "MMF", _fmt(min(rec["se_mmf"]))])
            w.writerow([rec["setup_id"], "FPC", _fmt(min(rec["se_fpc"]))])

    manifest = {
        "subcommand": "optimize",
        "config": config_label,
        "setups": setups,
        "seed": seed,
        "records": records,
    }
    with open(out / "manifest.json", "w") as f:
        f.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


def _z_scores(closed, mean, stderr):
    diff = np.abs(closed - mean)
    return np.where(stderr > 0.0, diff / np.where(stderr > 0.0, stderr, 1.0),
                    np.where(diff == 0.0, 0.0, np.inf))


def run_validate(cfg, prop, mc_samples, seed, out=None):
    """Closed forms vs Monte Carlo on one setup; 0 iff all |z| <= 3."""
    out = sys.stdout if out is None else out
    rng, _ = _setup_rng(seed, 0)      # optimize's setup 0 at this seed
    stats, cache, se = build_drop(cfg, prop, rng)

    # Every AP splits its budget evenly over the UE-directed beams.
    p = cfg.rho_d / (cfg.K * cache.tr_rhat)

    closed_e = harvested_energy(p, harvested_energy_coefficients(se, cfg))
    # One pass feeds both oracles, in harvested_energy_oracle's draw order.
    [energy], [b, C, D] = monte_carlo(stats, cfg, mc_samples, rng,
                                      energy_sums(p, cfg), se_sums(cfg))
    checks = [("harvested_energy", _z_scores(closed_e, *energy)),
              ("b", _z_scores(se.b, *b)), ("C", _z_scores(se.C, *C)),
              ("D", _z_scores(se.D, *D))]

    ok = True
    for name, z in checks:
        worst = float(np.max(z))
        ok = ok and worst <= 3.0
        print(f"{name:<17s} max|z| = {worst:.3f}  over {z.size} entries",
              file=out)
        at = np.unravel_index(np.argmax(z), z.shape)
        print(f"    worst at [{', '.join(map(str, at))}]", file=out)
    print("validation " + ("PASSED" if ok else "FAILED")
          + " (threshold max|z| <= 3)", file=out)
    return 0 if ok else 1


def run_cdf(out_dir, out=None):
    """Empirical CDFs and likely-SE summary from an optimize manifest."""
    out = sys.stdout if out is None else out
    out_path = Path(out_dir)
    manifest_path = out_path / "manifest.json"
    if not manifest_path.exists():
        print(f"error: no manifest.json under {out_path}", file=sys.stderr)
        return 2
    per_ue = {"MMF": [], "FPC": []}
    min_se = {"MMF": [], "FPC": []}
    try:
        with open(manifest_path) as f:
            records = json.load(f).get("records", [])
        for i, rec in enumerate(records):
            if rec.get("status") == "error":
                continue
            mmf = [float(v) for v in rec["se_mmf"]]
            fpc = [float(v) for v in rec["se_fpc"]]
            if not np.all(np.isfinite(mmf + fpc)):
                print(f"error: record {i} (setup_id {rec.get('setup_id')}) "
                      "holds a non-finite SE", file=sys.stderr)
                return 2
            per_ue["MMF"] += mmf
            per_ue["FPC"] += fpc
            min_se["MMF"].append(min(mmf))
            min_se["FPC"].append(min(fpc))
    except (ValueError, AttributeError, KeyError, TypeError) as exc:
        # Not JSON, or JSON without the optimize manifest's shape.
        print(f"error: unreadable manifest: {exc!r}", file=sys.stderr)
        return 2
    if not min_se["MMF"]:
        print("error: manifest contains no setup records with SE values",
              file=sys.stderr)
        return 2

    def write_cdf(name, table):
        with open(out_path / name, "w", newline="") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(["scheme", "value", "cdf"])
            for scheme in ("MMF", "FPC"):
                vals = sorted(table[scheme])
                n = len(vals)
                for i, v in enumerate(vals):
                    w.writerow([scheme, _fmt(v), _fmt((i + 1) / n)])

    write_cdf("cdf_se_per_ue.csv", per_ue)
    write_cdf("cdf_min_se.csv", min_se)

    lines = []
    for label, table in (("per-UE SE", per_ue), ("min SE per setup", min_se)):
        for scheme in ("MMF", "FPC"):
            p90, p95 = np.quantile(table[scheme], [0.1, 0.05],
                                   method="inverted_cdf")
            lines.append(
                f"{label}, {scheme}: 90%-likely = {_fmt(p90)}"
                f" bits/s/Hz, 95%-likely = {_fmt(p95)} bits/s/Hz")
    text = "\n".join(lines) + "\n"
    with open(out_path / "summary.txt", "w") as f:
        f.write(text)
    print(text, end="", file=out)
    return 0


def _int_at_least(low):
    def integer(text):   # argparse names the type after this function
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
        return int(text)
    return integer


def _small_default_config():
    return ScenarioConfig(L=2, K=4, N=2, tau_p=2, tau_d=25, tau_u=173)


@functools.cache   # one parser per process: parse_args leaves it unchanged
def build_parser():
    parser = argparse.ArgumentParser(
        prog="cfwpt",
        description="Wireless-powered cell-free massive MIMO experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    opt = sub.add_parser("optimize", help="sweep setups, solve, write SE CSVs")
    opt.add_argument("-c", "--config", default=None)
    opt.add_argument("--setups", type=_int_at_least(1), default=100)
    opt.add_argument("--seed", type=_int_at_least(0), default=None)
    opt.add_argument("-o", "--out", default="out")
    opt.add_argument("--jobs", type=_int_at_least(1), default=1)

    val = sub.add_parser("validate", help="closed forms vs Monte Carlo")
    val.add_argument("-c", "--config", default=None)
    val.add_argument("--seed", type=_int_at_least(0), default=None)
    val.add_argument("--mc-samples", type=_int_at_least(2), default=None)

    cdf = sub.add_parser("cdf", help="CDF tables from an optimize manifest")
    cdf.add_argument("-o", "--out", default="out")

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.command == "cdf":
            return run_cdf(args.out)

        if args.config is not None:
            cfg, prop = load_config(args.config)
        elif args.command == "validate":
            cfg, prop = _small_default_config(), PropagationModel()
        else:
            cfg, prop = ScenarioConfig(), PropagationModel()
        seed = args.seed if args.seed is not None else cfg.seed

        if args.command == "optimize":
            manifest = run_optimize(cfg, prop, args.setups, seed, args.out,
                                    jobs=args.jobs,
                                    config_label=args.config or "<defaults>")
            return int(any(rec["status"] == "error"
                           for rec in manifest["records"]))

        size = cfg.L * cfg.N * cfg.K
        if size > MAX_VALIDATE_SIZE:
            print(f"error: validate instance too large (L*N*K = {size} > "
                  f"{MAX_VALIDATE_SIZE}); use a smaller config",
                  file=sys.stderr)
            return 2
        return run_validate(cfg, prop, args.mc_samples or cfg.mc_samples, seed)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
