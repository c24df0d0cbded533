"""Run sets of benchmark runs of the same code and check that they agree.

    python3 perfbench/compare.py [--runs 10] [--sets 2] [--workload NAME ...]

Each set runs every chosen workload --runs times with --trace 0, each
run with its own seed (set j, run i uses seed first_seed + j*runs + i),
through the command in BENCHMARK.json.  For every end-to-end metric it
prints the median, the quartiles and the spread (q3 - q1) / median,
checks the spread against the metric's bound (setup_s is exempt), checks
that no later set's median is worse than the first set's by more than
the bound, and that every set failed the same share of operations.
It also prints the spread of the throughput before the host-speed
scaling, for comparison only.  Exit status 0 when everything agrees,
1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}:\n"
                           + out.stderr[-2000:])
    *_, record, result = out.stdout.strip().splitlines()
    record, result = json.loads(record)["record"], json.loads(result)
    result["raw_drops_per_s"] = (sum(record["round_drops"])
                                 / sum(record["round_wall_s"]))
    return result


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in bench["workloads"]]
    results = {}   # (set, workload) -> list of result objects
    for j in range(args.sets):
        for i in range(args.runs):
            seed = args.first_seed + j * args.runs + i
            for name in names:
                res = run_once(bench, name, seed)
                results.setdefault((j, name), []).append(res)
                values = " ".join(f"{k}={v['value']:.6g}"
                                  for k, v in res["metrics"].items())
                print(f"set {j} {name} seed {seed}: correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']} {values}",
                      flush=True)

    ok = True
    report = []
    for name in names:
        shares = {Fraction(sum(r["failed"] for r in results[j, name]),
                           sum(r["attempted"] for r in results[j, name]))
                  for j in range(args.sets)}
        correct = all(r["correct"] for j in range(args.sets)
                      for r in results[j, name])
        ok = ok and correct and len(shares) == 1
        print(f"\n{name}: correct={correct} failed shares "
              f"{sorted(map(str, shares))}")
        for metric in bench["end_to_end"]:
            m, bound = metric["name"], metric["bound"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            sets = [summarize([r["metrics"][m]["value"]
                               for r in results[j, name]])
                    for j in range(args.sets)]
            spread_ok = m == "setup_s" or all(s["spread"] <= bound
                                              for s in sets)
            worse = [sign * (s["median"] - sets[0]["median"])
                     / sets[0]["median"] for s in sets[1:]]
            drift_ok = all(w <= bound for w in worse)
            ok = ok and spread_ok and drift_ok
            for j, s in enumerate(sets):
                print(f"  {m:<12s} set {j}: median {s['median']:.6g} "
                      f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
                      f"spread {s['spread']:.4f} (bound {bound})")
            if worse:
                print(f"  {m:<12s} worse than set 0 by "
                      + ", ".join(f"{w:+.4f}" for w in worse)
                      + f" -> {'ok' if spread_ok and drift_ok else 'FAIL'}")
            report.append({"workload": name, "metric": m, "bound": bound,
                           "sets": sets, "worse": worse,
                           "ok": spread_ok and drift_ok})
        # For comparison only: the throughput before the host-speed
        # scaling.  No bound applies to it.
        for j in range(args.sets):
            s = summarize([r["raw_drops_per_s"] for r in results[j, name]])
            print(f"  {'(raw drops/s)':<12s} set {j}: median "
                  f"{s['median']:.6g} spread {s['spread']:.4f}, unscaled")
    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    (work / "compare.json").write_text(json.dumps(report, indent=1))
    print("\nagree" if ok else "\nDISAGREE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
