"""Benchmark of cfwpt's command line on three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
src/ (no install needed).  The run repeats whole rounds of its
workload's operations for about S seconds, checks every output, and
prints as its last line one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  With --trace 0 the metrics are the end-to-end
ones of BENCHMARK.json; with --trace 1 each round is run untraced and
then traced, and the metrics are the per-layer ones, taken from the
traced rounds, plus trace.overhead_s.  Each run also prints and writes
a results record (environment and per-drop results) to .perfbench/.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, set before numpy loads: the benchmark measures one
# process on one core, and a second BLAS thread would wait on whatever
# else the host runs on the other core.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import hostspeed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 7

# A fresh interpreter imports cfwpt and loads a config: the set-up a
# user pays before the first drop.
SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import cfwpt.cli
from cfwpt.config import load_config
load_config(sys.argv[2])
print(time.perf_counter() - t0)
"""


def setup_seconds(config):
    """Median of SETUP_REPEATS fresh interpreters' set-up times, each
    scaled to the host-speed probe's reference speed like a CLI call."""
    hostspeed.probe()   # warm-up, not used
    probes = [hostspeed.probe()]
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(config)],
            capture_output=True, text=True, timeout=120, check=True)
        probes.append(hostspeed.probe())
        times.append(float(out.stdout.split()[-1])
                     * hostspeed.scale(*probes[-2:]))
    return statistics.median(times)


def blas_threads():
    import numpy as np
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                getattr(lib, name).restype = ctypes.c_int
                return getattr(lib, name)()
    return None


def environment():
    import numpy as np
    import scipy
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas_threads": blas_threads(),
            "cpu_count": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine()}


def warm_up(name):
    """One tiny call of the same command, so lazy imports are done."""
    from workloads import cli_call
    configs = ROOT / "configs"
    if name == "validate_mc":
        cli_call(["validate", "-c", configs / "validate_small.cfg",
              "--mc-samples", 1000])
    else:
        out = WORK / "warm_up"
        cli_call(["optimize", "-c", configs / "small_demo.cfg", "--setups", 1,
              "-o", out])
        cli_call(["cdf", "-o", out])


def run_rounds(workload, seed, seconds, tracer, probe):
    """Whole rounds until the next one would pass `seconds`.

    Returns (ops, untraced round walls, traced round walls, drops per
    round, scaled round times, probe times).  Without a tracer every
    round is untraced, and a host-speed probe runs before the first
    operation and after each one; each operation's wall time is scaled
    to the probe's reference speed by the mean of the probes on either
    side of it (see hostspeed.py).  With a tracer each round runs
    untraced and then traced on the same inputs, and nothing is scaled.
    """
    ops, plain, traced, drops, scaled = [], [], [], [], []
    probes = [hostspeed.probe()] if tracer is None else []
    start = time.perf_counter()
    r = 0
    while True:
        inputs = workload.plan(seed, r)
        passes = [False, True] if tracer else [False]
        for on in passes:
            if tracer:
                tracer.enabled = on
            round_ops, round_scaled = [], 0.0
            for args in inputs:
                op = workload.run(probe, *args)
                round_ops.append(op)
                if tracer is None:
                    probes.append(hostspeed.probe())
                    round_scaled += op.wall * hostspeed.scale(*probes[-2:])
            (traced if on else plain).append(
                sum(op.wall for op in round_ops))
            ops += [(on, op) for op in round_ops]
        if tracer:
            tracer.enabled = False
        else:
            scaled.append(round_scaled)
        drops.append(sum(op.drops for op in round_ops))
        r += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / r > seconds:
            return ops, plain, traced, drops, scaled, probes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cfwpt" / "__init__.py").is_file() \
            or not (ROOT / "configs").is_dir():
        print(f"error: no cfwpt sources under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from tracing import Tracer
    from checks import likely

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workload = workloads.make(args.workload, ROOT, WORK)

    setup_s = None
    if not args.trace:
        setup_s = setup_seconds(ROOT / "configs" / "reference.cfg")
    warm_up(args.workload)

    tracer = Tracer() if args.trace else None
    probe = workloads.Probe(tracer)
    with (tracer.patch() if tracer else contextlib.nullcontext()), \
            probe.patch():
        ops, plain, traced, drops, scaled, probes_s = run_rounds(
            workload, args.seed, args.seconds, tracer, probe)

    failures = [f for _, op in ops for f in op.failures]
    failed = sum(1 for _, op in ops if op.failures)
    counted = [op for on, op in ops if on == bool(args.trace)]
    mmf_se = [v for op in counted for v in op.mmf_se]
    raw_rate = sum(drops) / sum(plain)

    if args.trace:
        n_drops = sum(op.drops for op in counted)
        probes = [(rec["probes"], rec["infeasible_probes"])
                  for op in counted for rec in op.records if "probes" in rec]
        metrics = tracer.layer_metrics(
            n_drops, probes, mmf_se,
            sum(op.output_bytes for op in counted))
        metrics["trace.overhead_s"] = {
            "value": statistics.median(
                (t - p) / d for t, p, d in zip(traced, plain, drops)),
            "unit": "s"}
        tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        # Throughput over the whole run, not a median of its few rounds,
        # and at the host-speed probe's reference speed: the host's speed
        # drifts in spells longer than a run, and the probes follow it.
        rate = sum(drops) / sum(scaled)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "drops_per_s": {"value": rate, "unit": "drops/s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                / 1024, "unit": "MB"},
        }

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment(),
        "rounds": len(drops),
        "round_drops": drops,
        "round_wall_s": plain,
        "round_scaled_s": scaled,
        "probe_s": probes_s,
        "drops": [rec for op in counted for rec in op.records],
        "failures": failures,
    }
    with open(WORK / f"record-{args.workload}-seed{args.seed}"
              f"-trace{args.trace}.json", "w") as f:
        json.dump(record, f, indent=1)

    # Human-readable lines, including the workload-specific names.
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"raw_drops_per_s = {raw_rate:.6g} drops/s, unscaled; "
              f"host speed {raw_rate / rate:.4g} of the probe's reference")
        if args.workload == "validate_mc":
            samples = workload.cfg.mc_samples
            print(f"validate_samples_per_s = {rate * samples:.6g} samples/s")
        else:
            print(f"sweep_drops_per_s = {rate:.6g} drops/s")
            if mmf_se:
                print(f"mmf_se90_bits = {likely(mmf_se):.6g} bit/s/Hz")
    for f in failures:
        print(f"FAILED: {f}")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not any(op.failures and not op.crashed for _, op in ops),
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
