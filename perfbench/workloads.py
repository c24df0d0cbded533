"""The three workloads: what each operation runs, and how it is checked.

An operation is one call of cfwpt's command line in this process,
through `cfwpt.cli.main`: `optimize` followed by `cdf` on its output
for the sweeps, `validate` for validate_mc.  Operations run one after
another (a closed loop with one client) in rounds; a round is the
smallest set of operations that every run repeats whole.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import shutil
import time
from pathlib import Path

import numpy as np

import cfwpt.maxmin
from cfwpt import cli
from cfwpt.config import load_config

from checks import check_drop, check_sweep_output, check_validate
from tracing import Patch

HERE = Path(__file__).resolve().parent

# Every round of a sweep runs `optimize --setups SETUPS --seed S` once
# for each sweep seed S of its pool, in an order drawn from the run's
# seed.  Seed 1 is the configs' own seed.
REFERENCE_POOL, REFERENCE_SETUPS = (1, 2), 1
LARGE_ARRAY_POOL, LARGE_ARRAY_SETUPS = (1, 2), 4


class Probe:
    """Captures what cfwpt computes per drop and checks it on the spot.

    It wraps the names `cli` calls (`solve_maxmin`, `fpc_baseline`,
    `lsfd_statistics`).  The checks run right after `fpc_baseline`
    returns, while the drop's arrays are still alive, so nothing is
    held across drops; their time is kept in `check_s` and taken off
    the operation's wall time.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.eps = inspect.signature(
            cfwpt.maxmin.solve_maxmin).parameters["eps"].default
        self.reset()

    def reset(self):
        self.mmf = None
        self.se = None
        self.drops = []     # (failures, record, per-UE MMF SE) per drop
        self.check_s = 0.0

    def _paused(self):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.paused()

    def patch(self):
        def solve(orig):
            def solve_maxmin(*args, **kwargs):
                self.mmf = orig(*args, **kwargs)
                return self.mmf
            return solve_maxmin

        def lsfd(orig):
            def lsfd_statistics(*args, **kwargs):
                self.se = orig(*args, **kwargs)
                return self.se
            return lsfd_statistics

        def fpc(orig):
            def fpc_baseline(stats, cache, se, cfg):
                result = orig(stats, cache, se, cfg)
                t0 = time.perf_counter()
                with self._paused():
                    t_upper = cfwpt.maxmin.upper_bound_tmax(se, cache, stats,
                                                            cfg)
                    fail, rec = check_drop(cfg, cache, se, self.mmf, result,
                                           self.eps, t_upper)
                self.drops.append((fail, rec,
                                   [float(v) for v in self.mmf.per_ue_se]))
                self.check_s += time.perf_counter() - t0
                return result
            return fpc_baseline

        return Patch({("cli", "solve_maxmin"): solve,
                      ("cli", "fpc_baseline"): fpc,
                      ("cli", "lsfd_statistics"): lsfd})


class Op:
    """Outcome of one operation.

    `failures` lists every reason it failed; `crashed` tells that the
    call itself raised, so there was no output to check.
    """

    def __init__(self, drops):
        self.drops = drops
        self.crashed = False
        self.wall = 0.0
        self.failures = []
        self.records = []
        self.mmf_se = []
        self.output_bytes = 0


def cli_call(argv):
    """`cfwpt.cli.main(argv)` with its stdout captured: (exit status, text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main([str(a) for a in argv])
    return rc, buf.getvalue()


class Sweep:
    """`cfwpt optimize` on a config, then `cfwpt cdf` on its output."""

    def __init__(self, name, config, work, pool, setups):
        self.config = config
        self.K = load_config(config)[0].K
        self.out = work / name
        self.pool = pool
        self.setups = setups

    def plan(self, seed, r):
        rng = np.random.default_rng(np.random.SeedSequence([seed, r]))
        return [(int(s), self.setups) for s in rng.permutation(self.pool)]

    def run(self, probe, sweep_seed, setups):
        op = Op(setups)
        shutil.rmtree(self.out, ignore_errors=True)
        probe.reset()
        try:
            t0 = time.perf_counter()
            rc, _ = cli_call(["optimize", "-c", self.config,
                              "--seed", sweep_seed, "--setups", setups,
                              "--jobs", 1, "-o", self.out])
            op.wall = time.perf_counter() - t0 - probe.check_s
            rc_cdf, text = cli_call(["cdf", "-o", self.out])
        except Exception as exc:   # the operation failed; the run goes on
            op.crashed = True
            op.failures.append(f"{type(exc).__name__}: {exc}")
            return op
        for i, (fail, rec, _) in enumerate(probe.drops):
            op.failures += [f"seed {sweep_seed} setup {i}: {f}" for f in fail]
            op.records.append({"sweep_seed": sweep_seed, "setup_id": i, **rec})
        if rc != 0 or rc_cdf != 0:
            op.failures.append(f"optimize exited {rc}, cdf exited {rc_cdf}")
            return op
        fail, op.mmf_se = check_sweep_output(
            self.out, setups, self.K, [se for _, _, se in probe.drops], text)
        op.failures += fail
        op.output_bytes = sum(p.stat().st_size for p in self.out.iterdir())
        return op


class Validate:
    """`cfwpt validate` on a config at its own seed and sample count."""

    def __init__(self, config):
        self.config = config
        self.cfg = load_config(config)[0]

    def plan(self, seed, r):
        return [()]

    def run(self, probe):
        op = Op(1)
        probe.reset()
        try:
            t0 = time.perf_counter()
            rc, text = cli_call(["validate", "-c", self.config])
            op.wall = time.perf_counter() - t0 - probe.check_s
        except Exception as exc:   # the operation failed; the run goes on
            op.crashed = True
            op.failures.append(f"{type(exc).__name__}: {exc}")
            return op
        op.failures, z = check_validate(rc, text, probe.se, self.cfg)
        op.records.append({"mc_samples": self.cfg.mc_samples,
                           "exit_status": rc, "max_abs_z": z})
        return op


def make(name, root, work):
    """The workload called `name`; its plan(seed, r) lists round r."""
    configs = root / "configs"
    if name == "reference_sweep":
        return Sweep(name, configs / "reference.cfg", work,
                     REFERENCE_POOL, REFERENCE_SETUPS)
    if name == "large_array":
        return Sweep(name, HERE / "large_array.cfg", work,
                     LARGE_ARRAY_POOL, LARGE_ARRAY_SETUPS)
    if name == "validate_mc":
        return Validate(configs / "validate_small.cfg")
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("reference_sweep", "large_array", "validate_mc")
