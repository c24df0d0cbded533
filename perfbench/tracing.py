"""Spans around cfwpt's public functions, recorded from outside the package.

`Patch` swaps a function object for a wrapper in every loaded cfwpt
module that holds it, so names a module imported by value (`from .lp
import lp_feasible`) are covered too, and puts the originals back on
exit.  `Tracer` builds on it: each wrapped call records a span (name,
start, end, parent) in memory, and the per-layer metrics are derived
from those spans once the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
import time

import numpy as np

from checks import likely

# (module, function) pairs timed in a traced run.  The span name is
# "<module>.<function>" without the package prefix.
TRACED = (
    ("geometry", "place_network"),
    ("geometry", "draw_link_statistics"),
    ("estimation", "build_cache"),
    ("estimation", "lmmse_estimate"),
    ("channel", "sample_realization"),
    ("channel", "sample_pilot_observation"),
    ("wpt", "harvested_energy_coefficients"),
    ("wpt", "harvested_energy"),
    ("wpt", "harvested_energy_oracle"),
    ("wit", "lsfd_statistics"),
    ("wit", "sinr"),
    ("wit", "se_statistics_oracle"),
    ("lp", "lp_feasible"),
    ("maxmin", "energy_coefficient_table"),
    ("maxmin", "build_feasibility_lp"),
    ("maxmin", "optimal_lsfd"),
    ("maxmin", "upper_bound_tmax"),
    ("maxmin", "solve_maxmin"),
    ("maxmin", "fpc_baseline"),
    ("cli", "run_cdf"),
)


class Patch:
    """Replace functions everywhere cfwpt refers to them; undo on exit.

    `wrappers` maps (module, function) to a callable that takes the
    original function and returns its replacement.
    """

    def __init__(self, wrappers):
        self.wrappers = wrappers
        self.undo = []

    def __enter__(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "cfwpt" or name.startswith("cfwpt.")]
        for (mod, fn), make in self.wrappers.items():
            orig = getattr(sys.modules["cfwpt." + mod], fn)
            new = make(orig)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self.undo.append((m, attr, orig))
                        setattr(m, attr, new)
        return self

    def __exit__(self, *exc):
        for m, attr, orig in reversed(self.undo):
            setattr(m, attr, orig)
        self.undo.clear()
        return False


class Tracer:
    """In-memory span recorder; `paused` stops recording for a while."""

    def __init__(self):
        self.spans = []       # [name, start, end, parent index or -1]
        self.stack = []
        self.enabled = False
        self.lp_shapes = []   # (variables, rows) of every LP solved
        self.draws = 0        # realizations requested from the channel
        self.cache_bytes = []  # nbytes of every EstimationCache built

    def _wrap(self, name, orig):
        @functools.wraps(orig)
        def traced(*args, **kwargs):
            if not self.enabled:
                return orig(*args, **kwargs)
            idx = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            span = [name, time.perf_counter(), None, parent]
            self.spans.append(span)
            self.stack.append(idx)
            try:
                result = orig(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            self._count(name, args, kwargs, result)
            return result
        return traced

    def _count(self, name, args, kwargs, result):
        if name == "lp.lp_feasible":
            rows, cols = np.shape(args[0].A)
            self.lp_shapes.append((cols, rows))
        elif name == "channel.sample_realization":
            size = kwargs.get("size", args[2] if len(args) > 2 else None)
            self.draws += 1 if size is None else int(size)
        elif name == "estimation.build_cache":
            self.cache_bytes.append(sum(
                v.nbytes for v in vars(result).values()
                if isinstance(v, np.ndarray)))

    def patch(self):
        return Patch({(mod, fn): functools.partial(self._wrap, f"{mod}.{fn}")
                      for mod, fn in TRACED})

    @contextlib.contextmanager
    def paused(self):
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def write(self, path):
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, f)

    def layer_metrics(self, drops, probes, mmf_se, output_bytes):
        """Per-layer metrics, each per drop (a validate call is one drop).

        `probes` lists (probes, infeasible probes) per solved drop, read
        from MaxMinResult.trace; `mmf_se` holds every per-UE MMF SE.
        """
        total = {}
        count = {}
        child = {}
        lp_ms = []
        for name, start, end, parent in self.spans:
            dur = end - start
            total[name] = total.get(name, 0.0) + dur
            count[name] = count.get(name, 0) + 1
            if parent >= 0:
                pname = self.spans[parent][0]
                child[pname] = child.get(pname, 0.0) + dur
            if name == "lp.lp_feasible":
                lp_ms.append(1e3 * dur)

        def t(*names):
            return sum(total.get(n, 0.0) for n in names) / drops

        def c(name):
            return count.get(name, 0) / drops

        n_probes = sum(p for p, _ in probes)
        n_infeasible = sum(i for _, i in probes)
        solve_self = total.get("maxmin.solve_maxmin", 0.0) \
            - child.get("maxmin.solve_maxmin", 0.0)
        values = {
            "geometry.draw_s": (t("geometry.place_network",
                                  "geometry.draw_link_statistics"), "s"),
            "estimation.build_cache_s": (t("estimation.build_cache"), "s"),
            "estimation.cache_mb": (
                statistics.fmean(self.cache_bytes) / 2**20
                if self.cache_bytes else 0.0, "MB"),
            "wit.lsfd_statistics_s": (t("wit.lsfd_statistics"), "s"),
            "wpt.energy_table_s": (t("maxmin.energy_coefficient_table"), "s"),
            "wpt.coefficient_calls": (
                c("wpt.harvested_energy_coefficients"), "count"),
            "maxmin.upper_bound_tmax_s": (t("maxmin.upper_bound_tmax"), "s"),
            "maxmin.fpc_baseline_s": (t("maxmin.fpc_baseline"), "s"),
            "maxmin.optimal_lsfd_s": (t("maxmin.optimal_lsfd"), "s"),
            "maxmin.optimal_lsfd_calls": (c("maxmin.optimal_lsfd"), "count"),
            "wit.sinr_calls": (c("wit.sinr"), "count"),
            "lp.calls": (c("lp.lp_feasible"), "count"),
            "lp.solve_s": (t("lp.lp_feasible"), "s"),
            "lp.call_ms_p50": (statistics.median(lp_ms) if lp_ms else 0.0,
                               "ms"),
            "lp.vars": (statistics.median(v for v, _ in self.lp_shapes)
                        if self.lp_shapes else 0, "count"),
            "lp.rows": (statistics.median(r for _, r in self.lp_shapes)
                        if self.lp_shapes else 0, "count"),
            "maxmin.build_lp_s": (t("maxmin.build_feasibility_lp"), "s"),
            "maxmin.solve_s": (t("maxmin.solve_maxmin"), "s"),
            "maxmin.solve_self_s": (solve_self / drops, "s"),
            "maxmin.probes": (n_probes / drops, "count"),
            "maxmin.infeasible_probes": (n_infeasible / drops, "count"),
            "maxmin.feasible_probe_ratio": (
                (n_probes - n_infeasible) / n_probes if n_probes else 0.0,
                "ratio"),
            "maxmin.mmf_se90_bits": (likely(mmf_se) if mmf_se else 0.0,
                                     "bit/s/Hz"),
            "channel.draws": (self.draws / drops, "count"),
            "channel.sample_s": (t("channel.sample_realization",
                                   "channel.sample_pilot_observation"), "s"),
            "estimation.lmmse_estimate_s": (t("estimation.lmmse_estimate"),
                                            "s"),
            "wpt.energy_oracle_s": (t("wpt.harvested_energy_oracle"), "s"),
            "wit.se_oracle_s": (t("wit.se_statistics_oracle"), "s"),
            "cli.output_bytes": (output_bytes / drops, "bytes"),
            "cli.cdf_s": (t("cli.run_cdf"), "s"),
        }
        return {k: {"value": float(v), "unit": u}
                for k, (v, u) in values.items()}
