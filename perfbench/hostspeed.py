"""A fixed probe of how fast this host runs code like cfwpt's, right now.

A shared host's speed drifts by 10-30% over spells of tens of seconds
to minutes, and a benchmark run of half a minute cannot average that
out.  So an untraced run times this probe before its first operation
and after each one, and gives the end-to-end throughput at the probe's
reference speed:

    drops_per_s = drops / sum over operations of
                  wall * PROBE_REF_S / mean(probe before, probe after)

The set-up times behind setup_s are scaled in the same way.

The probe is the same work in every run and in every version of cfwpt:
it uses numpy alone and calls no cfwpt code and no BLAS routine, so a
change to cfwpt, or to the BLAS thread count it might set, cannot speed
it up or slow it down.  A change that makes cfwpt slower moves the raw
time and not the probe's, so it shows in full.  Its three parts mirror
where cfwpt's drops spend their time:

- `pivots`: Gauss-Jordan pivots on a small dense tableau, row by row
  from Python, like the phase-I simplex in `cfwpt.lp`;
- `batched`: complex batched matrix products through `np.einsum`, like
  `estimation.build_cache` and the closed forms;
- `draws`: complex Gaussian draws and reductions, like the Monte Carlo
  oracles behind `cfwpt validate`.
"""

from __future__ import annotations

import time

import numpy as np

# Seconds one probe took: the median of 200 probes on the 2-core host
# the reference figures in README.md come from.  Only a scale: every
# run of every version divides by the same constant.
PROBE_REF_S = 0.33

_rng = np.random.default_rng(20260)
_TABLEAU = _rng.standard_normal((48, 400))
_MATS = (_rng.standard_normal((32, 24, 24))
         + 1j * _rng.standard_normal((32, 24, 24))) / 24


def pivots(passes=40):
    """Gauss-Jordan with partial pivoting over the tableau's rows."""
    for _ in range(passes):
        T = _TABLEAU.copy()
        m = T.shape[0]
        for j in range(m):
            p = j + int(np.argmax(np.abs(T[j:, j])))
            if p != j:
                T[[j, p]] = T[[p, j]]
            T[j] /= T[j, j]
            col = T[:, j].copy()
            col[j] = 0.0
            T -= np.outer(col, T[j])
    return float(T[0, -1])


def batched(passes=40):
    """Repeated batched products A·B·A^H of complex matrices."""
    A = _MATS
    acc = 0.0
    for _ in range(passes):
        B = np.einsum("kab,kbc->kac", A, A)
        B = np.einsum("kab,kcb->kac", B, A.conj())
        acc += float(np.einsum("kaa->", B).real)
    return acc


def draws(chunks=25, samples=10_000):
    """Complex Gaussian draws and a per-sample norm reduction, in small
    chunks so that the probe adds little to peak memory."""
    rng = np.random.default_rng(7)
    acc = 0.0
    for _ in range(chunks):
        z = (rng.standard_normal((samples, 8))
             + 1j * rng.standard_normal((samples, 8)))
        acc += float(np.mean(np.abs(z) ** 2))
    return acc


PARTS = (pivots, batched, draws)


def probe():
    """Wall seconds to run every part once."""
    t0 = time.perf_counter()
    for part in PARTS:
        part()
    return time.perf_counter() - t0


def scale(before, after):
    """Factor that takes a wall time measured between two probes to the
    reference speed: above 1 on a host slower than the reference."""
    return PROBE_REF_S * 2 / (before + after)
