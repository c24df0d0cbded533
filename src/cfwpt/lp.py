"""Linear feasibility via a dense phase-I primal simplex.

Solves "does {A x <= b, x >= 0} have a point?" and returns one when it
does.  Problem sizes here are tiny (a few hundred variables), so a
dense tableau is plenty.  The entering column is the one with the most
negative reduced cost (Dantzig's rule), which needs far fewer pivots
than Bland's lowest-index rule; after a run of degenerate pivots the
rest of the call falls back to Bland's rule, which cannot cycle, so
every call still terminates.

The raw constraint data spans many orders of magnitude (power
coefficients around 1e7 against harvested energies around 1e-7), so
rows and columns are equilibrated before pivoting and the solution is
mapped back to original units at the end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class SimplexIterationError(RuntimeError):
    """Pivot limit exceeded; signals numerical trouble, never ignored."""


@dataclass(frozen=True)
class LPProblem:
    """Rows mean A @ x <= b; every variable is additionally >= 0."""

    A: np.ndarray   # (m, n)
    b: np.ndarray   # (m,)


# Tolerances in equilibrated units: the phase-I optimum counts as
# feasible at or below TOL_FEASIBLE, a reduced cost below -TOL_RC
# prices a column in, and a pivot entry must exceed TOL_PIV.
TOL_FEASIBLE = 1e-9
TOL_RC = 1e-10
TOL_PIV = 1e-11


def lp_feasible(lp, max_iter=None, stall_limit=50):
    """Phase-I simplex: a feasible x (ndarray) or None.

    Feasible means the minimized total artificial infeasibility is
    <= TOL_FEASIBLE.  After stall_limit degenerate pivots in a row,
    Bland's rule prices the rest of the call (0 means Bland
    throughout).  Raises SimplexIterationError if the pivot cap is hit.
    """
    A = np.asarray(lp.A, dtype=float)
    b = np.asarray(lp.b, dtype=float)
    m, n = A.shape
    if n == 0:
        return np.zeros(0) if np.all(b >= -TOL_FEASIBLE) else None
    if m == 0 or np.all(b >= 0.0):
        return np.zeros(n)

    # Equilibrate: scale rows to unit max entry, then columns likewise.
    # Row scaling preserves the feasible set; column scaling substitutes
    # x_scaled = col_scale * x and is undone on exit.
    row_scale = np.maximum(np.max(np.abs(A), axis=1), np.abs(b))
    row_scale[row_scale == 0.0] = 1.0
    A = A / row_scale[:, None]
    b = b / row_scale
    col_scale = np.max(np.abs(A), axis=0)
    col_scale[col_scale == 0.0] = 1.0
    A = A / col_scale[None, :]

    # Slack per row; rows with negative rhs are negated and get an
    # artificial variable so the all-slack basis is feasible.
    neg = b < 0.0
    art_rows = np.flatnonzero(neg)
    n_art = art_rows.size
    ncols = n + m + n_art

    T = np.zeros((m + 1, ncols + 1))
    T[:m, :n] = np.where(neg[:, None], -A, A)
    T[np.arange(m), n + np.arange(m)] = np.where(neg, -1.0, 1.0)
    for j, i in enumerate(art_rows):
        T[i, n + m + j] = 1.0
    T[:m, -1] = np.where(neg, -b, b)

    basis = np.where(neg, 0, n + np.arange(m))
    basis[art_rows] = n + m + np.arange(n_art)

    # Objective row: reduced costs for minimizing the artificial sum.
    # With the initial basis, r_j = c_j - sum of artificial rows at j.
    T[m, :] = -T[art_rows, :].sum(axis=0)
    T[m, n + m:ncols] += 1.0

    if max_iter is None:
        max_iter = 500 + 50 * (m + ncols)

    stalled = 0                 # degenerate pivots in a row
    bland = stall_limit <= 0
    for _ in range(max_iter):
        reduced = T[m, :ncols]
        candidates = np.flatnonzero(reduced < -TOL_RC)
        if candidates.size == 0:
            break
        if bland:
            enter = candidates[0]                  # lowest index
        else:
            enter = candidates[np.argmin(reduced[candidates])]
        col = T[:m, enter]
        rows = np.flatnonzero(col > TOL_PIV)
        if rows.size == 0:
            raise SimplexIterationError(
                "phase-I objective unbounded below; inconsistent tableau")
        ratios = T[rows, -1] / col[rows]
        best = ratios.min()
        ties = rows[ratios <= best + TOL_PIV]
        leave = ties[np.argmin(basis[ties])]       # lowest basis index on ties
        stalled = stalled + 1 if best <= TOL_PIV else 0
        bland = bland or stalled >= stall_limit
        T[leave, :] /= T[leave, enter]
        factor = T[:, enter].copy()
        factor[leave] = 0.0
        T -= np.outer(factor, T[leave, :])
        basis[leave] = enter
    else:
        raise SimplexIterationError(f"no convergence in {max_iter} pivots")

    infeasibility = -T[m, -1]
    if infeasibility > TOL_FEASIBLE:
        return None

    x = np.zeros(n)
    original = basis < n
    x[basis[original]] = T[:m, -1][original]
    x = np.maximum(x, 0.0) / col_scale
    return x
