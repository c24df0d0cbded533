"""Linear feasibility via a dense dual simplex with a carried basis.

Solves "does {A x <= b, x >= 0} have a point?" and returns one when it
does.  With a slack per row and a zero objective every basis is dual
feasible, so there are no artificial columns and no objective row: a
negative basic variable leaves until none is left (feasible), or until
its row has no negative entry; that row of B^-1 is then a Farkas
certificate y >= 0 with y A >= 0 and y b < 0 (infeasible).  B^-1 is
dense and updated in place; each verdict is confirmed on a fresh
factorization, since the updates drift on ill-conditioned bases.

A WarmStart carries the final basis to the next call on the same A (the
bisection probes of one drop differ in b only), which then needs a few
pivots; a singular or ill-conditioned carried basis gives way to the
all-slack basis.  The leaving row is chosen by dual steepest edge and
the entering column is the row's most negative entry; after stall_limit
pivots without a new lowest total infeasibility, Bland's rule takes
over, restricted to entries within BLAND_RATIO of the row's largest so
that no rounding-sized pivot is taken.  The pivot cap bounds each call.

The raw data spans many orders of magnitude (power coefficients around
1e7 against harvested energies around 1e-7), so the rows and columns of
A are equilibrated, from A alone, before pivoting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class SimplexIterationError(RuntimeError):
    """Pivot limit exceeded; signals numerical trouble, never ignored."""


@dataclass(frozen=True)
class LPProblem:
    """Rows mean A @ x <= b; every variable is additionally >= 0."""

    A: np.ndarray   # (m, n)
    b: np.ndarray   # (m,)


@dataclass
class WarmStart:
    """Simplex state carried between calls on one A; updated in place.

    basis (m,) names the column basic in each row: j < n is variable j,
    n + i the slack of row i; None means the all-slack basis.  row is
    the row whose B^-1 row certified the last infeasible verdict (None
    after a feasible one), and pivots counts pivots over all calls.  It
    also keeps the equilibration of the last A it saw, matched by
    identity: pass a new array, not one changed in place.
    """

    basis: np.ndarray | None = None
    row: int | None = None
    pivots: int = 0
    _scaled: tuple | None = field(default=None, repr=False)  # (A, ...)


# Tolerances in equilibrated units, relative to the sum of magnitudes a
# value is formed from: a basic variable counts as feasible at or above
# -TOL_FEASIBLE times it, and a pivot entry must lie below -TOL_PIV
# times it for its row.  A carried basis whose inverse has an entry
# above MAX_INVERSE counts as ill-conditioned.
TOL_FEASIBLE = 1e-9
TOL_PIV = 1e-11
MAX_INVERSE = 1e10
BLAND_RATIO = 1e-2


def _equilibrate(A):
    """([A' I], row_scale, col_scale): A scaled to unit max entries, rows
    first.  Row scaling keeps the feasible set; column scaling
    substitutes x' = col_scale * x."""
    row_scale = np.max(np.abs(A), axis=1, initial=0.0)
    row_scale[row_scale == 0.0] = 1.0
    A = A / row_scale[:, None]
    col_scale = np.max(np.abs(A), axis=0, initial=0.0)
    col_scale[col_scale == 0.0] = 1.0
    return np.hstack([A / col_scale, np.eye(A.shape[0])]), row_scale, col_scale


def _factor(M, basis, limit=MAX_INVERSE):
    """(basis, B^-1) factored from M, or the all-slack basis and identity
    if basis is missing, unusable or singular, or B^-1 has an entry
    above limit."""
    if basis is not None:
        try:
            Binv = np.linalg.inv(M[:, basis])
        except (IndexError, np.linalg.LinAlgError):
            Binv = None
        if Binv is not None and np.abs(Binv).max() <= limit:
            return basis.copy(), Binv
    m, cols = M.shape
    return cols - m + np.arange(m), np.eye(m)


def lp_feasible(lp, max_iter=None, stall_limit=50, warm=None):
    """Dual simplex: a feasible x (ndarray) or None.

    After stall_limit pivots in a row without a new lowest total
    infeasibility, Bland's rule prices the rest of the call (0 means
    Bland throughout).  warm, a WarmStart, supplies the starting basis
    and receives the final one.  Raises SimplexIterationError if the
    pivot cap is hit.
    """
    b = np.asarray(lp.b, dtype=float)
    m, n = np.shape(lp.A)
    warm = WarmStart() if warm is None else warm
    warm.row = None
    if np.all(b >= 0.0):
        return np.zeros(n)

    if warm._scaled is None or warm._scaled[0] is not lp.A:
        warm._scaled = (lp.A, *_equilibrate(np.asarray(lp.A, dtype=float)))
    _, M, row_scale, col_scale = warm._scaled
    b = b / row_scale
    basis, Binv = _factor(M, warm.basis)
    beta = Binv @ b             # basic variable values
    fresh = True                # no update to Binv since it was factored
    work = np.empty((m, m))

    if max_iter is None:
        max_iter = 500 + 50 * (2 * m + n)
    best = np.inf               # lowest total infeasibility so far
    stalled = 0                 # pivots since it was reached
    bland = stall_limit <= 0
    pivots = 0
    while True:
        tol = TOL_FEASIBLE * (np.abs(Binv) @ np.abs(b))
        rows = np.flatnonzero(beta < -tol)
        if rows.size:
            total = -beta[rows].sum()
            stalled = 0 if total < best else stalled + 1
            best = min(best, total)
            bland = bland or stalled >= stall_limit
            if bland:
                leave = rows[np.argmin(basis[rows])]
            else:
                weight = np.einsum("ij,ij->i", Binv[rows], Binv[rows])
                leave = rows[np.argmax(beta[rows] ** 2 / weight)]
            alpha = Binv[leave] @ M
            cols = np.flatnonzero(alpha < -TOL_PIV * np.abs(Binv[leave]).sum())
        if rows.size == 0 or cols.size == 0:
            if fresh:
                break
            basis, Binv = _factor(M, basis, limit=np.inf)
            beta, fresh = Binv @ b, True
            continue
        if pivots >= max_iter:
            raise SimplexIterationError(f"no convergence in {max_iter} pivots")
        if bland:
            enter = cols[alpha[cols] <= BLAND_RATIO * alpha[cols].min()][0]
        else:
            enter = cols[np.argmin(alpha[cols])]

        col = Binv @ M[:, enter]
        Binv[leave] /= col[leave]
        beta[leave] /= col[leave]
        col[leave] = 0.0
        np.multiply(col[:, None], Binv[leave], out=work)
        Binv -= work
        beta -= col * beta[leave]
        basis[leave] = enter
        pivots += 1
        fresh = False

    warm.basis = basis
    warm.pivots += pivots
    if rows.size:
        warm.row = int(leave)
        return None
    x = np.zeros(n)
    structural = basis < n
    x[basis[structural]] = np.maximum(beta[structural], 0.0)
    return x / col_scale
