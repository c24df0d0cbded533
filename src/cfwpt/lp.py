"""Linear feasibility via a dense dual simplex with a carried basis.

Solves "does {A x <= b, x >= 0} have a point?" and returns one when it
does.  With a slack per row and a zero objective every basis is dual
feasible, so there are no artificial columns and no objective row: a
negative basic variable leaves until none is left (feasible), or until
its row has no negative entry; that row of B^-1 is then a Farkas
certificate y >= 0 with y A >= 0 and y b < 0 (infeasible).  B^-1 is
dense and updated in place; each verdict is confirmed on a fresh
factorization of its own basis, which raises if that basis is singular,
since the updates drift on ill-conditioned bases.  The confirmed row is
handed out in A's own row units (WarmStart.farkas).

A WarmStart carries the final basis and its fresh B^-1 to the next call
on the same A (the bisection probes differ in b only), which then needs
a few pivots and no factorization; a singular or ill-conditioned basis
gives way to the all-slack basis.  Every pivot is priced by one rule:
the leaving row by dual steepest edge, the entering column as that
row's most negative entry.  A basic variable counts as feasible down to
a tolerance scaled by its row of B^-1 and the largest |b|, so a
degenerate variable that rounding in B^-1 puts a little below zero does
not count as infeasible.  A cap of PIVOT_CAP_FACTOR * (10 + 2m + n)
pivots on m rows and n variables bounds each call.

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
    n + i the slack of row i; None means the all-slack basis.  farkas
    (m,) is the row of B^-1 that certified the last infeasible verdict,
    in A's row units: y >= 0, y A >= 0 and y b < 0 up to rounding (None
    after a feasible one).  pivots counts pivots over all calls.  It
    also keeps the equilibration of the last A it saw, matched by
    identity: pass a new array, not one changed in place, and the B^-1
    the last call factored, for that A and basis only.
    """

    basis: np.ndarray | None = None
    farkas: np.ndarray | None = None
    pivots: int = 0
    _scaled: tuple | None = field(default=None, repr=False)  # (A, M, M^T, ..)
    _inverse: tuple | None = field(default=None, repr=False)  # (A, basis, Binv)


# Tolerances in equilibrated units: a basic variable counts as feasible
# at or above -TOL_FEASIBLE times ||its row of B^-1||_1 times max|b|,
# and a pivot entry must lie below -TOL_PIV times ||its row of B^-1||_1
# (a smaller one can be drift in the updated B^-1, and a pivot on it can
# leave a singular basis).  A carried basis whose inverse has an entry
# above MAX_INVERSE counts as ill-conditioned.
TOL_FEASIBLE = 1e-9
TOL_PIV = 1e-9
MAX_INVERSE = 1e10
PIVOT_CAP_FACTOR = 50


def _equilibrate(A):
    """(M, M^T, row_scale, col_scale): M = [A' I] with A' = A scaled to
    unit max entries, rows first, and M^T a C-ordered copy.  Row scaling
    keeps the feasible set; column scaling substitutes x' = col_scale x."""
    row_scale = np.max(np.abs(A), axis=1, initial=0.0)
    row_scale[row_scale == 0.0] = 1.0
    A = A / row_scale[:, None]
    col_scale = np.max(np.abs(A), axis=0, initial=0.0)
    col_scale[col_scale == 0.0] = 1.0
    M = np.hstack([A / col_scale, np.eye(A.shape[0])])
    return M, np.ascontiguousarray(M.T), row_scale, col_scale


def _factor(M, basis, Binv=None):
    """(basis, B^-1) for a carried basis, factored unless Binv is given,
    or the all-slack basis and identity if basis is missing, unusable or
    singular, or B^-1 has an entry above MAX_INVERSE."""
    if basis is not None and Binv is None:
        try:
            Binv = np.linalg.inv(M[:, basis])
        except (IndexError, np.linalg.LinAlgError):
            pass
    if Binv is not None and np.abs(Binv).max() <= MAX_INVERSE:
        return basis.copy(), Binv
    m, cols = M.shape
    return cols - m + np.arange(m), np.eye(m)


def lp_feasible(lp, warm=None):
    """Dual simplex: a feasible x (ndarray) or None.

    warm, a WarmStart, supplies the starting basis and receives the
    final one.  Raises SimplexIterationError at the pivot cap, and
    numpy.linalg.LinAlgError if a basis to confirm is singular.
    """
    b = np.asarray(lp.b, dtype=float)
    m, n = np.shape(lp.A)
    warm = WarmStart() if warm is None else warm
    warm.farkas = None
    if np.all(b >= 0.0):
        return np.zeros(n)

    # Taken out first, so that a call that raises leaves no half-updated B^-1.
    owner, factored, Binv = warm._inverse or (None, None, None)
    warm._inverse = None
    if owner is not lp.A or not np.array_equal(factored, warm.basis):
        Binv = None
    if warm._scaled is None or warm._scaled[0] is not lp.A:
        warm._scaled = (lp.A, *_equilibrate(np.asarray(lp.A, dtype=float)))
    _, M, MT, row_scale, col_scale = warm._scaled
    b = b / row_scale
    basis, Binv = _factor(M, warm.basis, Binv)
    beta = Binv @ b             # basic variable values
    fresh = True                # no update to Binv since it was factored
    work = np.empty((m, m))

    max_iter = PIVOT_CAP_FACTOR * (10 + 2 * m + n)
    b_max = np.abs(b).max()
    pivots = 0
    while True:
        row_norm = np.abs(Binv).sum(axis=1)
        rows = (beta < -TOL_FEASIBLE * b_max * row_norm).nonzero()[0]
        if rows.size:
            B_rows = Binv[rows]
            weight = np.einsum("ij,ij->i", B_rows, B_rows)
            leave = rows[np.argmax(beta[rows] ** 2 / weight)]
            alpha = Binv[leave] @ M
            cols = (alpha < -TOL_PIV * row_norm[leave]).nonzero()[0]
        if rows.size == 0 or cols.size == 0:
            if fresh:
                break
            Binv = np.linalg.inv(M[:, basis])
            beta, fresh = Binv @ b, True
            continue
        if pivots >= max_iter:
            raise SimplexIterationError(f"no convergence in {max_iter} pivots")
        enter = cols[np.argmin(alpha[cols])]

        col = Binv @ MT[enter]
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
    warm._inverse = (lp.A, basis.copy(), Binv)
    warm.pivots += pivots
    if rows.size:
        warm.farkas = Binv[leave] / row_scale
        return None
    x = np.zeros(n)
    structural = basis < n
    x[basis[structural]] = np.maximum(beta[structural], 0.0)
    return x / col_scale
