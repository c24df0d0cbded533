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
handed out in A's own row units (FeasibilityLP.farkas).

A FeasibilityLP holds one A, equilibrated once, and the simplex state
of its last call: the final basis and its fresh B^-1, from which the
next call starts (the bisection probes differ in b only), so it needs
a few pivots and no factorization.  The first call starts from the
caller's crash basis, if any (every basis is dual feasible); a singular
one, or a B^-1 with an entry above MAX_INVERSE, gives way to the
all-slack basis, and a call that raises leaves the all-slack basis
behind.  Starts that reach the same final basis give the same point or
Farkas row, as each is read off a fresh factorization of that basis.
Every pivot is priced by one rule: the leaving row by dual steepest
edge, the entering column as that row's most negative entry.  A basic
variable counts as feasible down to a tolerance scaled by its row of
B^-1 and the largest |b|, so a degenerate variable that rounding in
B^-1 puts a little below zero does not count as infeasible.  A cap of
PIVOT_CAP_FACTOR * (10 + 2m + n) pivots on m rows and n variables
bounds each call.

The raw data spans many orders of magnitude (power coefficients around
1e7 against harvested energies around 1e-7), so the rows and columns of
A are equilibrated, from A alone, before pivoting.
"""

from __future__ import annotations

import numpy as np


class SimplexIterationError(RuntimeError):
    """Pivot limit exceeded; signals numerical trouble, never ignored."""


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


class FeasibilityLP:
    """The rows A (m, n) of A x <= b, x >= 0, and the simplex state that
    lp_feasible carries from one right-hand side b to the next.

    M = [A' I] with A' = A scaled to unit max entries, rows first.  Row
    scaling keeps the feasible set; column scaling substitutes x' =
    col_scale x.  basis (m,) names the column of M basic in each row:
    j < n is variable j, n + i the slack of row i; Binv is its inverse
    as factored, not updated: at first the start basis given, unless it
    is singular, else the all-slack one.  farkas (m,) is the row of B^-1
    that certified the last infeasible verdict, in A's row units:
    y >= 0, y A >= 0 and y b < 0 up to rounding (None after a feasible
    one).  pivots counts pivots over all calls.
    """

    def __init__(self, A, basis=None):
        self.A = A = np.asarray(A, dtype=float)
        row_scale = np.max(np.abs(A), axis=1, initial=0.0)
        row_scale[row_scale == 0.0] = 1.0
        A = A / row_scale[:, None]
        col_scale = np.max(np.abs(A), axis=0, initial=0.0)
        col_scale[col_scale == 0.0] = 1.0
        self.M = np.hstack([A / col_scale, np.eye(A.shape[0])])
        self.row_scale, self.col_scale = row_scale, col_scale
        self.basis, self.Binv = self._slacks()
        self.farkas, self.pivots = None, 0
        if basis is not None:
            try:
                self.basis, self.Binv = (np.array(basis),
                                         np.linalg.inv(self.M[:, basis]))
            except np.linalg.LinAlgError:
                pass

    def _slacks(self):
        """The all-slack basis and its inverse."""
        m, cols = self.M.shape
        return cols - m + np.arange(m), np.eye(m)


def lp_feasible(lp, b):
    """Dual simplex on the FeasibilityLP lp: a feasible x (ndarray) of
    A x <= b, x >= 0, or None.

    Starts from lp's carried basis, and leaves the final one there.
    Raises SimplexIterationError at the pivot cap, and
    numpy.linalg.LinAlgError if a basis to confirm is singular.
    """
    b = np.asarray(b, dtype=float)
    m, n = lp.A.shape
    lp.farkas = None
    if np.all(b >= 0.0):
        return np.zeros(n)

    # Taken out first, so that a call that raises leaves the slack basis
    # behind, not a half-updated B^-1.
    basis, Binv = lp.basis, lp.Binv
    lp.basis, lp.Binv = lp._slacks()
    if np.abs(Binv).max() > MAX_INVERSE:
        basis, Binv = lp._slacks()
    b = b / lp.row_scale
    beta = Binv @ b             # basic variable values
    fresh = True                # no update to Binv since it was factored

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
            alpha = Binv[leave] @ lp.M
            cols = (alpha < -TOL_PIV * row_norm[leave]).nonzero()[0]
        if rows.size == 0 or cols.size == 0:
            if fresh:
                break
            Binv = np.linalg.inv(lp.M[:, basis])
            beta, fresh = Binv @ b, True
            continue
        if pivots >= max_iter:
            raise SimplexIterationError(f"no convergence in {max_iter} pivots")
        enter = cols[np.argmin(alpha[cols])]

        col = Binv @ lp.M[:, enter]
        Binv[leave] /= col[leave]
        beta[leave] /= col[leave]
        col[leave] = 0.0
        Binv -= col[:, None] * Binv[leave]
        beta -= col * beta[leave]
        basis[leave] = enter
        pivots += 1
        fresh = False

    lp.basis, lp.Binv = basis, Binv
    lp.pivots += pivots
    if rows.size:
        lp.farkas = Binv[leave] / lp.row_scale
        return None
    x = np.zeros(n)
    structural = basis < n
    x[basis[structural]] = np.maximum(beta[structural], 0.0)
    return x / lp.col_scale
