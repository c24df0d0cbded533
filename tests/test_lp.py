import itertools

import numpy as np
import pytest

import cfwpt.lp
from cfwpt.lp import FeasibilityLP, SimplexIterationError, lp_feasible

from helpers import _exact_solve, lp_stream, oracle_feasible, random_int_lp


def _check_point(A, b, x, tol=1e-7):
    assert x is not None
    assert np.all(x >= -tol)
    scale = np.maximum(np.abs(A) @ np.maximum(x, 0.0) + np.abs(b), 1.0)
    assert np.all(A @ x - b <= tol * scale)


def _check_farkas(A, b, lp):
    """The row of B^-1 that lp holds for its final basis, rebuilt in
    exact arithmetic from the integer data, is a Farkas certificate:
    y >= 0, y A >= 0 and y b < 0; and lp.farkas is that row, up to a
    positive scale and rounding.

    y solves B^T y = e_row, where row is the one unit entry of
    lp.farkas @ [A I][:, basis] (in A's row units that product is
    e_row times a positive column scale).  A basic slack of row i fixes
    y_i to its entry of e_row, so only the structural basic columns
    leave a system to solve, in the other entries of y.
    """
    m, n = A.shape
    unit = lp.farkas @ np.hstack([A, np.eye(m)])[:, lp.basis]
    A = A.astype(int)
    e = (np.arange(m) == np.argmax(np.abs(unit))).astype(int)
    slack = lp.basis >= n
    fixed, cols = lp.basis[slack] - n, lp.basis[~slack]
    free = np.setdiff1d(np.arange(m), fixed)
    solved = _exact_solve(A[np.ix_(free, cols)].T.tolist(),
                          (e[~slack] - e[slack] @ A[fixed][:, cols]).tolist())
    assert solved is not None, "final basis is singular"
    z, d = solved
    y = np.zeros(m, dtype=object)      # d * y, with d > 0
    y[fixed] = d * e[slack].astype(object)
    y[free] = z
    assert np.all(y >= 0)
    assert np.all(y @ A >= 0)
    assert y @ b.astype(int) < 0
    exact = np.array([float(v) for v in y]) / max(y)
    assert np.allclose(lp.farkas / lp.farkas.max(), exact,
                       rtol=1e-9, atol=1e-12)


def test_single_variable_feasible():
    A, b = np.array([[1.0]]), np.array([1.0])
    _check_point(A, b, lp_feasible(FeasibilityLP(A), b))


def test_single_variable_infeasible():
    # x <= 1 and x >= 2 cannot both hold.
    A, b = np.array([[1.0], [-1.0]]), np.array([1.0, -2.0])
    assert lp_feasible(FeasibilityLP(A), b) is None


def test_lower_bound_met():
    # x >= 2, x <= 3.
    A, b = np.array([[-1.0], [1.0]]), np.array([-2.0, 3.0])
    x = lp_feasible(FeasibilityLP(A), b)
    _check_point(A, b, x)
    assert 2.0 - 1e-9 <= x[0] <= 3.0 + 1e-9


def test_equality_via_two_rows():
    # x + y = 4 encoded as two inequalities, plus x <= 1 forces y >= 3.
    A = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, 0.0]])
    b = np.array([4.0, -4.0, 1.0])
    x = lp_feasible(FeasibilityLP(A), b)
    _check_point(A, b, x)
    assert x[0] + x[1] == pytest.approx(4.0, abs=1e-9)


def test_nonnegative_rhs_shortcut():
    A = np.array([[5.0, -2.0], [1.0, 1.0]])
    b = np.array([3.0, 0.0])
    x = lp_feasible(FeasibilityLP(A), b)
    assert np.array_equal(x, np.zeros(2))


def test_zero_rows():
    lp = FeasibilityLP(np.zeros((0, 3)))
    assert np.array_equal(lp_feasible(lp, np.zeros(0)), np.zeros(3))


def test_zero_variables():
    assert lp_feasible(FeasibilityLP(np.zeros((2, 0))),
                       np.array([1.0, 0.0])) is not None
    assert lp_feasible(FeasibilityLP(np.zeros((1, 0))),
                       np.array([-1.0])) is None


def test_iteration_cap_raises(monkeypatch):
    lp = FeasibilityLP(np.array([[-1.0]]))
    monkeypatch.setattr(cfwpt.lp, "PIVOT_CAP_FACTOR", 0)
    with pytest.raises(SimplexIterationError, match="in 0 pivots"):
        lp_feasible(lp, np.array([-2.0]))


def test_returned_point_feasibility_random():
    rng = np.random.default_rng(2718)
    found = 0
    for _ in range(60):
        A, b = random_int_lp(rng)
        x = lp_feasible(FeasibilityLP(A), b)
        if x is not None:
            _check_point(A, b, x)
            found += 1
    assert found > 10, "draw should produce a healthy mix of verdicts"


def test_agreement_with_exact_oracle():
    rng = np.random.default_rng(1618)
    for _ in range(25):
        A, b = random_int_lp(rng, max_vars=5, max_rows=8)
        got = lp_feasible(FeasibilityLP(A), b) is not None
        assert got == oracle_feasible(A, b)


def test_feasibility_invariant_under_extreme_scaling():
    rng = np.random.default_rng(99)
    for _ in range(20):
        A, b = random_int_lp(rng, max_vars=4, max_rows=6)
        base = lp_feasible(FeasibilityLP(A), b) is not None
        row = 10.0 ** rng.uniform(-10, 6, size=A.shape[0])
        col = 10.0 ** rng.uniform(-6, 6, size=A.shape[1])
        A, b = A * row[:, None] * col[None, :], b * row
        x = lp_feasible(FeasibilityLP(A), b)
        assert (x is not None) == base
        if x is not None:
            _check_point(A, b, x)


def test_wireless_scale_spread():
    """Coefficients spanning 18 orders of magnitude still get a verdict.

    Mimics the power-control rows: huge SINR entries against tiny
    harvested-energy entries.
    """
    A = np.array([
        [2.5e11, -1.0e10, 0.0],
        [-3.0e-7, -4.0e-8, 1.0e2],
        [1.0e-2, 1.0e-2, 1.0e-2],
    ])
    b = np.array([1.0e9, -2.0e-8, 5.0e-2])
    _check_point(A, b, lp_feasible(FeasibilityLP(A), b))


def test_infeasible_verdicts_carry_farkas_certificates():
    """On criterion 7's draws every infeasible verdict rests on a genuine
    Farkas certificate."""
    rng = np.random.default_rng(31415)
    checked = 0
    for _ in range(100):
        A, b = random_int_lp(rng)
        lp = FeasibilityLP(A)
        if lp_feasible(lp, b) is None:
            _check_farkas(A, b, lp)
            checked += 1
    assert checked == 64     # the rational oracle's infeasible draws


@pytest.mark.parametrize("trial", [1213, 6412])
def test_degenerate_stream_draw_is_feasible(trial):
    """Two feasible draws of lp_stream(1) on which a tolerance scaled by
    |B^-1| @ |b| counted rounding in B^-1 as infeasibility: 1213 cycled
    to the pivot cap, 6412 was called infeasible."""
    A, b = next(itertools.islice(lp_stream(1), trial, None))
    assert oracle_feasible(A, b)
    _check_point(A, b, lp_feasible(FeasibilityLP(A), b))


def test_degenerate_stream_verdicts_certified():
    """The first 3000 draws of lp_stream(1) finish within the pivot cap,
    and every verdict carries its certificate: a feasible point or a
    Farkas row."""
    for A, b in itertools.islice(lp_stream(1), 3000):
        lp = FeasibilityLP(A)
        x = lp_feasible(lp, b)
        if x is None:
            _check_farkas(A, b, lp)
        else:
            _check_point(A, b, x)


def test_warm_start_reuses_and_reports_basis():
    """A FeasibilityLP hands each call's final basis to the next call;
    the pivot count accumulates and farkas holds the certificate."""
    A = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    lp = FeasibilityLP(A)
    x = lp_feasible(lp, np.array([-1.0, 1.0, 1.0]))
    _check_point(A, np.array([-1.0, 1.0, 1.0]), x)
    assert lp.farkas is None and lp.pivots >= 1
    first = lp.pivots
    # A smaller need: the carried basis stays feasible, so no pivot.
    b = np.array([-0.5, 1.0, 1.0])
    _check_point(A, b, lp_feasible(lp, b))
    assert lp.pivots == first
    assert lp_feasible(lp, np.array([-3.0, 1.0, 1.0])) is None
    y = lp.farkas
    assert np.all(y >= 0.0) and np.all(y @ A >= 0.0)
    assert y @ np.array([-3.0, 1.0, 1.0]) < 0.0
    assert sorted(lp.basis) == sorted(set(lp.basis))


def _max_min_stream(seed, draws):
    """(A, [b, ...]) max-min-shaped LPs from lp_stream, each A with six
    needs (the rows with b <= 0, scaled), as the bisection poses them."""
    rng = np.random.default_rng(seed)
    shaped = (lp for t, lp in enumerate(lp_stream(seed)) if t % 3 == 2)
    for A, b in itertools.islice(shaped, draws):
        yield A, [np.where(b > 0.0, b, s * b)
                  for s in rng.uniform(0.0, 3.0, size=6)]


def test_carried_inverse_is_the_factored_one():
    """After every call lp carries, for its final basis, exactly the
    B^-1 that np.linalg.inv gives of that basis; more than 300 of the
    calls end on a basis with structural columns."""
    checked = 0
    for A, bs in _max_min_stream(5, 150):
        lp = FeasibilityLP(A)
        for b in bs:
            lp_feasible(lp, b)
            want = np.linalg.inv(lp.M[:, lp.basis])
            assert lp.Binv.tobytes() == want.tobytes()
            checked += np.any(lp.basis < A.shape[1])
    assert checked > 300


def test_raising_call_leaves_no_inverse(monkeypatch):
    """A call that stops at the pivot cap after updating B^-1 in place
    leaves the all-slack basis behind, not its half-updated B^-1, and
    the next call gets the cold verdict."""
    A = np.vstack([-np.eye(3), np.ones((1, 3))])
    lp = FeasibilityLP(A)
    lp_feasible(lp, np.array([-1.0, 0.0, 0.0, 4.0]))
    assert lp.pivots == 1 and np.any(lp.basis < 3)
    b = np.array([-1.0, -1.0, -1.0, 4.0])
    # One pivot allowed: the call updates B^-1 once, then raises.
    monkeypatch.setattr(cfwpt.lp, "PIVOT_CAP_FACTOR", 1 / (10 + 2 * 4 + 3))
    with pytest.raises(SimplexIterationError):
        lp_feasible(FeasibilityLP(A), b)
    with pytest.raises(SimplexIterationError):
        lp_feasible(lp, b)
    assert np.array_equal(lp.basis, 3 + np.arange(4))
    assert np.array_equal(lp.Binv, np.eye(4))
    assert lp.pivots == 1
    monkeypatch.undo()
    cold = FeasibilityLP(A)
    _check_point(A, b, lp_feasible(cold, b))
    _check_point(A, b, lp_feasible(lp, b))
    assert lp.pivots == 1 + cold.pivots


def test_carried_inverse_above_max_inverse_restarts(monkeypatch):
    """A carried B^-1 with an entry above MAX_INVERSE gives way to the
    all-slack basis: a need the carried basis meets without a pivot
    costs the pivot a cold start needs."""
    A = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    b = np.array([-0.5, 1.0, 1.0])
    carried, restarted = FeasibilityLP(A), FeasibilityLP(A)
    for lp in (carried, restarted):
        lp_feasible(lp, np.array([-1.0, 1.0, 1.0]))
    assert np.any(carried.basis < 2) and np.abs(carried.Binv).max() > 0.5
    _check_point(A, b, lp_feasible(carried, b))
    assert carried.pivots == 1
    monkeypatch.setattr(cfwpt.lp, "MAX_INVERSE", 0.5)
    _check_point(A, b, lp_feasible(restarted, b))
    assert restarted.pivots == 2
