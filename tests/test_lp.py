import numpy as np
import pytest

from cfwpt.lp import LPProblem, SimplexIterationError, WarmStart, lp_feasible

from helpers import _exact_solve, oracle_feasible, random_int_lp


def _check_point(A, b, x, tol=1e-7):
    assert x is not None
    assert np.all(x >= -tol)
    scale = np.maximum(np.abs(A) @ np.maximum(x, 0.0) + np.abs(b), 1.0)
    assert np.all(A @ x - b <= tol * scale)


def test_single_variable_feasible():
    lp = LPProblem(A=np.array([[1.0]]), b=np.array([1.0]))
    x = lp_feasible(lp)
    _check_point(lp.A, lp.b, x)


def test_single_variable_infeasible():
    # x <= 1 and x >= 2 cannot both hold.
    lp = LPProblem(A=np.array([[1.0], [-1.0]]), b=np.array([1.0, -2.0]))
    assert lp_feasible(lp) is None


def test_lower_bound_met():
    # x >= 2, x <= 3.
    lp = LPProblem(A=np.array([[-1.0], [1.0]]), b=np.array([-2.0, 3.0]))
    x = lp_feasible(lp)
    _check_point(lp.A, lp.b, x)
    assert 2.0 - 1e-9 <= x[0] <= 3.0 + 1e-9


def test_equality_via_two_rows():
    # x + y = 4 encoded as two inequalities, plus x <= 1 forces y >= 3.
    A = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, 0.0]])
    b = np.array([4.0, -4.0, 1.0])
    x = lp_feasible(LPProblem(A=A, b=b))
    _check_point(A, b, x)
    assert x[0] + x[1] == pytest.approx(4.0, abs=1e-9)


def test_nonnegative_rhs_shortcut():
    A = np.array([[5.0, -2.0], [1.0, 1.0]])
    b = np.array([3.0, 0.0])
    x = lp_feasible(LPProblem(A=A, b=b))
    assert np.array_equal(x, np.zeros(2))


def test_zero_rows():
    lp = LPProblem(A=np.zeros((0, 3)), b=np.zeros(0))
    assert np.array_equal(lp_feasible(lp), np.zeros(3))


def test_zero_variables():
    assert lp_feasible(LPProblem(A=np.zeros((2, 0)), b=np.array([1.0, 0.0]))) is not None
    assert lp_feasible(LPProblem(A=np.zeros((1, 0)), b=np.array([-1.0]))) is None


def test_iteration_cap_raises():
    lp = LPProblem(A=np.array([[-1.0]]), b=np.array([-2.0]))
    with pytest.raises(SimplexIterationError):
        lp_feasible(lp, max_iter=0)


def test_returned_point_feasibility_random():
    rng = np.random.default_rng(2718)
    found = 0
    for _ in range(60):
        A, b = random_int_lp(rng)
        x = lp_feasible(LPProblem(A=A, b=b))
        if x is not None:
            _check_point(A, b, x)
            found += 1
    assert found > 10, "draw should produce a healthy mix of verdicts"


def test_agreement_with_exact_oracle():
    rng = np.random.default_rng(1618)
    for _ in range(25):
        A, b = random_int_lp(rng, max_vars=5, max_rows=8)
        got = lp_feasible(LPProblem(A=A, b=b)) is not None
        assert got == oracle_feasible(A, b)


def test_pure_bland_agrees_with_exact_oracle():
    """stall_limit=0 prices every pivot by Bland's rule; on criterion 7's
    draws its verdicts match the exact rational oracle too."""
    rng = np.random.default_rng(31415)
    for _ in range(100):
        A, b = random_int_lp(rng)
        got = lp_feasible(LPProblem(A=A, b=b), stall_limit=0) is not None
        assert got == oracle_feasible(A, b)


def test_pricing_rules_agree():
    """Dantzig, Bland, and Bland after a single degenerate pivot give the
    same verdicts and only feasible points."""
    rng = np.random.default_rng(577)
    for _ in range(300):
        A, b = random_int_lp(rng)
        lp = LPProblem(A=A, b=b)
        points = [lp_feasible(lp, stall_limit=s) for s in (0, 1, 50)]
        assert len({x is None for x in points}) == 1
        for x in points:
            if x is not None:
                _check_point(A, b, x)


def test_feasibility_invariant_under_extreme_scaling():
    rng = np.random.default_rng(99)
    for _ in range(20):
        A, b = random_int_lp(rng, max_vars=4, max_rows=6)
        base = lp_feasible(LPProblem(A=A, b=b)) is not None
        row = 10.0 ** rng.uniform(-10, 6, size=A.shape[0])
        col = 10.0 ** rng.uniform(-6, 6, size=A.shape[1])
        scaled = LPProblem(A=A * row[:, None] * col[None, :], b=b * row)
        assert (lp_feasible(scaled) is not None) == base
        x = lp_feasible(scaled)
        if x is not None:
            _check_point(scaled.A, scaled.b, x)


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
    x = lp_feasible(LPProblem(A=A, b=b))
    _check_point(A, b, x)


@pytest.mark.parametrize("stall_limit", [0, 50])
def test_infeasible_verdicts_carry_farkas_certificates(stall_limit):
    """On criterion 7's draws every infeasible verdict rests on a genuine
    certificate: y, the row of B^-1 that the solver names for its final
    basis, rebuilt in exact arithmetic from the integer data, has y >= 0,
    y A >= 0 and y b < 0."""
    rng = np.random.default_rng(31415)
    checked = 0
    for _ in range(100):
        A, b = random_int_lp(rng)
        warm = WarmStart()
        x = lp_feasible(LPProblem(A=A, b=b), stall_limit=stall_limit,
                        warm=warm)
        if x is not None:
            continue
        m, n = A.shape
        basis = np.hstack([A, np.eye(m)])[:, warm.basis].astype(int)
        y = _exact_solve(basis.T.tolist(), [int(i == warm.row) for i in range(m)])
        assert y is not None, "final basis is singular"
        assert all(v >= 0 for v in y)
        assert all(sum(y[i] * int(A[i, j]) for i in range(m)) >= 0
                   for j in range(n))
        assert sum(y[i] * int(b[i]) for i in range(m)) < 0
        checked += 1
    assert checked == 64     # the rational oracle's infeasible draws


def test_warm_start_reuses_and_reports_basis():
    """A WarmStart hands each call's final basis to the next call on the
    same A; the pivot count accumulates and row names the certificate."""
    A = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    warm = WarmStart()
    x = lp_feasible(LPProblem(A=A, b=np.array([-1.0, 1.0, 1.0])), warm=warm)
    _check_point(A, np.array([-1.0, 1.0, 1.0]), x)
    assert warm.row is None and warm.pivots >= 1
    first = warm.pivots
    # A smaller need: the carried basis stays feasible, so no pivot.
    b = np.array([-0.5, 1.0, 1.0])
    _check_point(A, b, lp_feasible(LPProblem(A=A, b=b), warm=warm))
    assert warm.pivots == first
    assert lp_feasible(LPProblem(A=A, b=np.array([-3.0, 1.0, 1.0])),
                       warm=warm) is None
    assert warm.row is not None and sorted(warm.basis) == sorted(set(warm.basis))


@pytest.mark.parametrize("basis", [
    np.array([0, 0, 4]),     # one column twice: singular
    np.array([0, 1, 4]),     # two nearly parallel columns
    np.array([0, 1]),        # wrong length
    np.array([0, 1, 9]),     # no such column
], ids=["singular", "ill-conditioned", "wrong-length", "out-of-range"])
def test_unusable_carried_basis_restarts_from_slacks(basis):
    """A carried basis that cannot be factored safely gives way to the
    all-slack basis, and the verdict is the cold one."""
    A = np.array([[-1.0, -1.0 - 1e-12], [1.0, 1.0], [0.0, 1.0]])
    for b, feasible in ((np.array([-1.0, 2.0, 1.0]), True),
                        (np.array([-3.0, 2.0, 1.0]), False)):
        assert (lp_feasible(LPProblem(A=A, b=b)) is not None) == feasible
        warm = WarmStart(basis=basis)
        x = lp_feasible(LPProblem(A=A, b=b), warm=warm)
        assert (x is not None) == feasible
        if feasible:
            _check_point(A, b, x)
        assert len(set(warm.basis.tolist())) == 3
