import itertools

import numpy as np
import pytest

import cfwpt.lp
from cfwpt.lp import LPProblem, SimplexIterationError, WarmStart, lp_feasible

from helpers import _exact_solve, lp_stream, oracle_feasible, random_int_lp


def _check_point(A, b, x, tol=1e-7):
    assert x is not None
    assert np.all(x >= -tol)
    scale = np.maximum(np.abs(A) @ np.maximum(x, 0.0) + np.abs(b), 1.0)
    assert np.all(A @ x - b <= tol * scale)


def _check_farkas(A, b, warm):
    """The row of B^-1 that warm holds for its final basis, rebuilt in
    exact arithmetic from the integer data, is a Farkas certificate:
    y >= 0, y A >= 0 and y b < 0; and warm.farkas is that row, up to a
    positive scale and rounding.

    y solves B^T y = e_row, where row is the one unit entry of
    warm.farkas @ [A I][:, basis] (in A's row units that product is
    e_row times a positive column scale).  A basic slack of row i fixes
    y_i to its entry of e_row, so only the structural basic columns
    leave a system to solve, in the other entries of y.
    """
    m, n = A.shape
    unit = warm.farkas @ np.hstack([A, np.eye(m)])[:, warm.basis]
    A = A.astype(int)
    e = (np.arange(m) == np.argmax(np.abs(unit))).astype(int)
    slack = warm.basis >= n
    fixed, cols = warm.basis[slack] - n, warm.basis[~slack]
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
    assert np.allclose(warm.farkas / warm.farkas.max(), exact,
                       rtol=1e-9, atol=1e-12)


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


def test_iteration_cap_raises(monkeypatch):
    lp = LPProblem(A=np.array([[-1.0]]), b=np.array([-2.0]))
    monkeypatch.setattr(cfwpt.lp, "PIVOT_CAP_FACTOR", 0)
    with pytest.raises(SimplexIterationError, match="in 0 pivots"):
        lp_feasible(lp)


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


def test_infeasible_verdicts_carry_farkas_certificates():
    """On criterion 7's draws every infeasible verdict rests on a genuine
    Farkas certificate."""
    rng = np.random.default_rng(31415)
    checked = 0
    for _ in range(100):
        A, b = random_int_lp(rng)
        warm = WarmStart()
        if lp_feasible(LPProblem(A=A, b=b), warm=warm) is None:
            _check_farkas(A, b, warm)
            checked += 1
    assert checked == 64     # the rational oracle's infeasible draws


@pytest.mark.parametrize("trial", [1213, 6412])
def test_degenerate_stream_draw_is_feasible(trial):
    """Two feasible draws of lp_stream(1) on which a tolerance scaled by
    |B^-1| @ |b| counted rounding in B^-1 as infeasibility: 1213 cycled
    to the pivot cap, 6412 was called infeasible."""
    A, b = next(itertools.islice(lp_stream(1), trial, None))
    assert oracle_feasible(A, b)
    _check_point(A, b, lp_feasible(LPProblem(A=A, b=b)))


def test_degenerate_stream_verdicts_certified():
    """The first 3000 draws of lp_stream(1) finish within the pivot cap,
    and every verdict carries its certificate: a feasible point or a
    Farkas row."""
    for A, b in itertools.islice(lp_stream(1), 3000):
        warm = WarmStart()
        x = lp_feasible(LPProblem(A=A, b=b), warm=warm)
        if x is None:
            _check_farkas(A, b, warm)
        else:
            _check_point(A, b, x)


def test_warm_start_reuses_and_reports_basis():
    """A WarmStart hands each call's final basis to the next call on the
    same A; the pivot count accumulates and farkas holds the certificate."""
    A = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    warm = WarmStart()
    x = lp_feasible(LPProblem(A=A, b=np.array([-1.0, 1.0, 1.0])), warm=warm)
    _check_point(A, np.array([-1.0, 1.0, 1.0]), x)
    assert warm.farkas is None and warm.pivots >= 1
    first = warm.pivots
    # A smaller need: the carried basis stays feasible, so no pivot.
    b = np.array([-0.5, 1.0, 1.0])
    _check_point(A, b, lp_feasible(LPProblem(A=A, b=b), warm=warm))
    assert warm.pivots == first
    assert lp_feasible(LPProblem(A=A, b=np.array([-3.0, 1.0, 1.0])),
                       warm=warm) is None
    y = warm.farkas
    assert np.all(y >= 0.0) and np.all(y @ A >= 0.0)
    assert y @ np.array([-3.0, 1.0, 1.0]) < 0.0
    assert sorted(warm.basis) == sorted(set(warm.basis))


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


def _max_min_stream(seed, draws):
    """(A, [b, ...]) max-min-shaped LPs from lp_stream, each A with six
    needs (the rows with b <= 0, scaled), as the bisection poses them."""
    rng = np.random.default_rng(seed)
    shaped = (lp for t, lp in enumerate(lp_stream(seed)) if t % 3 == 2)
    for A, b in itertools.islice(shaped, draws):
        yield A, [np.where(b > 0.0, b, s * b)
                  for s in rng.uniform(0.0, 3.0, size=6)]


def test_carried_inverse_is_the_factored_one():
    """After every call that pivots, warm carries, for its A and final
    basis, exactly the B^-1 that np.linalg.inv gives of that basis."""
    checked = 0
    for A, bs in _max_min_stream(5, 150):
        warm = WarmStart()
        for b in bs:
            lp_feasible(LPProblem(A=A, b=b), warm=warm)
            if warm._inverse is None:
                continue
            owner, basis, Binv = warm._inverse
            assert owner is A and np.array_equal(basis, warm.basis)
            want = np.linalg.inv(warm._scaled[1][:, warm.basis])
            assert Binv.tobytes() == want.tobytes()
            checked += 1
    assert checked > 300


def _factor_spy(monkeypatch):
    """Record the B^-1 each call hands _factor and the basis it starts on."""
    seen = []
    factor = cfwpt.lp._factor

    def spy(M, basis, Binv=None):
        out = factor(M, basis, Binv)
        seen.append((Binv, out[0].copy()))
        return out

    monkeypatch.setattr(cfwpt.lp, "_factor", spy)
    return seen


def test_carried_inverse_only_for_its_own_basis_and_A(monkeypatch):
    """The carried B^-1 is reused on the same A and basis only: a basis
    set by hand, or a new A with the same entries, is factored afresh."""
    A = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    seen = _factor_spy(monkeypatch)
    warm = WarmStart()
    lp_feasible(LPProblem(A=A, b=np.array([-1.0, 1.0, 1.0])), warm=warm)
    Binv = warm._inverse[2]
    lp_feasible(LPProblem(A=A, b=np.array([-1.5, 1.0, 1.0])), warm=warm)
    assert seen[-1][0] is Binv
    warm.basis = warm.basis[::-1].copy()
    lp_feasible(LPProblem(A=A, b=np.array([-1.2, 1.0, 1.0])), warm=warm)
    assert seen[-1][0] is None
    lp_feasible(LPProblem(A=A.copy(), b=np.array([-1.1, 1.0, 1.0])), warm=warm)
    assert seen[-1][0] is None
    assert warm._inverse is not None


def test_raising_call_leaves_no_inverse(monkeypatch):
    """A call that stops at the pivot cap after updating B^-1 in place
    leaves no inverse behind, and the next call gets the cold verdict."""
    A = np.vstack([-np.eye(3), np.ones((1, 3))])
    warm = WarmStart()
    lp_feasible(LPProblem(A=A, b=np.array([-1.0, 0.0, 0.0, 4.0])), warm=warm)
    assert warm._inverse is not None and warm.pivots == 1
    b = np.array([-1.0, -1.0, -1.0, 4.0])
    # One pivot allowed: the call updates B^-1 once, then raises.
    monkeypatch.setattr(cfwpt.lp, "PIVOT_CAP_FACTOR", 1 / (10 + 2 * 4 + 3))
    with pytest.raises(SimplexIterationError):
        lp_feasible(LPProblem(A=A, b=b), warm=WarmStart())
    with pytest.raises(SimplexIterationError):
        lp_feasible(LPProblem(A=A, b=b), warm=warm)
    assert warm._inverse is None
    assert warm.pivots == 1
    monkeypatch.undo()
    _check_point(A, b, lp_feasible(LPProblem(A=A, b=b), warm=warm))
    assert warm.pivots == 3


def test_carried_inverse_above_max_inverse_restarts(monkeypatch):
    """A carried B^-1 with an entry above MAX_INVERSE gives way to the
    all-slack basis, as a freshly factored one does."""
    A = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    warm = WarmStart()
    lp_feasible(LPProblem(A=A, b=np.array([-1.0, 1.0, 1.0])), warm=warm)
    assert np.any(warm.basis < 2) and np.abs(warm._inverse[2]).max() > 0.5
    seen = _factor_spy(monkeypatch)
    monkeypatch.setattr(cfwpt.lp, "MAX_INVERSE", 0.5)
    x = lp_feasible(LPProblem(A=A, b=np.array([-1.5, 1.0, 1.0])), warm=warm)
    _check_point(A, np.array([-1.5, 1.0, 1.0]), x)
    carried, start = seen[-1]
    assert carried is not None
    assert np.array_equal(start, 2 + np.arange(3))
