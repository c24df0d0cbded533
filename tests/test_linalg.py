import numpy as np
import pytest
from hypothesis import given, strategies as st

from cfwpt.linalg import (
    NotPositiveDefiniteError,
    hermitian_inverse,
    hermitian_solve,
)


def random_pd(rng, n, scale=1.0):
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (x @ x.conj().T + n * np.eye(n))


def test_solve_identity():
    b = np.array([1.0, 2.0, 3.0], dtype=complex)
    assert np.allclose(hermitian_solve(np.eye(3, dtype=complex), b), b)


def test_solve_scaled_identity():
    a = 2.0 * np.eye(2, dtype=complex)
    x = hermitian_solve(a, np.array([2.0, 4.0], dtype=complex))
    assert np.allclose(x, [1.0, 2.0])


def test_solve_matches_adjugate_3x3():
    rng = np.random.default_rng(7)
    a = random_pd(rng, 3)
    b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    det = np.linalg.det(a)
    adj = np.array(
        [
            [
                (-1) ** (i + j)
                * np.linalg.det(np.delete(np.delete(a, j, axis=0), i, axis=1))
                for j in range(3)
            ]
            for i in range(3)
        ]
    )
    assert np.allclose(hermitian_solve(a, b), adj @ b / det, atol=1e-10)


@pytest.mark.parametrize("n", [1, 2, 8, 64])
def test_solve_residual(n):
    rng = np.random.default_rng(n)
    a = random_pd(rng, n)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x = hermitian_solve(a, b)
    assert np.linalg.norm(a @ x - b) <= 1e-8 * np.linalg.norm(b)


def test_solve_multiple_rhs():
    rng = np.random.default_rng(3)
    a = random_pd(rng, 4)
    b = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
    assert np.allclose(a @ hermitian_solve(a, b), b)


def test_solve_rejects_indefinite():
    a = np.array([[1.0, 2.0], [2.0, 1.0]], dtype=complex)
    with pytest.raises(NotPositiveDefiniteError):
        hermitian_solve(a, np.ones(2, dtype=complex))


def test_solve_rejects_singular():
    with pytest.raises(NotPositiveDefiniteError):
        hermitian_solve(np.zeros((2, 2), dtype=complex), np.ones(2, dtype=complex))


def test_inverse_round_trip():
    rng = np.random.default_rng(11)
    a = random_pd(rng, 6)
    inv = hermitian_inverse(a)
    assert np.allclose(a @ inv, np.eye(6), atol=1e-10)
    assert np.allclose(inv, inv.conj().T)


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=10_000))
def test_solve_round_trip_property(n, seed):
    rng = np.random.default_rng(seed)
    a = random_pd(rng, n, scale=float(rng.uniform(0.1, 10.0)))
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x = hermitian_solve(a, b)
    assert np.linalg.norm(a @ x - b) <= 1e-8 * max(np.linalg.norm(b), 1e-30)
