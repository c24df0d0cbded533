"""Dense complex-Hermitian linear algebra helpers.

Thin wrappers around LAPACK (via numpy/scipy) with the error semantics
the rest of the package relies on.  All matrices here are small (N x N
per-antenna covariances or L x L decoding-weight systems), so dense
Cholesky is the right tool everywhere.
"""

import numpy as np
import scipy.linalg


class NotPositiveDefiniteError(ValueError):
    """A matrix that must be Hermitian positive definite failed Cholesky."""


def hermitian_solve(a, b):
    """Solve ``a @ x = b`` for Hermitian positive-definite ``a``.

    Parameters
    ----------
    a : (n, n) array_like, Hermitian PD
    b : (n,) or (n, m) array_like

    Returns
    -------
    x : ndarray with ``a @ x = b``

    Raises
    ------
    NotPositiveDefiniteError
        If the Cholesky factorization fails; this always signals a
        modeling bug upstream (covariances are PD by construction).
    """
    a = np.asarray(a)
    b = np.asarray(b)
    try:
        factor = scipy.linalg.cho_factor(a, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            f"matrix of shape {a.shape} is not positive definite: {exc}"
        ) from exc
    return scipy.linalg.cho_solve(factor, b, check_finite=False)


def hermitian_inverse(a):
    """Inverse of a Hermitian positive-definite matrix via Cholesky."""
    n = np.asarray(a).shape[0]
    inv = hermitian_solve(a, np.eye(n, dtype=complex))
    # Symmetrize away the O(eps) residue so downstream quadratic forms
    # stay real to round-off.
    return 0.5 * (inv + inv.conj().T)

