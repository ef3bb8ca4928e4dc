"""Symmetric-matrix primitives shared by the solvers.

Everything here works on plain float ndarrays. Symmetry is treated as an
exact (bitwise) property, use ``symmetrize`` when an operation such as a
matrix product can break it in the last ulp.

``_as_int`` and ``_as_real`` are the package's one rule for scalar
arguments: a finite ``numbers.Real`` (bool and numpy scalars included),
integral for ``_as_int``. Anything else raises ``ValueError`` naming the
argument and the value; range checks stay with the caller.
"""

import math
import numbers
from contextlib import suppress
from typing import NamedTuple

import numpy as np

__all__ = [
    "EigenDecomp",
    "EigenSolverError",
    "pdiag",
    "poffdiag",
    "symmetrize",
    "check_orthonormal",
    "eig_sym",
    "nuclear_norm_sym",
    "spectral_norm_sym",
]


class EigenSolverError(RuntimeError):
    """Raised when the eigensolver fails to converge on an input."""


class EigenDecomp(NamedTuple):
    """Eigendecomposition of a symmetric matrix.

    ``values`` are sorted descending, ``vectors[:, i]`` is the unit
    eigenvector paired with ``values[i]``. Each eigenvector is oriented so
    that its largest-magnitude entry is positive (ties broken by lowest
    index), which makes the output deterministic up to degeneracy.
    """

    values: np.ndarray
    vectors: np.ndarray


def _as_int(x, what, lo=None):
    """``x`` as an int, if it is a finite integral real number (>= ``lo``)."""
    if isinstance(x, numbers.Real):
        with suppress(OverflowError, ValueError):  # int() of inf or NaN
            if int(x) == x and (lo is None or x >= lo):
                return int(x)
    bound = "" if lo is None else f" >= {lo}"
    raise ValueError(f"{what} must be an integer{bound}, got {x!r}")


def _as_real(x, what):
    """``x`` as a float, if it is a finite real number."""
    if isinstance(x, numbers.Real):
        with suppress(OverflowError):  # math.isfinite of an int beyond float range
            if math.isfinite(x):
                return float(x)
    raise ValueError(f"{what} must be a finite number, got {x!r}")


def _as_square(m, op):
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{op}: expected a square matrix, got shape {m.shape}")
    return m


def _as_sym(m, op):
    m = _as_square(m, op)
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{op}: matrix has non-finite entries")
    if not np.array_equal(m, m.T):
        raise ValueError(f"{op}: matrix is not exactly symmetric")
    return m


def pdiag(m):
    """Diagonal part of a square matrix (off-diagonal entries zeroed)."""
    m = _as_square(m, "pdiag")
    out = np.zeros_like(m)
    np.fill_diagonal(out, np.diagonal(m))
    return out


def poffdiag(m):
    """Off-diagonal part of a square matrix (diagonal zeroed).

    ``pdiag(m) + poffdiag(m)`` reproduces ``m`` exactly.
    """
    m = _as_square(m, "poffdiag")
    out = m.copy()
    np.fill_diagonal(out, 0.0)
    return out


def symmetrize(m):
    """Average a square matrix with its transpose.

    ``(m + m.T) / 2`` is exactly symmetric in IEEE arithmetic, so the
    result passes the bitwise symmetry checks used across this package.
    """
    m = _as_square(m, "symmetrize")
    return (m + m.T) / 2.0


def check_orthonormal(u, tol=1e-8, name="basis"):
    """Validate that the columns of ``u`` are orthonormal.

    Parameters
    ----------
    u : (p, r) ndarray
        Candidate basis, requires r <= p.
    tol : float
        Allowed deviation of ``u.T @ u`` from the identity, in max norm.

    Returns
    -------
    (p, r) float ndarray.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 2:
        raise ValueError(f"{name}: expected a 2-d array, got shape {u.shape}")
    p, r = u.shape
    if r > p:
        raise ValueError(f"{name}: more columns than rows ({r} > {p})")
    if not np.all(np.isfinite(u)):
        raise ValueError(f"{name}: non-finite entries")
    gram = u.T @ u
    if np.max(np.abs(gram - np.eye(r))) > tol:
        raise ValueError(f"{name}: columns are not orthonormal within {tol}")
    return u


def _spectrum(m):
    """Eigenvalues of ``m`` descending (stable on ties) and their eigenvectors.

    No checks and no sign convention: ``m`` must already be finite and
    exactly symmetric. This is the eigensolve of the solvers' inner loops,
    whose rebuild ``(V * w) @ V.T`` does not depend on column signs.
    """
    try:
        vals, vecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"eig_sym: solver did not converge ({exc})") from None
    order = (-vals).argsort(kind="stable")
    return vals[order], vecs[:, order]


def eig_sym(m):
    """Full eigendecomposition of an exactly symmetric matrix.

    Parameters
    ----------
    m : (p, p) ndarray
        Finite entries, ``m[i, j] == m[j, i]`` exactly.

    Returns
    -------
    EigenDecomp
        Values descending; ties keep the solver's ascending-order relative
        placement (stable sort). Vectors carry the deterministic sign
        convention described on :class:`EigenDecomp`.

    Raises
    ------
    ValueError
        Non-square, non-finite or non-symmetric input.
    EigenSolverError
        The underlying solver did not converge.
    """
    vals, vecs = _spectrum(_as_sym(m, "eig_sym"))
    _orient(vecs)
    return EigenDecomp(vals, vecs)


def _orient(vecs):
    """Flip columns in place so each one's largest |entry| (the first on ties)
    is positive. Returns the mask of flipped columns."""
    lead = np.argmax(np.abs(vecs), axis=0)
    flip = vecs[lead, np.arange(vecs.shape[1])] < 0.0
    vecs[:, flip] *= -1.0
    return flip


def nuclear_norm_sym(m):
    """Nuclear norm of a symmetric matrix, the sum of |eigenvalues|."""
    m = _as_sym(m, "nuclear_norm_sym")
    return float(np.sum(np.abs(np.linalg.eigvalsh(m))))


def spectral_norm_sym(m):
    """Spectral norm of a symmetric matrix, the largest |eigenvalue|."""
    m = _as_sym(m, "spectral_norm_sym")
    return float(np.abs(np.linalg.eigvalsh(m)).max(initial=0.0))
