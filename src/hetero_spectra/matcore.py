"""Symmetric-matrix primitives shared by the solvers.

Everything here works on plain float ndarrays. Symmetry is treated as an
exact (bitwise) property, use ``symmetrize`` when an operation such as a
matrix product can break it in the last ulp.

``_as_int``/``_as_real``, ``_as_array``, ``_as_square``/``_as_sym`` and ``_as_diag``
are the package's one rule for scalar, array, matrix and diagonal arguments. A
scalar is a finite ``numbers.Real`` (bool and numpy scalars included), integral for
``_as_int`` and ``_as_rank``, within the bounds the caller passes. An array is
numeric, with the ``ndim`` the caller passes and finite where it asks. A matrix is
numeric, square, of the size ``p`` the caller passes, and for ``_as_sym`` finite
and exactly symmetric; a diagonal is a finite length-p vector or a (p, p) matrix
with exactly zero off-diagonal entries, returned as the vector. Anything else raises
``ValueError`` naming the argument and its range and value, or its size and
shape: the rule takes the range or size; cross-field checks stay with the caller.
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


def _range_text(lo, lo_open, hi, hi_open):
    """`` > 0``, `` >= 1``, `` in (0, 1)``, `` in [1, p]``: a rule's range for its message.

    The rules take an upper bound only together with a lower one.
    """
    if lo is None:
        return ""
    if hi is None:
        return f" {'>' if lo_open else '>='} {lo}"
    return f" in {'(' if lo_open else '['}{lo}, {hi}{')' if hi_open else ']'}"


def _as_int(x, what, lo=None, hi=None):
    """``x`` as an int, if it is a finite integral real number in ``[lo, hi]``."""
    if isinstance(x, numbers.Real):
        with suppress(OverflowError, ValueError):  # int() of inf or NaN
            if int(x) == x and (lo is None or x >= lo) and (hi is None or x <= hi):
                return int(x)
    raise ValueError(f"{what} must be an integer{_range_text(lo, False, hi, False)}, got {x!r}")


def _as_real(x, what, gt=None, ge=None, lt=None):
    """``x`` as a float, if it is a finite real number ``> gt``, ``>= ge`` and ``< lt``
    (each bound where given)."""
    if isinstance(x, numbers.Real):
        with suppress(OverflowError):  # float() of an int beyond float range
            v = float(x)
            if (
                math.isfinite(v)
                and (gt is None or v > gt)
                and (ge is None or v >= ge)
                and (lt is None or v < lt)
            ):
                return v
    bound = _range_text(ge, False, lt, True) if gt is None else _range_text(gt, True, lt, True)
    raise ValueError(f"{what} must be a finite number{bound}, got {x!r}")


def _as_rank(r, p):
    """``r`` as the rank of a fit to a p x p matrix, an integer in ``[1, p]``."""
    if p == 0:
        raise ValueError(f"rank {r!r}: the matrix is empty (0 x 0)")
    return _as_int(r, "rank", lo=1, hi=p)


def _as_array(m, what, ndim=None, finite=False):
    """``m`` as a float array, with ``ndim`` dimensions and finite entries where asked."""
    try:
        m = np.asarray(m, dtype=float)
    except (TypeError, ValueError):  # a string, a ragged list, an object
        raise ValueError(f"{what}: expected a numeric array, got {type(m).__name__}") from None
    if ndim is not None and m.ndim != ndim:
        raise ValueError(f"{what}: expected a {ndim}-d array, got shape {m.shape}")
    if finite and not np.all(np.isfinite(m)):
        raise ValueError(f"{what}: non-finite entries")
    return m


def _as_square(m, what, p=None):
    m = _as_array(m, what)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or p not in (None, m.shape[0]):
        size = "" if p is None else f" of size {p}"
        raise ValueError(f"{what}: expected a square matrix{size}, got shape {m.shape}")
    return m


def _as_sym(m, what, p=None):
    m = _as_square(m, what, p)
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{what}: matrix has non-finite entries")
    if not np.array_equal(m, m.T):
        raise ValueError(f"{what}: matrix is not exactly symmetric")
    return m


def _as_diag(d, what, p):
    """A diagonal, as a length-p vector or a (p, p) diagonal matrix, as a finite vector."""
    d = _as_array(d, what)
    if d.ndim != 1:
        d = _as_square(d, what, p)
        diag = np.diagonal(d)
        # one pass over the matrix: a nonzero or NaN entry off the diagonal adds to its count
        if np.isfinite(diag).all() and np.count_nonzero(d) == np.count_nonzero(diag):
            return diag
    elif d.shape[0] != p:
        raise ValueError(f"{what}: expected length {p}, got {d.shape[0]}")
    elif np.isfinite(d).all():
        return d
    if not np.all(np.isfinite(d)):
        raise ValueError(f"{what}: non-finite entries")
    raise ValueError(f"{what}: off-diagonal entries must be exactly zero")


def _fro(x):
    """Frobenius norm of a real array, as ``np.linalg.norm(x)`` computes it."""
    v = x.ravel(order="K")
    return math.sqrt(v.dot(v))


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
        Candidate basis, requires 1 <= r <= p.
    tol : float
        Allowed deviation of ``u.T @ u`` from the identity, in max norm;
        finite and >= 0.

    Returns
    -------
    (p, r) float ndarray.
    """
    tol = _as_real(tol, f"{name}: tol", ge=0)
    u = _as_array(u, name, ndim=2, finite=True)
    p, r = u.shape
    if r == 0:
        raise ValueError(f"{name}: expected at least one column, got shape {u.shape}")
    if r > p:
        raise ValueError(f"{name}: more columns than rows ({r} > {p})")
    gram = u.T @ u
    if np.max(np.abs(gram - np.eye(r))) > tol:
        raise ValueError(f"{name}: columns are not orthonormal within {tol}")
    return u


def _eigensolve(solver, m, op):
    """``solver(m)``, with a solver that does not converge as ``EigenSolverError`` naming ``op``.

    ``solver`` is ``np.linalg.eigh`` or ``eigvalsh``, which the caller looks up at call time.
    """
    try:
        return solver(m)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"{op}: solver did not converge ({exc})") from None


def _spectrum(m):
    """Eigenvalues of ``m`` descending (stable on ties) and their eigenvectors.

    No checks and no sign convention: ``m`` must already be finite and
    exactly symmetric. This is the eigensolve of the solvers' inner loops,
    whose rebuild ``(V * w) @ V.T`` does not depend on column signs.
    """
    vals, vecs = _eigensolve(np.linalg.eigh, m, "eig_sym")
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
    is positive. Returns the mask of flipped columns (none when there are no rows)."""
    if not len(vecs):
        return np.zeros(vecs.shape[1], dtype=bool)
    lead = np.argmax(np.abs(vecs), axis=0)
    flip = vecs[lead, np.arange(vecs.shape[1])] < 0.0
    vecs[:, flip] *= -1.0
    return flip


def nuclear_norm_sym(m):
    """Nuclear norm of a symmetric matrix, the sum of |eigenvalues|."""
    m = _as_sym(m, "nuclear_norm_sym")
    return float(np.sum(np.abs(_eigensolve(np.linalg.eigvalsh, m, "nuclear_norm_sym"))))


def spectral_norm_sym(m):
    """Spectral norm of a symmetric matrix, the largest |eigenvalue|."""
    m = _as_sym(m, "spectral_norm_sym")
    return float(np.abs(_eigensolve(np.linalg.eigvalsh, m, "spectral_norm_sym")).max(initial=0.0))
