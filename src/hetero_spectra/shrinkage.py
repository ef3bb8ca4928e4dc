"""Spectral shrinkage and low-rank projection operators for symmetric matrices.

These are the per-iteration building blocks of the solvers: nuclear-norm
proximal maps (with and without a positive-semidefinite restriction) and
best rank-r approximations (signed and PSD-restricted).

The public functions validate their input. The private operators
(``_psd_soft``, ``_sym_soft``, ``_rank``, ``_rank_psd`` and the dispatch
``_prox_with_spectrum``) assume a validated, finite, exactly symmetric
matrix and, for the rank kinds, ``r <= p``; they check nothing, because
the solvers call them on every iteration after checking once at entry.
"""

from dataclasses import dataclass

import numpy as np

# eig_sym stays importable here: perfbench/tracer.py patches this attribute
from .matcore import _as_square, _as_sym, _spectrum, eig_sym  # noqa: F401

__all__ = [
    "ProxSpec",
    "soft_threshold_psd",
    "soft_threshold_sym",
    "best_rank_r",
    "best_rank_r_psd",
    "apply_prox",
]

_KINDS = ("psd_soft", "sym_soft", "rank", "rank_psd")


@dataclass(frozen=True)
class ProxSpec:
    """Which shrinkage operator a solver applies at each iteration.

    ``kind`` selects the operator, ``tau`` parametrizes the soft-threshold
    kinds and ``r`` the fixed-rank kinds. Use the factory methods rather
    than the constructor.
    """

    kind: str
    tau: float | None = None
    r: int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"ProxSpec: unknown kind {self.kind!r}")
        if self.kind in ("psd_soft", "sym_soft"):
            if self.tau is None or not np.isfinite(self.tau) or self.tau < 0:
                raise ValueError("ProxSpec: soft-threshold kinds need tau >= 0")
            if self.r is not None:
                raise ValueError("ProxSpec: r is not accepted for soft-threshold kinds")
        else:
            if self.r is None or int(self.r) != self.r or self.r < 1:
                raise ValueError("ProxSpec: rank kinds need integer r >= 1")
            if self.tau is not None:
                raise ValueError("ProxSpec: tau is not accepted for rank kinds")
            # the operators slice by r, so keep it a Python int (r=2.0 is accepted)
            object.__setattr__(self, "r", int(self.r))

    @classmethod
    def psd_soft(cls, tau):
        return cls("psd_soft", tau=float(tau))

    @classmethod
    def sym_soft(cls, tau):
        return cls("sym_soft", tau=float(tau))

    @classmethod
    def rank(cls, r):
        return cls("rank", r=int(r))

    @classmethod
    def rank_psd(cls, r):
        return cls("rank_psd", r=int(r))


def _rebuild(vecs, vals):
    # reconstruct only from the kept spectrum so an empty selection is an
    # exact zero matrix, not a rounded one
    if vals.size == 0:
        return np.zeros((vecs.shape[0], vecs.shape[0]))
    x = (vecs * vals) @ vecs.T
    return (x + x.T) / 2.0


def _check_tau(tau):
    tau = float(tau)
    if not np.isfinite(tau) or tau < 0:
        raise ValueError(f"tau must be finite and >= 0, got {tau}")
    return tau


def _check_rank(r, p):
    if int(r) != r:
        raise ValueError(f"rank must be an integer, got {r!r}")
    r = int(r)
    if not 1 <= r <= p:
        raise ValueError(f"rank must satisfy 1 <= r <= {p}, got {r}")
    return r


def _psd_soft(m, tau):
    vals, vecs = _spectrum(m)
    keep = vals > tau
    w = vals[keep] - tau
    return _rebuild(vecs[:, keep], w), w


def _sym_soft(m, tau):
    vals, vecs = _spectrum(m)
    keep = np.abs(vals) > tau
    w = np.sign(vals[keep]) * (np.abs(vals[keep]) - tau)
    return _rebuild(vecs[:, keep], w), w


def _rank(m, r):
    vals, vecs = _spectrum(m)
    # top r by magnitude; stable sort keeps the descending signed order on ties
    order = (-np.abs(vals)).argsort(kind="stable")[:r]
    w = vals[order]
    return _rebuild(vecs[:, order], w), w


def _rank_psd(m, r):
    vals, vecs = _spectrum(m)
    # top r of the signed spectrum, negative ones clipped to zero
    w = np.maximum(vals[:r], 0.0)
    keep = w > 0.0
    return _rebuild(vecs[:, :r][:, keep], w[keep]), w[keep]


def soft_threshold_psd(m, tau):
    """Proximal map of ``tau * nuclear norm`` restricted to the PSD cone.

    Eigenvalues above ``tau`` are shifted down by ``tau``, everything else
    is dropped, so the result is PSD for any symmetric input.

    Parameters
    ----------
    m : (p, p) ndarray
        Exactly symmetric.
    tau : float
        Threshold, >= 0.

    Returns
    -------
    (p, p) ndarray, PSD.
    """
    tau = _check_tau(tau)
    return _psd_soft(_as_sym(m, "soft_threshold_psd"), tau)[0]


def soft_threshold_sym(m, tau):
    """Eigenvalue soft-threshold of a symmetric matrix, sign preserved.

    Shrinks each eigenvalue toward zero by ``tau``. This is the symmetric
    form of singular-value soft-thresholding, the minimizer of
    ``tau*||X||_* + 0.5*||X - m||_F^2`` over symmetric X.
    """
    tau = _check_tau(tau)
    return _sym_soft(_as_sym(m, "soft_threshold_sym"), tau)[0]


def best_rank_r(m, r):
    """Best Frobenius rank-r approximation of a symmetric matrix.

    Keeps the ``r`` eigenvalues of largest magnitude together with their
    eigenvectors.
    """
    r = _check_rank(r, _as_square(m, "best_rank_r").shape[0])
    return _rank(_as_sym(m, "best_rank_r"), r)[0]


def best_rank_r_psd(m, r):
    """Closest PSD matrix of rank at most r, in Frobenius norm.

    Keeps the ``r`` algebraically largest eigenvalues and clips them at
    zero, e.g. diag(3, -5, 1) with r=2 maps to diag(3, 0, 1).
    """
    r = _check_rank(r, _as_square(m, "best_rank_r_psd").shape[0])
    return _rank_psd(_as_sym(m, "best_rank_r_psd"), r)[0]


def _prox_with_spectrum(spec, m):
    """Apply ``spec`` to ``m``; also return the kept eigenvalues of the output.

    Unchecked: ``m`` is finite and exactly symmetric, and a rank kind's
    ``r`` is at most ``p``.
    """
    if spec.kind == "psd_soft":
        return _psd_soft(m, spec.tau)
    if spec.kind == "sym_soft":
        return _sym_soft(m, spec.tau)
    if spec.kind == "rank":
        return _rank(m, spec.r)
    return _rank_psd(m, spec.r)


def apply_prox(spec, m):
    """Apply the operator described by a :class:`ProxSpec` to ``m``."""
    if not isinstance(spec, ProxSpec):
        raise ValueError("apply_prox: spec must be a ProxSpec")
    m = np.asarray(m, dtype=float)
    if spec.r is not None:
        _check_rank(spec.r, m.shape[0])
    return _prox_with_spectrum(spec, _as_sym(m, "apply_prox"))[0]
