"""Spectral shrinkage and low-rank projection operators for symmetric matrices.

These are the per-iteration building blocks of the solvers: nuclear-norm
proximal maps (with and without a positive-semidefinite restriction) and
best rank-r approximations (signed and PSD-restricted). Each is one keep
rule over the eigenpairs of the input, named by a :class:`ProxSpec`:
``_select`` says which eigenpairs a kind keeps and with what eigenvalues,
and ``_prox_with_spectrum`` rebuilds the output from them.

The public functions validate their input. ``_prox_with_spectrum`` assumes
a validated, finite, exactly symmetric matrix and, for the rank kinds,
``r <= p``; it checks nothing, because the solvers call it on every
iteration after checking once at entry.

At large p the ``psd_soft`` kind keeps few eigenpairs, so the dispatch can
take a certified partial-spectrum step (``_psd_soft_partial``) instead of
the full eigensolve: on round 1 from a fixed-seed Gaussian block
(``_seeded_basis``), then warm-started from the previous step's
eigenvectors. Every start block runs one rule: a budget of
``_PARTIAL_STEPS`` steps, with a give-up from its second contraction on.
A step is certified by an eigenvalue bound carried from an earlier step
(no factorization), else by one Cholesky test at a margin shift, else it
falls back to the full eigensolve. So a large-p ``rmtfa`` fit makes one
full eigensolve, the last round's re-certification.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# eig_sym stays importable here: perfbench/tracer.py patches this attribute
from .matcore import _as_int, _as_rank, _as_real, _as_sym, _fro, _spectrum, eig_sym  # noqa: F401

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
            tau = _as_real(self.tau, "ProxSpec: tau", ge=0)
            if self.r is not None:
                raise ValueError("ProxSpec: r is not accepted for soft-threshold kinds")
            object.__setattr__(self, "tau", tau)
        else:
            if self.tau is not None:
                raise ValueError("ProxSpec: tau is not accepted for rank kinds")
            # the operators slice by r, so keep it a Python int (r=2.0 is accepted)
            object.__setattr__(self, "r", _as_int(self.r, "ProxSpec: r", lo=1))

    @classmethod
    def psd_soft(cls, tau):
        return cls("psd_soft", tau=tau)

    @classmethod
    def sym_soft(cls, tau):
        return cls("sym_soft", tau=tau)

    @classmethod
    def rank(cls, r):
        return cls("rank", r=r)

    @classmethod
    def rank_psd(cls, r):
        return cls("rank_psd", r=r)


def _rebuild(vecs, vals):
    # reconstruct only from the kept spectrum: an empty selection gives an
    # exact zero matrix (an empty inner product), not a rounded one
    x = (vecs * vals) @ vecs.T
    return (x + x.T) / 2.0


def _select(spec, vals):
    """The keep rule of ``spec`` on a descending spectrum ``vals``.

    Returns ``(keep, w)``: ``keep`` indexes the kept eigenpairs (a boolean
    mask, or for ``rank`` the indices in the kept order) and ``w`` holds
    their eigenvalues in the output.
    """
    kind = spec.kind
    if kind == "psd_soft":
        keep = vals > spec.tau
        return keep, vals[keep] - spec.tau
    if kind == "sym_soft":
        keep = np.abs(vals) > spec.tau
        return keep, np.sign(vals[keep]) * (np.abs(vals[keep]) - spec.tau)
    if kind == "rank":
        # top r by magnitude; stable sort keeps the descending signed order on ties
        keep = (-np.abs(vals)).argsort(kind="stable")[: spec.r]
        return keep, vals[keep]
    # rank_psd: the positive ones among the top r of the signed spectrum
    keep = vals > 0.0
    keep[spec.r :] = False
    return keep, vals[keep]


def _penalty(spec, kept):
    """The penalty term of the objective at a prox output with eigenvalues ``kept``.

    ``tau`` times the nuclear norm for the soft kinds; 0 for the rank
    kinds, whose constraint enters as an indicator.
    """
    return 0.0 if spec.tau is None else spec.tau * float(np.abs(kept).sum())


def _apply(spec, m, op):
    m = _as_sym(m, op)
    if spec.r is not None:
        _as_rank(spec.r, m.shape[0])
    return _prox_with_spectrum(spec, m)[0]


def soft_threshold_psd(m, tau):
    """Proximal map of ``tau * nuclear norm`` restricted to the PSD cone.

    Eigenvalues above ``tau`` (finite, >= 0) are shifted down by ``tau``,
    everything else is dropped, so the result is PSD for any exactly
    symmetric input.
    """
    return _apply(ProxSpec.psd_soft(tau), m, "soft_threshold_psd")


def soft_threshold_sym(m, tau):
    """Eigenvalue soft-threshold of a symmetric matrix, sign preserved.

    Shrinks each eigenvalue toward zero by ``tau``. This is the symmetric
    form of singular-value soft-thresholding, the minimizer of
    ``tau*||X||_* + 0.5*||X - m||_F^2`` over symmetric X.
    """
    return _apply(ProxSpec.sym_soft(tau), m, "soft_threshold_sym")


def best_rank_r(m, r):
    """Best Frobenius rank-r approximation of a symmetric matrix.

    Keeps the ``r`` eigenvalues of largest magnitude together with their
    eigenvectors.
    """
    return _apply(ProxSpec.rank(r), m, "best_rank_r")


def best_rank_r_psd(m, r):
    """Closest PSD matrix of rank at most r, in Frobenius norm.

    Keeps the ``r`` algebraically largest eigenvalues and clips them at
    zero, e.g. diag(3, -5, 1) with r=2 maps to diag(3, 0, 1).
    """
    return _apply(ProxSpec.rank_psd(r), m, "best_rank_r_psd")


# The partial-spectrum step of psd_soft. It runs from this p on (the
# crossover measured against a full eigh, one BLAS thread), when the kept
# count plus _OVERSAMPLE is at most p/8.
_PARTIAL_MIN_P = 128
_OVERSAMPLE = 8
# subspace-iteration steps allowed before falling back to the full eigh
_PARTIAL_STEPS = 20
# kept Ritz residual allowed, and the margin by which every eigenvalue must
# clear tau, both relative to ||m||_F
_PARTIAL_TOL = 1e-13
# round 1's start: a Gaussian block of this many columns from a fixed seed
_SEEDED_COLS = 2 * _OVERSAMPLE
_SEED = 20240607
# the error allowed on an eigenvalue from a full eigh, relative to p eps ||m||_F
_EIGH_ERR = 8.0 * np.finfo(float).eps


class _Warm(NamedTuple):
    """The start of a partial step: the block ``vecs`` and the bound handed on with it.

    The bound is ``lambda_{k+1}(m_ref) <= beta`` on the matrix of the step that
    handed the block out, whose diagonal is ``diag``; the solvers change only
    the diagonal, so by Weyl's inequality it carries to a later ``m`` as
    ``beta + max(diag(m) - diag)``. Every handed-out block has one and is
    orthonormal. ``k`` None marks round 1's Gaussian block, which has no bound
    and is orthonormalized on entry.
    """

    vecs: np.ndarray
    k: int | None = None
    beta: float = math.inf
    diag: np.ndarray | None = None


class _Step(NamedTuple):
    """How a low-rank step was taken, and the warm start for the next one.

    ``partial`` is true when the output came from the certified
    partial-spectrum step. ``basis`` is the :class:`_Warm` start the next
    ``psd_soft`` step may take, or None when that step must run the full
    eigensolve.
    """

    partial: bool
    basis: _Warm | None


def _warm_basis(vecs, k, bound):
    """The next step's start when the gate admits it: the leading ``k + _OVERSAMPLE``
    columns of ``vecs``, with ``k`` and ``(beta, diag) = bound()`` (made only then)."""
    p = vecs.shape[0]
    b = k + _OVERSAMPLE
    if p < _PARTIAL_MIN_P or 8 * b > p or b > vecs.shape[1]:
        return None
    beta, diag = bound()
    return _Warm(np.ascontiguousarray(vecs[:, :b]), k=k, beta=beta, diag=diag)


def _seeded_basis(spec, p):
    """Round 1's start: a fixed-seed Gaussian block for ``psd_soft`` at p >= _PARTIAL_MIN_P."""
    if spec.kind != "psd_soft" or p < _PARTIAL_MIN_P:
        return None
    return _Warm(np.random.default_rng(_SEED).standard_normal((p, _SEEDED_COLS)))


def _psd_soft_partial(m, tau, basis):
    """The ``psd_soft`` prox from a few eigenpairs, or None when it cannot be certified.

    Block subspace iteration with Rayleigh-Ritz, started from the
    :class:`_Warm` ``basis``. Let ``Y`` hold the ``k`` Ritz vectors whose
    Ritz values ``theta`` exceed tau, ``P = I - Y Y^T`` and
    ``delta = _PARTIAL_TOL * ||m||_F``. The step needs the kept residual
    ``R = m Y - Y diag(theta)`` to reach ``||R||_F <= delta`` and no kept
    Ritz value within ``delta`` of tau. Then ``m' = Y diag(theta) Y^T + P m P``
    is within ``sqrt(2) ||R||_F`` of ``m``. When also ``lambda_max(P m P) <
    tau - delta``, the prox of ``m'`` is the Ritz rebuild, so the output is
    within that distance of the full-eigensolve prox (the prox is
    1-Lipschitz). That last test is certified by the first of

    - the bound the basis carries: ``basis.k <= k``, and ``b = basis.beta +
      max(diag(m) - basis.diag)`` has ``b + sqrt(2) delta < tau - delta``.
      Weyl's inequality gives ``lambda_{basis.k+1}(m) <= b``, so at most
      ``basis.k`` eigenvalues of ``m'`` exceed ``b + sqrt(2) delta``. The
      ``k >= basis.k`` kept Ritz values are eigenvalues of ``m'`` above tau,
      so there are exactly ``basis.k`` of them and every eigenvalue of
      ``P m P`` on the range of ``P`` lies below ``tau - delta``. No
      factorization is made, and the step hands on the same bound, with
      ``k == basis.k``.
    - one Cholesky factor of ``s I - P m P`` at the margin shift ``s``, the
      midpoint of ``tau - delta`` and ``max(theta_{k+1}, 0)``. Then
      ``lambda_{k+1}(m') < s``, and the step hands on ``(k, s + sqrt(2) delta)``.
      No factorization is made when ``s >= tau - delta``: ``lambda_max(P m P)
      >= max(theta_{k+1}, 0) >= s`` there, so the test cannot pass.

    It returns None when the residual is not reached within
    ``_PARTIAL_STEPS`` steps (or when, from the second contraction on, the
    observed rate cannot reach it in the steps left; the first measures how
    far the start block was), when every Ritz value of the block exceeds
    tau, when neither test holds, or when LAPACK fails on the Ritz ``eigh``
    or a ``qr``.
    """
    eigh = np.linalg.eigh  # looked up per call, like _spectrum's
    tol = _PARTIAL_TOL * _fro(m)
    try:
        y = basis.vecs if basis.k is not None else np.linalg.qr(basis.vecs)[0]
        my = m @ y
        for left in range(_PARTIAL_STEPS - 1, -1, -1):
            h = y.T @ my
            theta, s = eigh((h + h.T) / 2.0)
            theta, s = theta[::-1], s[:, ::-1]  # descending
            y = y @ s
            my = my @ s
            k = int(np.count_nonzero(theta > tau))
            if k == theta.size:
                return None
            r = my[:, :k] - y[:, :k] * theta[:k]
            res = _fro(r)
            if res <= tol:
                break
            # give up early when the observed rate cannot reach tol in the steps
            # left, from the second contraction on
            if left < _PARTIAL_STEPS - 2:
                rate = res / prev
                if rate >= 1.0 or res * rate**left > tol:
                    return None
            prev = res
            y = np.linalg.qr(my)[0]
            my = m @ y
        else:
            # unreached for a finite residual: at left == 0, rate**0 == 1, so any res > tol
            # gives up. It stays so that a changed give-up cannot accept an unconverged block
            return None
    except np.linalg.LinAlgError:  # a failed Ritz eigh or qr
        return None
    if k and theta[k - 1] <= tau + tol:
        return None
    yk, myk = y[:, :k], my[:, :k]
    slack = math.sqrt(2.0) * tol
    # Weyl's bound carried by the basis, else a Cholesky test
    bound = basis.beta, basis.diag
    bounded = (
        basis.k is not None
        and k >= basis.k
        and basis.beta + np.max(np.diagonal(m) - basis.diag) + slack < tau - tol
    )
    if not bounded:
        bound = _margin_bound(m, yk, myk, tau - tol, max(theta[k], 0.0), slack)
        if bound is None:
            return None
    w = theta[:k] - tau
    return _rebuild(yk, w), w, _Step(True, _warm_basis(y, k, lambda: bound))


def _margin_bound(m, yk, myk, limit, floor, slack):
    """The bound ``(s + slack, diag(m))`` if ``s I - P m P`` has a Cholesky factor at
    the margin shift ``s``, the midpoint of ``limit`` and ``floor``; else None, with no
    factorization made when ``s >= limit``. ``P = I - yk yk^T``, and ``myk = m yk``.
    """
    s = (limit + floor) / 2.0
    if s >= limit:
        return None
    # s I - P m P, with P m P = m - (yk c^T + c yk^T) and c = m yk - yk (yk^T m yk) / 2
    c = myk - yk @ (yk.T @ myk) / 2.0
    a = yk @ c.T
    a += a.T
    a -= m
    a.reshape(-1)[:: m.shape[0] + 1] += s
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:  # the margin test fails at s
        return None
    return s + slack, np.diagonal(m).copy()


def _prox_with_spectrum(spec, m, basis=None):
    """Apply ``spec`` to ``m``; also return the kept eigenvalues of the output.

    Returns ``(L, kept, step)``, with ``step`` a :class:`_Step`. For the
    ``psd_soft`` kind, ``basis`` (a :class:`_Warm`: the ``step.basis`` of the
    previous call, or round 1's ``_seeded_basis``) makes it try the certified
    partial-spectrum step first; without one, or when that step cannot be
    certified, it runs the full eigensolve. A full ``psd_soft`` step that
    hands out a warm basis attaches the bound ``lambda_{k+1}(m) <=
    vals[k] + _EIGH_ERR p ||m||_F`` to it.

    Unchecked: ``m`` is finite and exactly symmetric, and a rank kind's
    ``r`` is at most ``p``.
    """
    # only psd_soft steps hand out a basis
    if basis is not None:
        out = _psd_soft_partial(m, spec.tau, basis)
        if out is not None:
            return out
    vals, vecs = _spectrum(m)
    keep, w = _select(spec, vals)
    # rebuild before copying out the warm basis: the other order makes the
    # same allocations but raised peak RSS at p = 500 by about 8 MB
    L = _rebuild(vecs[:, keep], w)
    if spec.kind != "psd_soft":
        return L, w, _Step(False, None)
    k = w.size

    def bound():
        return float(vals[k]) + _EIGH_ERR * m.shape[0] * _fro(m), np.diagonal(m).copy()

    return L, w, _Step(False, _warm_basis(vecs, k, bound))


def apply_prox(spec, m):
    """Apply the operator described by a :class:`ProxSpec` to ``m``."""
    if not isinstance(spec, ProxSpec):
        raise ValueError("apply_prox: spec must be a ProxSpec")
    return _apply(spec, m, "apply_prox")
