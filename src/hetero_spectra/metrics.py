"""Subspace distances, factor-model diagnostics and closed-form references."""

import math
from dataclasses import dataclass

import numpy as np

from .matcore import (
    _as_int,
    _as_real,
    _as_square,
    _as_sym,
    check_orthonormal,
    poffdiag,
    spectral_norm_sym,
    symmetrize,
)
from .solvers import Decomposition

__all__ = [
    "SinThetaEvent",
    "sin_theta",
    "max_row_norm",
    "coherence",
    "ledermann_bound",
    "is_balanced",
    "reliability_coefficient",
    "psi_residual",
    "heywood_check",
    "spike_pca_sin_theta",
    "sin_theta_event",
]


def sin_theta(u, v):
    """Largest principal angle between two subspaces, as its sine.

    Computed as the spectral norm of the difference of the orthogonal
    projectors ``u u^T - v v^T``. Both inputs must be orthonormal (p, r)
    bases with matching shapes; the value lies in [0, 1].
    """
    u = check_orthonormal(u, name="sin_theta: u")
    v = check_orthonormal(v, name="sin_theta: v")
    if u.shape != v.shape:
        raise ValueError(f"sin_theta: shape mismatch {u.shape} vs {v.shape}")
    diff = symmetrize(u @ u.T) - symmetrize(v @ v.T)
    return min(1.0, spectral_norm_sym(diff))


def max_row_norm(u):
    """Largest row 2-norm of a basis (the 2,inf operator norm)."""
    u = check_orthonormal(u, name="max_row_norm")
    return float(np.max(np.sqrt(np.sum(u * u, axis=1))))


def coherence(u):
    """Largest squared row norm of a basis, in [r/p, 1].

    Equals ``max_i ||P e_i||^2`` for the projector P onto the column span.
    """
    u = check_orthonormal(u, name="coherence")
    return float(np.max(np.sum(u * u, axis=1)))


def ledermann_bound(p):
    """Largest factor count identifiable from p variables.

    ``(2p + 1 - sqrt(8p + 1)) / 2``; e.g. 0, 3, 10 at p = 1, 6, 15.
    """
    p = _as_int(p, "ledermann_bound: p", lo=1)
    return (2 * p + 1 - math.sqrt(8 * p + 1)) / 2


def is_balanced(beta):
    """Whether no |beta_i| exceeds the sum of the other magnitudes."""
    beta = np.asarray(beta, dtype=float)
    if beta.ndim != 1 or beta.size == 0:
        raise ValueError("is_balanced: expected a non-empty 1-d vector")
    if not np.all(np.isfinite(beta)):
        raise ValueError("is_balanced: non-finite entries")
    a = np.abs(beta)
    if not a.any():
        raise ValueError("is_balanced: zero vector")
    return bool(2.0 * np.max(a) <= np.sum(a))


def reliability_coefficient(L, sigma):
    """Share of total-score variance carried by the common part.

    ``(e^T L e) / (e^T sigma e)`` with e the all-ones vector; requires a
    positive denominator.
    """
    L = _as_sym(L, "reliability_coefficient: L")
    sigma = _as_sym(sigma, "reliability_coefficient: sigma")
    if L.shape != sigma.shape:
        raise ValueError("reliability_coefficient: shape mismatch")
    den = float(np.sum(sigma))
    if den <= 0.0:
        raise ValueError(f"reliability_coefficient: e^T sigma e = {den} is not positive")
    return float(np.sum(L)) / den


def _dec_pair(dec, op):
    if isinstance(dec, Decomposition):
        return dec.L, dec.D
    try:
        L, D = dec
    except (TypeError, ValueError):
        raise ValueError(f"{op}: expected a Decomposition or an (L, D) pair") from None
    return np.asarray(L, dtype=float), np.asarray(D, dtype=float)


def psi_residual(sigma, dec):
    """Squared Frobenius residual ``||sigma - (L + D)||_F^2`` of a fit."""
    sigma = _as_sym(sigma, "psi_residual")
    L, D = _dec_pair(dec, "psi_residual")
    if L.shape != sigma.shape or D.shape != sigma.shape:
        raise ValueError("psi_residual: shape mismatch")
    return float(np.sum((sigma - L - D) ** 2))


def heywood_check(dec):
    """True when the fitted diagonal has an entry <= 0 (an improper solution)."""
    _, D = _dec_pair(dec, "heywood_check")
    d = np.diagonal(_as_square(D, "heywood_check: D"))
    if not np.isfinite(d).all():
        raise ValueError("heywood_check: D has non-finite diagonal entries")
    return bool((d <= 0.0).any())


def spike_pca_sin_theta(q, s):
    """Limiting PCA sin-theta for the rank-one spike with a planted direction.

    Parameters
    ----------
    q : float
        Alignment of the planted direction with the spike, in [0, 1).
    s : float
        Signal-to-noise ratio, > 0.

    Returns
    -------
    float in [0, 1]. At q = 0 the limit is 1 below s = 1 and 0 above.
    """
    q = _as_real(q, "spike_pca_sin_theta: q")
    s = _as_real(s, "spike_pca_sin_theta: s")
    if not 0.0 <= q < 1.0:
        raise ValueError(f"spike_pca_sin_theta: q must lie in [0, 1), got {q}")
    if s <= 0.0:
        raise ValueError(f"spike_pca_sin_theta: s must be finite and > 0, got {s}")
    if q == 0.0:
        return 1.0 if s < 1.0 else 0.0
    # sin = d / hypot(d, e) with d = a + b. When a < 0 that sum cancels, and
    # d = e^2 / (b - a), since e^2 = b^2 - a^2, gives e / hypot(e, b - a)
    a = 1.0 - s - 2.0 * q * q
    b = math.hypot(1.0 - s, 2.0 * q * math.sqrt(s))
    e = 2.0 * q * math.sqrt((1.0 - q) * (1.0 + q))
    if a < 0.0:
        return e / math.hypot(e, b - a)
    return (a + b) / math.hypot(a + b, e)


@dataclass(frozen=True)
class SinThetaEvent:
    """Ingredients of the deterministic subspace perturbation guarantee.

    ``holds`` is the event ``0 < coherence_term + bound < rho < 1``; on it
    the fitted leading-r subspace is within ``bound`` of the truth in
    sin-theta distance.
    """

    coherence_term: float
    noise_term: float
    rho: float
    bound: float
    holds: bool


def sin_theta_event(u, w, tau, lambda_r, rho):
    """Evaluate the perturbation guarantee for a planted basis and noise.

    Parameters
    ----------
    u : (p, r) ndarray
        Orthonormal basis of the planted subspace.
    w : (p, p) ndarray
        Symmetric perturbation added to the low-rank part.
    tau : float
        Shrinkage level used in the fit, >= 0.
    lambda_r : float
        Smallest planted eigenvalue, > 0.
    rho : float
        Slack parameter in (0, 1).

    Returns
    -------
    SinThetaEvent
        With ``coherence_term = 3 * max_row_norm(u)``,
        ``noise_term = (tau + ||poffdiag(w)||) / lambda_r`` and
        ``bound = 2 * noise_term / (1 - rho)``.
    """
    u = check_orthonormal(u, name="sin_theta_event: u")
    w = _as_sym(w, "sin_theta_event: w")
    if w.shape[0] != u.shape[0]:
        raise ValueError("sin_theta_event: w shape does not match u")
    tau = _as_real(tau, "sin_theta_event: tau")
    if tau < 0:
        raise ValueError(f"sin_theta_event: tau must be finite and >= 0, got {tau}")
    lambda_r = _as_real(lambda_r, "sin_theta_event: lambda_r")
    if lambda_r <= 0:
        raise ValueError(f"sin_theta_event: lambda_r must be finite and > 0, got {lambda_r}")
    rho = _as_real(rho, "sin_theta_event: rho")
    if not 0.0 < rho < 1.0:
        raise ValueError(f"sin_theta_event: rho must lie in (0, 1), got {rho}")
    coherence_term = 3.0 * max_row_norm(u)
    noise_term = (tau + spectral_norm_sym(poffdiag(w))) / lambda_r
    bound = 2.0 / (1.0 - rho) * noise_term
    lhs = coherence_term + bound
    return SinThetaEvent(
        coherence_term=coherence_term,
        noise_term=noise_term,
        rho=rho,
        bound=bound,
        holds=bool(0.0 < lhs < rho),
    )
