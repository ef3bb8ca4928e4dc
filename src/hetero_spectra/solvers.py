"""Solvers for the decomposition of a covariance into low-rank plus diagonal.

Every method runs through one loop core, ``_run``, which alternates a
spectral step ``L = prox(sigma - D)`` with the exact refit
``D = pdiag(sigma - L)`` from a checked diagonal. :func:`alternating_solve`
is its public form. A method is the choice of prox, start and stop:

    tag        prox             start                 stop
    rmtfa      psd_soft(tau)    D_0 = pdiag(sigma)    tolerance, StopRule()
    si         sym_soft(tau)    D_0 = pdiag(sigma)    tolerance, StopRule()
    hpca_plus  rank_psd(r)      D_0 = pdiag(sigma)    30 rounds
    hpca       rank(r)          D_0 = pdiag(sigma)    30 rounds
    dd         rank(r)          D_0 = pdiag(sigma)    one round
    svd        rank(r)          D_0 = 0               one round
    dhpca      rank(r_k) runs   D carried over the    30 rounds per stage
               in stages        stages

:data:`METHODS` maps each tag of :data:`METHOD_TAGS` to its fit,
``fit(sigma, param) -> (Decomposition, SolverTrace)``, with ``param`` tau
for the tags in :data:`SOFT_METHODS` and the rank r for the others. So
``svd`` is the best rank-r approximation of ``sigma`` (the r eigenvalues
largest in magnitude) and ``dd`` that of ``poffdiag(sigma)``.

A fixed budget is ``rel_tol = 0``: it stops early only at an exact fixed
point, when a further round would repeat it bit for bit, and counts as
converged, having no tolerance to miss. Its trace reads ``stop_reason ==
"max_iter"`` when the budget ran out. The fit's ``Decomposition.method``
is its tag, and ``iterations`` counts the rounds run (summed over the
``dhpca`` stages). Each fit checks its matrix once and builds its
``Decomposition`` once: ``rmtfa`` and ``soft_impute_diag`` through
:func:`alternating_solve`, the fixed-budget fits through ``_fixed_budget``,
and ``dhpca`` by one ``_run`` per stage on a shared trace.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .matcore import EigenSolverError, _as_int, _as_real, _as_sym, _fro, eig_sym, pdiag, poffdiag
from .shrinkage import ProxSpec, _check_rank, _penalty, _prox_with_spectrum

__all__ = [
    "METHOD_TAGS",
    "METHODS",
    "SOFT_METHODS",
    "StopRule",
    "SolverTrace",
    "Decomposition",
    "objective_F",
    "alternating_solve",
    "rmtfa",
    "soft_impute_diag",
    "heteropca",
    "deflated_heteropca",
    "heteropca_psd",
    "diag_deleted_pca",
    "pca_baseline",
    "extract_subspace",
    "numerical_rank_sym",
]

METHOD_TAGS = ("svd", "dd", "hpca", "dhpca", "hpca_plus", "rmtfa", "si")

# the tags whose parameter is tau, with their prox; the others take a rank r
SOFT_METHODS = {"rmtfa": ProxSpec.psd_soft, "si": ProxSpec.sym_soft}

# default rounds of the fixed-budget rank methods, and of each dhpca stage
_ROUNDS = 30

_METHOD_BY_KIND = {
    "psd_soft": "rmtfa",
    "sym_soft": "si",
    "rank": "hpca",
    "rank_psd": "hpca_plus",
}


@dataclass(frozen=True)
class StopRule:
    """Stopping rule for the alternating solvers.

    Iteration halts once ``||L_k - L_{k-1}||_F <= rel_tol * max(s, ||L_{k-1}||_F)``
    or after ``max_iter`` low-rank updates, whichever comes first. The floor
    ``s = 2**floor(log2(max|poffdiag(sigma)|))`` is the power-of-two scale of sigma's
    off-diagonal (``D`` absorbs the diagonal), so a fit of ``(2**e sigma, 2**e tau)``
    runs the same rounds as that of ``(sigma, tau)`` and returns ``2**e`` times its
    ``(L, D)``. The rank fits' fixed budget is ``rel_tol = 0``, which a ``StopRule``
    does not take: it stops early only at an exact fixed point and counts as converged.
    """

    rel_tol: float = 1e-10
    max_iter: int = 1000

    def __post_init__(self):
        rel_tol = _as_real(self.rel_tol, "StopRule: rel_tol")
        if rel_tol <= 0:
            raise ValueError(f"StopRule: rel_tol must be finite and > 0, got {rel_tol}")
        object.__setattr__(self, "rel_tol", rel_tol)
        # max_iter=10.0 is accepted; the loop needs the int
        object.__setattr__(self, "max_iter", _as_int(self.max_iter, "StopRule: max_iter", lo=1))


@dataclass
class SolverTrace:
    """Per-iteration diagnostics of an alternating solve.

    Entry ``i`` of each list belongs to iteration ``k = i + 1``.
    ``objective`` is the penalized fit, non-increasing along the run;
    ``fixed_point_residual`` is ``||L_k - L_{k-1}||_F`` (with ``L_0 = 0``);
    ``psi`` is the squared residual ``||Sigma - (L_k + D_k)||_F^2``.
    A ``dhpca`` trace lists the rounds of each stage in order, and
    ``iterations`` is their sum; ``k`` and ``L_0 = 0`` then hold per stage.

    ``stop_reason`` is ``"converged"`` (the stop rule's tolerance was met),
    ``"fixed_point"`` (``L_k == L_{k-1}`` exactly) or ``"max_iter"``; a fixed
    budget (``rel_tol = 0``) has no tolerance to miss, so it is ``converged``.
    ``kept`` holds the kept eigenvalues of the last low-rank step: the
    nonzero eigenvalues of the returned ``L``, plus for the rank kinds any
    zeros the step kept (``svd`` on a zero matrix, ``dd`` on a diagonal
    one). ``partial_accepted`` and ``partial_fallbacks`` count the certified
    partial-spectrum steps taken and the ones that fell back to the full
    eigensolve.
    """

    objective: list = field(default_factory=list)
    fixed_point_residual: list = field(default_factory=list)
    psi: list = field(default_factory=list)
    converged: bool = False
    iterations: int = 0
    iterates: list | None = None
    stop_reason: str = ""
    kept: np.ndarray | None = None
    partial_accepted: int = 0
    partial_fallbacks: int = 0


@dataclass
class Decomposition:
    """A fitted pair (L, D) with the method tag and its parameter."""

    L: np.ndarray
    D: np.ndarray
    method: str
    param: float
    converged: bool
    iterations: int


def _diag_vector(d, p, name="d0"):
    """Validate a diagonal given as a length-p vector or a (p, p) diagonal matrix.

    Returns it as a length-p vector.
    """
    d = np.asarray(d, dtype=float)
    if d.ndim == 1:
        if d.shape[0] != p:
            raise ValueError(f"{name}: expected length {p}, got {d.shape[0]}")
    elif d.shape != (p, p):
        raise ValueError(f"{name}: expected shape ({p}, {p}), got {d.shape}")
    if not np.all(np.isfinite(d)):
        raise ValueError(f"{name}: non-finite entries")
    if d.ndim == 2:
        if np.any(poffdiag(d) != 0.0):
            raise ValueError(f"{name}: off-diagonal entries must be exactly zero")
        d = np.diagonal(d)
    return d


def objective_F(sigma, L, D, tau):
    """Penalized objective ``tau*||L||_* + 0.5*||sigma - (L + D)||_F^2``.

    ``L`` must be exactly symmetric and ``D`` diagonal.
    """
    sigma = _as_sym(sigma, "objective_F")
    L = _as_sym(L, "objective_F: L")
    D = np.diag(_diag_vector(D, sigma.shape[0], "objective_F: D"))
    if L.shape != sigma.shape:
        raise ValueError("objective_F: L shape does not match sigma")
    tau = _as_real(tau, "objective_F: tau")
    if tau < 0:
        raise ValueError(f"objective_F: tau must be finite and >= 0, got {tau}")
    # the nuclear norm of the checked L, as nuclear_norm_sym computes it
    nuclear = float(np.sum(np.abs(np.linalg.eigvalsh(L))))
    return tau * nuclear + 0.5 * float(np.sum((sigma - L - D) ** 2))


def alternating_solve(sigma, prox, d0=None, stop=None, keep_iterates=False):
    """Alternating minimization of the penalized covariance fit.

    Repeats ``L_k = prox(sigma - D_{k-1})`` and ``D_k = pdiag(sigma - L_k)``
    until the stop rule fires. Each half-step is an exact minimization of
    the objective in one block, so the recorded objective never increases.

    The arguments are checked once, on entry. The loop, ``_run``, holds ``D`` as
    its length-p diagonal and calls the unchecked spectral step of
    :mod:`hetero_spectra.shrinkage`, which assumes a finite, exactly
    symmetric matrix. ``sigma - D`` is exactly symmetric by construction and
    its off-diagonal entries are ``sigma``'s, so only its diagonal is checked
    for finiteness on each iteration; a non-finite entry raises
    ``ValueError``. So does a round whose objective or residual is not
    finite, as when the input's scale overflows the norms.

    For ``psd_soft`` at large p with few kept eigenpairs, iterations after
    the first may take the certified partial-spectrum step of
    :mod:`hetero_spectra.shrinkage`, warm-started from the previous step.
    The last iteration is always a full-eigensolve step: when the stop rule
    fires on a partial step (or the cap is reached), that step is redone
    with the full operator on the same ``sigma - D``, ``D`` is refitted from
    it and the stop rule is tested again. The returned pair and the trace's
    last row therefore come from the full operator.

    Parameters
    ----------
    sigma : (p, p) ndarray
        Exactly symmetric input matrix.
    prox : ProxSpec
        Shrinkage operator applied in the low-rank step.
    d0 : ndarray, optional
        Starting diagonal, as a length-p vector or a (p, p) diagonal
        matrix. Defaults to ``pdiag(sigma)``.
    stop : StopRule, optional
        Defaults to ``StopRule()``.
    keep_iterates : bool
        Record a copy of every ``L_k`` on the trace.

    Returns
    -------
    (Decomposition, SolverTrace)
    """
    sigma = _as_sym(sigma, "alternating_solve")
    if not isinstance(prox, ProxSpec):
        raise ValueError("alternating_solve: prox must be a ProxSpec")
    if stop is None:
        stop = StopRule()
    elif not isinstance(stop, StopRule):
        raise ValueError("alternating_solve: stop must be a StopRule")
    p = sigma.shape[0]
    if prox.r is not None:
        _check_rank(prox.r, p)
    d = np.diagonal(sigma) if d0 is None else _diag_vector(d0, p)
    trace = SolverTrace(iterates=[] if keep_iterates else None)
    L, d = _run("alternating_solve", sigma, prox, d, stop.rel_tol, stop.max_iter, trace)
    method = _METHOD_BY_KIND[prox.kind]
    param = prox.tau if prox.tau is not None else prox.r
    return Decomposition(L, np.diag(d), method, param, trace.converged, trace.iterations), trace


def _run(op, sigma, prox, d, rel_tol, max_iter, trace):
    """The alternating loop from the diagonal ``d``; returns the final ``(L, d)``.

    ``sigma`` must be checked, ``d`` a finite length-p vector and, for the
    rank kinds, ``prox.r <= p``. It stops by the :class:`StopRule` test on
    ``rel_tol`` and ``max_iter``; a fixed budget is ``rel_tol = 0``, which
    stops early only at an exact fixed point and counts as converged. Each
    round's objective is checked against the previous one; errors name
    ``op``. The run appends to ``trace`` a row per round, its round count to
    ``iterations``, and ``stop_reason``, ``kept`` and ``converged`` from its
    last round.
    """
    p = sigma.shape[0]
    sigma_diag = np.diagonal(sigma)
    M = sigma.copy()  # sigma - diag(d): only its diagonal changes
    m_diag = M.reshape(-1)[:: p + 1]
    m_diag[:] = 0.0  # D absorbs sigma's diagonal; round 1 overwrites M's
    top = max(M.max(initial=0.0), -M.min(initial=0.0))
    scale = math.ldexp(0.5, math.frexp(top)[1])  # floors the stop and objective tests
    L_prev = np.zeros_like(sigma)
    prev_norm = 0.0
    basis = None
    for k in range(1, max_iter + 1):
        np.subtract(sigma_diag, d, out=m_diag)
        if not np.isfinite(m_diag).all():
            raise ValueError(f"{op}: sigma - D has non-finite entries")
        L, kept, step = _prox_with_spectrum(prox, M, basis)
        resid = _fro(L - L_prev)
        tol = rel_tol * max(scale, prev_norm)
        if basis is not None:
            trace.partial_accepted += step.partial
            trace.partial_fallbacks += not step.partial
        if step.partial and (resid <= tol or k == max_iter):
            # re-certify the last step with the full operator on the same M
            L, kept, step = _prox_with_spectrum(prox, M)
            resid = _fro(L - L_prev)
        basis = step.basis
        # C order: the diagonal view below writes into R, and R is summed
        # in the order of poffdiag's C-order copy
        R = np.subtract(sigma, L, order="C")
        r_diag = R.reshape(-1)[:: p + 1]
        d = r_diag.copy()
        r_diag[:] = 0.0  # R is now poffdiag(sigma - L)
        psi = float((R**2).sum())
        objective = _penalty(prox, kept) + 0.5 * psi
        # an overflowed norm makes the tolerance test meaningless
        if not (math.isfinite(objective) and math.isfinite(resid)):
            raise ValueError(
                f"{op}: round {k} objective or residual is not finite; "
                "the input's scale overflows the fit"
            )
        # each half-step minimizes its block exactly, so the objective can
        # only drift up by float jitter, never genuinely
        if k == 1:
            allow = 1e-12 * max(scale * scale, objective)
        elif objective > trace.objective[-1] + allow:
            raise RuntimeError(
                f"{op}: objective increased from {trace.objective[-1]!r} to {objective!r}"
            )
        trace.objective.append(objective)
        trace.fixed_point_residual.append(resid)
        trace.psi.append(psi)
        if trace.iterates is not None:
            trace.iterates.append(L.copy())
        L_prev = L
        if resid <= tol:
            break
        prev_norm = _fro(L)
    stopped = resid <= tol
    trace.converged = stopped or rel_tol == 0.0
    trace.iterations += k
    trace.stop_reason = ("converged" if resid else "fixed_point") if stopped else "max_iter"
    trace.kept = kept
    return L, d


def _check_tau_positive(tau, op):
    tau = _as_real(tau, f"{op}: tau")
    if tau <= 0:
        raise ValueError(f"{op}: tau must be finite and > 0, got {tau}")
    return tau


def rmtfa(sigma, tau, stop=None, d0=None, keep_iterates=False):
    """Nuclear-norm penalized fit with L restricted to the PSD cone.

    Minimizes ``tau*||L||_* + 0.5*||sigma - (L + D)||_F^2`` over PSD L and
    diagonal D. The objective is convex with a unique minimizer for
    ``tau > 0``; the returned L satisfies the fixed-point equation
    ``L = prox(poffdiag(sigma) + pdiag(L))`` up to the stop tolerance.

    Pass ``d0`` to warm-start the diagonal, e.g. from a solve at a nearby
    ``tau``.

    Returns
    -------
    (Decomposition, SolverTrace)
    """
    tau = _check_tau_positive(tau, "rmtfa")
    return alternating_solve(sigma, SOFT_METHODS["rmtfa"](tau), d0, stop, keep_iterates)


def soft_impute_diag(sigma, tau, stop=None, d0=None, keep_iterates=False):
    """Like :func:`rmtfa` but without the PSD restriction on L.

    The low-rank step is the signed eigenvalue soft-threshold, so the
    returned L can be indefinite.
    """
    tau = _check_tau_positive(tau, "soft_impute_diag")
    return alternating_solve(sigma, SOFT_METHODS["si"](tau), d0, stop, keep_iterates)


def _fixed_budget(tag, sigma, prox, rounds, zero_start=False, keep_iterates=False):
    """The fit ``tag``: ``rounds`` rounds of the loop, or to an exact fixed point.

    Checks ``sigma`` (errors name ``tag``) and starts from ``D_0 = 0`` with
    ``zero_start``, else from ``pdiag(sigma)``.
    """
    sigma = _as_sym(sigma, tag)
    p = sigma.shape[0]
    _check_rank(prox.r, p)
    trace = SolverTrace(iterates=[] if keep_iterates else None)
    d = np.zeros(p) if zero_start else np.diagonal(sigma)
    L, d = _run(tag, sigma, prox, d, 0.0, rounds, trace)
    return Decomposition(L, np.diag(d), tag, prox.r, trace.converged, trace.iterations), trace


def heteropca(sigma, r, t_max=_ROUNDS, g0=None, keep_iterates=False):
    """Iterative diagonal imputation around a rank-r approximation.

    Starting from the hollowed matrix ``G_0 = poffdiag(sigma)`` (or ``g0``
    when given), repeats for ``t_max`` rounds

        ``L_t = best_rank_r(G_{t-1})``,
        ``G_t = poffdiag(G_{t-1}) + pdiag(L_t)``,

    so the off-diagonal of G never changes and the diagonal is refilled
    from the current low-rank fit. This is :func:`alternating_solve` with
    ``ProxSpec.rank(r)``: from ``D_0 = pdiag(sigma)``, or on ``g0`` from
    ``D_0 = 0``. It stops early at an exact fixed point, where every
    further round would repeat ``L_t``.

    Returns
    -------
    (L, G) : final low-rank iterate and final imputed matrix.
        With ``keep_iterates=True``, ``(L, G, iterates)`` where
        ``iterates`` lists every ``L_t`` computed.
    """
    t_max = _as_int(t_max, "heteropca: t_max", lo=1)
    if g0 is not None and _as_sym(sigma, "heteropca").shape != np.shape(g0):
        raise ValueError("heteropca: g0 shape does not match sigma")
    base, op = (sigma, "heteropca") if g0 is None else (g0, "heteropca: g0")
    dec, trace = _fixed_budget(op, base, ProxSpec.rank(r), t_max, g0 is not None, keep_iterates)
    G = poffdiag(base) + pdiag(dec.L)
    if keep_iterates:
        return dec.L, G, trace.iterates
    return dec.L, G


def _deflated_run(sigma, r, rounds):
    """dhpca: ``(Decomposition, SolverTrace, stage ranks)``.

    Each stage is one fixed-budget ``_run`` of ``rank(r_k)`` from the
    previous stage's ``d``, appending its rounds to the one trace; each
    stage's first residual follows the ``L_0 = 0`` rule.
    """
    sigma = _as_sym(sigma, "deflated_heteropca")
    r = _check_rank(r, sigma.shape[0])
    trace = SolverTrace()
    d = np.diagonal(sigma)
    r_prev = 0
    stage_ranks = []
    while r_prev < r:
        try:
            svals = np.sort(np.abs(np.linalg.eigvalsh(sigma - np.diag(d))))[::-1]
        except np.linalg.LinAlgError as exc:
            raise EigenSolverError(f"deflated_heteropca: solver did not converge ({exc})") from None
        svals = np.append(svals, 0.0)  # sigma_{p+1} := 0
        top = svals[r_prev]
        r_k = r  # sup of an empty candidate set
        for cand in range(r, r_prev, -1):
            s_c = svals[cand - 1]
            if s_c <= 0.0:
                continue
            if top / s_c <= 4.0 and (s_c - svals[cand]) / s_c >= 1.0 / r:
                r_k = cand
                break
        L, d = _run("deflated_heteropca", sigma, ProxSpec.rank(r_k), d, 0.0, rounds, trace)
        stage_ranks.append(r_k)
        r_prev = r_k
    dec = Decomposition(L, np.diag(d), "dhpca", r, trace.converged, trace.iterations)
    return dec, trace, stage_ranks


def deflated_heteropca(sigma, r, t_max_per_stage=_ROUNDS, return_stages=False):
    """Rank-staged variant of :func:`heteropca`.

    Instead of fitting rank r at once, ranks are increased in stages. At
    each stage, with sigma_i the magnitudes of the eigenvalues of the
    current ``G = sigma - D`` (descending, sigma_{p+1} = 0) and r_prev the
    previous stage rank, the stage rank is the largest r' in (r_prev, r]
    with

        ``sigma_{r_prev+1} / sigma_{r'} <= 4``  (well-conditioned block)
        ``(sigma_{r'} - sigma_{r'+1}) / sigma_{r'} >= 1/r``  (relative gap)

    falling back to r when no r' qualifies. A vanishing sigma_{r'} fails
    both conditions. Each stage runs ``t_max_per_stage`` rounds of the
    ``rank(r')`` loop, carrying D across stages; the first stage starts
    from ``D_0 = pdiag(sigma)``, so its G is ``poffdiag(sigma)``.

    Returns
    -------
    L : final low-rank iterate.
        With ``return_stages=True``, ``(L, stage_ranks)``.
    """
    rounds = _as_int(t_max_per_stage, "deflated_heteropca: t_max_per_stage", lo=1)
    dec, _, stage_ranks = _deflated_run(sigma, r, rounds)
    if return_stages:
        return dec.L, stage_ranks
    return dec.L


def heteropca_psd(sigma, r, t_max=_ROUNDS):
    """Alternating fit with a PSD rank-r projection in the low-rank step.

    Starting from ``D_0 = pdiag(sigma)``, runs ``t_max`` rounds of
    ``L_k = best_rank_r_psd(sigma - D_{k-1})``, ``D_k = pdiag(sigma - L_k)``
    (stopping early only at an exact fixed point).

    Returns
    -------
    (L, D) : final PSD low-rank part and diagonal part.
    """
    t_max = _as_int(t_max, "heteropca_psd: t_max", lo=1)
    dec, _ = _fixed_budget("heteropca_psd", sigma, ProxSpec.rank_psd(r), t_max)
    return dec.L, dec.D


# tag -> fit(sigma, param) -> (Decomposition, SolverTrace); see the module
# docstring for each method's prox, start and stop
METHODS = {
    "svd": lambda sigma, r: _fixed_budget("svd", sigma, ProxSpec.rank(r), 1, zero_start=True),
    "dd": lambda sigma, r: _fixed_budget("dd", sigma, ProxSpec.rank(r), 1),
    "hpca": lambda sigma, r: _fixed_budget("hpca", sigma, ProxSpec.rank(r), _ROUNDS),
    "dhpca": lambda sigma, r: _deflated_run(sigma, r, _ROUNDS)[:2],
    "hpca_plus": lambda sigma, r: _fixed_budget("hpca_plus", sigma, ProxSpec.rank_psd(r), _ROUNDS),
    "rmtfa": rmtfa,
    "si": soft_impute_diag,
}


def diag_deleted_pca(sigma, r):
    """Best rank-r approximation of the hollowed matrix ``poffdiag(sigma)``.

    This is the ``dd`` fit's ``L``: one rank-r round from ``D_0 = pdiag(sigma)``.
    """
    return METHODS["dd"](sigma, r)[0].L


def pca_baseline(sigma, r):
    """Leading r eigenvectors of sigma itself, as a (p, r) basis."""
    return extract_subspace(sigma, r)


def _numerical_rank(vals, rel_cutoff=1e-8):
    # count of |vals| above rel_cutoff times the largest |vals|
    mags = np.abs(vals)
    return int(np.sum(mags > rel_cutoff * mags.max(initial=0.0)))


def numerical_rank_sym(m, rel_cutoff=1e-8):
    """Count of eigenvalues above ``rel_cutoff`` times the largest magnitude."""
    m = _as_sym(m, "numerical_rank_sym")
    return _numerical_rank(np.linalg.eigvalsh(m), rel_cutoff)


def extract_subspace(x, r, return_info=False):
    """Leading-r eigenbasis of a low-rank part.

    Parameters
    ----------
    x : Decomposition or (p, p) ndarray
        The L matrix is taken from a Decomposition when one is passed.
    r : int
        Number of basis columns, 1 <= r <= p.
    return_info : bool
        Also return a flag marking numerical rank deficiency, i.e. fewer
        than r eigenvalues above the 1e-8 relative cutoff. The basis is
        still orthonormal in that case, completed from the remaining
        eigenvectors.

    Returns
    -------
    (p, r) ndarray, or ``(basis, deficient)`` with ``return_info=True``.
    """
    vals, vecs = eig_sym(x.L if isinstance(x, Decomposition) else x)
    r = _check_rank(r, vals.size)
    if not return_info:
        return vecs[:, :r]
    return vecs[:, :r], _numerical_rank(vals) < r
