"""Independent brute-force references used to pin expected values.

Nothing here may call into hetero_spectra: these routines re-derive the
quantities under test from definitions (projected gradient, characteristic
polynomials, factored descent) so the package and the oracle can only
agree if both are right.
"""

import math

import numpy as np


def _clip_psd(x):
    # eigenvalue clipping = Euclidean projection onto the PSD cone
    w, v = np.linalg.eigh((x + x.T) / 2.0)
    w = np.maximum(w, 0.0)
    return (v * w) @ v.T


def prox_oracle_psd(m, tau, iters=100_000):
    """Minimize tau*||X||_* + 0.5*||X - m||_F^2 over PSD X.

    On the PSD cone the nuclear norm is the trace, so the objective is
    smooth there; projected gradient with step 1/2 (the quadratic has
    Lipschitz constant 1) converges to the unique minimizer.
    """
    m = np.asarray(m, dtype=float)
    x = np.zeros_like(m)
    eye = np.eye(m.shape[0])
    for _ in range(iters):
        grad = tau * eye + (x - m)
        x = _clip_psd(x - 0.5 * grad)
    return x


def prox_oracle_sym(m, tau, iters=100_000):
    """Minimize tau*||X||_* + 0.5*||X - m||_F^2 over symmetric X.

    Splits X = P - N with P, N both PSD; at any X the canonical split has
    ||X||_* = tr(P) + tr(N), and relaxing to all PSD pairs never lowers
    the objective, so the problems share their minimum. The joint
    quadratic has Lipschitz constant 2, so step 1/2 is valid.
    """
    m = np.asarray(m, dtype=float)
    p_part = np.zeros_like(m)
    n_part = np.zeros_like(m)
    eye = np.eye(m.shape[0])
    for _ in range(iters):
        resid = p_part - n_part - m
        p_next = _clip_psd(p_part - 0.5 * (tau * eye + resid))
        n_next = _clip_psd(n_part - 0.5 * (tau * eye - resid))
        p_part, n_part = p_next, n_next
    return p_part - n_part


def eig2_closed(a, b, c):
    """Eigenvalues of [[a, b], [b, c]], descending, by the quadratic formula."""
    half_tr = (a + c) / 2.0
    rad = math.sqrt(((a - c) / 2.0) ** 2 + b * b)
    return np.array([half_tr + rad, half_tr - rad])


def eig3_closed(m):
    """Eigenvalues of a symmetric 3x3, descending, from the characteristic cubic.

    Uses the trigonometric solution of the depressed cubic, which is exact
    for the three real roots of a symmetric matrix.
    """
    m = np.asarray(m, dtype=float)
    q = np.trace(m) / 3.0
    b = m - q * np.eye(3)
    p2 = np.sum(b * b) / 6.0
    p = math.sqrt(p2)
    if p == 0.0:
        return np.full(3, q)
    det_b = float(np.linalg.det(b))
    rho = det_b / (2.0 * p**3)
    rho = min(1.0, max(-1.0, rho))
    phi = math.acos(rho) / 3.0
    lam1 = q + 2.0 * p * math.cos(phi)
    lam3 = q + 2.0 * p * math.cos(phi + 2.0 * math.pi / 3.0)
    lam2 = 3.0 * q - lam1 - lam3
    return np.sort(np.array([lam1, lam2, lam3]))[::-1]


def rank_r_psd_oracle(m, r, restarts=10, iters=5000, seed=0):
    """Minimize ||m - B B^T||_F^2 over B of shape (p, r), best of restarts.

    Gradient descent on the factor B parameterizes exactly the PSD
    matrices of rank <= r, independently of any eigenvalue reasoning.
    """
    m = np.asarray(m, dtype=float)
    p = m.shape[0]
    rng = np.random.default_rng(seed)
    scale = max(1.0, float(np.linalg.norm(m)))
    best = None
    best_val = np.inf
    for _ in range(restarts):
        b = rng.standard_normal((p, r)) * math.sqrt(scale / p)
        step = 0.25 / scale
        with np.errstate(over="ignore", invalid="ignore"):
            for it in range(iters):
                gap = b @ b.T - m
                b = b - step * (4.0 * gap @ b)
                if it % 100 == 0 and not np.all(np.isfinite(b)):
                    break
        if not np.all(np.isfinite(b)):
            continue
        x = b @ b.T
        val = float(np.sum((m - x) ** 2))
        if val < best_val:
            best_val = val
            best = x
    return best, best_val


def pca_sin_oracle(q, s, p=6):
    """Spike-model sin-theta by direct eigendecomposition in p dimensions."""
    beta = np.zeros(p)
    beta[0] = q
    beta[1] = math.sqrt(1.0 - q * q)
    eta = np.zeros(p)
    eta[0] = 1.0
    m = s * np.outer(beta, beta) + np.outer(eta, eta)
    w, v = np.linalg.eigh(m)
    top = v[:, -1]
    cos = abs(float(top @ beta))
    return math.sqrt(max(0.0, 1.0 - cos * cos))


def objective_scalar(sigma, L, D, tau):
    """Penalized objective evaluated entry by entry, no package helpers."""
    sigma = np.asarray(sigma, dtype=float)
    L = np.asarray(L, dtype=float)
    D = np.asarray(D, dtype=float)
    nuc = float(np.sum(np.abs(np.linalg.eigvalsh((L + L.T) / 2.0))))
    fit = 0.0
    p = sigma.shape[0]
    for i in range(p):
        for j in range(p):
            fit += (sigma[i, j] - L[i, j] - D[i, j]) ** 2
    return tau * nuc + 0.5 * fit


def alternating_reference(sigma, kind, param, d0=None, rel_tol=1e-10, max_iter=1000, keep_iterates=False):
    """The alternating solve written out plainly: dense D, full eigh each step.

    Every floating-point step matches the definitions the solver is pinned
    to: eigenvalues sorted descending with a stable sort, the kept spectrum
    rebuilt as ``((V*w) @ V.T + its transpose) / 2``, ``D = pdiag(sigma - L)``,
    ``psi = sum(poffdiag(sigma - L)**2)`` and the relative-step stop rule,
    floored at the power-of-two scale of sigma's off-diagonal,
    ``2**floor(log2(max|poffdiag(sigma)|))``.

    Returns
    -------
    dict with ``L``, ``D``, ``objective``, ``fixed_point_residual``, ``psi``,
    ``iterations``, ``converged`` and ``iterates`` (None unless kept).
    """

    def pdiag(m):
        out = np.zeros_like(m)
        np.fill_diagonal(out, np.diagonal(m))
        return out

    def poffdiag(m):
        out = m.copy()
        np.fill_diagonal(out, 0.0)
        return out

    sigma = np.asarray(sigma, dtype=float)
    p = sigma.shape[0]
    if d0 is None:
        D = pdiag(sigma)
    elif np.ndim(d0) == 1:
        D = np.zeros((p, p))
        np.fill_diagonal(D, d0)
    else:
        D = np.array(d0, dtype=float)
    L_prev = np.zeros_like(sigma)
    top = float(np.max(np.abs(poffdiag(sigma)), initial=0.0))
    floor = 2.0 ** math.floor(math.log2(top)) if top > 0.0 else 1.0
    out = {"objective": [], "fixed_point_residual": [], "psi": [], "converged": False}
    out["iterates"] = [] if keep_iterates else None
    for k in range(1, max_iter + 1):
        vals, vecs = np.linalg.eigh(sigma - D)
        order = np.argsort(-vals, kind="stable")
        vals, vecs = vals[order], vecs[:, order]
        if kind == "psd_soft":
            keep = vals > param
            w = vals[keep] - param
            V = vecs[:, keep]
            penalty = param * float(np.sum(w))
        elif kind == "sym_soft":
            keep = np.abs(vals) > param
            w = np.sign(vals[keep]) * (np.abs(vals[keep]) - param)
            V = vecs[:, keep]
            penalty = param * float(np.sum(np.abs(w)))
        elif kind == "rank":
            top = np.argsort(-np.abs(vals), kind="stable")[:param]
            w = vals[top]
            V = vecs[:, top]
            penalty = 0.0
        else:  # rank_psd
            w = np.maximum(vals[:param], 0.0)
            keep = w > 0.0
            w = w[keep]
            V = vecs[:, :param][:, keep]
            penalty = 0.0
        if w.size == 0:
            L = np.zeros((p, p))
        else:
            x = (V * w) @ V.T
            L = (x + x.T) / 2.0
        R = sigma - L
        D = pdiag(R)
        psi = float(np.sum(poffdiag(R) ** 2))
        prev_norm = float(np.linalg.norm(L_prev))
        resid = float(np.linalg.norm(L - L_prev))
        out["objective"].append(penalty + 0.5 * psi)
        out["fixed_point_residual"].append(resid)
        out["psi"].append(psi)
        if keep_iterates:
            out["iterates"].append(L.copy())
        L_prev = L
        if resid <= rel_tol * max(floor, prev_norm):
            out["converged"] = True
            break
    out.update(L=L, D=D, iterations=k)
    return out


def accelerated_reference(sigma, kind, tau, rel_tol=1e-14, max_iter=100_000):
    """The soft fit's minimum by accelerated proximal gradient, for rate checks.

    With ``D`` eliminated the fit is ``min_L tau*||L||_* + 0.5*||poffdiag(sigma - L)||^2``
    (over PSD L for ``psd_soft``): a prox-gradient problem with a 1-Lipschitz
    gradient, whose step from ``Y`` is ``prox(poffdiag(sigma) + pdiag(Y))``.
    FISTA with gradient restart (O'Donoghue & Candes 2015) reaches the same
    minimizer in far fewer rounds than the plain loop. It stops once
    ``||L_k - L_{k-1}||_F <= rel_tol * max(1, ||L_{k-1}||_F)``.

    Returns
    -------
    (F*, d*) : the objective at the last ``L`` and ``diag(sigma - L)``.
    """
    sigma = np.asarray(sigma, dtype=float)
    hollow = sigma.copy()
    np.fill_diagonal(hollow, 0.0)
    y = np.zeros(sigma.shape[0])  # diag(Y); the start d0 = diag(sigma)
    x_prev = y
    L_prev = np.zeros_like(sigma)
    t = 1.0
    for _ in range(max_iter):
        m = hollow.copy()
        np.fill_diagonal(m, y)
        vals, vecs = np.linalg.eigh(m)
        if kind == "psd_soft":
            keep = vals > tau
            w = vals[keep] - tau
        else:
            keep = np.abs(vals) > tau
            w = np.sign(vals[keep]) * (np.abs(vals[keep]) - tau)
        x = (vecs[:, keep] * w) @ vecs[:, keep].T
        L = (x + x.T) / 2.0
        if np.linalg.norm(L - L_prev) <= rel_tol * max(1.0, float(np.linalg.norm(L_prev))):
            break
        x_diag = np.diagonal(L).copy()
        t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
        if np.dot(y - x_diag, x_diag - x_prev) > 0.0:  # momentum points uphill: restart
            t = t_next = 1.0
        y = x_diag + (t - 1.0) / t_next * (x_diag - x_prev)
        x_prev, L_prev, t = x_diag, L, t_next
    else:
        raise RuntimeError(f"accelerated_reference: no convergence in {max_iter} rounds")
    R = sigma - L
    d = np.diagonal(R).copy()
    np.fill_diagonal(R, 0.0)
    return tau * float(np.sum(np.abs(w))) + 0.5 * float(np.sum(R**2)), d


def heteropca_reference(sigma, r, t_max=30, g0=None):
    """HeteroPCA's G-recursion written out plainly.

    Starting from ``G_0 = poffdiag(sigma)`` (or ``g0``), repeats
    ``L_t = best_rank_r(G_{t-1})`` (the r eigenvalues largest in magnitude,
    stable on ties, rebuilt as ``((V*w) @ V.T + its transpose) / 2``) and
    ``G_t = poffdiag(G_{t-1}) + pdiag(L_t)`` for ``t_max`` rounds. Only the
    diagonal of G ever changes.

    Returns
    -------
    list of every ``L_t``, t = 1..t_max.
    """
    sigma = np.asarray(sigma, dtype=float)
    G = np.array(sigma if g0 is None else g0, dtype=float)
    if g0 is None:
        np.fill_diagonal(G, 0.0)
    iterates = []
    for _ in range(t_max):
        vals, vecs = np.linalg.eigh(G)
        order = np.argsort(-vals, kind="stable")
        vals, vecs = vals[order], vecs[:, order]
        top = np.argsort(-np.abs(vals), kind="stable")[:r]
        x = (vecs[:, top] * vals[top]) @ vecs[:, top].T
        L = (x + x.T) / 2.0
        G = G.copy()
        np.fill_diagonal(G, np.diagonal(L))
        iterates.append(L)
    return iterates
