import json
import math
from dataclasses import fields

import numpy as np
import pytest

from hetero_spectra import (
    Decomposition,
    ModelParams,
    ProxSpec,
    SolverTrace,
    StopRule,
    alternating_solve,
    best_rank_r,
    best_rank_r_psd,
    deflated_heteropca,
    diag_deleted_pca,
    eig_sym,
    extract_subspace,
    gen_instance,
    heteropca,
    heteropca_psd,
    nuclear_norm_sym,
    numerical_rank_sym,
    objective_F,
    pca_baseline,
    pdiag,
    poffdiag,
    resolve_tau,
    rmtfa,
    sin_theta,
    soft_impute_diag,
    soft_threshold_psd,
    soft_threshold_sym,
    spectral_norm_sym,
    spike_pca_sin_theta,
    symmetrize,
)
from hetero_spectra import matcore, shrinkage, solvers
from hetero_spectra.cli import load_config
from hetero_spectra.solvers import METHOD_TAGS, METHODS, SOFT_METHODS
from inputs import (
    factor_sample_cov,
    incoherent_factor_instance,
    load_perfbench,
    random_orth,
    random_sym,
)
from oracles import alternating_reference, heteropca_reference, objective_scalar


def random_psd(rng, p, rank=None):
    b = rng.standard_normal((p, rank or p))
    return symmetrize(b @ b.T)


def random_corr(rng, p):
    """PSD with unit diagonal, the working scale of the solvers: the
    row-normalized Gram of a p x p Gaussian draw."""
    b = rng.standard_normal((p, p))
    b /= np.linalg.norm(b, axis=1, keepdims=True)
    return symmetrize(b @ b.T)


def factor_instance(rng, p, r, noise=0.0):
    """Sigma = L* + D* (+ W), the planted decomposition and the noise."""
    L = random_psd(rng, p, rank=r)
    D = np.diag(rng.uniform(0.5, 1.5, size=p))
    W = noise * random_sym(rng, p) if noise else np.zeros((p, p))
    return symmetrize(L + D + W), L, D, W


# ---------------------------------------------------------------- engine


def test_alternating_diagonal_sigma_all_prox_kinds():
    sigma = np.diag([3.0, 1.0, 2.0])
    specs = [ProxSpec.psd_soft(0.5), ProxSpec.sym_soft(0.5), ProxSpec.rank(2), ProxSpec.rank_psd(2)]
    for spec in specs:
        dec, trace = alternating_solve(sigma, spec)
        assert np.array_equal(dec.L, np.zeros((3, 3)))
        assert np.array_equal(dec.D, sigma)
        assert trace.converged and trace.iterations == 1
        assert trace.stop_reason == "fixed_point"


def test_alternating_full_shrinkage_gives_exact_zero():
    rng = np.random.default_rng(40)
    for _ in range(5):
        sigma = random_psd(rng, 6)
        # boundary case needs the same eigenvalue the prox will see
        lam1 = eig_sym(poffdiag(sigma)).values[0]
        for tau in (lam1, 1.01 * lam1, lam1 * (1.0 + 1e-12)):
            dec, _ = alternating_solve(sigma, ProxSpec.psd_soft(tau))
            assert np.array_equal(dec.L, np.zeros((6, 6)))
            assert np.array_equal(dec.D, pdiag(sigma))


def test_alternating_monotone_objective():
    rng = np.random.default_rng(41)
    sigma = random_psd(rng, 10)
    dec, trace = alternating_solve(sigma, ProxSpec.psd_soft(0.3))
    assert trace.converged and trace.stop_reason == "converged"
    assert trace.iterations <= 1000
    diffs = np.diff(trace.objective)
    assert np.all(diffs <= 1e-12 * max(1.0, trace.objective[0]))


def test_alternating_monotone_for_every_prox_kind():
    rng = np.random.default_rng(42)
    for spec in (ProxSpec.psd_soft(0.4), ProxSpec.sym_soft(0.4), ProxSpec.rank(3), ProxSpec.rank_psd(3)):
        sigma = random_psd(rng, 8)
        stop = StopRule(rel_tol=1e-10, max_iter=60)
        _, trace = alternating_solve(sigma, spec, stop=stop)
        allow = 1e-12 * max(1.0, trace.objective[0])
        assert np.all(np.diff(trace.objective) <= allow)


def test_alternating_trace_shapes_and_types():
    rng = np.random.default_rng(43)
    sigma = random_psd(rng, 7)
    dec, trace = alternating_solve(sigma, ProxSpec.psd_soft(0.5), keep_iterates=True)
    n = trace.iterations
    assert len(trace.objective) == len(trace.fixed_point_residual) == len(trace.psi) == n
    assert len(trace.iterates) == n
    assert isinstance(dec, Decomposition)
    assert dec.method == "rmtfa" and dec.param == 0.5
    assert np.array_equal(dec.D, pdiag(dec.D))


def test_alternating_rejects_bad_arguments():
    sigma = np.eye(3)
    with pytest.raises(ValueError):
        alternating_solve(np.array([[1.0, 2.0], [0.0, 1.0]]), ProxSpec.psd_soft(1.0))
    with pytest.raises(ValueError):
        alternating_solve(sigma, "psd_soft")
    with pytest.raises(ValueError):
        alternating_solve(sigma, ProxSpec.psd_soft(1.0), d0=np.ones((3, 3)))
    with pytest.raises(ValueError):
        alternating_solve(sigma, ProxSpec.psd_soft(1.0), stop="fast")


def test_alternating_max_iter_reached_flags_nonconvergence():
    rng = np.random.default_rng(44)
    sigma = random_psd(rng, 10)
    dec, trace = alternating_solve(sigma, ProxSpec.psd_soft(0.1), stop=StopRule(1e-10, 1))
    assert not dec.converged and not trace.converged
    assert dec.iterations == 1
    assert trace.stop_reason == "max_iter"


def test_alternating_zero_sigma_short_circuits():
    # the loop's first round reproduces L_0 = 0 exactly, so it stops there
    z = np.zeros((4, 4))
    dec, trace = alternating_solve(z, ProxSpec.psd_soft(0.5))
    assert np.array_equal(dec.L, z) and np.array_equal(dec.D, z)
    assert trace.converged and trace.iterations == 1 == len(trace.objective)
    assert trace.stop_reason == "fixed_point" and trace.kept.size == 0


def test_alternating_empty_sigma_runs_one_round():
    # a 0 x 0 sigma has no entries to take the stop floor's scale from
    dec, trace = alternating_solve(np.zeros((0, 0)), ProxSpec.psd_soft(0.5))
    assert dec.L.shape == dec.D.shape == (0, 0)
    assert trace.iterations == 1 and trace.stop_reason == "fixed_point"


@pytest.mark.parametrize("p", [1, 2, 7, 50])
@pytest.mark.parametrize("tag", METHOD_TAGS)
def test_zero_sigma_every_method_one_round_of_exact_zeros(tag, p):
    z = np.zeros((p, p))
    dec, trace = METHODS[tag](z, 0.5 if tag in SOFT_METHODS else 1)
    for x in (dec.L, dec.D):
        assert np.array_equal(x, z) and not np.signbit(x).any()
    assert dec.iterations == trace.iterations == len(trace.objective) == 1
    assert trace.objective == trace.psi == [0.0] and trace.stop_reason == "fixed_point"


def test_bare_prox_label_is_a_method_tag():
    sigma = random_psd(np.random.default_rng(46), 6)
    specs = [ProxSpec.psd_soft(0.1), ProxSpec.sym_soft(0.1), ProxSpec.rank(2), ProxSpec.rank_psd(2)]
    labels = [alternating_solve(sigma, spec)[0].method for spec in specs]
    assert labels == ["rmtfa", "si", "hpca", "hpca_plus"]
    assert set(labels) <= set(METHOD_TAGS)


def test_stop_rule_validation():
    with pytest.raises(ValueError):
        StopRule(rel_tol=0.0)
    with pytest.raises(ValueError):
        StopRule(rel_tol=-1e-10)
    with pytest.raises(ValueError):
        StopRule(max_iter=0)


def test_stop_rule_integral_float_max_iter_runs():
    stop = StopRule(max_iter=10.0)
    assert stop.max_iter == 10 and isinstance(stop.max_iter, int)
    sigma = random_corr(np.random.default_rng(45), 12)
    dec, trace = rmtfa(sigma, 1e-3, stop=stop)
    assert dec.iterations == trace.iterations == 10
    assert not dec.converged and len(trace.objective) == 10


def _bits(x):
    a = np.asarray(x, dtype=float)
    return a.shape, a.tobytes()


def _block_diag_repeated():
    # two identical blocks: every eigenvalue appears twice
    a = random_corr(np.random.default_rng(46), 3)
    out = np.zeros((6, 6))
    out[:3, :3] = a
    out[3:, 3:] = a
    return out


# p50 is the desk sweep's size. p128 is at the partial-spectrum crossover,
# but every kind keeps the full eigensolve there: the rank and sym_soft
# kinds always do, and psd_soft(0.01) keeps more than p/8 eigenpairs, so
# its round-1 seeded block falls back once. Its soft kinds run to the cap,
# so p128 pins its first 60 iterates only
_PIN_SIGMAS = {
    "p1": lambda: np.array([[2.0]]),
    "p12": lambda: random_corr(np.random.default_rng(47), 12),
    "block": _block_diag_repeated,
    "p50": lambda: random_corr(np.random.default_rng(50), 50),
    "p128": lambda: random_corr(np.random.default_rng(51), 128),
}
_PIN_SPECS = {
    "psd_soft": ProxSpec.psd_soft(0.01),
    "sym_soft": ProxSpec.sym_soft(0.01),
    "rank": ProxSpec.rank(1),
    "rank_psd": ProxSpec.rank_psd(1),
}


@pytest.mark.parametrize("d0_form", ["none", "vector", "matrix"])
@pytest.mark.parametrize("kind", list(_PIN_SPECS))
@pytest.mark.parametrize("case", list(_PIN_SIGMAS))
def test_alternating_solve_bitwise_matches_plain_loop(case, kind, d0_form):
    sigma = _PIN_SIGMAS[case]()
    p = sigma.shape[0]
    d0_vec = 0.5 * np.diagonal(sigma) + np.linspace(0.0, 0.1, p)
    d0 = {"none": None, "vector": d0_vec, "matrix": np.diag(d0_vec)}[d0_form]
    spec = _PIN_SPECS[kind]
    param = spec.tau if spec.tau is not None else spec.r
    max_iter = 60 if case == "p128" else 400
    stop = StopRule(rel_tol=1e-10, max_iter=max_iter)
    dec, trace = alternating_solve(sigma, spec, d0=d0, stop=stop, keep_iterates=True)
    ref = alternating_reference(sigma, kind, param, d0, 1e-10, max_iter, keep_iterates=True)
    assert dec.iterations == trace.iterations == ref["iterations"]
    assert dec.converged == trace.converged == ref["converged"]
    assert _bits(dec.L) == _bits(ref["L"])
    assert _bits(dec.D) == _bits(ref["D"])
    for name in ("objective", "fixed_point_residual", "psi"):
        assert _bits(getattr(trace, name)) == _bits(ref[name]), name
    assert len(trace.iterates) == len(ref["iterates"])
    for got, want in zip(trace.iterates, ref["iterates"]):
        assert _bits(got) == _bits(want)
    assert trace.partial_accepted == 0
    assert trace.partial_fallbacks == (case == "p128" and kind == "psd_soft")


# ---------------------------------------------------------------- partial spectrum


def _full_path_rmtfa(monkeypatch, sigma, tau, **kwargs):
    """rmtfa with the partial-spectrum step switched off."""
    from hetero_spectra import shrinkage

    with monkeypatch.context() as mp:
        mp.setattr(shrinkage, "_PARTIAL_MIN_P", sigma.shape[0] + 1)
        dec, trace = rmtfa(sigma, tau, **kwargs)
    assert trace.partial_accepted == trace.partial_fallbacks == 0
    return dec, trace


def _p256_factor():
    return factor_instance(np.random.default_rng(60), 256, 4, noise=0.02)[0], 1.0


@pytest.mark.parametrize("case", ["p256", "sample_cov_p300"])
def test_partial_spectrum_path_matches_full_path(case, monkeypatch):
    from hetero_spectra.solvers import _numerical_rank

    sigma, tau = _p256_factor() if case == "p256" else factor_sample_cov(61, 300)
    dec, trace = rmtfa(sigma, tau, keep_iterates=True)
    full, full_trace = _full_path_rmtfa(monkeypatch, sigma, tau)
    assert trace.partial_accepted > 0
    assert dec.iterations == full.iterations
    assert trace.converged and trace.stop_reason == full_trace.stop_reason == "converged"
    assert np.linalg.norm(dec.L - full.L) <= 1e-10 * np.linalg.norm(full.L)
    assert np.array_equal(dec.D, pdiag(sigma - dec.L))
    # the last step was redone by the full operator on the loop's last M
    m_last = sigma.copy()
    np.fill_diagonal(m_last, np.diagonal(sigma) - np.diagonal(sigma - trace.iterates[-2]))
    assert np.array_equal(dec.L, soft_threshold_psd(m_last, tau))
    # the last row and the kept spectrum describe the returned pair
    assert trace.psi[-1] == float(np.sum(poffdiag(sigma - dec.L) ** 2))
    assert trace.objective[-1] == pytest.approx(objective_F(sigma, dec.L, dec.D, tau), rel=1e-12)
    assert _numerical_rank(trace.kept) == numerical_rank_sym(dec.L) > 0


@pytest.mark.parametrize("case", ["converged", "capped", "warm"])
def test_returned_pair_and_last_row_come_from_the_full_operator(case):
    # every step here is partial, so the last one, at convergence or at the
    # cap, is redone with the full operator and its residual recomputed; the
    # warm case is the plain finish from the diagonal of a 3-round fit
    sigma, tau = factor_sample_cov(61, 300)
    capped = StopRule(max_iter=3)
    d0 = rmtfa(sigma, tau, stop=capped)[0].D if case == "warm" else None
    dec, trace = rmtfa(
        sigma, tau, stop=capped if case == "capped" else None, d0=d0, keep_iterates=True
    )
    assert trace.stop_reason == ("max_iter" if case == "capped" else "converged")
    assert trace.partial_accepted == trace.iterations
    m_last = sigma.copy()
    np.fill_diagonal(m_last, np.diagonal(sigma) - np.diagonal(sigma - trace.iterates[-2]))
    assert np.array_equal(dec.L, soft_threshold_psd(m_last, tau))
    assert trace.fixed_point_residual[-1] == np.linalg.norm(dec.L - trace.iterates[-2])
    assert np.array_equal(dec.D, pdiag(sigma - dec.L))


def _assert_same_solve(got, want):
    (dec, trace), (ref, ref_trace) = got, want
    assert dec.iterations == ref.iterations and trace.stop_reason == ref_trace.stop_reason
    assert _bits(dec.L) == _bits(ref.L) and _bits(dec.D) == _bits(ref.D)
    for name in ("objective", "fixed_point_residual", "psi"):
        assert _bits(getattr(trace, name)) == _bits(getattr(ref_trace, name)), name


def test_partial_spectrum_falls_back_at_an_eigenvalue_on_tau(monkeypatch):
    # a decoupled block [[1, 0.5], [0.5, 1]]: from iteration 2 on, sigma - D
    # has the eigenvalue 0.5 = tau just below the signal, inside the warm
    # block, so no partial step can separate it from tau
    sigma = np.zeros((256, 256))
    sigma[:254, :254] = factor_instance(np.random.default_rng(62), 254, 3)[0]
    sigma[254:, 254:] = [[1.0, 0.5], [0.5, 1.0]]
    got = rmtfa(sigma, 0.5)
    assert got[1].partial_fallbacks > 0 and got[1].partial_accepted == 0
    assert got[1].converged
    _assert_same_solve(got, _full_path_rmtfa(monkeypatch, sigma, 0.5))


def test_partial_spectrum_falls_back_when_kept_count_outgrows_block(monkeypatch):
    sigma = random_corr(np.random.default_rng(63), 256)
    off = eig_sym(poffdiag(sigma)).values
    tau = 0.01
    # the first step keeps two eigenpairs; the second sees about p/2 above tau.
    # On this flat spectrum round 1's seeded block does not converge either
    d0 = np.diagonal(sigma) + (off[2] - tau)
    stop = StopRule(1e-10, 30)
    got = rmtfa(sigma, tau, d0=d0, stop=stop)
    assert got[1].partial_fallbacks == 2 and got[1].partial_accepted == 0
    assert got[1].kept.size > 256 // 8
    _assert_same_solve(got, _full_path_rmtfa(monkeypatch, sigma, tau, d0=d0, stop=stop))


def _stalling_input(p=256):
    """A matrix whose kept eigenvalue 10 sits over a cluster at 8.0-8.9, and
    a warm basis tilted off its eigenvector: subspace iteration gains about
    a factor 0.89 a step, far too slow to certify in ``_PARTIAL_STEPS``."""
    rng = np.random.default_rng(70)
    v = np.linalg.qr(rng.standard_normal((p, p)))[0]
    lam = np.zeros(p)
    lam[0] = 10.0
    lam[1:41] = np.linspace(8.9, 8.0, 40)
    return symmetrize((v * lam) @ v.T), np.linalg.qr(v[:, :9] + 0.3 * v[:, 9:18])[0]


def _counted(monkeypatch, *names, rows=None):
    """Count the calls of the named ``np.linalg`` functions, by name; with ``rows``,
    only the calls on an array of that many rows."""
    calls = dict.fromkeys(names, 0)
    for name in names:

        def counted(a, _real=getattr(np.linalg, name), _name=name):
            if rows is None or a.shape[0] == rows:
                calls[_name] += 1
            return _real(a)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def _spy_partial(monkeypatch):
    """Record how each partial step ends: "accepted", "gave_up" (None after
    at least one subspace step, before the step budget ran out and without
    reaching the Cholesky test) or "other"."""
    calls = _counted(monkeypatch, "qr", "cholesky")
    real_partial = shrinkage._psd_soft_partial
    outcomes = []

    def spy(m, tau, basis):
        calls.update(qr=0, cholesky=0)
        out = real_partial(m, tau, basis)
        early = calls["cholesky"] == 0 and 0 < calls["qr"] < shrinkage._PARTIAL_STEPS
        outcomes.append("accepted" if out is not None else "gave_up" if early else "other")
        return out

    monkeypatch.setattr(shrinkage, "_psd_soft_partial", spy)
    return outcomes


def test_partial_spectrum_gives_up_early_on_a_slow_rate(monkeypatch):
    m, basis = _stalling_input()
    outcomes = _spy_partial(monkeypatch)
    spec = ProxSpec.psd_soft(9.5)
    L, kept, step = shrinkage._prox_with_spectrum(spec, m, shrinkage._Warm(basis))
    assert outcomes == ["gave_up"] and not step.partial
    # the dispatch then returns the full operator's output
    full_L, full_kept, _ = shrinkage._prox_with_spectrum(spec, m)
    assert _bits(L) == _bits(full_L) and _bits(kept) == _bits(full_kept)
    # in the loop, each give-up counts as a fallback to the full eigensolve,
    # and so does round 1's seeded block: its first Ritz values all lie below
    # tau, and the Cholesky test of that empty selection fails
    outcomes.clear()
    _, trace = alternating_solve(m, ProxSpec.psd_soft(8.2), stop=StopRule(1e-10, 20))
    assert outcomes[0] == "other" and outcomes.count("gave_up") > 0
    assert trace.partial_fallbacks == outcomes.count("gave_up") + 1
    assert trace.partial_accepted == outcomes.count("accepted")


@pytest.mark.parametrize("start", ["cold", "raised"])
def test_partial_spectrum_exact_shutoff_large_p(start):
    # criterion 3 at p = 300: tau >= lambda_1(poffdiag(sigma)) gives L == 0
    sigma, _ = factor_sample_cov(64, 300)
    lam1 = eig_sym(poffdiag(sigma)).values[0]
    tau = lam1 * (1.0 + 1e-12)
    # "raised" starts below the diagonal, so the first steps keep a few
    # eigenpairs and the partial steps carry the fit down to zero
    d0 = None if start == "cold" else np.diagonal(sigma) - 0.5 * lam1
    dec, trace = rmtfa(sigma, tau, d0=d0)
    assert np.array_equal(dec.L, np.zeros_like(sigma))
    assert np.array_equal(dec.D, pdiag(sigma))
    assert trace.stop_reason == "fixed_point" and trace.kept.size == 0
    if start == "raised":
        assert trace.partial_accepted > 0


def _spy_bound(monkeypatch):
    """Record ``(m, tau, out)`` of every partial step accepted without a Cholesky test."""
    chol = _counted(monkeypatch, "cholesky")
    real_partial = shrinkage._psd_soft_partial
    by_bound = []

    def spy(m, tau, basis):
        chol["cholesky"] = 0
        out = real_partial(m, tau, basis)
        if out is not None and chol["cholesky"] == 0:
            by_bound.append((m.copy(), tau, out))  # the loop rewrites m's diagonal
        return out

    monkeypatch.setattr(shrinkage, "_psd_soft_partial", spy)
    return by_bound


@pytest.mark.parametrize("case", ["p256", "sample_cov_p300"])
def test_bound_certified_steps_pass_the_cholesky_test(case, monkeypatch):
    # a step the eigenvalue bound accepts also passes the factorization it
    # skips: (tau - delta) I - P m P is positive definite
    sigma, tau = _p256_factor() if case == "p256" else factor_sample_cov(61, 300)
    by_bound = _spy_bound(monkeypatch)
    rmtfa(sigma, tau)
    assert len(by_bound) >= 3
    for m, tau, (_, w, step) in by_bound:
        p = m.shape[0]
        delta = shrinkage._PARTIAL_TOL * np.linalg.norm(m)
        yk = step.basis.vecs[:, : w.size]
        proj = np.eye(p) - yk @ yk.T
        np.linalg.cholesky(symmetrize((tau - delta) * np.eye(p) - proj @ m @ proj))


def _hidden_eigenvalue():
    """``(m, warm, tau)``: ``m = blockdiag(A, 0.5 I)`` at p = 256, with A's
    eigenvalues 10 and 0.6-1.0 and tau = 5, and the warm start its full
    ``psd_soft`` step hands out. The block holds A's leading eigenvectors, so
    it misses every coordinate vector e_j of the second block."""
    rng = np.random.default_rng(71)
    v = np.linalg.qr(rng.standard_normal((128, 128)))[0]
    lam = np.linspace(1.0, 0.6, 128)
    lam[0] = 10.0
    m = np.diag(np.full(256, 0.5))
    m[:128, :128] = symmetrize((v * lam) @ v.T)
    tau = 5.0
    warm = shrinkage._prox_with_spectrum(ProxSpec.psd_soft(tau), m)[2].basis
    assert warm.k == 1 and not warm.vecs[128:].any()
    return m, warm, tau


def _assert_full_prox(m, tau, warm, kept):
    L, w, step = shrinkage._prox_with_spectrum(ProxSpec.psd_soft(tau), m, warm)
    assert w.size == kept and not step.partial
    assert np.linalg.norm(L - soft_threshold_psd(m, tau)) <= 1e-12 * np.linalg.norm(L)


def test_bound_counts_the_diagonal_drift():
    # raising one diagonal entry of the second block lifts an eigenvalue from
    # 0.5 to 7.5, over tau, along e_200, which the warm block cannot see: the
    # block still converges to its one kept pair, and only the drift term of
    # the bound keeps the step from being accepted without that eigenvalue
    m, warm, tau = _hidden_eigenvalue()
    m[200, 200] += 7.0
    _assert_full_prox(m, tau, warm, kept=2)


def test_bound_needs_as_many_kept_pairs_as_its_reference():
    # a bound with k = 2 (10 and 7.5 kept), reused by a step whose block
    # finds only the pair at 10: it bounds lambda_3, not the missed lambda_2
    m, warm, tau = _hidden_eigenvalue()
    m[200, 200] += 7.0
    bound = shrinkage._prox_with_spectrum(ProxSpec.psd_soft(tau), m)[2].basis
    assert bound.k == 2 and bound.beta < 1.5
    _assert_full_prox(m, tau, bound._replace(vecs=warm.vecs), kept=2)


@pytest.mark.parametrize("case", ["p256", "sample_cov_p300"])
def test_round_one_takes_a_partial_step_from_a_seeded_block(case):
    sigma, tau = _p256_factor() if case == "p256" else factor_sample_cov(61, 300)
    spec = ProxSpec.psd_soft(tau)
    m = poffdiag(sigma)  # round 1's sigma - D
    seeded = shrinkage._seeded_basis(spec, m.shape[0])
    L, kept, step = shrinkage._prox_with_spectrum(spec, m, seeded)
    full_L, full_kept, _ = shrinkage._prox_with_spectrum(spec, m)
    assert step.partial and kept.size == full_kept.size > 0
    assert np.linalg.norm(L - full_L) <= math.sqrt(2) * shrinkage._PARTIAL_TOL * np.linalg.norm(m)


@pytest.mark.parametrize("case", ["p256", "sample_cov_p300"])
def test_round_one_falls_back_when_its_step_budget_runs_out(case, monkeypatch):
    sigma, tau = _p256_factor() if case == "p256" else factor_sample_cov(61, 300)
    # a shared budget round 1's Gaussian block cannot meet there, while the
    # warm blocks of the later rounds need at most 6 steps
    monkeypatch.setattr(shrinkage, "_PARTIAL_STEPS", 8)
    outcomes = _spy_partial(monkeypatch)
    dec, trace = rmtfa(sigma, tau)
    assert outcomes[0] != "accepted" and trace.partial_fallbacks == 1
    assert trace.partial_accepted == trace.iterations - 1 > 0
    # the tolerances of test_partial_spectrum_path_matches_full_path
    full, full_trace = _full_path_rmtfa(monkeypatch, sigma, tau)
    assert dec.iterations == full.iterations
    assert trace.converged and trace.stop_reason == full_trace.stop_reason == "converged"
    assert np.linalg.norm(dec.L - full.L) <= 1e-10 * np.linalg.norm(full.L)
    assert np.array_equal(dec.D, pdiag(sigma - dec.L))


def test_round_one_qr_failure_falls_back(monkeypatch):
    sigma, tau = factor_sample_cov(61, 300)
    spec = ProxSpec.psd_soft(tau)
    m = poffdiag(sigma)

    def failing(a, *args, **kwargs):
        raise np.linalg.LinAlgError("synthetic LAPACK failure")

    monkeypatch.setattr(np.linalg, "qr", failing)
    L, kept, step = shrinkage._prox_with_spectrum(spec, m, shrinkage._seeded_basis(spec, 300))
    full_L, full_kept, _ = shrinkage._prox_with_spectrum(spec, m)
    assert not step.partial
    assert _bits(L) == _bits(full_L) and _bits(kept) == _bits(full_kept)


@pytest.mark.parametrize("above", [3, 6])
def test_round_one_falls_back_after_one_cholesky_test_on_a_flat_spectrum(above, monkeypatch):
    # the seeded block's first Ritz values all lie below tau: its empty kept
    # residual passes at once, and the one margin test fails
    m = poffdiag(random_corr(np.random.default_rng(63), 256))
    vals = eig_sym(m).values
    spec = ProxSpec.psd_soft((vals[above - 1] + vals[above]) / 2.0)
    full_L, full_kept, _ = shrinkage._prox_with_spectrum(spec, m)
    calls = _counted(monkeypatch, "qr", "cholesky")
    L, kept, step = shrinkage._prox_with_spectrum(spec, m, shrinkage._seeded_basis(spec, 256))
    assert calls == {"qr": 1, "cholesky": 1} and not step.partial
    assert _bits(L) == _bits(full_L) and _bits(kept) == _bits(full_kept)


@pytest.mark.parametrize("floor", [1.0, 2.0])
def test_margin_test_makes_no_factorization_at_or_above_its_limit(floor, monkeypatch):
    # with k = 0, P m P = m, whose largest eigenvalue 2 is at least both
    # limit and floor: the test cannot pass, so it is not made
    m = np.diag(np.linspace(2.0, 0.0, 8))
    calls = _counted(monkeypatch, "cholesky")
    assert shrinkage._margin_bound(m, np.zeros((8, 0)), np.zeros((8, 0)), 1.0, floor, 0.0) is None
    assert calls["cholesky"] == 0


@pytest.mark.parametrize("p, seed", [(300, 61), (500, 3)])
def test_partial_spectrum_does_not_give_up_on_a_far_start_blocks_first_rate(p, seed):
    # the first contraction of a Gaussian block measures how far it started,
    # not the iteration's rate: here it reads 0.46 and 1.06, and every later
    # one at most 0.04, so the step must run on and be accepted
    sigma, tau = factor_sample_cov(seed, p)
    spec = ProxSpec.psd_soft(tau)
    m = poffdiag(sigma)
    full_L, full_kept, full_step = shrinkage._prox_with_spectrum(spec, m)
    block = np.linalg.qr(np.random.default_rng(5).standard_normal((p, 16)))[0]
    warm = full_step.basis._replace(vecs=block)
    L, kept, step = shrinkage._prox_with_spectrum(spec, m, warm)
    assert step.partial and kept.size == full_kept.size == 5
    assert np.linalg.norm(L - full_L) <= math.sqrt(2) * shrinkage._PARTIAL_TOL * np.linalg.norm(m)


def _stress_matrix(rng, shape, p):
    """A seeded input for the partial step at tau = 1, with a ``shape`` spectrum.

    Half its eigenvectors are coordinate vectors, so a diagonal drift moves their
    eigenvalues exactly: it can lift one that a warm block does not hold over tau,
    or drop a kept one out of the block a step hands on.
    """
    k = int(rng.integers(1, 7))
    if shape == "spiked":
        top, rest = 1.0 + rng.uniform(0.5, 10.0, k), rng.uniform(-0.5, 0.5, p - k)
    elif shape == "near":  # lambda_{k+1} 1e-14 to 1e-4 below tau
        top = 1.0 + rng.uniform(0.1, 5.0, k)
        rest = np.append(1.0 - 10.0 ** rng.uniform(-14, -4), rng.uniform(-0.5, 0.9, p - k - 1))
    elif shape == "clustered":  # more eigenvalues just below tau than a warm block holds
        n = int(rng.integers(9, 25))
        top = 1.0 + 10.0 ** rng.uniform(-11, -4, k)
        below = 1.0 - 10.0 ** rng.uniform(-11, -4, n)
        rest = np.concatenate([below, rng.uniform(-0.5, 0.5, p - k - n)])
    else:  # flat
        top, rest = 1.0 + rng.uniform(0.0, 0.05, k), rng.uniform(0.6, 1.0, p - k)
    q = np.eye(p)
    q[: p // 2, : p // 2] = np.linalg.qr(rng.standard_normal((p // 2, p // 2)))[0]
    return symmetrize((q * rng.permutation(np.concatenate([top, rest]))) @ q.T)


def test_every_accepted_partial_step_is_within_its_bound_of_the_full_prox():
    # starts: round 1's seeded block; a full step's block after a one-signed
    # diagonal drift of 1e-12 to 1e-2 on half the coordinates; and the block
    # that step hands on, back on the matrix before the drift. On the clustered
    # spectra, a bound without its drift term or its k >= ref.k guard accepts
    # steps outside the bound, so those spectra are most of the draws
    rng = np.random.default_rng(76)
    spec = ProxSpec.psd_soft(1.0)
    accepted = dict.fromkeys(["seeded", "drift", "back"], 0)

    def attempt(m, basis, start):
        out = shrinkage._psd_soft_partial(m, 1.0, basis)
        if out is not None:
            accepted[start] += 1
            bound = math.sqrt(2) * shrinkage._PARTIAL_TOL + 64 * m.shape[0] * np.finfo(float).eps
            err = np.linalg.norm(out[0] - soft_threshold_psd(m, 1.0))
            assert err <= bound * np.linalg.norm(m), start
        return out

    for shape, count in [("spiked", 3), ("near", 3), ("clustered", 36), ("flat", 3)]:
        for _ in range(count):
            p = int(rng.choice([128, 160, 192, 256]))
            m = _stress_matrix(rng, shape, p)
            attempt(m, shrinkage._seeded_basis(spec, p), "seeded")
            warm = shrinkage._prox_with_spectrum(spec, m)[2].basis
            for _ in range(0 if warm is None else 2):
                drift = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12, -2)
                m1 = m.copy()
                m1.reshape(-1)[:: p + 1] += drift * (rng.random(p) < 0.5)
                out = attempt(m1, warm, "drift")
                if out is not None and out[2].basis is not None:
                    attempt(m, out[2].basis, "back")
    assert accepted["drift"] > 0 and accepted["back"] > 0


def test_alternating_nonfinite_iterate_raises(monkeypatch):
    from hetero_spectra import solvers

    real = solvers._prox_with_spectrum
    calls = []

    def poisoned(spec, m, basis=None):
        L, kept, step = real(spec, m, basis)
        calls.append(1)
        if len(calls) == 2:
            L = L.copy()
            np.fill_diagonal(L, np.inf)
        return L, kept, step

    monkeypatch.setattr(solvers, "_prox_with_spectrum", poisoned)
    sigma = random_corr(np.random.default_rng(48), 8)
    with pytest.raises(ValueError):
        alternating_solve(sigma, ProxSpec.psd_soft(1e-3))
    assert len(calls) == 2


def test_heteropca_nonfinite_round_raises(monkeypatch):
    from hetero_spectra import solvers

    real = solvers._prox_with_spectrum
    calls = []

    def poisoned(spec, m, basis=None):
        L, kept, step = real(spec, m, basis)
        calls.append(1)
        L = L.copy()
        np.fill_diagonal(L, np.nan)
        return L, kept, step

    monkeypatch.setattr(solvers, "_prox_with_spectrum", poisoned)
    sigma = random_corr(np.random.default_rng(49), 8)
    with pytest.raises(ValueError):
        heteropca(sigma, 2)
    assert len(calls) == 1


def test_alternating_overflowing_diagonal_raises():
    # sigma and d0 are finite, but their difference overflows on round 1
    sigma = np.array([[1e308, 0.5], [0.5, 1.0]])
    with np.errstate(over="ignore"), pytest.raises(
        ValueError, match="^alternating_solve: sigma - D has non-finite entries$"
    ):
        alternating_solve(sigma, ProxSpec.psd_soft(0.1), d0=[-1e308, 0.0])


@pytest.mark.parametrize("tag", ["rmtfa", "hpca"])
def test_objective_increase_raises_naming_the_fit(tag, monkeypatch):
    real = solvers._prox_with_spectrum
    calls = []

    def doubled(spec, m, basis=None):
        L, kept, step = real(spec, m, basis)
        calls.append(1)
        return (2.0 * L if len(calls) >= 2 else L), kept, step

    monkeypatch.setattr(solvers, "_prox_with_spectrum", doubled)
    sigma, tau = _desk_p8()
    with pytest.raises(RuntimeError, match=f"^{_ENTRY_CHECK[tag]}: objective increased from "):
        METHODS[tag](sigma, tau if tag in SOFT_METHODS else 2)
    assert len(calls) == 2


def _desk_p8():
    inst = gen_instance(ModelParams(n=40, p=8, r=2, seed=0))
    return inst.sigma, inst.params.sigma_r() ** 2 / 16.0


# each tag's errors name its entry check
_ENTRY_CHECK = {
    "svd": "svd",
    "dd": "dd",
    "hpca": "hpca",
    "dhpca": "deflated_heteropca",
    "hpca_plus": "hpca_plus",
    "rmtfa": "alternating_solve",
    "si": "alternating_solve",
}


@pytest.mark.parametrize("tag", METHOD_TAGS)
def test_overflowing_scale_raises_instead_of_converging(tag):
    # at 1e160 the first round's norms overflow to inf, and an infinite
    # tolerance would pass the stop test at once
    sigma, tau = _desk_p8()
    param = tau * 1e160 if tag in SOFT_METHODS else 2
    match = f"^{_ENTRY_CHECK[tag]}: round 1 .* not finite"
    with np.errstate(over="ignore"), pytest.raises(ValueError, match=match):
        METHODS[tag](sigma * 1e160, param)


def test_large_finite_scale_converges_as_at_scale_one():
    sigma, tau = _desk_p8()
    dec, trace = rmtfa(sigma, tau)
    big, big_trace = rmtfa(sigma * 1e100, tau * 1e100)
    assert big.converged and big.iterations == dec.iterations
    assert np.isfinite(big_trace.objective).all()
    assert np.allclose(big.L, dec.L * 1e100, rtol=1e-9, atol=1e-9 * 1e100)


@pytest.mark.parametrize("e", [-60, -20, 20, 60])
@pytest.mark.parametrize("tag", METHOD_TAGS)
def test_power_of_two_scale_is_bitwise_equivariant(tag, e):
    # (2**e sigma, 2**e tau) runs the same rounds and returns 2**e (L, D)
    sigma, tau = _desk_p8()
    c = 2.0**e
    param, scaled = (tau, tau * c) if tag in SOFT_METHODS else (2, 2)
    dec, trace = METHODS[tag](sigma, param)
    got, got_trace = METHODS[tag](sigma * c, scaled)
    assert _bits(got.L) == _bits(dec.L * c)
    assert _bits(got.D) == _bits(dec.D * c)
    assert got.iterations == dec.iterations
    assert got_trace.stop_reason == trace.stop_reason


@pytest.mark.parametrize("tag", METHOD_TAGS)
def test_small_scale_matches_scale_one(tag):
    sigma, tau = _desk_p8()
    param, scaled = (tau, tau * 1e-8) if tag in SOFT_METHODS else (2, 2)
    dec, _ = METHODS[tag](sigma, param)
    got, _ = METHODS[tag](sigma * 1e-8, scaled)
    assert np.linalg.norm(got.L / 1e-8 - dec.L) <= 1e-9 * np.linalg.norm(dec.L)
    assert np.linalg.norm(got.D / 1e-8 - dec.D) <= 1e-9 * np.linalg.norm(dec.D)


def _desk_p50():
    inst = gen_instance(ModelParams(n=200, p=50, r=5, kappa=3.0, seed=0))
    return inst.sigma, inst.params.sigma_r() ** 2 / 16.0


def test_tiny_scale_si_runs_to_the_scale_one_fit():
    # with the stop test floored at an absolute 1, this fit read converged
    # after 2 rounds and returned an L 26% off the scale-1 fit
    sigma, tau = _desk_p50()
    dec, trace = soft_impute_diag(sigma, tau)
    c = 2.0**-40
    tiny, tiny_trace = soft_impute_diag(sigma * c, tau * c)
    assert tiny.iterations == dec.iterations == 96
    assert tiny_trace.stop_reason == trace.stop_reason == "converged"
    assert _bits(tiny.L / c) == _bits(dec.L)


@pytest.mark.parametrize("shift", [1e6, 1e8])
@pytest.mark.parametrize("fit, rounds", [(rmtfa, 37), (soft_impute_diag, 96)], ids=["rmtfa", "si"])
def test_diagonal_shift_leaves_the_stop_test_as_it_was(fit, rounds, shift):
    # D absorbs sigma's diagonal; with the floor taken over all of sigma,
    # rmtfa stopped after 27 and 18 rounds here, 2.1e-8 and 2.1e-6 off
    sigma, tau = _desk_p50()
    dec, _ = fit(sigma, tau)
    got, _ = fit(sigma + shift * np.eye(sigma.shape[0]), tau)
    assert got.iterations == dec.iterations == rounds
    assert np.linalg.norm(got.L - dec.L) <= 1e-10 * np.linalg.norm(dec.L)


@pytest.mark.parametrize(
    "d0, match",
    [
        (np.ones(3), "^d0: expected length 4, got 3$"),
        (np.ones((4, 3)), r"^d0: expected a square matrix of size 4, got shape \(4, 3\)$"),
        (np.array([1.0, np.nan, 1.0, 1.0]), "^d0: non-finite entries$"),
    ],
    ids=["length", "shape", "non-finite"],
)
def test_alternating_solve_rejects_bad_d0(d0, match):
    sigma = random_corr(np.random.default_rng(68), 4)
    with pytest.raises(ValueError, match=match):
        alternating_solve(sigma, ProxSpec.psd_soft(0.1), d0=d0)


def test_objective_rejects_low_rank_part_of_another_shape():
    sigma = random_corr(np.random.default_rng(69), 4)
    msg = r"^objective_F: L: expected a square matrix of size 4, got shape \(3, 3\)$"
    with pytest.raises(ValueError, match=msg):
        objective_F(sigma, np.zeros((3, 3)), np.ones(4), 0.5)


# ---------------------------------------------------------------- rmtfa


def test_rmtfa_threshold_boundary_2x2():
    sigma = np.array([[2.0, 1.0], [1.0, 2.0]])
    dec, _ = rmtfa(sigma, 1.0)
    assert np.array_equal(dec.L, np.zeros((2, 2)))
    assert np.array_equal(dec.D, np.diag([2.0, 2.0]))


def test_rmtfa_balanced_factor_small_tau_recovers_offdiagonal():
    rng = np.random.default_rng(45)
    p = 6
    beta = np.ones(p) / np.sqrt(p)
    L_true = np.outer(beta, beta)
    sigma = symmetrize(L_true + np.diag(rng.uniform(0.5, 1.5, size=p)))
    dec, trace = rmtfa(sigma, 1e-6, stop=StopRule(1e-12, 20000))
    assert trace.converged
    assert np.max(np.abs(poffdiag(dec.L) - poffdiag(L_true))) < 1e-4


def test_rmtfa_fixed_point_residual():
    rng = np.random.default_rng(46)
    sigma = random_corr(rng, 20)
    dec, _ = rmtfa(sigma, 0.5)
    refit = soft_threshold_psd(poffdiag(sigma) + pdiag(dec.L), 0.5)
    assert np.linalg.norm(dec.L - refit) < 1e-8


def test_rmtfa_rejects_nonpositive_tau():
    with pytest.raises(ValueError):
        rmtfa(np.eye(3), 0.0)
    with pytest.raises(ValueError):
        rmtfa(np.eye(3), -1.0)


def test_rmtfa_output_psd_and_diagonal():
    rng = np.random.default_rng(47)
    for _ in range(5):
        sigma = random_psd(rng, 8)
        dec, _ = rmtfa(sigma, 0.3)
        vals = np.linalg.eigvalsh(dec.L)
        assert vals[0] >= -1e-8 * max(1.0, vals[-1])
        assert np.array_equal(dec.D, pdiag(dec.D))


def test_rmtfa_initialization_independence():
    rng = np.random.default_rng(48)
    for _ in range(5):
        sigma = random_psd(rng, 9)
        from_diag, _ = rmtfa(sigma, 0.4)
        from_zero, _ = rmtfa(sigma, 0.4, d0=np.zeros(9))
        assert np.linalg.norm(from_diag.L - from_zero.L) < 1e-6


def test_rmtfa_warm_start_runs():
    rng = np.random.default_rng(49)
    sigma = random_psd(rng, 10)
    coarse, _ = rmtfa(sigma, 0.8)
    warm, trace = rmtfa(sigma, 0.6, d0=np.diag(coarse.D))
    assert trace.converged
    refit = soft_threshold_psd(poffdiag(sigma) + pdiag(warm.L), 0.6)
    assert np.linalg.norm(warm.L - refit) < 1e-8


def test_rmtfa_zero_sigma():
    dec, trace = rmtfa(np.zeros((5, 5)), 0.7)
    assert np.array_equal(dec.L, np.zeros((5, 5)))
    assert np.array_equal(dec.D, np.zeros((5, 5)))
    assert trace.converged


# ---------------------------------------------------------------- oracle inequalities


def test_oracle_inequality_spectral_and_frobenius():
    rng = np.random.default_rng(50)
    for _ in range(10):
        sigma, L_true, _, W = incoherent_factor_instance(rng)
        tau = 1.01 * spectral_norm_sym(poffdiag(W))
        dec, _ = rmtfa(sigma, tau)
        gap = poffdiag(L_true - dec.L)
        assert spectral_norm_sym(gap) <= 2.0 * tau + 1e-10
        fro_sq = float(np.sum(gap**2))
        bound = min(
            4.0 * tau * nuclear_norm_sym(L_true),
            4.0 * tau**2 * 2 + float(np.sum(pdiag(L_true - dec.L) ** 2)),
        )
        assert fro_sq <= bound + 1e-10


def test_residual_grows_and_nuclear_norm_shrinks_in_tau():
    rng = np.random.default_rng(51)
    sigma = random_psd(rng, 10)
    lam1 = spectral_norm_sym(poffdiag(sigma))
    taus = np.linspace(0.05, 0.95, 8) * lam1
    psis = []
    nucs = []
    for tau in taus:
        dec, trace = rmtfa(sigma, float(tau))
        psis.append(trace.psi[-1])
        nucs.append(nuclear_norm_sym(dec.L))
    assert np.all(np.diff(psis) >= -1e-10)
    assert np.all(np.diff(nucs) <= 1e-10)
    for tau, psi in zip(taus, psis):
        # PSD sigma: residual is controlled linearly in tau
        assert psi <= 4.0 * tau * nuclear_norm_sym(sigma) + 1e-10


def test_heywood_avoidance_near_threshold():
    rng = np.random.default_rng(52)
    for _ in range(5):
        sigma, _, _, _ = factor_instance(rng, 8, 2, noise=0.2)
        lam1 = spectral_norm_sym(poffdiag(sigma))
        dec, _ = rmtfa(sigma, 0.9 * lam1)
        assert np.min(np.diag(dec.D)) > 0.0


# ---------------------------------------------------------------- soft impute


def test_soft_impute_diagonal_sigma():
    dec, _ = soft_impute_diag(np.diag([4.0, 2.0]), 0.5)
    assert np.array_equal(dec.L, np.zeros((2, 2)))


def test_soft_impute_full_shrinkage():
    rng = np.random.default_rng(53)
    sigma = random_sym(rng, 6)
    tau = float(np.max(np.abs(eig_sym(poffdiag(sigma)).values)))
    dec, _ = soft_impute_diag(sigma, tau)
    assert np.array_equal(dec.L, np.zeros((6, 6)))


def test_soft_impute_fixed_point():
    rng = np.random.default_rng(54)
    sigma = random_sym(rng, 12)
    dec, _ = soft_impute_diag(sigma, 0.6)
    refit = soft_threshold_sym(poffdiag(sigma) + pdiag(dec.L), 0.6)
    assert np.linalg.norm(dec.L - refit) < 1e-8
    assert dec.method == "si"


def test_soft_impute_rejects_nonpositive_tau():
    with pytest.raises(ValueError):
        soft_impute_diag(np.eye(2), 0.0)


# ---------------------------------------------------------------- heteropca


def test_heteropca_diagonal_sigma_stays_zero():
    sigma = np.diag([5.0, 3.0, 1.0])
    L, G, iterates = heteropca(sigma, 2, t_max=5, keep_iterates=True)
    assert np.array_equal(L, np.zeros((3, 3)))
    assert np.array_equal(G, np.zeros((3, 3)))
    for it in iterates:
        assert np.array_equal(it, np.zeros((3, 3)))


def test_heteropca_stationary_at_consistent_low_rank():
    rng = np.random.default_rng(55)
    L_true = random_psd(rng, 8, rank=2)
    # seed the loop with the already-imputed matrix: nothing should move
    L1, G1 = heteropca(L_true, 2, t_max=1, g0=L_true)
    L5, G5 = heteropca(L_true, 2, t_max=5, g0=L_true)
    assert np.linalg.norm(L1 - L_true) < 1e-8
    assert np.linalg.norm(L5 - L_true) < 1e-8
    assert np.linalg.norm(G5 - G1) < 1e-10


def test_heteropca_matches_alternating_rank_solver():
    rng = np.random.default_rng(56)
    stop = StopRule(rel_tol=5e-324, max_iter=30)
    for trial in range(10):
        p = 12
        sigma = random_psd(rng, p, rank=6)
        r = (1, 3, 5)[trial % 3]
        hp_iterates = heteropca_reference(sigma, r, t_max=30)
        _, trace = alternating_solve(sigma, ProxSpec.rank(r), stop=stop, keep_iterates=True)
        alt_iterates = trace.iterates
        common = min(len(hp_iterates), len(alt_iterates))
        for a, b in zip(hp_iterates[:common], alt_iterates[:common]):
            assert np.max(np.abs(a - b)) < 1e-10
        # an early exact fixed point on the alternating side freezes there
        for tail in hp_iterates[common:]:
            assert np.max(np.abs(tail - alt_iterates[-1])) < 1e-10
        # heteropca is that loop
        _, _, wrapped = heteropca(sigma, r, t_max=30, keep_iterates=True)
        assert len(wrapped) == len(alt_iterates)
        for a, b in zip(wrapped, alt_iterates):
            assert np.array_equal(a, b)


def test_heteropca_g0_matches_reference():
    rng = np.random.default_rng(66)
    for trial in range(6):
        p = 12
        sigma = random_psd(rng, p, rank=6)
        g0 = poffdiag(sigma) + np.diag(rng.uniform(0.0, 2.0, p))
        r = (1, 3, 5)[trial % 3]
        ref = heteropca_reference(sigma, r, t_max=30, g0=g0)
        L, G, iterates = heteropca(sigma, r, t_max=30, g0=g0, keep_iterates=True)
        common = min(len(ref), len(iterates))
        for a, b in zip(ref[:common], iterates[:common]):
            assert np.max(np.abs(a - b)) < 1e-10
        for tail in ref[common:]:
            assert np.max(np.abs(tail - iterates[-1])) < 1e-10
        assert np.array_equal(poffdiag(G), poffdiag(g0))
        assert np.array_equal(np.diagonal(G), np.diagonal(L))


def test_heteropca_custom_g0_is_used_directly():
    rng = np.random.default_rng(57)
    sigma = random_psd(rng, 6)
    g0 = random_sym(rng, 6)
    L1, _ = heteropca(sigma, 2, t_max=1, g0=g0)
    assert np.array_equal(L1, best_rank_r(g0, 2))


def test_heteropca_rejects_bad_arguments():
    with pytest.raises(ValueError):
        heteropca(np.eye(3), 2, t_max=0)
    with pytest.raises(ValueError):
        heteropca(np.eye(3), 2, g0=np.eye(4))


# ---------------------------------------------------------------- deflated heteropca


def test_deflated_rank_one_single_stage():
    rng = np.random.default_rng(58)
    sigma = random_psd(rng, 8)
    L, stages = deflated_heteropca(sigma, 1, t_max_per_stage=12, return_stages=True)
    assert stages == [1]
    L_plain, _ = heteropca(sigma, 1, t_max=12)
    assert np.array_equal(L, L_plain)


def test_deflated_single_tier_spectrum_single_stage():
    rng = np.random.default_rng(59)
    p, r = 60, 3
    u = random_orth(rng, p, r)
    sigma = symmetrize((u * np.array([10.0, 9.0, 8.0])) @ u.T)
    _, stages = deflated_heteropca(sigma, r, return_stages=True)
    assert stages == [r]


def test_deflated_two_tier_spectrum_splits_stages():
    rng = np.random.default_rng(60)
    p, r = 60, 5
    u = random_orth(rng, p, r)
    tiers = np.array([100.0, 100.0, 1.0, 1.0, 1.0])
    sigma = symmetrize((u * tiers) @ u.T)
    L, stages = deflated_heteropca(sigma, r, return_stages=True)
    assert stages[0] == 2
    assert stages[-1] == r
    assert all(a < b for a, b in zip(stages, stages[1:]))
    assert numerical_rank_sym(L) <= r


def _field_bits(x):
    """Type, dtype, shape and bytes of a field: equal only if bit for bit."""
    if x is None:
        return None
    a = np.asarray(x)
    return type(x), a.dtype, a.shape, a.tobytes()


def _dhpca_by_stages(sigma, r):
    """dhpca built from public calls: one fixed-budget rank run per stage."""
    _, ranks = deflated_heteropca(sigma, r, return_stages=True)
    stop = StopRule(rel_tol=5e-324, max_iter=30)
    want = SolverTrace(converged=True)
    d0 = None
    for r_k in ranks:
        dec, stage = alternating_solve(sigma, ProxSpec.rank(r_k), d0=d0, stop=stop)
        want.objective += stage.objective
        want.fixed_point_residual += stage.fixed_point_residual
        want.psi += stage.psi
        want.iterations += stage.iterations
        want.stop_reason, want.kept = stage.stop_reason, stage.kept
        d0 = dec.D
    return Decomposition(dec.L, dec.D, "dhpca", r, True, want.iterations), want, ranks


@pytest.mark.parametrize("case", ["one_stage", "two_tier"])
def test_dhpca_method_is_its_stages_run_in_turn(case):
    rng = np.random.default_rng(60)
    if case == "one_stage":
        sigma, r = random_psd(np.random.default_rng(58), 8), 1
    else:
        p, r = 60, 5
        u = random_orth(rng, p, r)
        sigma = symmetrize((u * np.array([100.0, 100.0, 1.0, 1.0, 1.0])) @ u.T)
    want_dec, want_trace, ranks = _dhpca_by_stages(sigma, r)
    assert len(ranks) == (1 if case == "one_stage" else 2)
    dec, trace = METHODS["dhpca"](sigma, r)
    for got, want in ((dec, want_dec), (trace, want_trace)):
        for name in (f.name for f in fields(got)):
            assert _field_bits(getattr(got, name)) == _field_bits(getattr(want, name)), name


def test_deflated_zero_sigma():
    L = deflated_heteropca(np.zeros((5, 5)), 3)
    assert np.array_equal(L, np.zeros((5, 5)))


def test_deflated_rejects_bad_rank():
    with pytest.raises(ValueError):
        deflated_heteropca(np.eye(3), 0)
    with pytest.raises(ValueError):
        deflated_heteropca(np.eye(3), 4)


# ---------------------------------------------------------------- heteropca psd


def test_heteropca_psd_diagonal_sigma():
    sigma = np.diag([2.0, 7.0, 1.0])
    L, D = heteropca_psd(sigma, 2)
    assert np.array_equal(L, np.zeros((3, 3)))
    assert np.array_equal(D, sigma)


def test_heteropca_psd_recovers_exact_low_rank():
    rng = np.random.default_rng(61)
    sigma = random_psd(rng, 10, rank=3)
    L, D = heteropca_psd(sigma, 3, t_max=1500)
    assert np.linalg.norm(L - best_rank_r_psd(sigma - D, 3)) < 1e-8
    assert np.linalg.norm(sigma - L - D) < 1e-8


def test_heteropca_psd_never_indefinite():
    rng = np.random.default_rng(62)
    for _ in range(8):
        sigma = random_sym(rng, 7)
        L, _ = heteropca_psd(sigma, 3)
        assert np.linalg.eigvalsh(L)[0] >= -1e-12


# ---------------------------------------------------------------- remaining methods


def test_diag_deleted_pca_hollow_input():
    rng = np.random.default_rng(63)
    sigma = poffdiag(random_sym(rng, 7))
    assert np.array_equal(diag_deleted_pca(sigma, 3), best_rank_r(sigma, 3))


def test_diag_deleted_pca_diagonal_input():
    assert np.array_equal(diag_deleted_pca(np.diag([1.0, 2.0]), 1), np.zeros((2, 2)))


def test_diag_deleted_pca_is_one_step_imputation():
    rng = np.random.default_rng(64)
    sigma = random_psd(rng, 9)
    L1, _ = heteropca(sigma, 4, t_max=1)
    assert np.array_equal(diag_deleted_pca(sigma, 4), L1)


def test_pca_baseline_diagonal():
    u = pca_baseline(np.diag([3.0, 2.0, 1.0]), 2)
    assert np.allclose(u, np.eye(3)[:, :2], atol=1e-14)


def test_pca_baseline_rank_one():
    rng = np.random.default_rng(65)
    beta = rng.standard_normal(6)
    sigma = symmetrize(np.outer(beta, beta))
    u = pca_baseline(sigma, 1)[:, 0]
    assert abs(abs(u @ beta) / np.linalg.norm(beta) - 1.0) < 1e-10


def test_pca_baseline_matches_spike_closed_form():
    q, s = 0.4, 1.7
    p = 8
    beta = np.zeros(p)
    beta[0] = q
    beta[1] = np.sqrt(1.0 - q * q)
    eta = np.zeros(p)
    eta[0] = 1.0
    sigma = symmetrize(s * np.outer(beta, beta) + np.outer(eta, eta))
    u = pca_baseline(sigma, 1)
    got = sin_theta(u, beta.reshape(-1, 1))
    assert abs(got - spike_pca_sin_theta(q, s)) < 1e-8


def test_pca_baseline_rejects_bad_rank():
    with pytest.raises(ValueError):
        pca_baseline(np.eye(3), 0)


# every public entry point that takes a rank, as fit(sigma, r)
_RANK_ENTRY_POINTS = {
    "best_rank_r": best_rank_r,
    "best_rank_r_psd": best_rank_r_psd,
    "heteropca": heteropca,
    "heteropca_psd": heteropca_psd,
    "deflated_heteropca": deflated_heteropca,
    "diag_deleted_pca": diag_deleted_pca,
    "pca_baseline": pca_baseline,
    "extract_subspace": extract_subspace,
}
_RANK_ENTRY_POINTS.update(
    {f"METHODS[{tag}]": METHODS[tag] for tag in METHOD_TAGS if tag not in SOFT_METHODS}
)


@pytest.mark.parametrize("r", [0, -1, 1.5, "p+1"])
@pytest.mark.parametrize("entry", list(_RANK_ENTRY_POINTS))
def test_rank_entry_points_reject_bad_rank(entry, r):
    sigma = random_corr(np.random.default_rng(66), 4)
    if r == "p+1":
        r = sigma.shape[0] + 1
    with pytest.raises(ValueError):
        _RANK_ENTRY_POINTS[entry](sigma, r)


@pytest.mark.parametrize("rounds", [0, 1.5])
@pytest.mark.parametrize(
    "fit, budget",
    [
        (heteropca, "t_max"),
        (heteropca_psd, "t_max"),
        (deflated_heteropca, "t_max_per_stage"),
    ],
)
def test_heteropca_entry_points_reject_bad_round_budget(fit, budget, rounds):
    sigma = random_corr(np.random.default_rng(67), 4)
    match = f"^{fit.__name__}: {budget} must be an integer >= 1, got {rounds!r}$"
    with pytest.raises(ValueError, match=match):
        fit(sigma, 2, **{budget: rounds})


# ---------------------------------------------------------------- objective


def test_objective_zero_low_rank():
    rng = np.random.default_rng(66)
    sigma = random_sym(rng, 6)
    want = 0.5 * float(np.sum(poffdiag(sigma) ** 2))
    got = objective_F(sigma, np.zeros((6, 6)), pdiag(sigma), 0.8)
    assert got == pytest.approx(want, abs=1e-12)


def test_objective_perfect_fit():
    rng = np.random.default_rng(67)
    sigma = random_psd(rng, 5)
    assert objective_F(sigma, sigma, np.zeros((5, 5)), 0.0) == pytest.approx(0.0, abs=1e-12)


def test_objective_matches_scalar_reference():
    rng = np.random.default_rng(68)
    for _ in range(5):
        sigma = random_sym(rng, 5)
        L = random_psd(rng, 5, rank=2)
        D = np.diag(rng.uniform(-1.0, 2.0, size=5))
        tau = float(rng.uniform(0.1, 2.0))
        want = objective_scalar(sigma, L, D, tau)
        assert objective_F(sigma, L, D, tau) == pytest.approx(want, abs=1e-12)


def test_objective_validates_arguments():
    sigma = np.eye(3)
    with pytest.raises(ValueError):
        objective_F(sigma, np.eye(3), np.ones((3, 3)), 1.0)
    with pytest.raises(ValueError):
        objective_F(sigma, np.eye(3), np.eye(3), -1.0)


# ---------------------------------------------------------------- subspace extraction


def test_extract_subspace_eigenbasis():
    rng = np.random.default_rng(69)
    L = random_psd(rng, 7, rank=3)
    u = extract_subspace(L, 3)
    vals = np.sort(np.linalg.eigvalsh(L))[::-1][:3]
    for j in range(3):
        assert np.linalg.norm(L @ u[:, j] - vals[j] * u[:, j]) < 1e-8


def test_extract_subspace_orthonormal():
    rng = np.random.default_rng(70)
    for _ in range(5):
        L = random_sym(rng, 8)
        u = extract_subspace(L, 4)
        assert np.max(np.abs(u.T @ u - np.eye(4))) < 1e-10


def test_extract_subspace_deficiency_flag():
    rng = np.random.default_rng(71)
    L = random_psd(rng, 6, rank=2)
    basis, deficient = extract_subspace(L, 4, return_info=True)
    assert deficient
    assert np.max(np.abs(basis.T @ basis - np.eye(4))) < 1e-10
    _, full_rank_flag = extract_subspace(L, 2, return_info=True)
    assert not full_rank_flag


def test_extract_subspace_info_runs_one_eigensolve(monkeypatch):
    L = random_psd(np.random.default_rng(71), 6, rank=2)
    calls = []
    for name in ("eigh", "eigvalsh"):
        solve = getattr(np.linalg, name)
        spy = lambda *a, _name=name, _solve=solve, **k: calls.append(_name) or _solve(*a, **k)
        monkeypatch.setattr(np.linalg, name, spy)
    assert extract_subspace(L, 4, return_info=True)[1]
    assert not extract_subspace(L, 2, return_info=True)[1]
    assert calls == ["eigh", "eigh"]


def test_extract_subspace_accepts_decomposition():
    rng = np.random.default_rng(72)
    sigma = random_psd(rng, 6)
    dec, _ = rmtfa(sigma, 0.3)
    assert np.array_equal(extract_subspace(dec, 2), extract_subspace(dec.L, 2))


def test_numerical_rank():
    rng = np.random.default_rng(73)
    L = random_psd(rng, 8, rank=3)
    assert numerical_rank_sym(L) == 3
    assert numerical_rank_sym(np.zeros((4, 4))) == 0


# ---------------------------------------------------------------- input checks


# entry point -> (call on a valid sigma, number of matrix arguments it takes)
_MATRIX_ENTRY_POINTS = {
    "alternating_solve": (lambda s: alternating_solve(s, ProxSpec.psd_soft(0.1)), 1),
    "rmtfa": (lambda s: rmtfa(s, 0.1), 1),
    "soft_impute_diag": (lambda s: soft_impute_diag(s, 0.1), 1),
    "heteropca": (lambda s: heteropca(s, 2), 1),
    "heteropca(g0)": (lambda s: heteropca(s, 2, g0=poffdiag(s)), 2),
    "heteropca_psd": (lambda s: heteropca_psd(s, 2), 1),
    "deflated_heteropca": (lambda s: deflated_heteropca(s, 2), 1),
    "diag_deleted_pca": (lambda s: diag_deleted_pca(s, 2), 1),
    "pca_baseline": (lambda s: pca_baseline(s, 2), 1),
    "extract_subspace": (lambda s: extract_subspace(s, 2), 1),
    "objective_F": (lambda s: objective_F(s, s, pdiag(s), 0.1), 2),
}
_MATRIX_ENTRY_POINTS.update(
    {
        f"METHODS[{tag}]": (lambda s, tag=tag: METHODS[tag](s, 0.1 if tag in SOFT_METHODS else 2), 1)
        for tag in METHOD_TAGS
    }
)


@pytest.mark.parametrize("entry", list(_MATRIX_ENTRY_POINTS))
def test_each_matrix_argument_is_checked_once(entry, monkeypatch):
    call, matrices = _MATRIX_ENTRY_POINTS[entry]
    sigma = random_corr(np.random.default_rng(74), 6)
    checked = []
    real = matcore._as_sym

    def counting(m, op, p=None):
        checked.append(op)
        return real(m, op, p)

    for module in (solvers, matcore, shrinkage):
        monkeypatch.setattr(module, "_as_sym", counting)
    call(sigma)
    assert len(checked) == matrices, checked


@pytest.mark.parametrize(
    "entry, tag",
    [
        ("alternating_solve", "rmtfa"),
        ("rmtfa", "rmtfa"),
        ("soft_impute_diag", "si"),
        ("heteropca", "hpca"),
        ("heteropca(g0)", "hpca"),
        ("heteropca_psd", "hpca_plus"),
        ("deflated_heteropca", "dhpca"),
        ("diag_deleted_pca", "dd"),
    ]
    + [(f"METHODS[{tag}]", tag) for tag in METHOD_TAGS],
)
def test_each_fit_is_built_once_by_fit(entry, tag, monkeypatch):
    call, _ = _MATRIX_ENTRY_POINTS[entry]
    tags = []
    real = solvers._fit

    def counting(op, tag, *args, **kwargs):
        tags.append(tag)
        return real(op, tag, *args, **kwargs)

    monkeypatch.setattr(solvers, "_fit", counting)
    call(random_corr(np.random.default_rng(74), 6))
    assert tags == [tag]


# ---------------------------------------------------------------- workload pins

# The work of one op of each benchmark workload in perfbench/workloads.py, on
# that file's own inputs at one seed: call counts and rounds are exact on any
# host. A change that alters this work updates the pin and states old -> new.
workloads = load_perfbench("workloads")


@pytest.mark.parametrize(
    "seed, rounds, eigh, cholesky, qr", [(1, 9, 1, 2, 35), (2, 10, 1, 2, 37)]
)
def test_solve_p500_op_work_is_pinned(seed, rounds, eigh, cholesky, qr, tmp_path, monkeypatch):
    work = workloads.SolveP500(seed, tmp_path)
    work.setup()
    # the copy of this recipe that the p = 256 and 300 tests draw from
    sigma, tau = factor_sample_cov(seed, 500)
    assert _bits(sigma) == _bits(work.sigma) and _bits(tau) == _bits(work.tau)
    traces = []
    fit = METHODS["rmtfa"]

    def spy(sigma, tau):
        dec, trace = fit(sigma, tau)
        traces.append(trace)
        return dec, trace

    monkeypatch.setitem(METHODS, "rmtfa", spy)
    calls = _counted(monkeypatch, "eigh", "cholesky", "qr", rows=500)
    rc = work.op(None)
    (trace,) = traces
    assert (trace.iterations, trace.partial_accepted, trace.partial_fallbacks) == (rounds, rounds, 0)
    assert calls == {"eigh": eigh, "cholesky": cholesky, "qr": qr}
    assert work.verify(None, rc)


def test_tau_path_p12_op_work_is_pinned(tmp_path):
    # op 0 of seed 1: the criterion-6 Gram matrix, the workload's ladder and its stop rule
    work = workloads.TauPathP12(1, tmp_path)
    sigma = work.op_input(0)
    rounds = [rmtfa(sigma, tau, stop=workloads.PATH_STOP)[1].iterations for tau in work.taus]
    assert rounds == [109, 864, 2848]


@pytest.mark.parametrize(
    "kappa, rounds",
    # in METHOD_TAGS order: svd, dd, hpca, dhpca, hpca_plus, rmtfa, si; the
    # kappa = 100 si fit stops at its 1000-round cap
    [(3.0, [1, 1, 30, 60, 30, 54, 168]), (100.0, [1, 1, 30, 150, 30, 73, 1000])],
    ids=["kappa3", "kappa100"],
)
def test_sweep_desk_op_work_is_pinned(kappa, rounds, tmp_path):
    # replicate 0 of the workload's seed-1 config, read as simulate reads it,
    # one fit per tag as simulate runs it; the workload's setup() is not run,
    # because it makes a whole reference sweep
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(workloads.SweepDesk(1, tmp_path).config), encoding="utf-8")
    config = load_config(str(path))
    inst = gen_instance(config.model_at(kappa, 0))
    tau = resolve_tau(config, inst.params)
    fits = [METHODS[tag](inst.sigma, tau if tag in SOFT_METHODS else config.r) for tag in METHOD_TAGS]
    assert [trace.iterations for _, trace in fits] == rounds
