import decimal
import math
import re

import numpy as np
import pytest

from hetero_spectra import (
    check_orthonormal,
    coherence,
    extract_subspace,
    heywood_check,
    is_balanced,
    ledermann_bound,
    max_row_norm,
    nuclear_norm_sym,
    pdiag,
    poffdiag,
    psi_residual,
    reliability_coefficient,
    rmtfa,
    sin_theta,
    sin_theta_event,
    spike_pca_sin_theta,
    symmetrize,
)
from oracles import pca_sin_oracle


def random_orth(rng, p, r):
    q, _ = np.linalg.qr(rng.standard_normal((p, r)))
    return q


def partition_basis(p, r):
    """Disjoint equal-ish supports, the most incoherent 0/1 design."""
    sizes = [p // r + (1 if i < p % r else 0) for i in range(r)]
    u = np.zeros((p, r))
    start = 0
    for j, size in enumerate(sizes):
        u[start : start + size, j] = 1.0 / math.sqrt(size)
        start += size
    return u


# ---------------------------------------------------------------- sin theta


def test_sin_theta_same_subspace():
    rng = np.random.default_rng(80)
    u = random_orth(rng, 7, 3)
    assert sin_theta(u, u) == 0.0
    rot, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    assert sin_theta(u, u @ rot) < 1e-12


def test_sin_theta_orthogonal_lines():
    u = np.array([[1.0], [0.0]])
    v = np.array([[0.0], [1.0]])
    assert sin_theta(u, v) == pytest.approx(1.0, abs=1e-12)


def test_sin_theta_planar_angle():
    theta = 0.3
    u = np.array([[1.0], [0.0]])
    v = np.array([[math.cos(theta)], [math.sin(theta)]])
    assert sin_theta(u, v) == pytest.approx(abs(math.sin(theta)), abs=1e-12)


def test_sin_theta_symmetric_and_bounded():
    rng = np.random.default_rng(81)
    for _ in range(10):
        u = random_orth(rng, 9, 2)
        v = random_orth(rng, 9, 2)
        d_uv = sin_theta(u, v)
        assert d_uv == pytest.approx(sin_theta(v, u), abs=1e-14)
        assert 0.0 <= d_uv <= 1.0


def test_sin_theta_rejects_mismatch():
    with pytest.raises(ValueError):
        sin_theta(np.eye(3)[:, :1], np.eye(4)[:, :1])
    with pytest.raises(ValueError):
        sin_theta(np.eye(3)[:, :1], np.eye(3)[:, :2])
    with pytest.raises(ValueError):
        sin_theta(np.ones((3, 1)), np.eye(3)[:, :1])


# ---------------------------------------------------------------- coherence


def test_coherence_standard_basis_column():
    u = np.zeros((5, 1))
    u[2, 0] = 1.0
    assert coherence(u) == pytest.approx(1.0, abs=1e-15)


def test_coherence_flat_vector():
    u = np.full((4, 1), 0.5)
    assert coherence(u) == pytest.approx(0.25, abs=1e-15)


def test_coherence_matches_projector_definition():
    rng = np.random.default_rng(82)
    for _ in range(5):
        u = random_orth(rng, 8, 3)
        proj = u @ u.T
        want = max(float(np.sum(proj[:, i] ** 2)) for i in range(8))
        assert coherence(u) == pytest.approx(want, abs=1e-12)


def test_coherence_rotation_invariant():
    rng = np.random.default_rng(83)
    u = random_orth(rng, 10, 3)
    rot, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    assert coherence(u @ rot) == pytest.approx(coherence(u), abs=1e-12)


def test_coherence_within_range():
    rng = np.random.default_rng(84)
    u = random_orth(rng, 12, 4)
    val = coherence(u)
    assert 4.0 / 12.0 - 1e-12 <= val <= 1.0 + 1e-12


def test_max_row_norm_is_sqrt_of_coherence():
    rng = np.random.default_rng(85)
    u = random_orth(rng, 9, 2)
    assert max_row_norm(u) == pytest.approx(math.sqrt(coherence(u)), abs=1e-12)


_BASIS_READERS = {
    "basis": check_orthonormal,
    "sin_theta: u": lambda u: sin_theta(u, u),
    "max_row_norm": max_row_norm,
    "coherence": coherence,
    "sin_theta_event: u": lambda u: sin_theta_event(u, np.zeros((3, 3)), 0.0, 1.0, 0.5),
}


@pytest.mark.parametrize("name", list(_BASIS_READERS))
def test_a_basis_with_no_columns_is_rejected_by_name(name):
    msg = rf"^{re.escape(name)}: expected at least one column, got shape \(3, 0\)$"
    with pytest.raises(ValueError, match=msg):
        _BASIS_READERS[name](np.zeros((3, 0)))


# ---------------------------------------------------------------- scalar diagnostics


def test_ledermann_values():
    assert ledermann_bound(1) == pytest.approx(0.0, abs=1e-15)
    assert ledermann_bound(6) == pytest.approx(3.0, abs=1e-12)
    assert ledermann_bound(15) == pytest.approx(10.0, abs=1e-12)
    with pytest.raises(ValueError):
        ledermann_bound(0)


def test_is_balanced():
    assert is_balanced([1.0, 1.0, 1.0])
    assert not is_balanced([3.0, 1.0, 1.0])
    assert is_balanced([1.0, 1.0])
    assert not is_balanced([-3.0, 1.0, 1.0])
    assert is_balanced([-1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        is_balanced([0.0, 0.0])


@pytest.mark.parametrize(
    "beta, match",
    [
        ([], "^is_balanced: expected a non-empty 1-d vector$"),
        ([[1.0, 1.0]], r"^is_balanced: expected a 1-d array, got shape \(1, 2\)$"),
        ([1.0, np.nan], "^is_balanced: non-finite entries$"),
    ],
    ids=["empty", "2-d", "non-finite"],
)
def test_is_balanced_rejects_bad_vectors(beta, match):
    with pytest.raises(ValueError, match=match):
        is_balanced(beta)


def test_reliability_extremes():
    rng = np.random.default_rng(86)
    b = rng.standard_normal((5, 5))
    sigma = symmetrize(b @ b.T) + 5.0 * np.eye(5)
    assert reliability_coefficient(sigma, sigma) == pytest.approx(1.0, abs=1e-14)
    assert reliability_coefficient(np.zeros((5, 5)), sigma) == 0.0


def test_reliability_identity():
    rng = np.random.default_rng(87)
    b = rng.standard_normal((6, 2))
    L = symmetrize(b @ b.T)
    D = np.diag(rng.uniform(0.5, 1.5, size=6))
    sigma = L + D
    want = 1.0 - np.trace(D) / float(np.sum(sigma))
    assert reliability_coefficient(L, sigma) == pytest.approx(want, abs=1e-12)


def test_reliability_rejects_nonpositive_total():
    with pytest.raises(ValueError):
        reliability_coefficient(np.eye(3), -np.eye(3))


def test_reliability_rejects_shape_mismatch():
    msg = r"^reliability_coefficient: sigma: expected a square matrix of size 2, got shape \(3, 3\)$"
    with pytest.raises(ValueError, match=msg):
        reliability_coefficient(np.eye(2), np.eye(3))


@pytest.mark.parametrize(
    "dec, match",
    [
        (5.0, r"^psi_residual: expected a Decomposition or an \(L, D\) pair$"),
        ((np.eye(3),) * 3, r"^psi_residual: expected a Decomposition or an \(L, D\) pair$"),
        (
            (np.eye(2), np.eye(3)),
            r"^psi_residual: L: expected a square matrix of size 3, got shape \(2, 2\)$",
        ),
    ],
    ids=["scalar", "triple", "shape"],
)
def test_psi_residual_rejects_bad_fits(dec, match):
    with pytest.raises(ValueError, match=match):
        psi_residual(np.eye(3), dec)


def test_psi_residual_exact_fit():
    rng = np.random.default_rng(88)
    b = rng.standard_normal((5, 2))
    L = symmetrize(b @ b.T)
    D = np.diag(rng.uniform(0.5, 1.5, size=5))
    sigma = L + D
    assert psi_residual(sigma, (L, D)) == pytest.approx(0.0, abs=1e-20)


def test_psi_residual_zero_fit():
    rng = np.random.default_rng(89)
    a = rng.standard_normal((6, 6))
    sigma = (a + a.T) / 2.0
    want = float(np.sum(poffdiag(sigma) ** 2))
    assert psi_residual(sigma, (np.zeros((6, 6)), pdiag(sigma))) == pytest.approx(want, abs=1e-12)


def test_psi_residual_solver_bound():
    rng = np.random.default_rng(90)
    b = rng.standard_normal((8, 8))
    sigma = symmetrize(b @ b.T)
    tau = 0.4
    dec, _ = rmtfa(sigma, tau)
    assert psi_residual(sigma, dec) <= 4.0 * tau * nuclear_norm_sym(sigma) + 1e-10


_NOT_A_FIT = [
    ((np.full((3, 3), np.nan), np.eye(3)), "^psi_residual: L: matrix has non-finite entries$"),
    ((np.triu(np.ones((3, 3))), np.eye(3)), "^psi_residual: L: matrix is not exactly symmetric$"),
    (
        (np.zeros((3, 3)), np.ones((3, 3))),
        "^psi_residual: D: off-diagonal entries must be exactly zero$",
    ),
]


@pytest.mark.parametrize("dec, match", _NOT_A_FIT, ids=["nan-L", "asymmetric-L", "full-D"])
def test_psi_residual_rejects_what_objective_F_rejects(dec, match):
    with pytest.raises(ValueError, match=match):
        psi_residual(np.eye(3) + 0.1, dec)


def test_psi_residual_takes_D_as_a_vector():
    rng = np.random.default_rng(92)
    a = rng.standard_normal((5, 5))
    sigma = (a + a.T) / 2.0
    b = rng.standard_normal((5, 2))
    L = symmetrize(b @ b.T)
    d = rng.uniform(0.5, 1.5, size=5)
    assert psi_residual(sigma, (L, d)) == psi_residual(sigma, (L, np.diag(d)))


def test_heywood_check():
    L = np.zeros((2, 2))
    assert not heywood_check((L, np.diag([1.0, 2.0])))
    assert heywood_check((L, np.diag([1.0, -0.1])))
    assert heywood_check((L, np.diag([1.0, 0.0])))


@pytest.mark.parametrize(
    "D, match",
    [
        (np.diag([1.0, np.nan]), "^heywood_check: D: non-finite entries$"),
        (np.diag([np.inf, 1.0]), "^heywood_check: D: non-finite entries$"),
        (np.array([1.0, 2.0, 3.0]), "^heywood_check: D: expected length 2, got 3$"),
        (
            np.ones((2, 3)),
            r"^heywood_check: D: expected a square matrix of size 2, got shape \(2, 3\)$",
        ),
    ],
    ids=["nan", "inf", "1-d", "non-square"],
)
def test_heywood_rejects_a_malformed_D(D, match):
    with pytest.raises(ValueError, match=match):
        heywood_check((np.zeros((2, 2)), D))


def test_heywood_accepts_decomposition():
    rng = np.random.default_rng(91)
    b = rng.standard_normal((5, 5))
    sigma = symmetrize(b @ b.T) + 2.0 * np.eye(5)
    dec, _ = rmtfa(sigma, 0.5)
    assert isinstance(heywood_check(dec), bool)


# ---------------------------------------------------------------- spike closed form


def test_spike_zero_alignment_branches():
    assert spike_pca_sin_theta(0.0, 0.5) == 1.0
    assert spike_pca_sin_theta(0.0, 2.0) == 0.0


def test_spike_matches_numerical_eigendecomposition():
    for q, s in [(0.3, 2.0), (0.3, 0.5), (0.7, 1.5), (0.9, 0.8), (0.05, 3.0), (0.5, 1.0)]:
        assert spike_pca_sin_theta(q, s) == pytest.approx(pca_sin_oracle(q, s), abs=1e-8)


def _spike_reference(q, s):
    """The closed form of spike_pca_sin_theta evaluated with 60 decimal digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        q, s = decimal.Decimal(q), decimal.Decimal(s)
        d = 1 - s - 2 * q * q + ((1 - s) ** 2 + 4 * s * q * q).sqrt()
        return float(1 / (1 + 4 * q * q * (1 - q * q) / (d * d)).sqrt())


@pytest.mark.parametrize("s", [0.5, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("q", [1e-12, 1e-9, 1e-7, 1e-5, 0.3, 0.999999])
def test_spike_matches_high_precision_reference(q, s):
    # above s = 1 the direct form cancels: at q = 1e-9, s = 2 it has no digits
    # left; near q = 1, 1 - q*q loses digits that (1 - q)(1 + q) keeps
    want = _spike_reference(q, s)
    assert spike_pca_sin_theta(q, s) == pytest.approx(want, rel=1e-14, abs=0.0)


def test_spike_domain_errors():
    with pytest.raises(ValueError):
        spike_pca_sin_theta(1.0, 2.0)
    with pytest.raises(ValueError):
        spike_pca_sin_theta(-0.1, 2.0)
    with pytest.raises(ValueError):
        spike_pca_sin_theta(0.3, 0.0)
    with pytest.raises(ValueError):
        spike_pca_sin_theta(0.3, -1.0)


# ---------------------------------------------------------------- perturbation event


def test_event_noiseless_reduction():
    p, r = 50, 3
    u = partition_basis(p, r)
    w = np.zeros((p, p))
    ev = sin_theta_event(u, w, 0.0, 1.0, 0.9)
    assert ev.bound == 0.0
    assert ev.holds == (3.0 * max_row_norm(u) < 0.9)
    assert ev.holds
    coherent = np.eye(p)[:, :r]
    ev_bad = sin_theta_event(coherent, w, 0.0, 1.0, 0.9)
    assert not ev_bad.holds


def test_event_half_rho_bound_formula():
    rng = np.random.default_rng(92)
    p, r = 12, 2
    u = random_orth(rng, p, r)
    a = rng.standard_normal((p, p))
    w = 0.1 * (a + a.T) / 2.0
    tau = 0.3
    lam = 2.5
    ev = sin_theta_event(u, w, tau, lam, 0.5)
    from hetero_spectra import spectral_norm_sym

    want = 4.0 * (tau + spectral_norm_sym(poffdiag(w))) / lam
    assert ev.bound == pytest.approx(want, abs=1e-14)


def test_event_invariant_reconstruction():
    rng = np.random.default_rng(93)
    p, r = 20, 2
    u = random_orth(rng, p, r)
    a = rng.standard_normal((p, p))
    w = 0.05 * (a + a.T) / 2.0
    ev = sin_theta_event(u, w, 0.1, 3.0, 0.7)
    lhs = ev.coherence_term + 2.0 / (1.0 - ev.rho) * ev.noise_term
    assert ev.holds == (0.0 < lhs < ev.rho < 1.0)
    assert ev.bound == pytest.approx(2.0 / (1.0 - ev.rho) * ev.noise_term, abs=1e-14)


def test_event_validation():
    u = np.eye(4)[:, :2]
    w = np.zeros((4, 4))
    with pytest.raises(ValueError):
        sin_theta_event(u, w, -0.1, 1.0, 0.5)
    with pytest.raises(ValueError):
        sin_theta_event(u, w, 0.1, 0.0, 0.5)
    with pytest.raises(ValueError):
        sin_theta_event(u, w, 0.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        sin_theta_event(u, np.zeros((5, 5)), 0.1, 1.0, 0.5)


def test_event_end_to_end_bound():
    # planted incoherent subspace, event holds, solver error within the bound
    rng = np.random.default_rng(94)
    p, r = 50, 3
    u = partition_basis(p, r)
    lams = np.array([30.0, 25.0, 20.0])
    L_true = symmetrize((u * lams) @ u.T)
    for _ in range(5):
        D_true = np.diag(rng.uniform(0.5, 1.5, size=p))
        a = rng.standard_normal((p, p))
        w = 0.01 * (a + a.T) / 2.0
        sigma = symmetrize(L_true + D_true + w)
        tau = 0.05
        ev = sin_theta_event(u, w, tau, lams[-1], 0.9)
        assert ev.holds
        dec, _ = rmtfa(sigma, tau)
        u_hat = extract_subspace(dec.L, r)
        assert sin_theta(u_hat, u) <= ev.bound + 1e-12
