import numpy as np
import pytest

from hetero_spectra import (
    ProxSpec,
    apply_prox,
    best_rank_r,
    best_rank_r_psd,
    nuclear_norm_sym,
    soft_threshold_psd,
    soft_threshold_sym,
    symmetrize,
)
from oracles import prox_oracle_psd, prox_oracle_sym, rank_r_psd_oracle


def random_sym(rng, p):
    a = rng.standard_normal((p, p))
    return (a + a.T) / 2.0


def test_psd_soft_diagonal_example():
    got = soft_threshold_psd(np.diag([3.0, 1.0, -2.0]), 1.0)
    assert np.allclose(got, np.diag([2.0, 0.0, 0.0]), atol=1e-12)


def test_psd_soft_large_tau_gives_exact_zero():
    rng = np.random.default_rng(20)
    for _ in range(5):
        m = random_sym(rng, 5)
        lam1 = np.linalg.eigvalsh(m)[-1]
        out = soft_threshold_psd(m, max(lam1, 0.0) + 1e-9)
        # empty kept spectrum must rebuild to a bitwise zero matrix
        assert np.array_equal(out, np.zeros((5, 5)))


def test_psd_soft_output_is_psd():
    rng = np.random.default_rng(21)
    for _ in range(10):
        out = soft_threshold_psd(random_sym(rng, 6), 0.3)
        assert np.linalg.eigvalsh(out)[0] >= -1e-12


def test_psd_soft_matches_projected_gradient_oracle():
    rng = np.random.default_rng(22)
    m = random_sym(rng, 3)
    want = prox_oracle_psd(m, 0.5)
    got = soft_threshold_psd(m, 0.5)
    assert np.max(np.abs(got - want)) < 1e-6


def test_psd_soft_rejects_negative_tau():
    with pytest.raises(ValueError):
        soft_threshold_psd(np.eye(2), -0.1)


def test_sym_soft_diagonal_example():
    got = soft_threshold_sym(np.diag([3.0, -2.0]), 1.0)
    assert np.allclose(got, np.diag([2.0, -1.0]), atol=1e-12)


def test_sym_soft_tau_zero_is_identity():
    rng = np.random.default_rng(23)
    m = random_sym(rng, 5)
    assert np.max(np.abs(soft_threshold_sym(m, 0.0) - m)) < 1e-12


def test_sym_soft_matches_split_gradient_oracle():
    rng = np.random.default_rng(24)
    m = random_sym(rng, 3)
    want = prox_oracle_sym(m, 0.7)
    got = soft_threshold_sym(m, 0.7)
    assert np.max(np.abs(got - want)) < 1e-6


def test_sym_soft_rejects_negative_tau():
    with pytest.raises(ValueError):
        soft_threshold_sym(np.eye(2), -1.0)


def test_rank_diagonal_example():
    got = best_rank_r(np.diag([5.0, 3.0, 1.0]), 2)
    assert np.allclose(got, np.diag([5.0, 3.0, 0.0]), atol=1e-12)


def test_rank_full_rank_returns_input():
    rng = np.random.default_rng(25)
    m = random_sym(rng, 5)
    bound = 1e-10 * max(1.0, np.linalg.norm(m))
    assert np.linalg.norm(best_rank_r(m, 5) - m) < bound


def test_rank_keeps_largest_magnitudes():
    m = np.diag([1.0, -6.0, 4.0])
    got = best_rank_r(m, 2)
    assert np.allclose(got, np.diag([0.0, -6.0, 4.0]), atol=1e-12)


def test_rank_residual_matches_discarded_spectrum():
    rng = np.random.default_rng(26)
    for _ in range(10):
        m = random_sym(rng, 4)
        vals = np.linalg.eigvalsh(m)
        by_mag = vals[np.argsort(-np.abs(vals))]
        want = np.sqrt(by_mag[2] ** 2 + by_mag[3] ** 2)
        got = np.linalg.norm(m - best_rank_r(m, 2))
        assert abs(got - want) < 1e-10


def test_rank_rejects_bad_r():
    m = np.eye(3)
    for r in (0, 4, -1):
        with pytest.raises(ValueError):
            best_rank_r(m, r)
    with pytest.raises(ValueError):
        best_rank_r(m, 1.5)


def test_rank_psd_diagonal_example():
    got = best_rank_r_psd(np.diag([3.0, -5.0, 1.0]), 2)
    assert np.allclose(got, np.diag([3.0, 0.0, 1.0]), atol=1e-12)


def test_rank_psd_full_rank_psd_input_unchanged():
    rng = np.random.default_rng(27)
    b = rng.standard_normal((5, 5))
    m = symmetrize(b @ b.T)
    bound = 1e-10 * max(1.0, np.linalg.norm(m))
    assert np.linalg.norm(best_rank_r_psd(m, 5) - m) < bound


def test_rank_psd_matches_factored_descent_oracle():
    rng = np.random.default_rng(28)
    a = rng.standard_normal((4, 4))
    m = (a + a.T) / 2.0
    vals = np.linalg.eigvalsh(m)
    assert vals[0] < 0 < vals[-1]
    want, want_val = rank_r_psd_oracle(m, 2, seed=1)
    got = best_rank_r_psd(m, 2)
    got_val = float(np.sum((m - got) ** 2))
    assert abs(got_val - want_val) < 1e-5
    assert np.max(np.abs(got - want)) < 1e-5


def test_rank_psd_rejects_bad_r():
    with pytest.raises(ValueError):
        best_rank_r_psd(np.eye(2), 0)
    with pytest.raises(ValueError):
        best_rank_r_psd(np.eye(2), 3)


def test_rank_tie_at_boundary_is_deterministic():
    m = np.diag([2.0, 2.0, 1.0])
    first = best_rank_r(m, 1)
    second = best_rank_r(m, 1)
    assert np.array_equal(first, second)
    # one of the two tied directions, at full weight
    assert np.trace(first) == pytest.approx(2.0)
    assert abs(first[2, 2]) < 1e-14


def test_apply_prox_dispatch():
    rng = np.random.default_rng(29)
    m = random_sym(rng, 4)
    assert np.array_equal(apply_prox(ProxSpec.psd_soft(0.4), m), soft_threshold_psd(m, 0.4))
    assert np.array_equal(apply_prox(ProxSpec.sym_soft(0.4), m), soft_threshold_sym(m, 0.4))
    assert np.array_equal(apply_prox(ProxSpec.rank(2), m), best_rank_r(m, 2))
    assert np.array_equal(apply_prox(ProxSpec.rank_psd(2), m), best_rank_r_psd(m, 2))


def test_apply_prox_sym_soft_zero_is_identity():
    rng = np.random.default_rng(30)
    m = random_sym(rng, 4)
    assert np.max(np.abs(apply_prox(ProxSpec.sym_soft(0.0), m) - m)) < 1e-12


def test_prox_spec_validation():
    with pytest.raises(ValueError):
        ProxSpec("hard_soft", tau=1.0)
    with pytest.raises(ValueError):
        ProxSpec("psd_soft")
    with pytest.raises(ValueError):
        ProxSpec("psd_soft", tau=-0.5)
    with pytest.raises(ValueError):
        ProxSpec("psd_soft", tau=1.0, r=2)
    with pytest.raises(ValueError):
        ProxSpec("rank")
    with pytest.raises(ValueError):
        ProxSpec("rank", r=0)
    with pytest.raises(ValueError):
        ProxSpec("rank", r=2, tau=1.0)
    with pytest.raises(ValueError):
        apply_prox("rank", np.eye(2))
    with pytest.raises(ValueError):
        apply_prox(ProxSpec.rank(3), np.eye(2))
    # the factories pass r through, so a non-integral rank is rejected
    with pytest.raises(ValueError):
        ProxSpec.rank(2.5)
    with pytest.raises(ValueError):
        ProxSpec.rank_psd(1.5)
    with pytest.raises(ValueError):
        apply_prox(ProxSpec.rank(1.5), np.eye(3))
    # an integral float rank is accepted and stored as an int
    spec = ProxSpec("rank_psd", r=2.0)
    assert spec.r == 2 and isinstance(spec.r, int)
    m = np.diag([3.0, -5.0, 1.0])
    assert np.array_equal(apply_prox(spec, m), best_rank_r_psd(m, 2))


def test_psd_soft_nonexpansive():
    rng = np.random.default_rng(31)
    for _ in range(15):
        m1 = random_sym(rng, 5)
        m2 = random_sym(rng, 5)
        lhs = np.linalg.norm(soft_threshold_psd(m1, 0.6) - soft_threshold_psd(m2, 0.6))
        rhs = np.linalg.norm(m1 - m2)
        assert lhs <= rhs + 1e-12


def test_psd_soft_interior_shift():
    # every eigenvalue above tau: the prox is a plain shift by tau*I
    rng = np.random.default_rng(33)
    b = rng.standard_normal((4, 4))
    m = symmetrize(b @ b.T) + 5.0 * np.eye(4)
    tau = 1.0
    assert np.linalg.eigvalsh(m)[0] > tau
    assert np.linalg.eigvalsh(m)[-1] > tau
    got = soft_threshold_psd(m, tau)
    assert np.linalg.norm(got - (m - tau * np.eye(4))) < 1e-10


def test_psd_soft_nuclear_norm_ordering():
    rng = np.random.default_rng(34)
    for _ in range(10):
        m = random_sym(rng, 6)
        taus = np.sort(rng.uniform(0.0, 2.0, size=3))
        norms = [nuclear_norm_sym(soft_threshold_psd(m, t)) for t in taus]
        assert norms[0] >= norms[1] >= norms[2]
