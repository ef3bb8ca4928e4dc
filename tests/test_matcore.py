import re

import numpy as np
import pytest

from hetero_spectra import (
    EigenSolverError,
    ExperimentConfig,
    ModelParams,
    ProxSpec,
    StopRule,
    check_orthonormal,
    eig_sym,
    gen_masked,
    ledermann_bound,
    nuclear_norm_sym,
    objective_F,
    pca_baseline,
    pdiag,
    poffdiag,
    rmtfa,
    run_experiment,
    sin_theta_event,
    spectral_norm_sym,
    spike_pca_sin_theta,
    symmetrize,
)
from oracles import eig2_closed, eig3_closed


def random_sym(rng, p):
    a = rng.standard_normal((p, p))
    return (a + a.T) / 2.0


def test_pdiag_2x2():
    m = np.array([[1.0, 2.0], [2.0, 3.0]])
    assert np.array_equal(pdiag(m), np.array([[1.0, 0.0], [0.0, 3.0]]))


def test_pdiag_zero_matrix():
    z = np.zeros((4, 4))
    assert np.array_equal(pdiag(z), z)


def test_poffdiag_2x2():
    m = np.array([[1.0, 2.0], [2.0, 3.0]])
    assert np.array_equal(poffdiag(m), np.array([[0.0, 2.0], [2.0, 0.0]]))


def test_poffdiag_of_diagonal_is_zero():
    m = np.diag([4.0, -1.0, 7.0])
    assert np.array_equal(poffdiag(m), np.zeros((3, 3)))


def test_partition_identity_exact():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = random_sym(rng, 5)
        # bitwise: the two parts have disjoint support
        assert np.array_equal(pdiag(m) + poffdiag(m), m)


def test_poffdiag_idempotent():
    rng = np.random.default_rng(1)
    m = random_sym(rng, 6)
    off = poffdiag(m)
    assert np.array_equal(poffdiag(off), off)


def test_pdiag_idempotent():
    rng = np.random.default_rng(2)
    m = random_sym(rng, 6)
    d = pdiag(m)
    assert np.array_equal(pdiag(d), d)


def test_pdiag_rejects_nonsquare():
    with pytest.raises(ValueError):
        pdiag(np.zeros((2, 3)))


def test_symmetrize_exact_and_idempotent():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((7, 7))
    s = symmetrize(a)
    assert np.array_equal(s, s.T)
    assert np.array_equal(symmetrize(s), s)


def test_eig_sym_diagonal_input():
    dec = eig_sym(np.diag([3.0, 1.0, 2.0]))
    assert np.array_equal(dec.values, np.array([3.0, 2.0, 1.0]))
    expect = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    assert np.allclose(dec.vectors, expect, atol=1e-14)


def test_eig_sym_2x2_closed_form():
    dec = eig_sym(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(dec.values, [1.0, -1.0], atol=1e-15)
    root = 1.0 / np.sqrt(2.0)
    # sign rule: first of the tied-magnitude entries made positive
    assert np.allclose(dec.vectors[:, 0], [root, root], atol=1e-15)
    assert np.allclose(dec.vectors[:, 1], [root, -root], atol=1e-15)


def test_eig_sym_reconstruction():
    rng = np.random.default_rng(4)
    for _ in range(10):
        m = random_sym(rng, 10)
        dec = eig_sym(m)
        rebuilt = (dec.vectors * dec.values) @ dec.vectors.T
        bound = 1e-10 * max(1.0, np.linalg.norm(m))
        assert np.linalg.norm(rebuilt - m) < bound


def test_eig_sym_descending_and_orthonormal():
    rng = np.random.default_rng(5)
    for _ in range(10):
        dec = eig_sym(random_sym(rng, 8))
        assert np.all(np.diff(dec.values) <= 0.0)
        check_orthonormal(dec.vectors, tol=1e-10)


def test_eig_sym_sign_convention():
    rng = np.random.default_rng(6)
    for _ in range(10):
        dec = eig_sym(random_sym(rng, 9))
        for j in range(9):
            col = dec.vectors[:, j]
            assert col[np.argmax(np.abs(col))] > 0.0


def test_eig_sym_deterministic():
    rng = np.random.default_rng(7)
    m = random_sym(rng, 12)
    first = eig_sym(m)
    second = eig_sym(m.copy())
    assert np.array_equal(first.values, second.values)
    assert np.array_equal(first.vectors, second.vectors)


def test_eig_sym_matches_characteristic_polynomial_2x2():
    rng = np.random.default_rng(8)
    for _ in range(25):
        a, b, c = rng.standard_normal(3) * 3.0
        m = np.array([[a, b], [b, c]])
        assert np.allclose(eig_sym(m).values, eig2_closed(a, b, c), atol=1e-8)


def test_eig_sym_matches_characteristic_polynomial_3x3():
    rng = np.random.default_rng(9)
    for _ in range(25):
        m = random_sym(rng, 3)
        assert np.allclose(eig_sym(m).values, eig3_closed(m), atol=1e-8)


def test_eig_sym_rejects_bad_input():
    with pytest.raises(ValueError):
        eig_sym(np.array([[1.0, 2.0], [2.1, 1.0]]))
    with pytest.raises(ValueError):
        eig_sym(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        eig_sym(np.zeros((3, 2)))


def test_eigen_solver_error_is_runtime_error():
    assert issubclass(EigenSolverError, RuntimeError)


def test_nuclear_norm_signed_diagonal():
    assert nuclear_norm_sym(np.diag([3.0, -1.0])) == pytest.approx(4.0)


def test_nuclear_norm_zero_matrix():
    assert nuclear_norm_sym(np.zeros((5, 5))) == 0.0


def test_nuclear_norm_equals_trace_on_psd():
    rng = np.random.default_rng(10)
    for _ in range(10):
        b = rng.standard_normal((6, 4))
        m = symmetrize(b @ b.T)
        assert abs(nuclear_norm_sym(m) - np.trace(m)) < 1e-10


def test_nuclear_norm_dominates_trace():
    rng = np.random.default_rng(11)
    for _ in range(10):
        m = random_sym(rng, 6)
        assert nuclear_norm_sym(m) >= abs(np.trace(m)) - 1e-12
        # indefinite instances must be strictly above |trace|
        vals = np.linalg.eigvalsh(m)
        if vals[0] > 1e-9 and vals[-1] < -1e-9:
            assert nuclear_norm_sym(m) > abs(np.trace(m)) + 1e-9


def test_spectral_norm_max_abs_eigenvalue():
    rng = np.random.default_rng(12)
    for _ in range(10):
        m = random_sym(rng, 7)
        want = np.max(np.abs(np.linalg.eigvalsh(m)))
        assert spectral_norm_sym(m) == pytest.approx(want, abs=1e-12)


def test_check_orthonormal_flags_bad_basis():
    good = np.eye(4)[:, :2]
    check_orthonormal(good)
    with pytest.raises(ValueError):
        check_orthonormal(good * 1.001, tol=1e-8)
    with pytest.raises(ValueError):
        check_orthonormal(np.ones((2, 3)))


@pytest.mark.parametrize(
    "u, match",
    [
        (np.ones(3), r"^basis: expected a 2-d array, got shape \(3,\)$"),
        (np.array([[1.0], [np.inf]]), "^basis: non-finite entries$"),
    ],
    ids=["1-d", "non-finite"],
)
def test_check_orthonormal_rejects_bad_arrays(u, match):
    with pytest.raises(ValueError, match=match):
        check_orthonormal(u)


# ---------------------------------------------------------------- scalar arguments


def _config(**kw):
    base = dict(n=8, p=6, r=2, vary_param="omega", vary_values=(1.0,), methods=("svd",))
    return ExperimentConfig(**{**base, "replicates": 1, **kw})


_U = np.eye(4)[:, :1]
_W = np.zeros((4, 4))

# (entry point, argument name as its message gives it, call, a valid numpy scalar)
SCALAR_ENTRY_POINTS = [
    ("ModelParams", "n", lambda x: ModelParams(n=x, p=6, r=2), np.int64(8)),
    ("ModelParams", "p", lambda x: ModelParams(n=8, p=x, r=2), np.int64(6)),
    ("ModelParams", "r", lambda x: ModelParams(n=8, p=6, r=x), np.int64(2)),
    ("ModelParams", "seed", lambda x: ModelParams(n=8, p=6, r=2, seed=x), np.int64(2)),
    ("ModelParams", "kappa", lambda x: ModelParams(n=8, p=6, r=2, kappa=x), np.float64(2.5)),
    ("ModelParams", "omega", lambda x: ModelParams(n=8, p=6, r=2, omega=x), np.float64(0.5)),
    ("ExperimentConfig", "replicates", lambda x: _config(replicates=x), np.int64(2)),
    ("ExperimentConfig", "seed", lambda x: _config(seed=x), np.int64(2)),
    ("ExperimentConfig", "tau_rule", lambda x: _config(tau_rule=x), np.float64(0.5)),
    ("ExperimentConfig", "omega", lambda x: _config(vary_values=(x,)), np.float64(0.5)),
    ("ExperimentConfig", "n", lambda x: _config(vary_param="n", vary_values=(x,)), np.int64(8)),
    ("run_experiment", "jobs", lambda x: run_experiment(_config(), jobs=x), np.int64(2)),
    (
        "gen_masked",
        "theta",
        lambda x: gen_masked(np.ones((2, 2)), x, np.random.default_rng(0)),
        np.float64(0.5),
    ),
    ("ProxSpec", "tau", ProxSpec.psd_soft, np.float64(0.5)),
    ("ProxSpec", "r", ProxSpec.rank, np.int64(2)),
    ("pca_baseline", "rank", lambda x: pca_baseline(np.eye(3), x), np.int64(2)),
    ("StopRule", "rel_tol", lambda x: StopRule(rel_tol=x), np.float64(0.5)),
    ("StopRule", "max_iter", lambda x: StopRule(max_iter=x), np.int64(2)),
    ("objective_F", "tau", lambda x: objective_F(np.eye(4), _W, _W, x), np.float64(0.5)),
    ("rmtfa", "tau", lambda x: rmtfa(np.eye(2), x), np.float64(0.5)),
    ("ledermann_bound", "p", ledermann_bound, np.int64(2)),
    ("spike_pca_sin_theta", "q", lambda x: spike_pca_sin_theta(x, 2.0), np.float64(0.5)),
    ("spike_pca_sin_theta", "s", lambda x: spike_pca_sin_theta(0.5, x), np.float64(0.5)),
    ("sin_theta_event", "tau", lambda x: sin_theta_event(_U, _W, x, 1.0, 0.5), np.float64(0.5)),
    ("sin_theta_event", "lambda_r", lambda x: sin_theta_event(_U, _W, 0, x, 0.5), np.float64(0.5)),
    ("sin_theta_event", "rho", lambda x: sin_theta_event(_U, _W, 0, 1.0, x), np.float64(0.5)),
]
_IDS = [f"{op}-{arg}" for op, arg, _, _ in SCALAR_ENTRY_POINTS]


@pytest.mark.parametrize("bad", [None, float("nan"), float("inf"), "1", [1]], ids=repr)
@pytest.mark.parametrize("op, arg, call, good", SCALAR_ENTRY_POINTS, ids=_IDS)
def test_scalar_arguments_reject_non_numbers(op, arg, call, good, bad):
    with pytest.raises(ValueError) as exc:
        call(bad)
    msg = str(exc.value)
    assert re.search(rf"\b{arg}\b", msg) and repr(bad) in msg


@pytest.mark.parametrize("op, arg, call, good", SCALAR_ENTRY_POINTS, ids=_IDS)
def test_scalar_arguments_accept_numpy_scalars(op, arg, call, good):
    call(good)
