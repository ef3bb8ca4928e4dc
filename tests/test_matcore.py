import math
import os
import re

import numpy as np
import pytest

from hetero_spectra import (
    EigenSolverError,
    ExperimentConfig,
    ModelParams,
    ProxSpec,
    StopRule,
    alternating_solve,
    apply_prox,
    check_orthonormal,
    deflated_heteropca,
    diag_deleted_pca,
    eig_sym,
    extract_subspace,
    gen_masked,
    heteropca,
    heteropca_psd,
    heywood_check,
    is_balanced,
    ledermann_bound,
    nuclear_norm_sym,
    numerical_rank_sym,
    objective_F,
    pca_baseline,
    pdiag,
    poffdiag,
    psi_residual,
    reliability_coefficient,
    rmtfa,
    run_experiment,
    sin_theta_event,
    soft_impute_diag,
    spectral_norm_sym,
    spike_pca_sin_theta,
    symmetrize,
)
from hetero_spectra.cli import write_matrix_csv
from inputs import random_sym
from oracles import eig2_closed, eig3_closed


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


def test_eig_sym_accepts_the_empty_matrix():
    # as nuclear_norm_sym, spectral_norm_sym and rmtfa do
    dec = eig_sym(np.zeros((0, 0)))
    assert dec.values.shape == (0,) and dec.vectors.shape == (0, 0)


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


@pytest.mark.parametrize("tol", [float("nan"), -1.0], ids=repr)
def test_check_orthonormal_rejects_a_tol_that_passes_any_basis(tol):
    # max|u.T u - I| > nan is False, so a NaN tol used to pass this basis
    msg = rf"^basis: tol must be a finite number >= 0, got {tol!r}$"
    with pytest.raises(ValueError, match=msg):
        check_orthonormal(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), tol=tol)


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
    ("check_orthonormal", "tol", lambda x: check_orthonormal(_U, tol=x), np.float64(0.5)),
    ("numerical_rank_sym", "rel_cutoff", lambda x: numerical_rank_sym(_W, x), np.float64(0.5)),
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


# the nearest floats inside an open bound and outside a closed one
_ABOVE_0, _BELOW_0 = math.nextafter(0.0, 1.0), math.nextafter(0.0, -1.0)
_BELOW_1 = math.nextafter(1.0, 0.0)
_S3 = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
_GT0, _GE0, _GE1 = "a finite number > 0", "a finite number >= 0", "a finite number >= 1"
_OPEN01, _HALF01 = "a finite number in (0, 1)", "a finite number in [0, 1)"
_INT0, _INT1, _RANK3 = "an integer >= 0", "an integer >= 1", "an integer in [1, 3]"


def _rank_cutoff(x):
    return numerical_rank_sym(_S3, x)


def _theta(x):
    return gen_masked(_W, x, np.random.default_rng(0))


def _q(x):
    return spike_pca_sin_theta(x, 2.0)


def _lambda_r(x):
    return sin_theta_event(_U, _W, 0, x, 0.5)


def _rho(x):
    return sin_theta_event(_U, _W, 0, 1.0, x)


# (entry point, argument, call, rule as the message gives it, the first value
# outside the range, the boundary or the nearest value inside it on that side)
RANGED_ENTRY_POINTS = [
    ("StopRule", "rel_tol", lambda x: StopRule(rel_tol=x), _GT0, 0, _ABOVE_0),
    ("StopRule", "max_iter", lambda x: StopRule(max_iter=x), _INT1, 0, 1),
    ("ProxSpec", "tau", ProxSpec.psd_soft, _GE0, _BELOW_0, 0),
    ("ProxSpec", "r", ProxSpec.rank, _INT1, 0, 1),
    ("objective_F", "tau", lambda x: objective_F(np.eye(4), _W, _W, x), _GE0, _BELOW_0, 0),
    ("rmtfa", "tau", lambda x: rmtfa(_S3, x), _GT0, 0, _ABOVE_0),
    ("soft_impute_diag", "tau", lambda x: soft_impute_diag(_S3, x), _GT0, 0, _ABOVE_0),
    ("apply_prox", "rank", lambda x: apply_prox(ProxSpec.rank(x), _S3), _RANK3, 4, 3),
    ("alternating_solve", "rank", lambda x: alternating_solve(_S3, ProxSpec.rank(x)), _RANK3, 4, 3),
    ("heteropca", "rank", lambda x: heteropca(_S3, x), _RANK3, 4, 3),
    ("heteropca", "t_max", lambda x: heteropca(_S3, 1, t_max=x), _INT1, 0, 1),
    ("deflated_heteropca", "rank", lambda x: deflated_heteropca(_S3, x), _RANK3, 4, 3),
    ("heteropca_psd", "t_max", lambda x: heteropca_psd(_S3, 1, t_max=x), _INT1, 0, 1),
    ("pca_baseline", "rank", lambda x: pca_baseline(_S3, x), _RANK3, 4, 3),
    ("pca_baseline", "rank", lambda x: pca_baseline(_S3, x), _RANK3, 0, 1),
    ("numerical_rank_sym", "rel_cutoff", _rank_cutoff, _HALF01, _BELOW_0, 0),
    ("numerical_rank_sym", "rel_cutoff", _rank_cutoff, _HALF01, 1, _BELOW_1),
    ("check_orthonormal", "tol", lambda x: check_orthonormal(_U, tol=x), _GE0, _BELOW_0, 0),
    ("ModelParams", "n", lambda x: ModelParams(n=x, p=6, r=1), _INT1, 0, 1),
    ("ModelParams", "kappa", lambda x: ModelParams(n=8, p=6, r=2, kappa=x), _GE1, _BELOW_1, 1),
    ("ModelParams", "omega", lambda x: ModelParams(n=8, p=6, r=2, omega=x), _GT0, 0, _ABOVE_0),
    ("ModelParams", "seed", lambda x: ModelParams(n=8, p=6, r=2, seed=x), _INT0, -1, 0),
    ("ExperimentConfig", "replicates", lambda x: _config(replicates=x), _INT1, 0, 1),
    ("ExperimentConfig", "tau_rule", lambda x: _config(tau_rule=x), _GT0, 0, _ABOVE_0),
    ("ExperimentConfig", "seed", lambda x: _config(seed=x), _INT0, -1, 0),
    ("run_experiment", "jobs", lambda x: run_experiment(_config(), jobs=x), _INT1, 0, 1),
    ("gen_masked", "theta", _theta, _OPEN01, 0, _ABOVE_0),
    ("gen_masked", "theta", _theta, _OPEN01, 1, _BELOW_1),
    ("ledermann_bound", "p", ledermann_bound, _INT1, 0, 1),
    ("spike_pca_sin_theta", "q", _q, _HALF01, _BELOW_0, 0),
    ("spike_pca_sin_theta", "q", _q, _HALF01, 1, _BELOW_1),
    ("spike_pca_sin_theta", "s", lambda x: spike_pca_sin_theta(0.5, x), _GT0, 0, _ABOVE_0),
    ("sin_theta_event", "tau", lambda x: sin_theta_event(_U, _W, x, 1.0, 0.5), _GE0, _BELOW_0, 0),
    ("sin_theta_event", "lambda_r", _lambda_r, _GT0, 0, _ABOVE_0),
    ("sin_theta_event", "rho", _rho, _OPEN01, 0, _ABOVE_0),
    ("sin_theta_event", "rho", _rho, _OPEN01, 1, _BELOW_1),
]


@pytest.mark.parametrize(
    "op, arg, call, rule, outside, inside",
    RANGED_ENTRY_POINTS,
    ids=[f"{op}-{arg}-{outside!r}" for op, arg, _, _, outside, _ in RANGED_ENTRY_POINTS],
)
def test_scalar_ranges(op, arg, call, rule, outside, inside):
    with pytest.raises(ValueError, match=re.escape(f"{arg} must be {rule}, got {outside!r}")):
        call(outside)
    call(inside)


# ---------------------------------------------------------------- matrix sizes

# (argument as its message names it, call on that argument, the size the
# call gives it: the size of the sigma, L or u it is checked against)
SIZED_ENTRY_POINTS = [
    ("objective_F: L", lambda m: objective_F(_S3, m, np.ones(3), 0.5), 3),
    ("objective_F: D", lambda m: objective_F(_S3, _S3, m, 0.5), 3),
    ("d0", lambda m: alternating_solve(_S3, ProxSpec.rank(1), d0=m), 3),
    ("heteropca: g0", lambda m: heteropca(_S3, 1, g0=m), 3),
    ("reliability_coefficient: sigma", lambda m: reliability_coefficient(_S3, m), 3),
    ("psi_residual: L", lambda m: psi_residual(_S3, (m, np.eye(3))), 3),
    ("psi_residual: D", lambda m: psi_residual(_S3, (_S3, m)), 3),
    ("sin_theta_event: w", lambda m: sin_theta_event(_U, m, 0, 1.0, 0.5), 4),
]


@pytest.mark.parametrize(
    "arg, call, p", SIZED_ENTRY_POINTS, ids=[arg for arg, _, _ in SIZED_ENTRY_POINTS]
)
def test_matrix_sizes(arg, call, p):
    # the first wrong size on either side, and a wrong column count
    for shape in [(p - 1, p - 1), (p + 1, p + 1), (p, p + 1)]:
        msg = re.escape(f"{arg}: expected a square matrix of size {p}, got shape {shape}")
        with pytest.raises(ValueError, match=f"^{msg}$"):
            call(np.eye(*shape))
    call(np.eye(p))


# an empty matrix has no rank-r part for any r, and the rank rule says so
EMPTY_RANK_FITS = {
    "apply_prox": lambda m: apply_prox(ProxSpec.rank(1), m),
    "alternating_solve": lambda m: alternating_solve(m, ProxSpec.rank(1)),
    "heteropca": lambda m: heteropca(m, 1),
    "heteropca(g0)": lambda m: heteropca(m, 1, g0=m),
    "heteropca_psd": lambda m: heteropca_psd(m, 1),
    "deflated_heteropca": lambda m: deflated_heteropca(m, 1),
    "diag_deleted_pca": lambda m: diag_deleted_pca(m, 1),
    "pca_baseline": lambda m: pca_baseline(m, 1),
    "extract_subspace": lambda m: extract_subspace(m, 1),
}


@pytest.mark.parametrize("op", list(EMPTY_RANK_FITS))
def test_rank_fits_name_the_empty_matrix(op):
    with pytest.raises(ValueError, match=r"^rank 1: the matrix is empty \(0 x 0\)$"):
        EMPTY_RANK_FITS[op](np.zeros((0, 0)))


def test_fits_without_a_rank_accept_the_empty_matrix():
    z = np.zeros((0, 0))
    assert rmtfa(z, 1.0)[0].L.shape == (0, 0)
    assert eig_sym(z).values.shape == (0,)
    assert nuclear_norm_sym(z) == spectral_norm_sym(z) == 0.0


# (argument as its message names it, call on that argument)
NUMERIC_ENTRY_POINTS = [
    ("alternating_solve", lambda m: rmtfa(m, 1.0)),
    ("eig_sym", eig_sym),
    ("pdiag", pdiag),
    ("basis", check_orthonormal),
    ("d0", lambda m: rmtfa(_S3, 1.0, d0=m)),
    ("objective_F: D", lambda m: objective_F(_S3, _S3, m, 0.5)),
    ("is_balanced", is_balanced),
    ("gen_masked: y", lambda m: gen_masked(m, 0.5, np.random.default_rng(0))),
    ("write_matrix_csv", lambda m: write_matrix_csv(os.devnull, m)),
]


@pytest.mark.parametrize(
    "bad", ["ab", {}, object(), [[1.0, 2.0], [3.0]]], ids=["str", "dict", "object", "ragged"]
)
@pytest.mark.parametrize(
    "arg, call", NUMERIC_ENTRY_POINTS, ids=[arg for arg, _ in NUMERIC_ENTRY_POINTS]
)
def test_matrix_arguments_name_a_non_numeric_input(arg, call, bad):
    msg = re.escape(f"{arg}: expected a numeric array, got {type(bad).__name__}")
    with pytest.raises(ValueError, match=f"^{msg}$"):
        call(bad)


# (entry point as its error names it, call on a valid matrix); each solves
# its eigenvalues with np.linalg.eigvalsh
EIGVALSH_ENTRY_POINTS = [
    ("objective_F", lambda m: objective_F(m, m, np.zeros(3), 0.5)),
    ("numerical_rank_sym", numerical_rank_sym),
    ("nuclear_norm_sym", nuclear_norm_sym),
    ("spectral_norm_sym", spectral_norm_sym),
    ("deflated_heteropca", lambda m: deflated_heteropca(m, 1)),
]


@pytest.mark.parametrize(
    "op, call", EIGVALSH_ENTRY_POINTS, ids=[op for op, _ in EIGVALSH_ENTRY_POINTS]
)
def test_eigvalsh_failure_is_an_eigen_solver_error(op, call, monkeypatch):
    # np.linalg.LinAlgError is a ValueError, which the command line reports
    # as a bad argument (exit 2), not as a solver failure (exit 4)
    def failing(m):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    with pytest.raises(EigenSolverError, match=f"^{op}: solver did not converge"):
        call(_S3)


# ---------------------------------------------------------------- fitted pairs

_L3 = symmetrize(np.outer([1.0, 2.0, 0.5], [1.0, 2.0, 0.5]))

# (entry point, call on a fit given as L and D, scored against _S3 where the
# entry point takes a sigma)
FIT_READERS = [
    ("objective_F", lambda L, D: objective_F(_S3, L, D, 0.5)),
    ("psi_residual", lambda L, D: psi_residual(_S3, (L, D))),
    ("heywood_check", lambda L, D: heywood_check((L, D))),
]
_READER_IDS = [op for op, _ in FIT_READERS]

# (case, L, D, the argument the message names and what it says of it)
BAD_FITS = [
    ("L-size", np.eye(2), np.eye(3), "L: expected a square matrix of size 3, got shape (2, 2)"),
    ("L-nan", np.full((3, 3), np.nan), np.ones(3), "L: matrix has non-finite entries"),
    ("L-asymmetric", np.triu(np.ones((3, 3))), np.ones(3), "L: matrix is not exactly symmetric"),
    ("L-text", "ab", np.ones(3), "L: expected a numeric array, got str"),
    (
        "L-3-tuple",
        (1.0, 2.0, 3.0),
        np.ones(3),
        "L: expected a square matrix of size 3, got shape (3,)",
    ),
    ("D-size", _L3, np.eye(2), "D: expected a square matrix of size 3, got shape (2, 2)"),
    ("D-length", _L3, np.ones(4), "D: expected length 3, got 4"),
    ("D-full", _L3, np.ones((3, 3)), "D: off-diagonal entries must be exactly zero"),
    ("D-nan", _L3, np.diag([1.0, np.nan, 1.0]), "D: non-finite entries"),
    ("D-text", _L3, "ab", "D: expected a numeric array, got str"),
]

# heywood_check takes no sigma, so there L sets the size that D must match
_WITHOUT_SIGMA = {
    "L-size": "D: expected a square matrix of size 2, got shape (3, 3)",
    "L-3-tuple": "L: expected a square matrix, got shape (3,)",
}


@pytest.mark.parametrize(
    "case, L, D, named", BAD_FITS, ids=[case for case, _, _, _ in BAD_FITS]
)
@pytest.mark.parametrize("op, call", FIT_READERS, ids=_READER_IDS)
def test_fit_pairs(op, call, case, L, D, named):
    if op == "heywood_check":
        named = _WITHOUT_SIGMA.get(case, named)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{op}: {named}')}$"):
        call(L, D)


@pytest.mark.parametrize("d", [[0.5, 1.0, 2.0], [0.5, -0.25, 2.0]], ids=["proper", "heywood"])
@pytest.mark.parametrize("op, call", FIT_READERS, ids=_READER_IDS)
def test_fit_pairs_take_D_as_a_vector(op, call, d):
    d = np.array(d)
    assert call(_L3, d) == call(_L3, np.diag(d))


# a whole fit that is not a pair: the string unpacks into two texts
NOT_PAIRS = [
    ("scalar", 5.0, "expected a Decomposition or an (L, D) pair"),
    ("3-tuple", (_L3, np.ones(3), np.ones(3)), "expected a Decomposition or an (L, D) pair"),
    ("text", "ab", "L: expected a numeric array, got str"),
]


@pytest.mark.parametrize("case, dec, named", NOT_PAIRS, ids=[case for case, _, _ in NOT_PAIRS])
@pytest.mark.parametrize(
    "op, call",
    [("psi_residual", lambda dec: psi_residual(_S3, dec)), ("heywood_check", heywood_check)],
)
def test_fit_pairs_reject_what_is_not_a_pair(op, call, case, dec, named):
    with pytest.raises(ValueError, match=f"^{re.escape(f'{op}: {named}')}$"):
        call(dec)
