import math
import multiprocessing
import os
import re

import numpy as np
import pytest

from hetero_spectra import (
    METHOD_TAGS,
    ExperimentConfig,
    ModelParams,
    gen_instance,
    gen_masked,
    gen_noise,
    gen_signal,
    pca_baseline,
    resolve_tau,
    run_experiment,
    sin_theta,
)
import hetero_spectra.simlab as simlab


# ---------------------------------------------------------------- params


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(n=4, p=8, r=5)
    with pytest.raises(ValueError):
        ModelParams(n=8, p=8, r=2, kappa=0.5)
    with pytest.raises(ValueError):
        ModelParams(n=8, p=8, r=2, omega=0.0)
    with pytest.raises(ValueError):
        ModelParams(n=8, p=8, r=2, omega=-1.0)
    with pytest.raises(ValueError):
        ModelParams(n=8, p=8, r=1, kappa=2.0)
    with pytest.raises(ValueError):
        ModelParams(n=8.5, p=8, r=2)


def test_params_identifiability_warning():
    with pytest.warns(UserWarning):
        ModelParams(n=100, p=3, r=3)


def test_params_no_warning_at_bound():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ModelParams(n=100, p=6, r=3)


def test_sigma_r_exact_values():
    assert ModelParams(n=16, p=16, r=1).sigma_r() == 8.0


# ---------------------------------------------------------------- signal


def test_gen_signal_pinned_spectrum():
    params = ModelParams(n=16, p=16, r=2, kappa=4.0)
    rng = np.random.default_rng(100)
    _, _, svals = gen_signal(params, rng)
    assert svals[0] == 32.0
    assert svals[-1] == 8.0


def test_gen_signal_condition_number():
    rng = np.random.default_rng(101)
    params = ModelParams(n=30, p=12, r=4, kappa=7.5)
    _, _, svals = gen_signal(params, rng)
    assert svals[0] / svals[-1] == pytest.approx(7.5, abs=1e-10)
    assert np.all(np.diff(svals) <= 0.0)


def test_gen_signal_spectrum_formula():
    rng = np.random.default_rng(102)
    params = ModelParams(n=20, p=10, r=3, kappa=5.0)
    _, _, svals = gen_signal(params, rng)
    expo = np.arange(2, -1, -1) / 2.0
    want = params.kappa**expo * params.sigma_r()
    assert np.array_equal(svals, want)


def test_gen_signal_basis_and_rank():
    rng = np.random.default_rng(103)
    params = ModelParams(n=25, p=10, r=3, kappa=2.0)
    M, U, svals = gen_signal(params, rng)
    assert M.shape == (10, 25)
    assert np.linalg.norm(U.T @ U - np.eye(3)) < 1e-10
    s = np.linalg.svd(M, compute_uv=False)
    assert s[3] < 1e-8 * s[2]
    assert np.allclose(s[:3], svals, atol=1e-8)
    # columns of M live in span(U)
    assert np.linalg.norm(M - U @ (U.T @ M)) < 1e-8


# ---------------------------------------------------------------- noise


def test_gen_noise_vanishes_with_omega():
    params = ModelParams(n=40, p=10, r=2, omega=1e-12)
    Z = gen_noise(params, np.random.default_rng(104))
    assert np.linalg.norm(Z) < 1e-9


def test_gen_noise_deterministic():
    params = ModelParams(n=15, p=6, r=2, omega=1.0)
    z1 = gen_noise(params, np.random.default_rng(105))
    z2 = gen_noise(params, np.random.default_rng(105))
    assert np.array_equal(z1, z2)


def test_gen_noise_row_scales():
    # row i is N(0, w_i^2); the empirical std must sit within 5 sigma of w_i
    n, p, omega = 10_000, 5, 2.0
    params = ModelParams(n=n, p=p, r=2, omega=omega)
    seed = 106
    Z = gen_noise(params, np.random.default_rng(seed))
    scales = np.random.default_rng(seed).uniform(0.0, omega, p)
    stds = Z.std(axis=1, ddof=1)
    tol = 5.0 * scales / math.sqrt(2.0 * n)
    assert np.all(np.abs(stds - scales) <= tol + 1e-12)


@pytest.mark.parametrize("gen", [gen_signal, gen_noise])
def test_generators_need_model_params(gen):
    with pytest.raises(ValueError, match=f"^{gen.__name__}: params must be ModelParams$"):
        gen({"n": 10, "p": 4, "r": 2}, np.random.default_rng(107))


# ---------------------------------------------------------------- instance


def test_gen_instance_near_noiseless_recovery():
    params = ModelParams(n=60, p=15, r=3, kappa=2.0, omega=1e-12, seed=107)
    inst = gen_instance(params)
    basis = pca_baseline(inst.sigma, 3)
    assert sin_theta(basis, inst.u_true) < 1e-6


def test_gen_instance_sigma_psd_and_symmetric():
    params = ModelParams(n=30, p=12, r=2, seed=108)
    inst = gen_instance(params)
    assert np.array_equal(inst.sigma, inst.sigma.T)
    vals = np.linalg.eigvalsh(inst.sigma)
    assert vals[0] >= -1e-8 * max(vals[-1], 1.0)
    assert np.array_equal(inst.Y, inst.M + inst.Z)


def test_gen_instance_deterministic():
    params = ModelParams(n=25, p=8, r=2, seed=109)
    a = gen_instance(params)
    b = gen_instance(params)
    assert np.array_equal(a.sigma, b.sigma)
    assert np.array_equal(a.u_true, b.u_true)


# ---------------------------------------------------------------- masking


def test_gen_masked_validation():
    y = np.ones((4, 4))
    rng = np.random.default_rng(110)
    for theta in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            gen_masked(y, theta, rng)


def test_gen_masked_deterministic_and_consistent():
    rng = np.random.default_rng(111)
    y = rng.standard_normal((20, 30))
    m1, o1 = gen_masked(y, 0.3, np.random.default_rng(112))
    m2, o2 = gen_masked(y, 0.3, np.random.default_rng(112))
    assert np.array_equal(m1, m2)
    assert np.array_equal(o1, o2)
    assert np.array_equal(m1, np.where(o1, y, 0.0))


def test_gen_masked_zeroed_fraction():
    # theta is the missing probability: zeroed share within 3 sigma of theta
    theta = 0.3
    y = np.ones((100, 100))
    _, observed = gen_masked(y, theta, np.random.default_rng(113))
    frac_missing = 1.0 - observed.mean()
    tol = 3.0 * math.sqrt(theta * (1.0 - theta) / y.size)
    assert abs(frac_missing - theta) <= tol


def test_gen_masked_tiny_theta_keeps_everything():
    rng = np.random.default_rng(114)
    y = rng.standard_normal((50, 50))
    masked, observed = gen_masked(y, 1e-12, np.random.default_rng(115))
    assert observed.all()
    assert np.array_equal(masked, y)


# ---------------------------------------------------------------- config


def test_config_methods_string_is_not_read_as_tags():
    # tuple("rmtfa") would be five one-letter tags
    with pytest.raises(
        ValueError,
        match="^ExperimentConfig: methods takes a sequence of tags, not 'rmtfa'$",
    ):
        ExperimentConfig(n=20, p=8, r=2, vary_param="omega", vary_values=(1.0,), methods="rmtfa")


@pytest.mark.parametrize(
    "field, value, match",
    [
        # tuple("12") would be the two values '1' and '2'
        ("vary_values", "12", "vary_values takes a sequence of values, not '12'"),
        ("vary_values", 5, "vary_values takes a sequence of values, not 5"),
        ("methods", 5, "methods takes a sequence of tags, not 5"),
        # a mapping would give its keys, a set its hash order
        ("vary_values", {3.0: "x"}, "vary_values takes a sequence of values, not {3.0: 'x'}"),
        ("vary_values", {3.0}, "vary_values takes a sequence of values, not {3.0}"),
        ("methods", frozenset({"svd"}), "methods takes a sequence of tags, not frozenset({'svd'})"),
    ],
    ids=repr,
)
def test_config_sequence_fields_reject_strings_and_scalars(field, value, match):
    kw = dict(n=20, p=8, r=2, vary_param="kappa", vary_values=(2.0,), methods=("svd",))
    with pytest.raises(ValueError, match=f"^ExperimentConfig: {re.escape(match)}$"):
        ExperimentConfig(**{**kw, field: value})


def test_config_validation():
    ok = dict(n=20, p=8, r=2, vary_param="omega", vary_values=(0.5, 1.0))
    ExperimentConfig(**ok)
    with pytest.raises(ValueError):
        ExperimentConfig(**{**ok, "vary_param": "bogus"})
    with pytest.raises(ValueError):
        ExperimentConfig(**{**ok, "vary_values": ()})
    with pytest.raises(ValueError):
        ExperimentConfig(**{**ok, "methods": ()})
    with pytest.raises(ValueError):
        ExperimentConfig(**{**ok, "methods": ("svd", "nope")})
    with pytest.raises(ValueError):
        ExperimentConfig(**{**ok, "methods": ("svd", "svd")})
    with pytest.raises(ValueError):
        ExperimentConfig(**{**ok, "replicates": 0})
    with pytest.raises(ValueError):
        ExperimentConfig(**{**ok, "tau_rule": "nope"})
    with pytest.raises(ValueError):
        ExperimentConfig(**{**ok, "tau_rule": -1.0})
    # swept values are validated up front
    with pytest.raises(ValueError):
        ExperimentConfig(n=20, p=8, r=2, vary_param="r", vary_values=(2, 50))


@pytest.mark.parametrize(
    "field, value",
    [("n", "abc"), ("n", math.inf), ("p", 8.5), ("kappa", "3"), ("omega", None)],
)
def test_config_checks_varied_field_base_value(field, value):
    swept = {"kappa": 3.0, "omega": 1.0}.get(field, 20)
    ok = dict(n=20, p=8, r=2, vary_param=field, vary_values=(swept,))
    with pytest.raises(ValueError, match=f"ExperimentConfig: {field}"):
        ExperimentConfig(**{**ok, field: value})
    ExperimentConfig(**ok)  # a valid base value builds


def test_config_model_at_derived_seed():
    cfg = ExperimentConfig(n=20, p=8, r=2, vary_param="omega", vary_values=(0.5,), seed=7)
    assert cfg.model_at(0.5, replicate=0).seed == 7
    assert cfg.model_at(0.5, replicate=3).seed == 10
    assert cfg.model_at(0.5).omega == 0.5


def test_config_kappa_sweep_pairs_draws():
    # replicate k shares its seed across kappa values: the bases are drawn
    # before the spectrum is set and the noise after, so only svals differ
    cfg = ExperimentConfig(n=30, p=10, r=3, vary_param="kappa", vary_values=(3.0, 100.0), seed=5)
    for k in range(3):
        a = gen_instance(cfg.model_at(3.0, k))
        b = gen_instance(cfg.model_at(100.0, k))
        assert np.array_equal(a.u_true, b.u_true)
        assert np.array_equal(a.Z, b.Z)
        assert not np.array_equal(a.svals, b.svals)
        assert a.svals[0] / a.svals[-1] == pytest.approx(3.0)
        assert b.svals[0] / b.svals[-1] == pytest.approx(100.0)


def test_resolve_tau():
    cfg = ExperimentConfig(n=16, p=16, r=2, vary_param="omega", vary_values=(1.0,))
    params = cfg.model_at(1.0)
    assert resolve_tau(cfg, params) == 8.0**2 / 16.0
    fixed = ExperimentConfig(
        n=16, p=16, r=2, vary_param="omega", vary_values=(1.0,), tau_rule=0.25
    )
    assert resolve_tau(fixed, params) == 0.25


def test_method_tags():
    assert METHOD_TAGS == ("svd", "dd", "hpca", "dhpca", "hpca_plus", "rmtfa", "si")


# ---------------------------------------------------------------- runner


def row_key(row):
    # repr keeps every bit and makes the NaN of an error row equal to itself
    return (row.method, row.param, row.value, row.replicate, repr(row.sin_theta), row.status)


def test_run_experiment_cardinality_and_order():
    cfg = ExperimentConfig(
        n=20,
        p=8,
        r=2,
        vary_param="omega",
        vary_values=(0.5, 1.0),
        methods=("svd", "rmtfa"),
        replicates=2,
        seed=116,
    )
    rows = run_experiment(cfg)
    assert len(rows) == 2 * 2 * 2
    want = [
        (v, k, m) for v in (0.5, 1.0) for k in range(2) for m in ("svd", "rmtfa")
    ]
    got = [(row.value, row.replicate, row.method) for row in rows]
    assert got == want
    for row in rows:
        assert row.param == "omega"
        assert row.status == "ok"
        assert 0.0 <= row.sin_theta <= 1.0
        assert row.wall_ms >= 0.0


def test_run_experiment_single_cell():
    cfg = ExperimentConfig(
        n=16,
        p=8,
        r=2,
        vary_param="kappa",
        vary_values=(2.0,),
        methods=("svd",),
        replicates=2,
        seed=117,
    )
    rows = run_experiment(cfg)
    assert len(rows) == 2
    assert [row.replicate for row in rows] == [0, 1]


def test_run_experiment_deterministic():
    cfg = ExperimentConfig(
        n=20,
        p=8,
        r=2,
        vary_param="omega",
        vary_values=(0.5,),
        methods=("svd", "hpca", "rmtfa"),
        replicates=3,
        seed=118,
    )
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert [row_key(r) for r in a] == [row_key(r) for r in b]


@pytest.fixture
def four_cpus(monkeypatch):
    """One BLAS thread on four CPUs: the worker cap is 4 on any host."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)


def _pool_config(**kw):
    base = dict(
        n=20,
        p=8,
        r=2,
        vary_param="omega",
        vary_values=(0.5, 1.0),
        methods=("svd", "dd"),
        replicates=2,
        seed=122,
    )
    return ExperimentConfig(**{**base, **kw})


def _clear_blas_vars(monkeypatch):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)


def _sweep_keys(cfg, jobs):
    rows = run_experiment(cfg, jobs=jobs)
    assert multiprocessing.active_children() == []
    return [row_key(r) for r in rows]


@pytest.mark.parametrize(
    "env, cpus, cap",
    [
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, 2),
        ({}, 8, 1),
        ({"OMP_NUM_THREADS": "4"}, 8, 2),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "x", "MKL_NUM_THREADS": "2"}, 8, 4),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 8, 4),
        ({"OPENBLAS_NUM_THREADS": "4"}, 2, 1),
    ],
)
def test_worker_cap_divides_cpus_by_blas_threads(monkeypatch, env, cpus, cap):
    _clear_blas_vars(monkeypatch)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    assert simlab._worker_cap() == cap
    # without an affinity call the CPU count is the total
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert simlab._worker_cap() == cap


def _record_pids(monkeypatch, path):
    real = simlab._run_cell

    def recording(config, value, replicate):
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(config, value, replicate)

    monkeypatch.setattr(simlab, "_run_cell", recording)
    return lambda: {int(line) for line in path.read_text().split()}


def test_run_experiment_jobs_run_in_worker_processes(four_cpus, monkeypatch, tmp_path):
    cfg = _pool_config()
    serial = _sweep_keys(cfg, 1)
    pids = _record_pids(monkeypatch, tmp_path / "pids.txt")
    assert _sweep_keys(cfg, 2) == serial
    seen = pids()
    assert seen and os.getpid() not in seen


def test_run_experiment_capped_jobs_run_serially(monkeypatch, tmp_path):
    # BLAS at its default thread count fills the CPUs: one worker, in process
    _clear_blas_vars(monkeypatch)
    cfg = _pool_config()
    serial = _sweep_keys(cfg, 1)
    pids = _record_pids(monkeypatch, tmp_path / "pids.txt")
    assert _sweep_keys(cfg, 2) == serial
    assert pids() == {os.getpid()}


def test_run_experiment_pool_calls_a_replaced_run_cell(four_cpus, monkeypatch):
    # perfbench's tracer swaps _run_cell for a closure, which cannot be pickled
    cfg = _pool_config()
    serial = _sweep_keys(cfg, 1)
    real = simlab._run_cell
    monkeypatch.setattr(simlab, "_run_cell", lambda *args: real(*args))
    assert _sweep_keys(cfg, 2) == serial


def test_run_experiment_pool_error_rows_match_serial(four_cpus, monkeypatch):
    def failing(sigma, arg):
        raise RuntimeError("synthetic failure")

    monkeypatch.setitem(simlab.METHODS, "dd", failing)
    cfg = _pool_config()
    serial = _sweep_keys(cfg, 1)
    assert {key[-1] for key in serial} == {"ok", "error: synthetic failure"}
    assert _sweep_keys(cfg, 2) == serial


def test_run_experiment_more_jobs_than_cells(four_cpus):
    cfg = _pool_config(vary_values=(1.0,))
    assert _sweep_keys(cfg, 8) == _sweep_keys(cfg, 1)


def test_run_experiment_parallel_matches_serial(four_cpus):
    cfg = ExperimentConfig(
        n=20,
        p=8,
        r=2,
        vary_param="omega",
        vary_values=(0.5, 1.0),
        methods=("svd", "dd"),
        replicates=3,
        seed=119,
    )
    assert _sweep_keys(cfg, 3) == _sweep_keys(cfg, 1)


def test_run_experiment_dead_worker_raises(four_cpus, monkeypatch, deadline):
    real = simlab._run_cell

    def dying(config, value, replicate):
        if replicate == 1:
            os._exit(1)  # as a worker killed for memory, or crashed in LAPACK
        return real(config, value, replicate)

    monkeypatch.setattr(simlab, "_run_cell", dying)
    with deadline(5), pytest.raises(RuntimeError, match="a worker process died"):
        run_experiment(_pool_config(), jobs=2)
    assert multiprocessing.active_children() == []


def test_run_experiment_bad_args():
    cfg = ExperimentConfig(n=16, p=8, r=2, vary_param="omega", vary_values=(1.0,))
    with pytest.raises(ValueError):
        run_experiment("nope")
    with pytest.raises(ValueError):
        run_experiment(cfg, jobs=0)


def test_run_experiment_records_solver_failure(monkeypatch):
    real = simlab._fit_basis

    def flaky(method, inst, tau):
        if method == "dd":
            raise RuntimeError("synthetic failure")
        return real(method, inst, tau)

    monkeypatch.setattr(simlab, "_fit_basis", flaky)
    cfg = ExperimentConfig(
        n=16,
        p=8,
        r=2,
        vary_param="omega",
        vary_values=(1.0,),
        methods=("svd", "dd"),
        replicates=1,
        seed=120,
    )
    rows = run_experiment(cfg)
    by_method = {row.method: row for row in rows}
    assert by_method["svd"].status == "ok"
    assert by_method["dd"].status.startswith("error:")
    assert math.isnan(by_method["dd"].sin_theta)


def test_run_experiment_rmtfa_beats_plain_svd():
    # paired desk-scale sweep at the baseline parameters
    cfg = ExperimentConfig(
        n=200,
        p=50,
        r=5,
        kappa=3.0,
        omega=1.0,
        vary_param="omega",
        vary_values=(1.0,),
        methods=("svd", "rmtfa"),
        replicates=10,
        seed=121,
    )
    rows = run_experiment(cfg)
    mean = {
        m: np.mean([row.sin_theta for row in rows if row.method == m])
        for m in ("svd", "rmtfa")
    }
    assert mean["rmtfa"] < mean["svd"]
