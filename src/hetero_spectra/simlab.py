"""Seeded synthetic instances and the Monte-Carlo sweep runner.

An instance is a planted low-rank signal observed through heteroskedastic
noise: Y = M + Z with M of rank r and Z row-scaled Gaussian. Solvers are
scored by the sin-theta distance between their leading-r subspace and the
planted one. Everything is driven by one PCG64 stream per replicate so a
(config, seed) pair reproduces its rows exactly.
"""

import os
import time
import warnings
from collections.abc import Iterable, Mapping, Set
from dataclasses import dataclass

import numpy as np

from .matcore import _as_array, _as_int, _as_real, _orient, symmetrize
from .metrics import ledermann_bound, sin_theta
from .solvers import METHOD_TAGS, METHODS, SOFT_METHODS, extract_subspace

# the fits run through METHODS; these names stay importable here because
# perfbench/tracer.py patches them on this module
from .solvers import (  # noqa: F401
    deflated_heteropca,
    diag_deleted_pca,
    heteropca,
    heteropca_psd,
    pca_baseline,
    rmtfa,
    soft_impute_diag,
)

__all__ = [
    "ModelParams",
    "Instance",
    "ResultRow",
    "ExperimentConfig",
    "METHOD_TAGS",
    "gen_signal",
    "gen_noise",
    "gen_instance",
    "gen_masked",
    "resolve_tau",
    "run_experiment",
]

VARY_PARAMS = ("n", "p", "r", "kappa", "omega")


@dataclass(frozen=True)
class ModelParams:
    """Shape of one synthetic instance.

    n samples, p variables, planted rank r, spectrum condition number
    kappa >= 1 and noise-scale ceiling omega > 0. The signal spectrum is
    pinned at ``sigma_r = (n*p)**0.25 + sqrt(p)`` with the remaining
    values log-spaced up to ``kappa * sigma_r``.
    """

    n: int
    p: int
    r: int
    kappa: float = 1.0
    omega: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name in ("n", "p", "r"):
            value = _as_int(getattr(self, name), f"ModelParams: {name}", lo=1)
            object.__setattr__(self, name, value)
        if self.r > min(self.n, self.p):
            raise ValueError(
                f"ModelParams: r = {self.r} exceeds min(n, p) = {min(self.n, self.p)}"
            )
        object.__setattr__(self, "kappa", _as_real(self.kappa, "ModelParams: kappa", ge=1))
        object.__setattr__(self, "omega", _as_real(self.omega, "ModelParams: omega", gt=0))
        if self.r == 1 and self.kappa != 1.0:
            raise ValueError("ModelParams: r = 1 admits no spread, kappa must be 1")
        object.__setattr__(self, "seed", _as_int(self.seed, "ModelParams: seed"))
        if self.r > ledermann_bound(self.p):
            warnings.warn(
                f"r = {self.r} exceeds the identifiability bound "
                f"{ledermann_bound(self.p):.6g} at p = {self.p}",
                stacklevel=2,
            )

    def sigma_r(self):
        """Smallest planted singular value, fixed by (n, p)."""
        return (self.n * self.p) ** 0.25 + self.p**0.5


@dataclass(frozen=True)
class Instance:
    """One drawn instance: signal M, noise Z, data Y = M + Z, sigma = Y Y^T."""

    params: ModelParams
    M: np.ndarray
    Z: np.ndarray
    Y: np.ndarray
    sigma: np.ndarray
    u_true: np.ndarray
    svals: np.ndarray


@dataclass(frozen=True)
class ResultRow:
    """One scored (method, sweep value, replicate) cell.

    ``param`` names the varied model parameter and ``value`` its setting.
    ``sin_theta`` is NaN when ``status`` records a solver error.
    """

    method: str
    param: str
    value: float
    replicate: int
    sin_theta: float
    wall_ms: float
    status: str


def _as_tuple(x, field, items):
    """``x`` as a tuple, if it is an ordered iterable: not a string, a mapping or a set."""
    if isinstance(x, Iterable) and not isinstance(x, (str, bytes, Mapping, Set)):
        return tuple(x)
    raise ValueError(f"ExperimentConfig: {field} takes a sequence of {items}, not {x!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative sweep: a base model, one varied parameter, methods, seeds."""

    n: int
    p: int
    r: int
    vary_param: str
    vary_values: tuple
    kappa: float = 1.0
    omega: float = 1.0
    methods: tuple = METHOD_TAGS
    replicates: int = 10
    seed: int = 0
    tau_rule: object = "sigma_r_sq_over_16"

    def __post_init__(self):
        if self.vary_param not in VARY_PARAMS:
            raise ValueError(
                f"ExperimentConfig: vary_param must be one of {VARY_PARAMS}, got {self.vary_param!r}"
            )
        # the sweep replaces the varied field's base value, so only its type is checked
        rule = _as_int if self.vary_param in ("n", "p", "r") else _as_real
        rule(getattr(self, self.vary_param), f"ExperimentConfig: {self.vary_param}")
        values = _as_tuple(self.vary_values, "vary_values", "values")
        if not values:
            raise ValueError("ExperimentConfig: vary_values must be non-empty")
        object.__setattr__(self, "vary_values", values)
        methods = _as_tuple(self.methods, "methods", "tags")
        if not methods:
            raise ValueError("ExperimentConfig: methods must be non-empty")
        for m in methods:
            if m not in METHOD_TAGS:
                raise ValueError(f"ExperimentConfig: unknown method {m!r}")
        if len(set(methods)) != len(methods):
            raise ValueError("ExperimentConfig: duplicate method tags")
        object.__setattr__(self, "methods", methods)
        replicates = _as_int(self.replicates, "ExperimentConfig: replicates", lo=1)
        object.__setattr__(self, "replicates", replicates)
        object.__setattr__(self, "seed", _as_int(self.seed, "ExperimentConfig: seed"))
        if isinstance(self.tau_rule, str):
            if self.tau_rule != "sigma_r_sq_over_16":
                raise ValueError(f"ExperimentConfig: unknown tau_rule {self.tau_rule!r}")
        else:
            t = _as_real(self.tau_rule, "ExperimentConfig: tau_rule", gt=0)
            object.__setattr__(self, "tau_rule", t)
        # every swept setting must give a valid model; fail before running
        for v in values:
            self.model_at(v)

    def model_at(self, value, replicate=0):
        """ModelParams for one sweep value and replicate index."""
        base = dict(n=self.n, p=self.p, r=self.r, kappa=self.kappa, omega=self.omega)
        base[self.vary_param] = value
        return ModelParams(seed=self.seed + replicate, **base)


def gen_signal(params, rng):
    """Draw the planted low-rank signal.

    The singular bases come from a p x n standard Gaussian draw and the
    spectrum is set to ``sigma_{r-i} = kappa**(i/(r-1)) * sigma_r``, so the
    largest-to-smallest ratio is exactly kappa.

    Returns
    -------
    (M, U, svals) : (p, n) signal, (p, r) left basis, descending spectrum.
    """
    if not isinstance(params, ModelParams):
        raise ValueError("gen_signal: params must be ModelParams")
    p, n, r = params.p, params.n, params.r
    raw = rng.standard_normal((p, n))
    u, _, vh = np.linalg.svd(raw, full_matrices=False)
    U = u[:, :r]
    V = vh[:r].T
    # deterministic orientation, the eigensolver's convention
    V[:, _orient(U)] *= -1.0
    expo = np.arange(r - 1, -1, -1) / max(r - 1, 1)
    svals = params.kappa**expo * params.sigma_r()
    M = (U * svals) @ V.T
    return M, U, svals


def gen_noise(params, rng):
    """Heteroskedastic noise: row i is N(0, w_i^2) with w_i ~ U[0, omega]."""
    if not isinstance(params, ModelParams):
        raise ValueError("gen_noise: params must be ModelParams")
    scales = rng.uniform(0.0, params.omega, params.p)
    return scales[:, None] * rng.standard_normal((params.p, params.n))


def gen_instance(params):
    """Draw a full instance from ``params.seed`` (signal first, then noise)."""
    rng = np.random.default_rng(params.seed)
    M, U, svals = gen_signal(params, rng)
    Z = gen_noise(params, rng)
    Y = M + Z
    sigma = symmetrize(Y @ Y.T)
    return Instance(params=params, M=M, Z=Z, Y=Y, sigma=sigma, u_true=U, svals=svals)


def gen_masked(y, theta, rng):
    """Zero out entries of ``y`` independently with probability ``theta``.

    Returns
    -------
    (masked, observed) : the masked copy and the boolean keep-mask.
    """
    y = _as_array(y, "gen_masked: y")
    theta = _as_real(theta, "gen_masked: theta", gt=0, lt=1)
    observed = rng.uniform(size=y.shape) >= theta
    masked = np.where(observed, y, 0.0)
    return masked, observed


def resolve_tau(config, params):
    """Shrinkage level for one model: the named rule or an explicit number."""
    if isinstance(config.tau_rule, str):
        return params.sigma_r() ** 2 / 16.0
    return float(config.tau_rule)


def _fit_basis(method, inst, tau):
    r = inst.params.r
    dec, _ = METHODS[method](inst.sigma, tau if method in SOFT_METHODS else r)
    return extract_subspace(dec, r)


class _WorkerDied(RuntimeError):
    """A worker process of a pooled sweep exited before its cell finished."""


def _run_cell(config, value, replicate):
    inst = gen_instance(config.model_at(value, replicate))
    tau = resolve_tau(config, inst.params)
    rows = []
    for method in config.methods:
        t0 = time.perf_counter()
        try:
            basis = _fit_basis(method, inst, tau)
            score = sin_theta(basis, inst.u_true)
            status = "ok"
        except Exception as exc:  # a failed solver must not sink the sweep
            score = float("nan")
            status = f"error: {exc}"
        wall_ms = (time.perf_counter() - t0) * 1000.0
        rows.append(
            ResultRow(
                method=method,
                param=config.vary_param,
                value=float(value),
                replicate=replicate,
                sin_theta=score,
                wall_ms=wall_ms,
                status=status,
            )
        )
    return rows


def _cell_rows(task):
    # the pool maps this, not _run_cell: a replaced simlab._run_cell (a
    # closure, say) cannot be pickled, but forked workers call it through
    # the module global
    return _run_cell(*task)


def _worker_cap():
    """Most workers whose BLAS threads together fit on this process's CPUs."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    blas_threads = cpus
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            n = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if n > 0:
            blas_threads = n
            break
    return max(1, cpus // blas_threads)


def run_experiment(config, jobs=1):
    """Score every (sweep value, replicate, method) cell of a config.

    Replicate k draws its instance from ``config.seed + k``, so rows are
    reproducible for a fixed config regardless of ``jobs``. Rows are
    ordered by sweep value, then replicate, then method.

    Parameters
    ----------
    config : ExperimentConfig
    jobs : int
        Most worker processes. The pool gets at most one worker per cell
        and at most CPUs // BLAS threads, the BLAS count being the first
        positive integer among ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS``
        and ``MKL_NUM_THREADS``, else the CPU count; one worker runs the
        sweep in the calling process. Workers are forked where the platform
        can fork, and all of them have exited when this returns. A worker
        that dies (killed, or crashed in native code) stops the others and
        raises ``RuntimeError``.

    Returns
    -------
    list[ResultRow]
    """
    if not isinstance(config, ExperimentConfig):
        raise ValueError("run_experiment: config must be an ExperimentConfig")
    jobs = _as_int(jobs, "run_experiment: jobs", lo=1)
    cells = [(config, v, k) for v in config.vary_values for k in range(config.replicates)]
    workers = min(jobs, len(cells), _worker_cap())
    if workers == 1:
        per_cell = [_run_cell(*cell) for cell in cells]
    else:
        # imported here, not at the top: only this branch needs them
        import multiprocessing
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

        # forked workers start with numpy and the package loaded, and call
        # whatever the caller's module globals hold
        fork = "fork" in multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context("fork" if fork else None)
        try:
            with ProcessPoolExecutor(workers, mp_context=ctx) as pool:
                per_cell = list(pool.map(_cell_rows, cells))
        except BrokenProcessPool:
            raise _WorkerDied(
                "run_experiment: a worker process died before its cell finished"
            ) from None
    return [row for rows in per_cell for row in rows]
