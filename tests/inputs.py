"""Test inputs that more than one test file draws, each defined once.

Numpy only, like ``perfbench/workloads.py``, so a generator's draws do not
depend on the package under test. ``load_perfbench`` imports a benchmark
file, so the workload pins can read the benchmark's own recipes.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    """``perfbench/<name>.py`` as a fresh module, imported without writing bytecode next to it."""
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    old, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = old
    return module


def _symmetrize(a):
    return (a + a.T) / 2.0


def random_sym(rng, p):
    """A p x p symmetric matrix with Gaussian entries."""
    return _symmetrize(rng.standard_normal((p, p)))


def random_orth(rng, p, r):
    """A p x r orthonormal basis: the Q of a Gaussian draw."""
    q, _ = np.linalg.qr(rng.standard_normal((p, r)))
    return q


def incoherent_factor_instance(rng, p=24, r=2, noise=0.05):
    """Sigma = L* + D* + W with incoherent factors and level-set eigenvalues.

    Returns ``(sigma, L*, D*, W)``. The 2*tau spectral error bound is tight
    near coherent or low-signal instances, so the planted family keeps the
    factors spread out and lambda_r well above the noise.
    """
    q = random_orth(rng, p, r)
    vals = np.sort(rng.uniform(3.0, 6.0, size=r))[::-1]
    L_true = _symmetrize((q * vals) @ q.T)
    D_true = np.diag(rng.uniform(0.5, 1.5, size=p))
    W = noise * random_sym(rng, p)
    return _symmetrize(L_true + D_true + W), L_true, D_true, W


def factor_sample_cov(seed, p, r=5):
    """The ``solve-p500`` workload's input recipe at size p, with its tau.

    The sample covariance of 2p draws of a rank-r factor model with a
    U[0.5, 1.5] noise diagonal, and ``tau = 0.02 * lambda_1(poffdiag(sigma))``.
    ``test_solve_p500_op_work_is_pinned`` checks it against the workload's
    own ``sigma`` and ``tau`` at p = 500, bit for bit.
    """
    n = 2 * p
    rng = np.random.default_rng([seed, 500])
    loadings = rng.standard_normal((p, r))
    factors = rng.standard_normal((n, r))
    noise_var = rng.uniform(0.5, 1.5, p)
    x = factors @ loadings.T + rng.standard_normal((n, p)) * np.sqrt(noise_var)
    sigma = _symmetrize(x.T @ x / n)
    off = sigma.copy()
    np.fill_diagonal(off, 0.0)
    return sigma, 0.02 * float(np.linalg.eigvalsh(off)[-1])
