"""The benchmark's workloads.

Each workload makes its inputs from the workload seed in ``setup``, runs
one op at a time through the package, and checks every op's output itself,
with its own numpy code, instead of trusting the package's flags. The
checks use ``numpy.linalg.eigh`` as captured at import, so they never show
up in a traced run's spans. ``corrupt`` damages an op's output the way a
wrong result would look; the self-test uses it to show that verification
catches it.
"""

import contextlib
import io
import json
import math
import os

import numpy as np

from hetero_spectra import cli, solvers

_eigh = np.linalg.eigh
_eigvalsh = np.linalg.eigvalsh

# ||L - prox(sigma - D)||_F allowed, relative to max(1, ||L||_F). The stop
# rule halts at a relative step of 1e-10, and the converged residuals of both
# solve workloads measure about 1e-10 relative or less.
FIXED_POINT_TOL = 1e-8

# rMTFA iterations the tau path allows per solve (the criterion-6 stop rule)
PATH_STOP = solvers.StopRule(rel_tol=1e-10, max_iter=300000)


def _offdiag(m):
    out = m.copy()
    np.fill_diagonal(out, 0.0)
    return out


def _prox_psd(m, tau):
    w, v = _eigh(m)
    keep = w > tau
    return (v[:, keep] * (w[keep] - tau)) @ v[:, keep].T


def _fixed_point_ok(sigma, L, D, tau):
    resid = np.linalg.norm(L - _prox_psd(sigma - D, tau))
    return resid <= FIXED_POINT_TOL * max(1.0, float(np.linalg.norm(L)))


def _read_csv_matrix(path, p):
    with open(path, encoding="utf-8") as fh:
        values = np.array(fh.read().replace(",", " ").split(), dtype=float)
    return values.reshape(p, p)


def _criterion6_gram(rng):
    """Row-normalised Gram matrix of a 12 x 14 Gaussian draw (criterion 6)."""
    b = rng.standard_normal((12, 14))
    b /= np.linalg.norm(b, axis=1, keepdims=True)
    g = b @ b.T
    return (g + g.T) / 2.0


class SolveP500:
    """One ``solve --method rmtfa`` through ``cli.main`` on a CSV input.

    The input is the sample covariance (2p draws) of a rank-5 factor model
    with a U[0.5, 1.5] noise diagonal; ``tau = 0.02 * lambda_1(poffdiag(S))``.
    """

    name = "solve-p500"
    jobs = 1
    rmtfa_only = True

    def __init__(self, seed, workdir, tiny=False):
        self.seed = seed
        self.workdir = workdir
        self.p = 40 if tiny else 500

    def setup(self):
        p, n = self.p, 2 * self.p
        rng = np.random.default_rng([self.seed, 500])
        loadings = rng.standard_normal((p, 5))
        factors = rng.standard_normal((n, 5))
        noise_var = rng.uniform(0.5, 1.5, p)
        x = factors @ loadings.T + rng.standard_normal((n, p)) * np.sqrt(noise_var)
        s = x.T @ x / n
        self.sigma = (s + s.T) / 2.0
        self.tau = 0.02 * float(_eigvalsh(_offdiag(self.sigma))[-1])
        self.input = os.path.join(self.workdir, "sigma.csv")
        self.out = os.path.join(self.workdir, "fit")
        np.savetxt(self.input, self.sigma, fmt="%.17g", delimiter=",")
        self.argv = [
            "solve",
            "--input",
            self.input,
            "--method",
            "rmtfa",
            "--tau",
            repr(self.tau),
            "--out",
            self.out,
        ]
        # warm-up: one untimed solve
        rc = self.op(None)
        if rc != 0:
            raise RuntimeError(f"solve-p500: warm-up solve exited with {rc}")

    def op_input(self, i):
        return None

    def op(self, _):
        return cli.main(self.argv)

    def verify(self, _, rc):
        if rc != 0:
            return False
        with open(os.path.join(self.out, "summary.json"), encoding="utf-8") as fh:
            if json.load(fh).get("converged") is not True:
                return False
        L = _read_csv_matrix(os.path.join(self.out, "L.csv"), self.p)
        D = _read_csv_matrix(os.path.join(self.out, "D.csv"), self.p)
        w = _eigvalsh(L)
        psd = w[0] >= -1e-9 * max(1.0, float(w[-1]))
        d_exact = np.array_equal(D, np.diag(np.diagonal(self.sigma - L)))
        return bool(psd and d_exact and _fixed_point_ok(self.sigma, L, D, self.tau))

    def corrupt(self, rc):
        path = os.path.join(self.out, "L.csv")
        L = _read_csv_matrix(path, self.p)
        L[0, 0] += 1e-3
        np.savetxt(path, L, fmt="%.17g", delimiter=",")
        return rc


class TauPathP12:
    """The criterion-6 exact-fit path at p = 12: cold rMTFA solves down a tau ladder.

    Op ``i`` draws its own row-normalised Gram matrix (the criterion-6
    generator) from ``(seed, i)``, so a run averages over many matrices.
    """

    name = "tau-path-p12"
    jobs = 1
    rmtfa_only = True
    p = 12

    def __init__(self, seed, workdir, tiny=False):
        self.seed = seed
        # the ladder stops at 3e-3: an op costs about 3.8k iterations, so a
        # run averages about 80 matrices and its median barely depends on
        # the seed (see README.md, "Choices made for steadiness")
        self.taus = (1e-1, 1e-2) if tiny else (1e-1, 1e-2, 3e-3)
        # criterion 6 asks the off-diagonal residual to fall 100x over three
        # decades of tau; ask for the same fall per decade
        decades = math.log10(self.taus[0] / self.taus[-1])
        self.max_ratio = 0.01 ** (decades / 3.0)

    def setup(self):
        # warm-up: one short solve on a matrix no op uses
        warm = _criterion6_gram(np.random.default_rng([self.seed, 13]))
        solvers.rmtfa(warm, self.taus[0], stop=PATH_STOP)

    def op_input(self, i):
        return _criterion6_gram(np.random.default_rng([self.seed, 12, i]))

    def op(self, sigma):
        return [solvers.rmtfa(sigma, tau, stop=PATH_STOP)[0] for tau in self.taus]

    def verify(self, sigma, decs):
        offs = []
        for dec, tau in zip(decs, self.taus):
            if not dec.converged or not _fixed_point_ok(sigma, dec.L, dec.D, tau):
                return False
            offs.append(float(np.linalg.norm(_offdiag(sigma - dec.L))))
        decreasing = all(b < a for a, b in zip(offs, offs[1:]))
        return decreasing and offs[-1] / offs[0] < self.max_ratio

    def corrupt(self, decs):
        decs[-1].L = decs[0].L.copy()
        return decs


class SweepDesk:
    """One ``simulate --jobs 2`` through ``cli.main`` on the criterion-10 config.

    Every op of a run sweeps the same config, so its CSV must match, byte
    for byte, the ``--jobs 1`` reference made in ``setup``.
    """

    name = "sweep-desk"
    jobs = 2
    rmtfa_only = False

    def __init__(self, seed, workdir, tiny=False):
        self.workdir = workdir
        if tiny:
            model = dict(n=40, p=12, r=2, replicates=1)
        else:
            model = dict(n=200, p=50, r=5, replicates=4)
        self.config = dict(
            model,
            kappa=3.0,
            omega=1.0,
            vary={"param": "kappa", "values": [3.0, 100.0]},
            methods=["svd", "dd", "hpca", "dhpca", "hpca_plus", "rmtfa", "si"],
            # replicate k draws from seed + k: keep the runs of nearby seeds disjoint
            seed=1000 * seed,
        )
        self.rows = 2 * model["replicates"] * 7
        self.p = model["p"]

    def setup(self):
        self.config_path = os.path.join(self.workdir, "sweep.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(self.config, fh)
        ref = os.path.join(self.workdir, "reference.csv")
        rc = self._simulate(ref, 1)
        if rc != 0:
            raise RuntimeError(f"sweep-desk: --jobs 1 reference exited with {rc}")
        with open(ref, "rb") as fh:
            self.reference = fh.read()
        if not self._rows_ok(self.reference):
            raise RuntimeError("sweep-desk: --jobs 1 reference has rows that are not ok")
        self.out = os.path.join(self.workdir, "results.csv")

    def _simulate(self, out, jobs):
        argv = ["simulate", "--config", self.config_path, "--out", out, "--jobs", str(jobs)]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def _rows_ok(self, data):
        lines = data.decode("utf-8").splitlines()
        rows = [ln for ln in lines[2:] if ln]
        return len(rows) == self.rows and all(ln.rsplit(",", 1)[1] == "ok" for ln in rows)

    def op_input(self, i):
        return None

    def op(self, _):
        return self._simulate(self.out, self.jobs)

    def verify(self, _, rc):
        if rc != 0:
            return False
        with open(self.out, "rb") as fh:
            data = fh.read()
        return data == self.reference and self._rows_ok(data)

    def corrupt(self, rc):
        with open(self.out, "rb") as fh:
            data = bytearray(fh.read())
        i = data.index(b",ok\n")
        data[i - 1 : i] = b"9" if data[i - 1 : i] != b"9" else b"8"
        with open(self.out, "wb") as fh:
            fh.write(bytes(data))
        return rc


WORKLOADS = {w.name: w for w in (SolveP500, TauPathP12, SweepDesk)}
