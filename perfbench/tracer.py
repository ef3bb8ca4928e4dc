"""In-memory span tracer for the traced benchmark run.

Spans are taken around calls into the package's entry points by replacing
module attributes for the length of one traced run (``Tracer.installed``)
and putting the originals back afterwards; the package source is not
instrumented. Each span records its name, start, end, parent span, thread
and op, plus two numeric notes (for example the matrix size of an
eigensolve). Every thread appends packed records to its own buffer, so
recording takes no lock. ``layer_metrics`` turns the spans into the per-layer metrics
listed in ``BENCHMARK.json``.
"""

import contextlib
import itertools
import struct
import threading
import time

import numpy as np

from hetero_spectra import cli, shrinkage, simlab, solvers

_perf = time.perf_counter

SOFT_KINDS = ("psd_soft", "sym_soft")
FIT_TAGS = simlab.METHOD_TAGS

# one closed span: id, name, parent id, op, start, end, two notes
_RECORD = struct.Struct("=4q4d")
_RECORD_DTYPE = np.dtype(
    [(key, np.int64) for key in ("sid", "name", "parent", "op")]
    + [(key, np.float64) for key in ("t0", "t1", "a", "b")]
)


class _Buffer:
    """Packed records of the spans one thread has closed, plus its open stack."""

    def __init__(self, thread):
        self.thread = thread
        self.stack = []
        self.data = bytearray()


class Tracer:
    """Records spans from any thread; ``op`` is the id of the op in progress."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self._local = threading.local()
        self._buffers = []
        self._ids = itertools.count(1)
        self._main = self._buffer()
        self.op = -1

    def name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _buffer(self):
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer(len(self._buffers))
            self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def wrap(self, name, fn, note=None, cpu=False):
        """Return ``fn`` wrapped in a span.

        ``name`` is a span name, or a callable mapping the call's positional
        arguments to one. ``note(args, out)`` returns the span's two numeric
        notes; with ``cpu=True`` the first note is the thread CPU time spent
        in the call instead. The wrapper is kept short: it runs on every
        iteration of the small-p solves.
        """
        fixed = None if callable(name) else self.name_id(name)
        local = self._local
        main_stack = self._main.stack
        next_id = self._ids.__next__
        thread_time = time.thread_time
        pack = _RECORD.pack

        def traced(*args, **kwargs):
            nid = fixed if fixed is not None else self.name_id(name(args))
            try:
                buf = local.buf
            except AttributeError:
                buf = self._buffer()
            stack = buf.stack
            sid = next_id()
            if stack:
                parent = stack[-1]
            elif main_stack and stack is not main_stack:
                # first span of a worker thread: caused by the main thread's open span
                parent = main_stack[-1]
            else:
                parent = 0
            stack.append(sid)
            c0 = thread_time() if cpu else 0.0
            t0 = _perf()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                buf.data.extend(pack(sid, nid, parent, self.op, t0, _perf(), 0.0, 0.0))
                raise
            t1 = _perf()
            stack.pop()
            a, b = note(args, out) if note is not None else (0.0, 0.0)
            if cpu:
                a = thread_time() - c0
            buf.data.extend(pack(sid, nid, parent, self.op, t0, t1, a, b))
            return out

        return traced

    def run_op(self, op, fn, *args):
        """Run one op under a root span named ``op``."""
        self.op = op
        try:
            return self.wrap("op", fn)(*args)
        finally:
            self.op = -1

    @contextlib.contextmanager
    def installed(self):
        """Replace every patch point with a traced wrapper; restore on exit."""
        saved = []
        try:
            for module, attr, name, note, cpu in _patch_points():
                orig = getattr(module, attr)
                saved.append((module, attr, orig))
                setattr(module, attr, self.wrap(name, orig, note, cpu))
            yield self
        finally:
            for module, attr, orig in reversed(saved):
                setattr(module, attr, orig)

    def spans(self):
        """All closed spans as numpy columns, ordered by span id."""
        bufs = self._buffers
        rec = np.concatenate([np.frombuffer(bytes(b.data), dtype=_RECORD_DTYPE) for b in bufs])
        thread = np.concatenate(
            [np.full(len(b.data) // _RECORD.size, b.thread, dtype=np.int64) for b in bufs]
        )
        order = np.argsort(rec["sid"], kind="stable")
        cols = {key: rec[key][order] for key in _RECORD_DTYPE.names}
        cols["thread"] = thread[order]
        return cols

    def save(self, path):
        """Write the spans out as an ``.npz`` of columns plus the name table."""
        np.savez(path, names=np.array(self.names), **self.spans())


def _note_p(args, out):
    return float(args[0].shape[-1]), 0.0


def _note_prox(args, out):
    return float(out[1].size), float(args[1].shape[-1])


def _note_solve(args, out):
    # b: 1 capped (tolerance stop missed), 0 converged, -1 fixed iteration budget
    dec = out[0]
    prox = args[1]
    if prox.kind not in SOFT_KINDS:
        return float(dec.iterations), -1.0
    return float(dec.iterations), 0.0 if dec.converged else 1.0


def _fit_name(args):
    return f"simlab.fit.{args[0]}"


def _patch_points():
    """(module, attribute, span name, note, cpu) for every traced call site.

    Span names start with the layer the called function belongs to.
    """
    points = [
        (np.linalg, "eigh", "matcore.eigh", _note_p, False),
        (np.linalg, "eigvalsh", "matcore.eigvalsh", _note_p, False),
        (shrinkage, "eig_sym", "matcore.eig_sym", None, False),
        (solvers, "eig_sym", "matcore.eig_sym", None, False),
        (solvers, "_prox_with_spectrum", "shrinkage.prox", _note_prox, False),
        (solvers, "pdiag", "matcore.pdiag", None, False),
        (solvers, "poffdiag", "matcore.poffdiag", None, False),
        (solvers, "alternating_solve", "solvers.alternating_solve", _note_solve, False),
        (simlab, "_run_cell", "simlab.cell", None, False),
        (simlab, "gen_instance", "simlab.gen_instance", None, False),
        (simlab, "_fit_basis", _fit_name, None, True),
        (simlab, "sin_theta", "metrics.sin_theta", None, False),
        (cli, "main", "cli.main", None, False),
        (cli, "cmd_simulate", "cli.cmd_simulate", None, False),
        (cli, "run_experiment", "simlab.run_experiment", None, False),
        (cli, "parse_matrix", "cli.parse_matrix", None, False),
        (cli, "write_matrix_csv", "cli.write_matrix_csv", None, False),
        (cli, "objective_F", "solvers.objective_F", None, False),
        (cli, "numerical_rank_sym", "solvers.numerical_rank_sym", None, False),
        (cli, "apply_prox", "shrinkage.apply_prox", None, False),
    ]
    for attr in (
        "rmtfa",
        "soft_impute_diag",
        "heteropca",
        "deflated_heteropca",
        "heteropca_psd",
        "diag_deleted_pca",
        "pca_baseline",
        "extract_subspace",
    ):
        points.append((simlab, attr, f"solvers.{attr}", None, False))
    for attr in (
        "rmtfa",
        "soft_impute_diag",
        "heteropca",
        "deflated_heteropca",
        "_heteropca_psd_run",
        "diag_deleted_pca",
    ):
        points.append((cli, attr, f"solvers.{attr}", None, False))
    return points


LAYERS = ("cli", "simlab", "solvers", "shrinkage", "matcore", "metrics")

# every per-layer metric with its unit; "/op" ones are totals per traced op
LAYER_UNITS = {
    "matcore.eig_calls": "count/op",
    "matcore.eig_s": "s/op",
    "matcore.eig_p3": "p3/op",
    "matcore.eigh_call_s": "s",
    "matcore.eig_sym_self_s": "s/op",
    "shrinkage.prox_self_s": "s/op",
    "shrinkage.kept_frac": "frac",
    "solvers.iterations": "count/op",
    "solvers.iter_s": "s",
    "solvers.refit_s": "s/op",
    "solvers.self_s": "s/op",
    "solvers.capped_frac": "frac",
    "solvers.capped_eig_frac": "frac",
    "solvers.heteropca_s": "s/op",
    **{f"simlab.fit_s.{tag}": "s/op" for tag in FIT_TAGS},
    "simlab.gen_instance_s": "s/op",
    "simlab.parallel_eff": "frac",
    "metrics.sin_theta_s": "s/op",
    "cli.parse_s": "s/op",
    "cli.write_s": "s/op",
    "cli.summary_s": "s/op",
    **{f"self_s.{name}": "s/op" for name in LAYERS},
    "self_s.unattributed": "s/op",
    "traced_op_s": "s/op",
    "trace_overhead_frac": "frac",
}


def _attribute(t0, t1, thread, rows, xparent, share):
    """Split the wall time of one op among its spans (rows), into ``share``.

    At each instant the innermost open span of every thread is charged,
    except a span whose worker-thread children are running (it is waiting
    on them); concurrent charged spans share the instant equally. Within a
    single thread this is the usual self time, and the shares of one op sum
    to the op's wall time.
    """
    n = len(rows)
    times = t0[rows].tolist() + t1[rows].tolist()
    # events 0..n-1 open a span, n..2n-1 close one; closes sort first on ties
    order = np.lexsort((np.repeat([1, 0], n), times)).tolist()
    rows = rows.tolist()
    stacks = {}
    prev = times[order[0]]
    for e in order:
        t = times[e]
        dt = t - prev
        if dt > 0.0:
            live = [s[-1] for s in stacks.values() if s]
            if len(live) == 1:
                share[live[0]] += dt
            elif live:
                waiting = {xparent[s[0]] for s in stacks.values() if s}
                live = [r for r in live if r not in waiting]
                for r in live:
                    share[r] += dt / len(live)
        prev = t
        if e < n:
            r = rows[e]
            stacks.setdefault(thread[r], []).append(r)
        else:
            stacks[thread[rows[e - n]]].pop()


def layer_metrics(tracer, jobs):
    """Per-layer metrics, per traced op, from the recorded spans.

    ``jobs`` is the number of worker threads the workload's sweeps use
    (for ``simlab.parallel_eff``).
    """
    sp = tracer.spans()
    names = tracer.names
    ids = {n: i for i, n in enumerate(names)}
    dur = sp["t1"] - sp["t0"]
    # spans are ordered by id, so a parent's row is found by bisection
    parent_row = np.searchsorted(sp["sid"], sp["parent"])
    parent_row[sp["parent"] == 0] = -1
    has_parent = parent_row >= 0

    def where(*wanted):
        return np.isin(sp["name"], [ids[n] for n in wanted if n in ids])

    root = where("op")
    n_ops = int(np.sum(root))

    # same-thread child time, for self times
    same = has_parent & (sp["thread"] == sp["thread"][np.maximum(parent_row, 0)])
    child = np.bincount(parent_row[same], weights=dur[same], minlength=len(dur))
    self_time = dur - child

    eig = where("matcore.eigh", "matcore.eigvalsh")
    eigh = where("matcore.eigh")
    alt = where("solvers.alternating_solve")
    prox = where("shrinkage.prox")
    refit = where("matcore.pdiag", "matcore.poffdiag") & has_parent
    refit &= alt[np.maximum(parent_row, 0)]
    tol_solves = alt & (sp["b"] >= 0)
    capped = alt & (sp["b"] == 1)

    # nearest enclosing alternating_solve of every span, by walking parents
    solve_of = np.where(alt, np.arange(len(dur)), -1)
    up = parent_row.copy()
    while True:
        open_ = (solve_of < 0) & (up >= 0)
        if not open_.any():
            break
        hit = open_ & alt[np.maximum(up, 0)]
        solve_of[hit] = up[hit]
        up = np.where(open_ & ~hit, parent_row[np.maximum(up, 0)], -1)
    eig_in_capped = eig & (solve_of >= 0) & capped[np.maximum(solve_of, 0)]

    iterations = float(np.sum(sp["a"][alt]))
    n_eig = int(np.sum(eig))
    n_eigh = int(np.sum(eigh))
    run_exp = where("simlab.run_experiment")
    fits = where(*(f"simlab.fit.{tag}" for tag in FIT_TAGS))

    # results-CSV write of `simulate`: end of run_experiment to end of cmd_simulate
    write_results = 0.0
    for r in np.flatnonzero(run_exp & has_parent):
        p = parent_row[r]
        if names[sp["name"][p]] == "cli.cmd_simulate":
            write_results += sp["t1"][p] - sp["t1"][r]

    def per_op(x):
        return float(x) / n_ops

    out = {
        "matcore.eig_calls": per_op(n_eig),
        "matcore.eig_s": per_op(np.sum(dur[eig])),
        "matcore.eig_p3": per_op(np.sum(sp["a"][eig] ** 3)),
        "matcore.eigh_call_s": float(np.sum(dur[eigh])) / n_eigh if n_eigh else 0.0,
        "matcore.eig_sym_self_s": per_op(np.sum(self_time[where("matcore.eig_sym")])),
        "shrinkage.prox_self_s": per_op(np.sum(self_time[prox])),
        "shrinkage.kept_frac": float(np.mean(sp["a"][prox] / sp["b"][prox])) if prox.any() else 0.0,
        "solvers.iterations": per_op(iterations),
        "solvers.iter_s": float(np.sum(dur[alt])) / iterations if iterations else 0.0,
        "solvers.refit_s": per_op(np.sum(dur[refit])),
        "solvers.self_s": per_op(np.sum(self_time[alt])),
        "solvers.capped_frac": (
            float(np.sum(capped)) / float(np.sum(tol_solves)) if tol_solves.any() else 0.0
        ),
        "solvers.capped_eig_frac": float(np.sum(eig_in_capped)) / n_eig if n_eig else 0.0,
        "solvers.heteropca_s": per_op(
            np.sum(dur[where("solvers.heteropca", "solvers.deflated_heteropca")])
        ),
    }
    for tag in FIT_TAGS:
        out[f"simlab.fit_s.{tag}"] = per_op(np.sum(dur[where(f"simlab.fit.{tag}")]))
    wall = float(np.sum(dur[run_exp]))
    out["simlab.gen_instance_s"] = per_op(np.sum(dur[where("simlab.gen_instance")]))
    out["simlab.parallel_eff"] = float(np.sum(sp["a"][fits])) / (jobs * wall) if wall else 0.0
    out["metrics.sin_theta_s"] = per_op(np.sum(dur[where("metrics.sin_theta")]))
    out["cli.parse_s"] = per_op(np.sum(dur[where("cli.parse_matrix")]))
    out["cli.write_s"] = per_op(np.sum(dur[where("cli.write_matrix_csv")]) + write_results)
    out["cli.summary_s"] = per_op(
        np.sum(
            dur[
                where("solvers.objective_F", "solvers.numerical_rank_sym", "shrinkage.apply_prox")
            ]
        )
    )

    # wall-time split of every op over the layers; the op span itself is
    # the unattributed remainder
    xparent = np.where(same | ~has_parent, -1, parent_row).tolist()
    thread = sp["thread"].tolist()
    share = [0.0] * len(dur)
    for op in np.unique(sp["op"]):
        _attribute(sp["t0"], sp["t1"], thread, np.flatnonzero(sp["op"] == op), xparent, share)
    groups = LAYERS + ("op",)
    group_of_name = np.array([groups.index(n.split(".", 1)[0]) for n in names])
    per_group = np.bincount(group_of_name[sp["name"]], weights=share, minlength=len(groups))
    for name, total in zip(LAYERS, per_group):
        out[f"self_s.{name}"] = per_op(total)
    out["self_s.unattributed"] = per_op(per_group[-1])
    out["traced_op_s"] = per_op(np.sum(dur[root]))
    return out
